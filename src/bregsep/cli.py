"""Command line front end for mixing, separation, sweeps, and scoring.

Subcommands:
    mix        build an SNR-controlled two-source mixture from WAV files
    separate   run one algorithm on a mixture and report SDR and SDRi
    sweep      grid-search divergence settings and step sizes over a manifest
    eval       SDR of an estimate WAV against a reference WAV

Every option can also come from a config file (key=value lines under a
[common] section or a per-subcommand section); explicit flags win over the
file, the file wins over built-in defaults. Metric rows use one fixed CSV
schema, floats are printed with six decimals, and rows are emitted in a
deterministic sort order, so repeated runs with the same seeds produce
byte-identical CSV files.

`sweep` runs the (beta, direction) groups of each (mixture, d) block on
every CPU in the process's affinity mask: in this process when there is one
CPU or one group, otherwise in a pool of forked workers that inherit the
block's arrays. Beta 2's loss is symmetric, so its group runs once and its
rows are written for every direction asked for. Groups start by beta
descending, the longest first. Rows are sorted before they are written, so
the CSV is the same byte for byte for any number of CPUs and any group
order. There is no option for the count; `taskset` restricts it.
"""

import argparse
import configparser
import csv
import ctypes
import functools
import multiprocessing
import os
import signal
import sys
import threading
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import load_wav, write_wav
from .divergence import DivergenceSpec
from .metrics import _norm, sdr
from .mixing import ProviderSpec, align_noise, mix_at_snr, provide_spectrograms
from .solvers import (
    SolverConfig,
    SolverDivergedError,
    amplitude_mask_init,
    griffin_lim,
    misi,
    pgd_start,
    projected_gradient,
)
from .transform import StftConfig, _usable_cpus

CSV_HEADER = (
    "algo,beta,d,direction,step_size,snr_db,sigma,seed,"
    "mixture_id,status,sdr_init,sdr,sdri"
)
# one metrics row; _ROW_FORMAT % row is its CSV line, floats with six decimals
Row = namedtuple("Row", CSV_HEADER)
_ROW_FORMAT = "%s,%.6f,%d,%s,%.6f,%.6f,%.6f,%d,%s,%s,%.6f,%.6f,%.6f"
MANIFEST_FIELDS = ("mixture_id", "speech", "noise", "snr_db", "seed", "split")

# keeps per-mixture provider streams apart for any base seed
_SEED_STRIDE = 1_000_003
# glibc mallopt's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD parameters, and 32
# and 64 MiB: where glibc's own adjustment of the two thresholds ends
_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -3, -1
_MMAP_BYTES, _TRIM_BYTES = 32 << 20, 64 << 20


def _choice(options, cast=str):
    """Build a converter that casts and checks membership in options."""

    def convert(text):
        value = cast(text)
        if value not in options:
            allowed = "/".join(str(o) for o in options)
            raise ValueError("expected one of %s, got %r" % (allowed, text))
        return value

    return convert


def _nonnegative(cast):
    """Build a converter that casts and rejects values below zero."""

    def convert(text):
        value = cast(text)
        if value < 0:
            raise ValueError("expected a value >= 0, got %r" % text)
        return value

    return convert


def _value_list(cast):
    """Build a converter for comma-separated lists of distinct values."""

    def convert(text):
        parts = [p.strip() for p in str(text).split(",")]
        parts = [p for p in parts if p]
        if not parts:
            raise ValueError("empty list")
        values = [cast(p) for p in parts]
        for index, value in enumerate(values):
            # compared after the cast, so 1 and 1.0 are one value
            if value in values[:index]:
                raise ValueError("repeated value %r" % parts[index])
        return values

    return convert


# one option of any subcommand: its converter, and its default (None: none)
_Option = namedtuple("_Option", "convert default")

_OPTIONS = {
    "algo": _Option(_choice(("amplitude_mask", "gl", "misi", "pgd")), "pgd"),
    "beta": _Option(float, 2.0),
    # checked and held as DivergenceSpec holds them: 1 and 1 - 1e-9 repeat
    "betas": _Option(
        _value_list(lambda text: DivergenceSpec(float(text)).beta),
        [0.25 * k for k in range(9)],
    ),
    "csv": _Option(str, None),
    "d": _Option(_choice((1, 2), int), 1),
    "d_values": _Option(_value_list(_choice((1, 2), int)), [1, 2]),
    "direction": _Option(_choice(("right", "left")), "right"),
    "directions": _Option(_value_list(_choice(("right", "left"))), ["right", "left"]),
    "est": _Option(str, None),
    "hop": _Option(int, 256),
    "iterations": _Option(_nonnegative(int), 5),
    "manifest": _Option(str, None),
    "mixture_id": _Option(str, None),
    "noise": _Option(str, None),
    "out": _Option(str, None),
    "out_dir": _Option(str, None),
    "out_noise": _Option(str, None),
    "provider": _Option(_choice(("oracle", "noisy_oracle")), "oracle"),
    "ref": _Option(str, None),
    "seed": _Option(_nonnegative(int), 0),
    "sigma": _Option(float, 0.0),
    "snr": _Option(float, 0.0),
    "speech": _Option(str, None),
    "split": _Option(_choice(("validation", "test")), "validation"),
    "step_size": _Option(float, 1.0),
    "step_sizes": _Option(_value_list(float), np.logspace(-4.0, 0.0, 9).tolist()),
    "win": _Option(int, 1024),
}

_SUBCOMMANDS = {
    "mix": {
        "options": ("speech", "noise", "snr", "seed", "out", "out_noise"),
        "required": ("speech", "noise", "out"),
        "help": "build an SNR-controlled mixture from speech and noise WAVs",
    },
    "separate": {
        "options": (
            "speech", "noise", "snr", "seed", "algo", "beta", "d",
            "direction", "step_size", "iterations", "provider", "sigma",
            "win", "hop", "out_dir", "csv", "mixture_id",
        ),
        "required": ("speech", "noise"),
        "help": "run one separation algorithm and report SDR and SDRi",
    },
    "sweep": {
        "options": (
            "manifest", "split", "betas", "step_sizes", "directions",
            "d_values", "iterations", "provider", "sigma", "seed",
            "win", "hop", "csv",
        ),
        "required": ("manifest", "csv"),
        "help": "grid-search divergence settings and step sizes over a manifest",
    },
    "eval": {
        "options": ("ref", "est"),
        "required": ("ref", "est"),
        "help": "report the SDR of an estimate WAV against a reference WAV",
    },
}


def _flag_type(dest):
    """The converter of dest, with its message in argparse's error."""
    convert = _OPTIONS[dest].convert

    def flag_type(text):
        try:
            return convert(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err))

    return flag_type


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and every option's default is None."""
    parser = argparse.ArgumentParser(
        prog="bregsep",
        description="mixture building, phase-aware source separation, "
        "step-size sweeps, and SDR scoring",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=spec["help"])
        for dest in spec["options"]:
            flag = "--" + dest.replace("_", "-")
            sub.add_argument(flag, dest=dest, type=_flag_type(dest), default=None)
        sub.add_argument("--config", default=None, help="key=value config file")
    return parser


def _config_values(path, command):
    """Read raw option strings for one subcommand from a config file.

    Args:
        path: config file with [common] and per-subcommand sections.
        command: subcommand name whose options should be collected.

    Returns:
        Dict mapping option name to its raw string value. Keys in [common]
        apply to every subcommand that accepts them; keys in the subcommand
        section apply to it alone. Unknown keys raise ValueError.
    """
    if not Path(path).is_file():
        raise ValueError("config file not found: %s" % path)
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ValueError("bad config file %s: %s" % (path, err))
    accepted = set(_SUBCOMMANDS[command]["options"])
    values = {}
    for section, known in (("common", _OPTIONS), (command, accepted)):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in known:
                raise ValueError("unknown config key '%s' in [%s]" % (key, section))
            if key in accepted:
                values[key] = raw
    return values


def _resolve(args):
    """Merge flags, config file values, and defaults for one invocation."""
    spec = _SUBCOMMANDS[args.command]
    file_values = _config_values(args.config, args.command) if args.config else {}
    resolved = {}
    for dest in spec["options"]:
        value = getattr(args, dest)
        if value is None and dest in file_values:
            try:
                value = _OPTIONS[dest].convert(file_values[dest])
            except ValueError as err:
                raise ValueError("config key '%s': %s" % (dest, err))
        if value is None:
            value = _OPTIONS[dest].default
        resolved[dest] = value
    for dest in spec["required"]:
        if resolved.get(dest) is None:
            raise ValueError(
                "missing required option --%s" % dest.replace("_", "-")
            )
    return resolved


def _check_mixture_id(mixture_id):
    # each of these splits or merges the id's row for a CSV reader
    if not mixture_id or any(c in mixture_id for c in ',"\r\n'):
        raise ValueError("mixture_id must be non-empty, without comma, quote, \\r or \\n")
    return mixture_id


def _check_output_files(ns):
    """Reject an output path that cannot be written, before any input is
    read: a --csv, --out or --out-noise that is a directory or in no
    directory, an --out-dir whose deepest existing part is not one, or an
    output that is the same file as an input or another output."""
    if ns.get("out_dir"):
        path = Path(ns["out_dir"])
        # the deepest existing part, a broken link too; mkdir makes the rest
        part = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not part.is_dir():
            raise ValueError(
                "--out-dir %r: %r is not a directory" % (ns["out_dir"], str(part))
            )
    outputs = [("--" + dest.replace("_", "-"), ns[dest])
               for dest in ("csv", "out", "out_noise") if ns.get(dest) is not None]
    for flag, text in outputs:
        path = Path(text)
        if path.is_dir():
            raise ValueError("%s %r is a directory" % (flag, text))
        if not path.parent.is_dir():
            raise ValueError(
                "%s %r: directory %r does not exist" % (flag, text, str(path.parent))
            )
    files = {}
    for dest in ("speech", "noise", "manifest"):
        if ns.get(dest) is not None:
            files.setdefault(os.path.realpath(ns[dest]), "--" + dest)
    if ns.get("out_dir"):
        outputs += [("--out-dir", os.path.join(ns["out_dir"], name))
                    for name in ("mixture.wav", "source_0.wav", "source_1.wav")]
    for flag, text in outputs:
        real = os.path.realpath(text)
        if real in files:
            raise ValueError("%s %r is the same file as %s" % (flag, text, files[real]))
        files[real] = flag


def _write_csv(path, lines):
    with open(path, "w", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for line in lines:
            handle.write(line + "\n")


def _load_pair(speech_path, noise_path, snr_db, seed):
    """Load speech and noise, align the noise, and mix at the requested SNR.

    Returns:
        (speech, scaled_noise, mixture) as Signals of equal length.
    """
    speech = load_wav(speech_path)
    noise = load_wav(noise_path)
    noise = align_noise(noise, len(speech), seed)
    mixture, scaled = mix_at_snr(speech, noise, snr_db)
    return speech, scaled, mixture


def _cmd_mix(ns):
    speech, scaled, mixture = _load_pair(
        ns["speech"], ns["noise"], ns["snr"], ns["seed"]
    )
    write_wav(ns["out"], mixture)
    if ns["out_noise"]:
        write_wav(ns["out_noise"], scaled)
    achieved = 20.0 * np.log10(_norm(speech.samples) / _norm(scaled.samples))
    print("wrote %s snr_db=%.6f" % (ns["out"], achieved))
    return 0


# one separation problem: the identity fields of its rows, a mixture's
# measurements (which carry the exponent d) and their amplitude-mask init.
# _run_cell runs a cell of it; _sweep_group a group
_Block = namedtuple(
    "_Block",
    "mixture_id snr_db seed sigma speech mixture measurements init sdr_init "
    "stft_config",
)


def _block(mixture_id, snr_db, seed, signals, provider, d, stft_config):
    """The _Block of (speech, scaled noise, mixture) signals at exponent d."""
    speech, scaled, mixture = signals
    measurements = provide_spectrograms([speech, scaled], provider, d, stft_config)
    init = amplitude_mask_init(measurements, mixture, stft_config)
    return _Block(
        mixture_id, snr_db, seed, provider.sigma, speech, mixture, measurements,
        init, sdr(speech, init[0]), stft_config,
    )


def _records(ns):
    """The ProviderSpec, seeded with --seed, and the StftConfig of ns."""
    stft_config = StftConfig(ns["win"], ns["hop"])
    stft_config.b  # a grid that is not COLA raises NotColaError here
    return ProviderSpec(ns["provider"], ns["sigma"], ns["seed"]), stft_config


def _run_cell(block, algo, solver, start=None):
    """Run algo from the block's init, or pgd from start, and score it.

    solver's beta, d, direction and step size are the row's for every algo;
    gl and misi take its iteration count.  start: a PgdStart of the block's
    problem, which pgd runs that differ in step size alone share.

    Returns:
        (Row, estimates); on SolverDivergedError a "diverged" Row with the
        init's SDR and an SDRi of 0, and estimates None.
    """
    estimates = None
    try:
        if algo == "amplitude_mask":
            estimates = block.init
        elif algo == "gl":
            # per-source phase recovery, no mixture constraint
            estimates = [
                griffin_lim(r, s, solver.iterations, block.stft_config)
                for r, s in zip(block.measurements, block.init)
            ]
        elif algo == "misi":
            estimates = misi(
                block.measurements, block.mixture, solver.iterations,
                block.stft_config, init=block.init,
            ).sources
        else:
            estimates = projected_gradient(
                block.measurements, block.mixture, solver, block.stft_config,
                init=block.init if start is None else None, start=start,
            ).sources
    except SolverDivergedError:
        status, value = "diverged", block.sdr_init
    else:
        status, value = "ok", sdr(block.speech, estimates[0])
    spec = solver.spec
    row = Row(
        algo, spec.beta, spec.d, spec.direction, solver.step_size, block.snr_db,
        block.sigma, block.seed, block.mixture_id, status, block.sdr_init,
        value, value - block.sdr_init,
    )
    return row, estimates


def _cmd_separate(ns):
    algo = ns["algo"]
    if algo in ("gl", "misi") and ns["d"] != 1:
        raise ValueError("%s needs magnitude measurements (--d 1)" % algo)
    # every algo's row carries these fields, so every algo checks them
    solver = SolverConfig(
        DivergenceSpec(ns["beta"], ns["direction"], ns["d"]),
        ns["step_size"], ns["iterations"],
    )
    mixture_id = _check_mixture_id(ns["mixture_id"] or Path(ns["speech"]).stem)
    provider, stft_config = _records(ns)
    block = _block(
        mixture_id, ns["snr"], ns["seed"],
        _load_pair(ns["speech"], ns["noise"], ns["snr"], ns["seed"]),
        provider, ns["d"], stft_config,
    )
    row, estimates = _run_cell(block, algo, solver)
    line = _ROW_FORMAT % row
    print(CSV_HEADER)
    print(line)
    if ns["csv"]:
        _write_csv(ns["csv"], [line])
    if ns["out_dir"] and estimates is not None:
        out_dir = Path(ns["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_wav(out_dir / "mixture.wav", block.mixture)
        for index, source in enumerate(estimates):
            write_wav(out_dir / ("source_%d.wav" % index), source)
    return 0


def _resolve_manifest_path(text, base):
    text = (text or "").strip()
    if not text:
        raise ValueError("empty path in manifest")
    path = Path(text)
    return str(path if path.is_absolute() else base / path)


def _read_manifest(path):
    """Read mixture rows from a manifest CSV.

    Args:
        path: CSV with header mixture_id,speech,noise,snr_db,seed,split.
            Relative speech/noise paths are taken against the manifest's
            directory.

    Returns:
        List of dicts with typed fields, in file order.
    """
    base = Path(path).resolve().parent
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames
        if fields is None or sorted(fields) != sorted(MANIFEST_FIELDS):
            raise ValueError(
                "manifest header must have columns %s" % ",".join(MANIFEST_FIELDS)
            )
        rows = []
        for line_no, record in enumerate(reader, start=2):
            mixture_id = (record["mixture_id"] or "").strip()
            _check_mixture_id(mixture_id)
            split = (record["split"] or "").strip()
            if split not in ("validation", "test"):
                raise ValueError(
                    "manifest line %d: split must be validation or test" % line_no
                )
            try:
                snr_db = float(record["snr_db"])
                seed = int(record["seed"])
            except (TypeError, ValueError):
                raise ValueError("manifest line %d: bad snr_db or seed" % line_no)
            if not np.isfinite(snr_db):
                raise ValueError("manifest line %d: snr_db must be finite" % line_no)
            if seed < 0:
                raise ValueError("manifest line %d: seed must be >= 0" % line_no)
            rows.append({
                "mixture_id": mixture_id,
                "speech": _resolve_manifest_path(record["speech"], base),
                "noise": _resolve_manifest_path(record["noise"], base),
                "snr_db": snr_db,
                "seed": seed,
                "split": split,
            })
    if not rows:
        raise ValueError("manifest %s has no rows" % path)
    return rows


def _print_sweep_summary(records):
    """Print per-cell best step sizes and the overall best cell.

    Args:
        records: list of sweep Rows. Cell means average sdri over
            mixtures; ties on the mean go to the smaller step size.
    """
    cells = {}
    for rec in records:
        key = (rec.beta, rec.d, rec.direction, rec.step_size)
        cells.setdefault(key, []).append(rec.sdri)
    groups = {}
    for (beta, d, direction, step), values in cells.items():
        mean = sum(values) / len(values)
        groups.setdefault((beta, d, direction), []).append((step, mean))
    best = None
    for key in sorted(groups):
        entries = sorted(groups[key])
        step, mean = max(entries, key=lambda entry: entry[1])
        beta, d, direction = key
        print(
            "cell beta=%.6f d=%d direction=%s best_step=%.6f mean_sdri=%.6f"
            % (beta, d, direction, step, mean)
        )
        if best is None or mean > best[0]:
            best = (mean, beta, d, direction, step)
    mean, beta, d, direction, step = best
    print(
        "best beta=%.6f d=%d direction=%s step_size=%.6f mean_sdri=%.6f"
        % (beta, d, direction, step, mean)
    )
    misi_cell = groups.get((2.0, 1, "right"))
    if misi_cell is not None:
        misi_mean = dict(misi_cell).get(1.0)
        if misi_mean is not None:
            print("misi_cell mean_sdri=%.6f" % misi_mean)


def _sweep_group(block, task):
    """Run every step size of one (beta, direction) group of a block.

    Args:
        block: the (mixture, d) _Block.
        task: (beta, direction, steps, iterations).

    Returns:
        The group's Rows, in step-size order.
    """
    beta, direction, steps, iterations = task
    spec = DivergenceSpec(beta, direction, block.measurements[0].d)
    # shared by every step size; the first cell that iterates computes the
    # first direction in it for all of them
    start = pgd_start(
        block.measurements, block.mixture, spec, block.stft_config, block.init
    )
    # each cell's estimates are dropped at once: held into the next cell,
    # next to the shared start, they raised the sweep's peak memory
    return [
        _run_cell(block, "pgd", SolverConfig(spec, step, iterations), start)[0]
        for step in steps
    ]


# a pool worker's block: inherited at fork with the initializer's
# arguments, so its arrays are never pickled
_worker_block = None


def _start_worker(block):
    global _worker_block
    _worker_block = block
    # Ctrl-C reaches the whole process group: the parent stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _group_in_worker(task):
    # the pool sends this function by name; _sweep_group is looked up when
    # it runs, in the worker's copy of this module
    return _sweep_group(_worker_block, task)


# seconds between a pool's looks for a recorded Ctrl-C while it waits
_INTERRUPT_POLL_S = 0.1


def _sweep_workers(groups):
    """Processes for a block of `groups` groups.

    One per CPU in this process's affinity mask (every CPU where the mask
    cannot be read) and at most one per group; 1 without fork.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = _usable_cpus()
    return min(groups, cpus)


def _run_groups(block, tasks):
    """_sweep_group's Rows for every task of the block, in task order.

    With one worker the groups run in this process.  Otherwise they run in
    a pool of forked workers.  On every path, an error or Ctrl-C included,
    the pool cancels the groups not yet started and joins its workers; a
    worker that dies (say, killed for memory) raises BrokenProcessPool
    rather than leaving the sweep waiting for its result.

    While a pool runs, Ctrl-C in the main thread is only recorded, and
    KeyboardInterrupt is raised here between waits: raised inside the
    executor's own code, it can leave a lock held and hang the shutdown.
    """
    workers = _sweep_workers(len(tasks))
    if workers == 1:
        return [_sweep_group(block, task) for task in tasks]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(block,),
    )
    interrupts = []
    held = threading.current_thread() is threading.main_thread() and (
        signal.getsignal(signal.SIGINT) is signal.default_int_handler
    )
    if held:
        signal.signal(signal.SIGINT, lambda *args: interrupts.append(args))
    try:
        rows = []
        for future in [pool.submit(_group_in_worker, task) for task in tasks]:
            while not wait([future], _INTERRUPT_POLL_S).done:
                if interrupts:
                    raise KeyboardInterrupt
            rows.append(future.result())
    finally:
        pool.shutdown(cancel_futures=True)
        if held:
            signal.signal(signal.SIGINT, signal.default_int_handler)
    if interrupts:
        raise KeyboardInterrupt
    return rows


def _distinct_groups(betas, directions):
    """The (beta, direction) groups of a block, each with the directions
    its Rows are written under.

    At beta 2 the loss (r - z)^2 / 2 is symmetric: both directions' gradient
    terms reduce to |S|^d - r, bit for bit, so one run under the first
    direction gives the Rows of every direction.  Groups come by beta
    descending.  The groups with beta >= 1 run longest, and those with small
    beta mostly stop at their first iterate, so a pool's workers end the
    block on short groups instead of one waiting on a long group started
    last.

    Returns:
        Dict mapping each (beta, direction) group to its Rows' directions.
    """
    groups = {}
    for beta in sorted(betas, reverse=True):
        for direction in directions:
            run = directions[0] if beta == 2.0 else direction
            groups.setdefault((beta, run), []).append(direction)
    return groups


def _cmd_sweep(ns):
    steps = ns["step_sizes"]
    if not all(np.isfinite(step) and step > 0 for step in steps):
        raise ValueError("step sizes must be positive and finite")
    provider, stft_config = _records(ns)
    rows = [r for r in _read_manifest(ns["manifest"]) if r["split"] == ns["split"]]
    if not rows:
        raise ValueError("manifest has no rows for split '%s'" % ns["split"])
    groups = _distinct_groups(ns["betas"], ns["directions"])
    tasks = [group + (steps, ns["iterations"]) for group in groups]
    # every row's pair is read and mixed once before any group runs, so a
    # bad row fails the sweep at once; each pair is dropped, then read again
    for row in rows:
        _load_pair(row["speech"], row["noise"], row["snr_db"], row["seed"])
    records = []
    for row in rows:
        signals = _load_pair(row["speech"], row["noise"], row["snr_db"], row["seed"])
        row_provider = replace(provider, seed=provider.seed * _SEED_STRIDE + row["seed"])
        for d in ns["d_values"]:
            block = _block(
                row["mixture_id"], row["snr_db"], row["seed"], signals, row_provider,
                d, stft_config,
            )
            ran = _run_groups(block, tasks)
            for group_rows, labels in zip(ran, groups.values()):
                records.extend(
                    r._replace(direction=label) for r in group_rows for label in labels
                )
            # freed before the next d's measurements are built
            block = None
    records.sort(
        key=lambda r: (r.mixture_id, r.beta, r.step_size, r.d, r.direction)
    )
    _write_csv(ns["csv"], [_ROW_FORMAT % r for r in records])
    _print_sweep_summary(records)
    return 0


def _cmd_eval(ns):
    value = sdr(load_wav(ns["ref"]), load_wav(ns["est"]))
    print("sdr_db=%.6f" % value)
    return 0


_COMMANDS = {
    "mix": _cmd_mix,
    "separate": _cmd_separate,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
}


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


@functools.cache
def _hold_allocator():
    """Hold glibc malloc's thresholds, once per process, and return the call
    that gives the heap's free memory back once a command is done.

    By default glibc trims the heap top past twice an mmap threshold that the
    ~1 MB block arrays raised, so each PGD iteration gets its arrays from
    fresh pages again.  On a 2-vCPU host that cost about 3770 minor faults
    per `separate --algo pgd` call on a 1 s clip against 3 held, and 12-16 s
    of sys time against 1 s on a default-grid sweep of ten 2 s mixtures.

    glibc trims only the free memory above the highest block in use.  In a
    process making 30 s `separate` calls, a small block that outlived a call
    above its large arrays kept about 25 MB below it resident (a heap of 88
    against 67 MB), so whether the next work in the process found its
    memory resident or faulted it in turned on where that block fell.  So
    trimming is off during a command, and after it all free memory is given
    back once it passes _TRIM_BYTES, wherever in the heap it lies; a command
    that frees less leaves its heap to the next.  Forked sweep workers inherit
    the thresholds.  Off glibc this does nothing; before glibc 2.33 (no
    mallinfo2) the trim threshold is held at _TRIM_BYTES instead.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return lambda: None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallinfo2 = getattr(libc, "mallinfo2", None)
    if mallinfo2 is None:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
        return lambda: None
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallinfo2.restype = _MallInfo2
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)

    def release():
        if mallinfo2().fordblks > _TRIM_BYTES:
            libc.malloc_trim(0)

    return release


def main(argv=None):
    release = _hold_allocator()
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        _check_output_files(resolved)
        return _COMMANDS[args.command](resolved)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    finally:
        release()


if __name__ == "__main__":
    sys.exit(main())
