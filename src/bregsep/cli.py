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
"""

import argparse
import configparser
import csv
import itertools
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .audio import load_wav, write_wav
from .divergence import DivergenceSpec
from .metrics import sdr
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
from .transform import StftConfig

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
    """Build a converter for comma-separated lists."""

    def convert(text):
        parts = [p.strip() for p in str(text).split(",")]
        parts = [p for p in parts if p]
        if not parts:
            raise ValueError("empty list")
        return [cast(p) for p in parts]

    return convert


_CONVERTERS = {
    "algo": _choice(("amplitude_mask", "gl", "misi", "pgd")),
    "beta": float,
    "betas": _value_list(float),
    "csv": str,
    "d": _choice((1, 2), int),
    "d_values": _value_list(_choice((1, 2), int)),
    "direction": _choice(("right", "left")),
    "directions": _value_list(_choice(("right", "left"))),
    "est": str,
    "hop": int,
    "iterations": _nonnegative(int),
    "manifest": str,
    "mixture_id": str,
    "noise": str,
    "out": str,
    "out_dir": str,
    "out_noise": str,
    "provider": _choice(("oracle", "noisy_oracle")),
    "ref": str,
    "seed": int,
    "sigma": float,
    "snr": float,
    "speech": str,
    "split": _choice(("validation", "test")),
    "step_size": float,
    "step_sizes": _value_list(float),
    "win": int,
}

_DEFAULTS = {
    "algo": "pgd",
    "beta": 2.0,
    "betas": [0.25 * k for k in range(9)],
    "d": 1,
    "d_values": [1, 2],
    "direction": "right",
    "directions": ["right", "left"],
    "hop": 256,
    "iterations": 5,
    "provider": "oracle",
    "seed": 0,
    "sigma": 0.0,
    "snr": 0.0,
    "split": "validation",
    "step_size": 1.0,
    "step_sizes": [float(v) for v in np.logspace(-4.0, 0.0, 9)],
    "win": 1024,
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


def _build_parser():
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
            sub.add_argument(flag, dest=dest, type=_CONVERTERS[dest], default=None)
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
    if parser.has_section("common"):
        for key, raw in parser.items("common"):
            if key not in _CONVERTERS:
                raise ValueError("unknown config key '%s' in [common]" % key)
            if key in accepted:
                values[key] = raw
    if parser.has_section(command):
        for key, raw in parser.items(command):
            if key not in accepted:
                raise ValueError("unknown config key '%s' in [%s]" % (key, command))
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
            value = _CONVERTERS[dest](file_values[dest])
        if value is None:
            value = _DEFAULTS.get(dest)
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
    achieved = 20.0 * np.log10(
        np.linalg.norm(speech.samples) / np.linalg.norm(scaled.samples)
    )
    print("wrote %s snr_db=%.6f" % (ns["out"], achieved))
    return 0


def _initialize(speech, scaled, mixture, provider, d, stft_config):
    """Measurements at exponent d, the amplitude-mask init and its SDR."""
    measurements = provide_spectrograms(
        [speech, scaled], provider, d, stft_config
    )
    init = amplitude_mask_init(measurements, mixture, stft_config)
    return measurements, init, sdr(speech, init[0])


def _run_and_score(run, speech, sdr_init):
    """Call run() for the estimates and score the first against the speech.

    Returns:
        (estimates, status, sdr, sdri); on SolverDivergedError (None,
        "diverged", sdr_init, 0.0).
    """
    try:
        estimates = run()
    except SolverDivergedError:
        return None, "diverged", sdr_init, 0.0
    value = sdr(speech, estimates[0])
    return estimates, "ok", value, value - sdr_init


def _run_algorithm(ns, measurements, mixture, init, stft_config):
    """Run the selected algorithm starting from the amplitude-mask init."""
    algo = ns["algo"]
    iterations = ns["iterations"]
    if algo == "amplitude_mask":
        return init
    if algo == "gl":
        # per-source phase recovery, no mixture constraint
        return [
            griffin_lim(r, s, iterations, stft_config)
            for r, s in zip(measurements, init)
        ]
    if algo == "misi":
        return misi(measurements, mixture, iterations, stft_config, init=init).sources
    spec = DivergenceSpec(ns["beta"], ns["direction"], ns["d"])
    solver = SolverConfig(spec, ns["step_size"], iterations)
    return projected_gradient(
        measurements, mixture, solver, stft_config, init=init
    ).sources


def _cmd_separate(ns):
    if ns["algo"] in ("gl", "misi") and ns["d"] != 1:
        raise ValueError("%s needs magnitude measurements (--d 1)" % ns["algo"])
    mixture_id = _check_mixture_id(ns["mixture_id"] or Path(ns["speech"]).stem)
    speech, scaled, mixture = _load_pair(
        ns["speech"], ns["noise"], ns["snr"], ns["seed"]
    )
    stft_config = StftConfig(ns["win"], ns["hop"])
    provider = ProviderSpec(ns["provider"], ns["sigma"], ns["seed"])
    measurements, init, sdr_init = _initialize(
        speech, scaled, mixture, provider, ns["d"], stft_config
    )
    estimates, status, sdr_out, sdri_out = _run_and_score(
        lambda: _run_algorithm(ns, measurements, mixture, init, stft_config),
        speech,
        sdr_init,
    )
    line = _ROW_FORMAT % Row(
        ns["algo"], ns["beta"], ns["d"], ns["direction"], ns["step_size"],
        ns["snr"], ns["sigma"], ns["seed"], mixture_id, status,
        sdr_init, sdr_out, sdri_out,
    )
    print(CSV_HEADER)
    print(line)
    if ns["csv"]:
        _write_csv(ns["csv"], [line])
    if ns["out_dir"] and estimates is not None:
        out_dir = Path(ns["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_wav(out_dir / "mixture.wav", mixture)
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


def _cmd_sweep(ns):
    rows = [r for r in _read_manifest(ns["manifest"]) if r["split"] == ns["split"]]
    if not rows:
        raise ValueError("manifest has no rows for split '%s'" % ns["split"])
    betas = ns["betas"]
    steps = ns["step_sizes"]
    for beta in betas:
        DivergenceSpec(beta)
    if not all(np.isfinite(step) and step > 0 for step in steps):
        raise ValueError("step sizes must be positive and finite")
    stft_config = StftConfig(ns["win"], ns["hop"])
    records = []
    for row in rows:
        speech, scaled, mixture = _load_pair(
            row["speech"], row["noise"], row["snr_db"], row["seed"]
        )
        provider_seed = ns["seed"] * _SEED_STRIDE + row["seed"]
        provider = ProviderSpec(ns["provider"], ns["sigma"], provider_seed)
        for d in ns["d_values"]:
            measurements, init, sdr_init = _initialize(
                speech, scaled, mixture, provider, d, stft_config
            )
            for beta, direction in itertools.product(betas, ns["directions"]):
                spec = DivergenceSpec(beta, direction, d)
                # shared by every step size; the first cell that iterates
                # computes the first direction in it for all of them
                start = pgd_start(measurements, mixture, spec, stft_config, init)
                for step in steps:
                    solver = SolverConfig(spec, step, ns["iterations"])
                    # scored and dropped: held into the next cell, next to
                    # the shared start, they raised the sweep's peak memory
                    status, value, improvement = _run_and_score(
                        lambda: projected_gradient(
                            measurements, mixture, solver, stft_config, start=start
                        ).sources,
                        speech,
                        sdr_init,
                    )[1:]
                    records.append(Row(
                        "pgd", beta, d, direction, step, row["snr_db"],
                        ns["sigma"], row["seed"], row["mixture_id"], status,
                        sdr_init, value, improvement,
                    ))
                # freed before the next start or measurements are built
                start = None
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


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        return _COMMANDS[args.command](resolved)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
