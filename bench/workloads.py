"""Workloads of the bregsep benchmark: seeded corpora, the closed-loop
client that drives ``bregsep.cli.main``, and the checks on every output.

One client runs in this process and starts a call only after the previous
one returned, so the program sees exactly one request at a time and the
benchmark adds no threads.

Call times are also expressed in reference units (ref): multiples of the time
a fixed STFT round trip in numpy, owned by the benchmark and never by the
program, takes on the same core at the same moment. The shared host this
benchmark was built on changes speed by 10-30% for tens of seconds at a
time; that drift moves a call's wall time and the reference's time alike,
so their ratio stays put while a change to the program still moves it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from bregsep import cli
from bregsep.audio import write_wav
from bregsep.transform import Signal

RATE = 16000
# `bregsep sweep` default grid: 9 betas x 9 step sizes x 2 directions x 2 d
DEFAULT_GRID_CELLS = 9 * 9 * 2 * 2
# a run that ends this far below its initialisation did not separate anything
BLOWUP_SDRI_DB = -10.0
# one 16-bit step: each written WAV rounds by at most half a step, so three
# files that sum exactly before rounding sum to within one step after it
PCM_STEP = 1
SETUP_REPEATS = 5
# no call starts that would likely end after this, even if min_calls is unmet,
# so a run on a slow host still ends within its time limit
HARD_STOP_S = 90.0
# the reference's window and hop, as the program's defaults
REF_WIN = 1024
REF_HOP = 256
# reference frames run per mark: a few ms of work, repeated round trips for
# short clips so the reference is timed well above the clock's grain
REF_FRAMES = 512
# the set-up clock's reference shape, and its median time on the 2-vCPU
# Xeon host the benchmark was built on (numpy 2.4.6)
SETUP_REF_FRAMES = 128
SETUP_REF_NOMINAL_S = 0.011
# PGD runs of a sweep between two marks, about half a second on a 2 s clip
MARK_EVERY_CELLS = 8
# marks on either side of a stretch whose references set its cost; more
# damp the noise of single reference runs, fewer follow the host's changes
# of speed more closely
REF_WINDOW = 2


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI calls the client repeats on them.

    kind: "sweep" runs `bregsep sweep` on one mixture per call; "separate"
        runs `bregsep separate` on one clip per call.
    clip_seconds: length of every speech clip.
    speech_ks: harmonic-speech indices, one clip (and one noise file) each;
        calls cycle through the clips in this order.
    algos: separate only, algorithms cycled call by call.
    cli_args: options shared by every call.
    warm_args: sweep only, grid options of the warm call made in set-up.
    cells: operations per call: the grid cells of a sweep, 1 for separate.
    min_calls: calls always made, even past the timed window.
    scored_calls: the first calls whose outputs give `sdri_db` and the
        wasted-work counts, so those figures do not depend on speed.
    why: the reason the workload exists, as in BENCHMARK.json.
    """

    name: str
    kind: str
    clip_seconds: float
    speech_ks: tuple
    min_calls: int
    scored_calls: int
    algos: tuple = ()
    cli_args: tuple = ()
    warm_args: tuple = ()
    cells: int = 1
    why: str = ""


_NOISY = ("--provider", "noisy_oracle", "--sigma", "0.5")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_grid", "sweep", 2.0, (0, 1), min_calls=3, scored_calls=2,
            # provider seed 0 as in acceptance criterion 8; the benchmark
            # seed draws the noise signals
            cli_args=("--seed", "0") + _NOISY,
            warm_args=("--betas", "1.5", "--step-sizes", "0.1",
                       "--directions", "left", "--d-values", "1"),
            cells=DEFAULT_GRID_CELLS,
            why="the real workload: default-grid PGD sweeps on 2 s mixtures, "
                "where per-call transform overhead dominates",
        ),
        Workload(
            "separate_pgd_long", "separate", 30.0, (2, 3), min_calls=4,
            scored_calls=4, algos=("pgd",),
            cli_args=("--beta", "1.5", "--direction", "left", "--d", "1",
                      "--step-size", "0.1", "--iterations", "5") + _NOISY,
            why="the same PGD path on 30 s clips whose spectrograms exceed L2, "
                "so it is bound by memory traffic",
        ),
        Workload(
            "separate_baselines_short", "separate", 2.0, (4, 5, 6, 7),
            min_calls=48, scored_calls=48, algos=("misi", "gl", "amplitude_mask"),
            cli_args=("--iterations", "5"),
            why="control that never enters PGD: MISI, GL and amplitude mask on "
                "2 s clips, where WAV I/O, mixing, SDR and cli weigh most",
        ),
    )
}


def harmonic_speech(k, length):
    """Speech stand-in: three harmonics of 110 + 35k Hz under a slow tremolo.

    The formula is the acceptance corpus's `_harmonic_speech`, so benchmark
    inputs have the spectra the acceptance criteria were tuned on.
    """
    t = np.arange(length) / RATE
    f0 = 110.0 + 35.0 * k
    tone = np.zeros(length)
    for harmonic, amp in ((1, 1.0), (2, 0.5), (3, 0.25)):
        tone += amp * np.sin(2.0 * np.pi * f0 * harmonic * t)
    tone *= 0.6 + 0.4 * np.sin(2.0 * np.pi * (1.5 + 0.3 * k) * t)
    return Signal(0.3 * tone / np.max(np.abs(tone)), RATE)


@dataclass(frozen=True)
class Clip:
    speech: str
    noise: str
    manifest: str


def make_corpus(workload, seed, root):
    """Write the workload's speech, seeded noise and manifests as 16-bit WAVs.

    Speech is fixed by speech_ks; the seed draws the white noise, which is
    half a second longer than the speech so `align_noise` crops it.
    """
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    length = int(round(workload.clip_seconds * RATE))
    clips = []
    for index, k in enumerate(workload.speech_ks):
        speech = root / ("speech_%d.wav" % index)
        noise = root / ("noise_%d.wav" % index)
        write_wav(speech, harmonic_speech(k, length))
        samples = np.random.default_rng([seed, index]).standard_normal(
            length + RATE // 2
        )
        write_wav(noise, Signal(0.3 * samples / np.max(np.abs(samples)), RATE))
        manifest = root / ("manifest_%d.csv" % index)
        manifest.write_text(
            "mixture_id,speech,noise,snr_db,seed,split\n"
            "mix_%d,%s,%s,0.0,%d,validation\n"
            % (index, speech.name, noise.name, index + 1)
        )
        clips.append(Clip(str(speech), str(noise), str(manifest)))
    return clips


def call_argv(workload, clips, seed, index, out_dir, warm=False):
    """CLI arguments of the index-th call of the workload."""
    clip = clips[index % len(clips)]
    if workload.kind == "sweep":
        grid = workload.warm_args if warm else ()
        return ["sweep", "--manifest", clip.manifest,
                "--csv", str(out_dir / "sweep.csv"), *workload.cli_args, *grid]
    algo = workload.algos[index % len(workload.algos)]
    return ["separate", "--speech", clip.speech, "--noise", clip.noise,
            "--snr", "0", "--seed", str(seed * 1000 + index), "--algo", algo,
            "--out-dir", str(out_dir), *workload.cli_args]


def invoke(argv):
    """Run `bregsep.cli.main` once; return (exit code, stdout, error text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crash in the program is a failed call, not ours
        return 1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), ""


def setup(workload, seed, work):
    """Generate the corpus and make the first warm call, SETUP_REPEATS times.

    Each set-up is timed against the reference like a call, and reported in
    seconds at the reference's nominal speed, so set-up time is compared
    across the host's changes of speed as call times are.

    Returns:
        (clips of the last repeat, median set-up seconds at the nominal
        reference speed, the set-ups' wall times in seconds).
    """
    clock = HostClock(SETUP_REF_FRAMES, seed)
    for _ in range(SETUP_REPEATS):
        clock.resume()
        clips = make_corpus(workload, seed, work / "corpus")
        out_dir = work / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        code, _, error = invoke(
            call_argv(workload, clips, seed, 0, out_dir, warm=True)
        )
        clock.mark()
        if code != 0:
            raise RuntimeError("warm call failed (exit %d) %s" % (code, error))
    costs = [clock.cost_ref(i, i + 1) for i in range(SETUP_REPEATS)]
    walls = [clock.wall_s(i, i + 1) for i in range(SETUP_REPEATS)]
    return clips, SETUP_REF_NOMINAL_S * statistics.median(costs), walls


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


_NUMERIC = ("beta", "d", "step_size", "snr_db", "sigma", "seed",
            "sdr_init", "sdr", "sdri")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _rows_finite(rows):
    return all(_finite(row[key]) for row in rows for key in _NUMERIC)


def check_sweep(workload, csv_bytes, first_pass):
    """Problems with one sweep call's CSV; empty when it is correct.

    The CSV must hold one row per grid cell with every number finite, and
    a repeated pass over a mixture must reproduce its first CSV byte for byte.
    """
    problems = []
    rows = _rows(csv_bytes.decode())
    if len(rows) != workload.cells:
        problems.append("%d rows, expected %d" % (len(rows), workload.cells))
    if not _rows_finite(rows):
        problems.append("non-finite number in the CSV")
    if first_pass is not None and csv_bytes != first_pass:
        problems.append("CSV differs from the first pass with the same seed")
    return problems, rows


def check_separate(algo, stdout, out_dir):
    """Problems with one separate call's outputs; empty when they are correct.

    The printed row must have finite numbers. For pgd and misi the written
    sources must sum to the written mixture within one 16-bit step.
    """
    problems = []
    rows = _rows(stdout)
    if len(rows) != 1:
        return ["%d result rows, expected 1" % len(rows)], rows
    if not _rows_finite(rows):
        problems.append("non-finite number in the result row")
    # a diverged run writes no WAVs
    if algo in ("pgd", "misi") and rows[0]["status"] == "ok":
        try:
            _, mixture = wavfile.read(out_dir / "mixture.wav")
            total = np.zeros(mixture.size, dtype=np.int64)
            for index in range(2):
                _, source = wavfile.read(out_dir / ("source_%d.wav" % index))
                total += source
        except (OSError, ValueError) as err:
            return problems + ["unreadable output WAV: %s" % err], rows
        gap = int(np.max(np.abs(total - mixture.astype(np.int64))))
        if gap > PCM_STEP:
            problems.append("sources miss the mixture by %d 16-bit steps" % gap)
    return problems, rows


class HostClock:
    """Measures program time in units of a reference kernel (see the module
    docstring).

    `mark()` runs the reference and ends a stretch of program time that
    began at the previous mark or at `resume()`, which restarts the count so
    benchmark work between calls is not counted. A stretch's cost is its
    wall time over the median of the references within REF_WINDOW marks of
    it on either side, so one slow or fast reference run weighs little.

    Attributes:
        refs_s: every reference time, in order.
        stretches: (seconds, index in refs_s of the mark that ended it).
    """

    def __init__(self, frames, seed):
        self._x = np.random.default_rng([seed, 99]).standard_normal(
            (frames - 1) * REF_HOP + REF_WIN)
        self._window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(REF_WIN)
                                          / REF_WIN)
        self._reps = max(1, REF_FRAMES // frames)
        self._end = None
        self.refs_s = []
        self.stretches = []

    def _reference(self):
        """Time a fixed STFT round trip at the workload's shape: framing, a
        windowed FFT, a magnitude weighting and finiteness check, the inverse
        FFT and a Python overlap-add loop. These are the operations the
        program's transforms spend their time in, so host changes that slow
        the program slow the reference alike; of the kernels tried (FFTs
        alone, small numpy operations, pure Python loops) it tracked the
        sweep's call time most closely."""
        started = time.perf_counter()
        for _ in range(self._reps):
            frames = np.lib.stride_tricks.sliding_window_view(
                self._x, REF_WIN)[::REF_HOP]
            spectrum = np.fft.rfft(frames * self._window, axis=1,
                                   norm="ortho").T
            magnitude = np.abs(spectrum)
            spectrum = spectrum * (np.sqrt(magnitude) / (magnitude + 1.0))
            np.all(np.isfinite(spectrum))
            back = np.fft.irfft(spectrum.T, n=REF_WIN, axis=1,
                                norm="ortho") * self._window
            out = np.zeros(self._x.size)
            for m in range(back.shape[0]):
                out[m * REF_HOP:m * REF_HOP + REF_WIN] += back[m]
        return time.perf_counter() - started

    def mark(self):
        started = time.perf_counter()
        if self._end is not None:
            self.stretches.append((started - self._end, len(self.refs_s)))
        self.refs_s.append(self._reference())
        self._end = time.perf_counter()

    def resume(self):
        if not self.refs_s:
            self.mark()
        self._end = time.perf_counter()

    def wall_s(self, first, last):
        """Seconds of stretches first..last-1."""
        return sum(seconds for seconds, _ in self.stretches[first:last])

    def cost_ref(self, first, last):
        """Stretches first..last-1 in reference units; call once every
        mark is made, so each window is complete."""
        cost = 0.0
        for seconds, end in self.stretches[first:last]:
            window = self.refs_s[max(0, end - REF_WINDOW):end + REF_WINDOW]
            cost += seconds / statistics.median(window)
        return cost


@contextlib.contextmanager
def marking_cells(clock):
    """Mark the clock before every MARK_EVERY_CELLS-th PGD run of a sweep,
    so a long sweep call is measured against the host's speed as it goes."""
    original = cli.projected_gradient
    count = 0

    def marked(*args, **kwargs):
        nonlocal count
        count += 1
        if count % MARK_EVERY_CELLS == 0:
            clock.mark()
        return original(*args, **kwargs)

    cli.projected_gradient = marked
    try:
        yield
    finally:
        cli.projected_gradient = original


@dataclass
class Call:
    """One completed client call; `ops` is its number of operations.

    latency_s: wall time of the call, reference runs excluded.
    stretches: the range of the HostClock's stretches the call spans.
    cost_ref: the call's time in reference units, set once the run ends.
    """

    index: int
    latency_s: float
    stretches: tuple
    ops: int
    traced: bool
    problems: list
    rows: list = field(repr=False)
    cost_ref: float = 0.0

    @property
    def failed_ops(self):
        return self.ops if self.problems else 0


def run_calls(workload, clips, seed, seconds, work, tracer=None):
    """Closed loop: repeat calls for `seconds` and at least min_calls times.

    With a tracer, odd-numbered calls run traced and even-numbered ones
    untraced, so the two can be compared within one run. Untraced sweep
    calls mark the host clock every few cells; traced ones only at their
    ends, so no reference run falls inside a span.

    Returns:
        (calls, the HostClock that timed them).
    """
    out_dir = work / "out"
    frames = int(round(workload.clip_seconds * RATE)) // 256 + 1
    clock = HostClock(frames, seed)
    first_pass = {}
    calls = []
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        last = calls[-1].latency_s if calls else 0.0
        if elapsed + last >= HARD_STOP_S or (
            index >= workload.min_calls and elapsed >= seconds
        ):
            break
        argv = call_argv(workload, clips, seed, index, out_dir)
        shutil.rmtree(out_dir)
        out_dir.mkdir()
        traced = tracer is not None and index % 2 == 1
        if traced:
            context = tracer.installed()
        elif workload.kind == "sweep":
            context = marking_cells(clock)
        else:
            context = contextlib.nullcontext()
        with context:
            clock.resume()
            first = len(clock.stretches)
            code, stdout, error = invoke(argv)
            clock.mark()
        span = (first, len(clock.stretches))
        if code != 0:
            problems, rows = ["exit code %d %s" % (code, error)], []
        elif workload.kind == "sweep":
            csv_path = out_dir / "sweep.csv"
            csv_bytes = csv_path.read_bytes() if csv_path.is_file() else b""
            clip = index % len(clips)
            problems, rows = check_sweep(workload, csv_bytes, first_pass.get(clip))
            first_pass.setdefault(clip, csv_bytes)
        else:
            algo = workload.algos[index % len(workload.algos)]
            problems, rows = check_separate(algo, stdout, out_dir)
        calls.append(Call(index, clock.wall_s(*span), span, workload.cells,
                          traced, problems, rows))
        index += 1
    for call in calls:
        call.cost_ref = clock.cost_ref(*call.stretches)
    return calls, clock


def latency_summary(values):
    """Median, plus the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the tail is
    then the maximum and `beyond` says how many samples lie past it (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        tail, pct, beyond = ordered[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, pct, beyond = ordered[-1], 100.0, 0
    return {"p50": statistics.median(ordered), "tail": tail,
            "tail_pct": pct, "beyond": beyond, "samples": n}


def client_figures(workload, calls):
    """Throughput and call latency in seconds; call latency and operation
    cost in reference units.

    A sweep call's cost is summed over its reference marks, so the operation
    cost is the calls' total cost over their grid cells. A `separate`
    workload takes the median cost of each algorithm's calls, then the mean
    over algorithms: the cost of one call of an even mix of them.
    """
    completed = sum(call.ops - call.failed_ops for call in calls)
    if workload.kind == "sweep":
        op_cost = sum(c.cost_ref for c in calls) / sum(c.ops for c in calls)
    else:
        by_algo = {}
        for call in calls:
            algo = workload.algos[call.index % len(workload.algos)]
            by_algo.setdefault(algo, []).append(call.cost_ref)
        op_cost = statistics.fmean(
            statistics.median(costs) for costs in by_algo.values())
    return {
        "latency_s": latency_summary([call.latency_s for call in calls]),
        "latency_ref": latency_summary([call.cost_ref for call in calls]),
        "throughput_ops_per_s": completed / sum(c.latency_s for c in calls),
        "op_cost_ref": op_cost,
    }


def sdri_db(workload, calls):
    """Quality of the scored calls: the sweep's best cell mean SDRi, or the
    mean SDRi of the separate calls."""
    rows = [row for call in calls[: workload.scored_calls] for row in call.rows]
    if workload.kind == "separate":
        return statistics.fmean(float(row["sdri"]) for row in rows)
    cells = {}
    for row in rows:
        key = (row["beta"], row["d"], row["direction"], row["step_size"])
        cells.setdefault(key, []).append(float(row["sdri"]))
    return max(statistics.fmean(values) for values in cells.values())


def wasted_work(workload, calls):
    """Counts over the scored calls' result rows, one row per solver run.

    A run is diverged when the program says so, blown up when it says "ok"
    but lost more than 10 dB against its initialisation, useful otherwise.
    """
    rows = [row for call in calls[: workload.scored_calls] for row in call.rows]
    diverged = sum(row["status"] == "diverged" for row in rows)
    blowup = sum(
        row["status"] == "ok" and float(row["sdri"]) < BLOWUP_SDRI_DB
        for row in rows
    )
    attempted = len(rows)
    return {
        "solvers.attempted_runs": attempted,
        "solvers.diverged_runs": diverged,
        "solvers.blowup_runs": blowup,
        "solvers.useful_frac": (attempted - diverged - blowup) / attempted
        if attempted else 0.0,
    }
