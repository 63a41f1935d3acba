"""Per-layer measurement for the bregsep benchmark: spans around the calls
`bregsep.cli` makes into each layer, probes that time the layers' public
functions directly, computed transform traffic, and the environment.

Spans are recorded from the benchmark's own files: the wrapped names are
patched in the `bregsep.cli` namespace for the duration of a traced call and
restored afterwards, so the program's sources stay untouched.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import bregsep
from bregsep import cli

# name patched in bregsep.cli -> layer (module) it belongs to
SPANNED = {
    "main": "cli",
    "load_wav": "audio",
    "write_wav": "audio",
    "align_noise": "mixing",
    "mix_at_snr": "mixing",
    "provide_spectrograms": "mixing",
    "amplitude_mask_init": "solvers",
    "projected_gradient": "solvers",
    "misi": "solvers",
    "griffin_lim": "solvers",
    "sdr": "metrics",
}
SPAN_LAYERS = ("cli", "solvers", "mixing", "metrics", "audio")

# the PGD settings of separate_pgd_long, used by every PGD probe
PGD_SPEC = dict(beta=1.5, direction="left", d=1)
PGD_STEP = 0.1
ITERATIONS = 5
GRAD_BETAS = (0.0, 1.0, 1.5)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Tracer:
    """Keeps spans in memory: [name, layer, op, parent, start, end, failed].

    `op` is the index of the root `main` call the span belongs to; `parent`
    is the index of the enclosing span, or None for the root.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ops = 0

    def _wrap(self, name, layer, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._ops += 1
            span = [name, layer, self._ops - 1, parent, time.perf_counter(),
                    None, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every SPANNED name in bregsep.cli; restore them on exit."""
        originals = {name: getattr(cli, name) for name in SPANNED}
        try:
            for name, layer in SPANNED.items():
                setattr(cli, name, self._wrap(name, layer, originals[name]))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def layer_metrics(self):
        """Per layer and per traced `main` call: spans, total and self ms;
        failures (spans that raised) as a plain count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[5] - span[4]
        roots = max(self._ops, 1)
        out = {}
        for layer in SPAN_LAYERS:
            mine = [(i, s) for i, s in enumerate(self.spans) if s[1] == layer]
            total = sum(s[5] - s[4] for _, s in mine)
            own = sum(s[5] - s[4] - child_time[i] for i, s in mine)
            out[layer + ".calls"] = len(mine) / roots
            out[layer + ".total_ms"] = 1000.0 * total / roots
            out[layer + ".self_ms"] = 1000.0 * own / roots
            out[layer + ".failures"] = sum(s[6] for _, s in mine)
        return out

    def dump(self):
        keys = ("name", "layer", "op", "parent", "start", "end", "failed")
        return [dict(zip(keys, span)) for span in self.spans]


def _median_ms(fn, min_reps=3, budget_s=0.25):
    """Median wall time of fn() in ms over at least min_reps calls."""
    times = []
    started = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - started < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def probe_layers(clip, provider, seed, work):
    """Time each layer's public functions at the shape of one workload clip.

    Args:
        clip: workloads.Clip whose speech and noise files set the shape.
        provider: (mode, sigma) of the workload's spectrogram provider.
        seed: seed for noise alignment and the provider.
        work: directory for the WAV written by the write probe.

    Returns:
        Dict of per-layer metrics, times in ms.
    """
    b = bregsep
    config = b.StftConfig(1024, 256)
    speech = b.load_wav(clip.speech)
    noise = b.load_wav(clip.noise)
    aligned = b.align_noise(noise, len(speech), seed)
    mixture, scaled = b.mix_at_snr(speech, aligned, 0.0)
    spec = b.ProviderSpec(provider[0], provider[1], seed)
    measurements = b.provide_spectrograms([speech, scaled], spec, 1, config)
    init = b.amplitude_mask_init(measurements, mixture, config)
    data = b.stft(mixture, config)
    solver = b.SolverConfig(b.DivergenceSpec(**PGD_SPEC), PGD_STEP, ITERATIONS)
    one_step = b.SolverConfig(b.DivergenceSpec(**PGD_SPEC), PGD_STEP, 1)
    n = len(mixture)
    out = {
        "audio.load_ms": _median_ms(lambda: b.load_wav(clip.speech)),
        "audio.write_ms": _median_ms(
            lambda: b.write_wav(work / "probe.wav", mixture)),
        "mixing.mix_ms": _median_ms(
            lambda: b.mix_at_snr(speech, b.align_noise(noise, n, seed), 0.0)),
        "mixing.provide_ms": _median_ms(
            lambda: b.provide_spectrograms([speech, scaled], spec, 1, config)),
        "metrics.sdr_ms": _median_ms(lambda: b.sdr(speech, init[0])),
        "transform.setup_ms": _median_ms(
            lambda: b.normalization_constant(config)),
        "transform.stft_ms": _median_ms(lambda: b.stft(mixture, config)),
        "transform.istft_ms": _median_ms(lambda: b.istft(data, n)),
        "solvers.init_ms": _median_ms(
            lambda: b.amplitude_mask_init(measurements, mixture, config)),
        "solvers.descent_ms": _median_ms(
            lambda: b.objective_gradient(
                init[0], measurements[0], solver.spec, config)),
        "solvers.project_ms": _median_ms(
            lambda: b.project_to_mixture(init, mixture)),
        "solvers.misi_ms": _median_ms(
            lambda: b.misi(measurements, mixture, ITERATIONS, config, init=init)),
        "solvers.gl_ms": _median_ms(
            lambda: b.griffin_lim(measurements[0], init[0], ITERATIONS, config)),
    }
    pgd_run = _median_ms(
        lambda: b.projected_gradient(measurements, mixture, solver, config,
                                     init=init))
    pgd_one = _median_ms(
        lambda: b.projected_gradient(measurements, mixture, one_step, config,
                                     init=init))
    out["solvers.pgd_run_ms"] = pgd_run
    out["solvers.pgd_iter_ms"] = (pgd_run - pgd_one) / (ITERATIONS - 1)
    floor = 1e-12
    magnitude = np.maximum(np.abs(b.stft(init[0], config).data), floor)
    target = np.maximum(measurements[0].data, floor)
    for d in (1, 2):
        for direction in ("right", "left"):
            for beta in GRAD_BETAS:
                div = b.DivergenceSpec(beta, direction, d)
                name = "divergence.grad_term_ms.%s.d%d.beta%g" % (direction, d, beta)
                out[name] = _median_ms(
                    lambda: b.grad_term(div, target**d, magnitude**d))
    return out


def transform_traffic(n_frames, win=1024, hop=256):
    """Computed (not measured) work of one stft and one istft call.

    Model: a real FFT of N points costs 2.5 N log2 N flops; each frame adds
    N multiplies for the window, and the istft N more adds for overlap-add.
    Bytes: the float64 signal and the complex128 spectrogram are each moved
    once, and the float64 frame matrix is written once and read once.
    Cache hits and misses are ignored, so these are lower bounds on traffic.
    """
    bins = win // 2 + 1
    signal = 8 * ((n_frames - 1) * hop + win)
    spectrogram = 16 * bins * n_frames
    frames = 8 * win * n_frames
    fft = 2.5 * win * math.log2(win) * n_frames
    moved = signal + spectrogram + 2 * frames
    out = {}
    for kernel, flops in (("stft", fft + win * n_frames),
                          ("istft", fft + 2 * win * n_frames)):
        out[kernel] = {
            "shape": "%dx%d" % (bins, n_frames),
            "spectrogram_bytes": spectrogram,
            "frames_bytes": frames,
            "bytes_moved": moved,
            "flops": flops,
            "flops_per_byte": flops / moved,
        }
    return out


def _cache_bytes(level):
    """Size of the first data or unified cache at level, from sysfs."""
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            return None
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Versions, CPU, cache sizes and thread settings of this run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
