"""Benchmark of bregsep: sweep throughput and `separate` latency.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/workloads.py for why each exists):
sweep_grid, separate_pgd_long, separate_baselines_short. One closed-loop
client in this process calls `bregsep.cli.main` with inputs generated from
--seed, for --seconds (and at least a workload-set number of calls), and
checks every output.

An operation is a grid cell of a sweep or one `separate` call; a call is
one `bregsep.cli.main` invocation (a sweep call covers one mixture). With
--trace 0 the end-to-end metrics are reported, measured untraced:

    setup_s           median of 5 set-ups (corpus, WAVs, one warm call),
                      in seconds at the reference's nominal speed (below)
    op_cost_ref       time of one operation in reference units (below):
                      sweep: the calls' total over their grid cells;
                      separate: per algorithm the median call, then the
                      mean over algorithms
    latency_tail_ref  call latency in reference units at the highest
                      percentile with ten calls beyond it (the maximum
                      with ten calls or fewer); percentile and count are
                      printed
    sdri_db           sweep: best grid cell's mean SDRi; separate: mean
                      SDRi; both over the first, fixed set of calls
    peak_rss_mb       peak resident memory of this process

A reference unit is the time a fixed STFT round trip in numpy, owned by
the benchmark and sized to the workload's clips, takes in this process next
to the calls it measures: it runs after every call, and every few grid
cells inside a sweep call, and each stretch of program time is divided by
the median of the reference runs around it. The shared host this was built
on changes speed by 10-30% for tens of seconds at a time; that moves the
reference and the program alike, so their ratio holds within a few percent
while a change to the program still moves it. Set-up is timed the same way
against a fixed-size reference and multiplied by that reference's median
time on the host the benchmark was built on.

glibc malloc's thresholds are held fixed for the run (see _hold_allocator):
left to adapt, they made the benchmark's own arrays decide whether the
program's were reused or faulted in afresh, which moved sweep calls between
12 and 21 s.

The wall-clock figures are still measured and printed; the traced run
records them as client.throughput_ops_per_s, client.latency_p50_s,
client.latency_tail_s and setup.wall_s, and the reference's own median time
as client.ref_ms, so a run's host speed shows.

With --trace 1 the run alternates untraced and traced calls, then probes each
layer's public functions at the workload's shape, and reports the per-layer
metrics. Every metric is printed as `metric <name> <value> <unit>`; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full report, and the spans of a traced run, are
written under .bench_out/ in the checkout.

The program is imported from the checkout's own src/; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep_grid", "separate_pgd_long", "separate_baselines_short")
# the client adds no threads; native libraries get one each as well
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
UNITS = {
    "setup_s": "s",
    "op_cost_ref": "ref",
    "latency_tail_ref": "ref",
    "sdri_db": "dB",
    "peak_rss_mb": "MB",
    "client.throughput_ops_per_s": "1/s",
    "client.latency_p50_s": "s",
    "client.latency_tail_s": "s",
    "setup.wall_s": "s",
}
TRAFFIC_FRAMES = (128, 1878)  # 2 s and 30 s clips at hop 256
# glibc mallopt parameters, and the values they are held at: where glibc's
# own adjustment ends, the mmap threshold at its 32 MiB cap and the trim
# threshold at twice that
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HELD_THRESHOLDS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 64 << 20}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on sys.path and import bregsep from it."""
    src = ROOT / "src"
    if not (src / "bregsep" / "__init__.py").is_file():
        raise ImportError("no bregsep sources under %s" % src)
    sys.path.insert(0, str(src))
    import bregsep

    if Path(bregsep.__file__).resolve().parent != (src / "bregsep").resolve():
        raise ImportError("bregsep imported from %s, not %s" % (bregsep.__file__, src))


def _hold_allocator():
    """Hold glibc malloc's mmap and trim thresholds where its own adjustment
    ends (HELD_THRESHOLDS).

    By default glibc raises both each time it frees a block larger than the
    mmap threshold, to that block's size. Whether the program's arrays then
    come from the heap or from fresh pages, which the kernel must fault in,
    turns on whether some earlier block, the benchmark's own included, was
    a few KiB larger than them: on the sweep that moved a call between 12
    and 21 s, with 60 times the page faults. Held at the end of their range,
    arrays up to 32 MiB are reused from the heap whatever ran before; page
    faults per call are recorded in the traced run.

    Returns:
        True when both thresholds are held; False off glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return all(libc.mallopt(param, value) == 1
               for param, value in HELD_THRESHOLDS.items())


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    suffixes = {"_ms": "ms", "_pct": "%", "_frac": "fraction"}
    for part in name.split("."):
        for suffix, unit in suffixes.items():
            if part.endswith(suffix):
                return unit
    return "count"


def run(workload, seed, seconds, trace, out_root):
    """Set up, run the closed loop, and return the full report as a dict."""
    import layers
    import workloads

    work = out_root / ("work-%s-%d" % (workload.name, seed))
    clips, setup_s, setup_times = workloads.setup(workload, seed, work)
    tracer = layers.Tracer() if trace else None
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calls, clock = workloads.run_calls(workload, clips, seed, seconds, work,
                                       tracer)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    attempted = sum(call.ops for call in calls)
    failed = sum(call.failed_ops for call in calls)
    untraced = [c for c in calls if not c.traced]
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "calls": len(calls),
        "attempted": attempted,
        "failed": failed,
        "failures": [(c.index, c.problems) for c in calls if c.problems],
        "setup_times_s": setup_times,
        "call_latencies_s": [[c.index, c.traced, c.latency_s, c.cost_ref]
                             for c in calls],
        "reference_s": clock.refs_s,
        "client": workloads.client_figures(workload, untraced),
        "environment": layers.environment(),
        "transform_traffic_computed": {
            str(frames): layers.transform_traffic(frames)
            for frames in TRAFFIC_FRAMES
        },
    }
    if not trace:
        report["metrics"] = {
            "setup_s": setup_s,
            "op_cost_ref": report["client"]["op_cost_ref"],
            "latency_tail_ref": report["client"]["latency_ref"]["tail"],
            "sdri_db": workloads.sdri_db(workload, calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        traced = [c.latency_s for c in calls if c.traced]
        provider = ("noisy_oracle", 0.5) if "noisy_oracle" in workload.cli_args \
            else ("oracle", 0.0)
        metrics = tracer.layer_metrics()
        metrics.update(layers.probe_layers(clips[0], provider, seed, work))
        metrics.update(workloads.wasted_work(workload, calls))
        metrics["checks.failed_frac"] = failed / attempted
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced)
            / statistics.median(c.latency_s for c in untraced) - 1.0)
        client = report["client"]
        metrics["client.throughput_ops_per_s"] = client["throughput_ops_per_s"]
        metrics["client.latency_p50_s"] = client["latency_s"]["p50"]
        metrics["client.latency_tail_s"] = client["latency_s"]["tail"]
        metrics["client.latency_tail_pct"] = client["latency_ref"]["tail_pct"]
        metrics["client.latency_samples"] = client["latency_ref"]["samples"]
        metrics["client.ref_ms"] = 1000.0 * statistics.median(clock.refs_s)
        metrics["setup.wall_s"] = statistics.median(setup_times)
        metrics["client.page_faults_per_call"] = faults / len(calls)
        report["metrics"] = metrics
        report["spans"] = tracer.dump()
    shutil.rmtree(work, ignore_errors=True)
    return report


def _print_report(report):
    env = report["environment"]
    print("workload %s seed %d trace %d: %s" % (
        report["workload"], report["seed"], report["trace"], report["why"]))
    print("environment %s" % json.dumps(env, sort_keys=True))
    client = report["client"]
    latency, tail = client["latency_s"], client["latency_ref"]
    print("untraced calls: %d, latency p50 %.6f s, tail p%.1f %.6f s with %d "
          "calls beyond it, %.4f ops/s" % (
              latency["samples"], latency["p50"], latency["tail_pct"],
              latency["tail"], latency["beyond"],
              client["throughput_ops_per_s"]))
    print("reference %.3f ms median of %d; operation cost %.4f ref; call "
          "latency p50 %.4f ref, tail p%.1f %.4f ref" % (
              1000.0 * statistics.median(report["reference_s"]),
              len(report["reference_s"]), client["op_cost_ref"], tail["p50"],
              tail["tail_pct"], tail["tail"]))
    for frames, kernels in report["transform_traffic_computed"].items():
        for kernel, t in kernels.items():
            print("computed %s %s: %d bytes moved, %.3f flops/byte; "
                  "spectrogram %d B, frames %d B, L2 %s B" % (
                      kernel, t["shape"], t["bytes_moved"], t["flops_per_byte"],
                      t["spectrogram_bytes"], t["frames_bytes"], env["l2_bytes"]))
    for index, problems in report["failures"]:
        print("FAILED call %d: %s" % (index, "; ".join(problems)))
    print("attempted %d failed %d failed_frac %.6f" % (
        report["attempted"], report["failed"],
        report["failed"] / max(report["attempted"], 1)))
    for name, value in sorted(report["metrics"].items()):
        print("metric %s %r %s" % (name, value, _unit(name)))


def main(argv=None):
    args = _parse(argv)
    os.environ.update(THREAD_LIMITS)
    allocator_held = _hold_allocator()
    try:
        _import_program()
    except ImportError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    report = run(workload, args.seed, args.seconds, args.trace, OUT)
    report["wall_s"] = time.perf_counter() - started
    report["environment"]["malloc_thresholds_held"] = allocator_held
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    spans = report.pop("spans", None)
    if spans is not None:
        (OUT / ("spans-%s.json" % tag)).write_text(json.dumps(spans))
    (OUT / ("report-%s.json" % tag)).write_text(json.dumps(report, indent=1))
    _print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
