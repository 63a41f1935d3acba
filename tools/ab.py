"""A/B of two checkouts on the benchmark: a parent and a change, in pairs.

Run from anywhere, with both checkouts' files in place:

    python3 tools/ab.py --parent ../ab/par --change ../ab/new \\
        --workloads separate_baselines_short separate_pgd_long \\
        --seeds 15201 15202 15203 15204 15205 15206 15207 15208 15209 15210 \\
        --out BENCH_15.json

Each seed is one pair per workload: `bench/run.py --trace 0` runs once in
each checkout, with the parent first in even-numbered pairs (counting from
0) and the change first in odd ones, so a drift of the host's speed falls on
both sides alike. Each checkout runs its own benchmark and program, for the
`run_seconds` of the change's BENCHMARK.json.

The output file holds, per workload and end-to-end metric of the change's
BENCHMARK.json: each side's median and quartiles, the change's median minus
the parent's, the parent's interquartile range, and the pairs each side won
(a tie counts for neither), over the pairs whose two runs both finished,
and `gain`: whether the change won at least nine tenths of those pairs and
its median is better than the parent's by more than the parent's IQR, the
rule a claimed gain must meet. The no-regression rule follows, with the
metric's `bound` in BENCHMARK.json read as a fraction of the parent's
median: `regressed`, the change's median worse than the parent's by more
than that fraction, and `unresolved`, the parent's IQR wider than it,
unless every run of the change is better than every run of the parent.
The same summary follows for each run's clock, read from the report the
run wrote under `.bench_out/`: its median reference time and its median
call wall time. A ratio to the reference such as `op_cost_ref` moves with
either, so the clock shows which one moved. Then come the failed and
attempted operations per side, the runs that exited non-zero (kept with
their exit code, and the tool exits 1 after writing the file), every run,
and the environment. After the runs, one line per workload and end-to-end
metric on stdout gives both medians, the relative change, the parent's IQR,
the pairs each side won, `gain`, `regressed` and `unresolved`.

Timings move with the length of the checkout's path, not only with the
code: the same program read 16-25 % faster in the longer-named of two
directories. So two checkouts whose absolute paths differ in length are
refused.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy


def check_paths(parent, change):
    """Absolute paths of the two checkouts; refuse paths of unequal length."""
    parent, change = Path(parent).resolve(), Path(change).resolve()
    if len(str(parent)) != len(str(change)):
        raise ValueError(
            "checkout paths differ in length (%s: %d, %s: %d); timings move "
            "with it, so put both in directories whose names have equal length"
            % (parent, len(str(parent)), change, len(str(change)))
        )
    for root in (parent, change):
        if not (root / "bench" / "run.py").is_file():
            raise ValueError("%s has no bench/run.py" % root)
    return parent, change


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs, better, bound=None):
    """The summary of one metric over (parent, change) pairs of values.

    better is "lower" or "higher": which way the metric improves.  A pair is
    a win for the side whose value is better; equal values count for neither.
    bound, given for an end-to-end metric, is its bound in BENCHMARK.json, a
    fraction of the parent's median; with it the summary adds `regressed`
    and `unresolved`, the no-regression rule (see the module).
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for index, side in enumerate(("parent", "change")):
        q1, median, q3 = quartiles([pair[index] for pair in pairs])
        sides[side] = {"q1": q1, "median": median, "q3": q3}
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    difference = sides["change"]["median"] - sides["parent"]["median"]
    change_wins = sum(sign * (c - p) < 0 for p, c in pairs)
    # the change is better by more than the parent's own spread
    clears = sign * difference < 0 and abs(difference) > parent_iqr
    summary = {
        "better": better,
        "pairs": len(pairs),
        "parent": sides["parent"],
        "change": sides["change"],
        "change_minus_parent": difference,
        "parent_iqr": parent_iqr,
        "change_wins": change_wins,
        "parent_wins": sum(sign * (c - p) > 0 for p, c in pairs),
        "clears_parent_iqr": clears,
        # at least nine tenths of all pairs won, ties counting for neither
        "gain": 10 * change_wins >= 9 * len(pairs) and clears,
    }
    if bound is not None:
        allowed = bound * abs(sides["parent"]["median"])
        every_run_better = (max(sign * c for _, c in pairs)
                            < min(sign * p for p, _ in pairs))
        summary["regressed"] = sign * difference > allowed
        summary["unresolved"] = parent_iqr > allowed and not every_run_better
    return summary


def gain_lines(report):
    """One line per workload and end-to-end metric of a report: both
    medians, the relative change, the parent's IQR, the pairs won, gain,
    regressed and unresolved."""
    for workload, summary in report["workloads"].items():
        for name, metric in summary["metrics"].items():
            parent, change = metric["parent"]["median"], metric["change"]["median"]
            relative = "n/a"
            if parent:
                relative = "%+.2f %%" % (100.0 * (change - parent) / parent)
            yield ("%s %s: parent %.6g, change %.6g (%s), parent IQR %.3g, "
                   "pairs won %d/%d of %d, gain %s, regressed %s, unresolved %s" % (
                       workload, name, parent, change, relative,
                       metric["parent_iqr"], metric["change_wins"],
                       metric["parent_wins"], metric["pairs"],
                       *(str(metric[key]).lower()
                         for key in ("gain", "regressed", "unresolved"))))


def run_bench(root, workload, seed, seconds):
    """The last stdout line of one `bench/run.py --trace 0` run, parsed, with
    the run's clock from the report it wrote: the median reference time and
    the median call wall time, in seconds.  For a run that exits non-zero,
    its exit code and no metrics."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        return {"correct": False, "returncode": done.returncode}
    run = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((root / ".bench_out" / (
        "report-%s-seed%d-trace0.json" % (workload, seed))).read_text())
    run["clock"] = {
        "reference_s": statistics.median(report["reference_s"]),
        "call_s": statistics.median(
            latency for _, _, latency, _ in report["call_latencies_s"]),
    }
    return run


def _environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        parent, change = check_paths(args.parent, args.change)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = {workload: [] for workload in args.workloads}
    for index, seed in enumerate(args.seeds):
        for workload in args.workloads:
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                root = parent if side == "parent" else change
                pair[side] = run = run_bench(root, workload, seed, seconds)
                shown = run
                if "metrics" in run:
                    shown = {name: metric["value"]
                             for name, metric in run["metrics"].items()}
                    shown.update(run["clock"])
                print("%s seed %d %s: %s" % (workload, seed, side,
                                             json.dumps(shown)),
                      file=sys.stderr, flush=True)
            runs[workload].append(pair)
    report = {
        # the directory names, and the length both paths share
        "checkouts": {"parent": parent.name, "change": change.name,
                      "path_length": len(str(parent))},
        "seconds": seconds,
        "seeds": args.seeds,
        "environment": _environment(),
        "workloads": {},
    }
    sides = ("parent", "change")
    for workload, pairs in runs.items():
        finished = [pair for pair in pairs
                    if all("metrics" in pair[side] for side in sides)]
        report["workloads"][workload] = {
            "metrics": {
                metric["name"]: summarise(
                    [(pair["parent"]["metrics"][metric["name"]]["value"],
                      pair["change"]["metrics"][metric["name"]]["value"])
                     for pair in finished],
                    metric["better"], metric["bound"],
                )
                for metric in benchmark["end_to_end"] if finished
            },
            "clock": {
                name: summarise(
                    [(pair["parent"]["clock"][name], pair["change"]["clock"][name])
                     for pair in finished],
                    "lower",
                )
                for name in ("reference_s", "call_s") if finished
            },
            "failed": {side: sum(pair[side].get("failed", 0) for pair in pairs)
                       for side in sides},
            "attempted": {side: sum(pair[side].get("attempted", 0) for pair in pairs)
                          for side in sides},
            "exited_nonzero": {side: sum("returncode" in pair[side] for pair in pairs)
                               for side in sides},
            "runs": pairs,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for line in gain_lines(report):
        print(line)
    crashed = any("returncode" in pair[side]
                  for pairs in runs.values() for pair in pairs for side in sides)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
