"""Smoke checks of the benchmark at tiny size.

Run from the root of a checkout:  python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_GRID = ("--betas", "0,1.5", "--step-sizes", "0.1", "--directions", "left",
             "--d-values", "1")


@pytest.fixture(scope="module")
def workloads():
    run._import_program()
    import workloads

    return workloads


def _tiny(workload):
    changes = {"clip_seconds": 0.25, "min_calls": 3, "scored_calls": 2}
    if workload.kind == "sweep":
        changes.update(cli_args=workload.cli_args + TINY_GRID, cells=2)
    return dataclasses.replace(workload, **changes)


def test_workloads_match_benchmark_json(workloads):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOAD_NAMES))
def test_tiny_run_is_correct_and_reports_every_metric(workloads, tmp_path, name, trace):
    report = run.run(_tiny(workloads.WORKLOADS[name]), 3, 0.0, trace, tmp_path)
    assert report["attempted"] > 0
    assert report["failed"] == 0, report["failures"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert run._unit(metric["name"]) == metric["unit"]


def test_sweep_check_catches_a_changed_pass(workloads):
    workload = _tiny(workloads.WORKLOADS["sweep_grid"])
    header = "algo,beta,d,direction,step_size,snr_db,sigma,seed,mixture_id,status,sdr_init,sdr,sdri\n"
    row = "pgd,1.000000,1,left,0.100000,0.000000,0.500000,1,mix_0,ok,1.0,2.0,%s\n"
    first = (header + row % "1.0" + row % "1.0").encode()
    assert workloads.check_sweep(workload, first, first)[0] == []
    assert workloads.check_sweep(workload, first.replace(b"2.0,1.0", b"2.0,1.5"), first)[0]
    assert workloads.check_sweep(workload, (header + row % "nan" + row % "1.0").encode(), None)[0]
    assert workloads.check_sweep(workload, (header + row % "1.0").encode(), None)[0]


def test_latency_tail_has_ten_samples_beyond_it(workloads):
    summary = workloads.latency_summary([float(v) for v in range(40)])
    assert summary["tail"] == 29.0 and summary["beyond"] == 10
    assert summary["p50"] == 19.5
    assert workloads.latency_summary([1.0, 3.0, 2.0])["tail"] == 3.0


def test_host_clock_divides_by_the_median_of_nearby_references(workloads,
                                                              monkeypatch):
    clock = workloads.HostClock(frames=4, seed=0)
    clock.refs_s = [1.0, 3.0, 100.0, 2.0, 2.0]
    clock.stretches = [(4.0, 1), (6.0, 3)]
    assert clock.wall_s(0, 2) == 10.0
    monkeypatch.setattr(workloads, "REF_WINDOW", 1)
    # the two references that bracket each stretch
    assert clock.cost_ref(0, 1) == 4.0 / 2.0
    assert clock.cost_ref(1, 2) == 6.0 / 51.0
    monkeypatch.setattr(workloads, "REF_WINDOW", 2)
    # refs 1..4: the median sets the outlier aside
    assert clock.cost_ref(1, 2) == 6.0 / 2.5


def _copy_benchmark(dest, with_program):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def _command(workload, seconds):
    return SPEC["command"] + ["--workload", workload, "--seed", "5",
                              "--seconds", str(seconds), "--trace", "0"]


def test_command_prints_result_line_in_a_checkout(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    done = subprocess.run(_command("separate_baselines_short", 1), cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    done = subprocess.run(_command("sweep_grid", 1), cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
