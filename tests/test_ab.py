"""The A/B tool's summary arithmetic and its refusals (tools/ab.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_quartiles_are_inclusive():
    assert ab.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better():
    pairs = [(2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (1.0, 0.5), (3.0, 1.0)]
    summary = ab.summarise(pairs, "lower")
    assert summary["pairs"] == 5
    # the tie counts for neither side
    assert (summary["change_wins"], summary["parent_wins"]) == (3, 1)
    assert summary["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert summary["change"] == {"q1": 1.0, "median": 1.0, "q3": 2.0}
    assert summary["change_minus_parent"] == -1.0
    assert summary["parent_iqr"] == 0.0
    assert summary["clears_parent_iqr"]


def test_higher_is_better_counts_the_other_way():
    pairs = [(2.0, 1.0), (2.0, 2.0), (2.0, 3.0), (1.0, 0.5), (3.0, 1.0)]
    summary = ab.summarise(pairs, "higher")
    assert (summary["change_wins"], summary["parent_wins"]) == (1, 3)
    assert not summary["clears_parent_iqr"]


def test_a_gain_inside_the_parent_spread_does_not_clear_it():
    pairs = [(1.0, 0.9), (2.0, 1.9), (3.0, 2.9), (4.0, 3.9)]
    summary = ab.summarise(pairs, "lower")
    assert summary["change_wins"] == 4
    assert summary["parent_iqr"] == pytest.approx(1.5)
    assert summary["change_minus_parent"] == pytest.approx(-0.1)
    assert not summary["clears_parent_iqr"]


def test_a_gain_needs_nine_tenths_of_all_pairs_ties_counting_for_neither():
    # 10 pairs, the change 1.0 better where it wins, well clear of the spread
    def pairs(wins, ties):
        return ([(3.0, 2.0)] * wins + [(3.0, 3.0)] * ties
                + [(3.0, 3.5)] * (10 - wins - ties))

    for wins, ties, gain in ((10, 0, True), (9, 0, True), (9, 1, True),
                             (8, 2, False), (8, 0, False)):
        summary = ab.summarise(pairs(wins, ties), "lower")
        assert summary["clears_parent_iqr"]
        assert summary["gain"] is gain, (wins, ties)
    # higher is better: the same pairs seen from the other side
    flipped = [(-p, -c) for p, c in pairs(9, 1)]
    assert ab.summarise(flipped, "higher")["gain"]
    assert not ab.summarise(flipped, "lower")["gain"]


def test_all_pairs_won_inside_the_parent_spread_is_no_gain():
    pairs = [(1.0, 0.9), (2.0, 1.9), (3.0, 2.9), (4.0, 3.9)]
    summary = ab.summarise(pairs, "lower")
    assert summary["change_wins"] == 4 and not summary["gain"]


def test_a_regression_is_worse_than_the_parent_by_more_than_the_bound():
    # the bound is a fraction of the parent's median: 2.0 here, either way
    for better, change, regressed in (("lower", 12.0, False), ("lower", 12.5, True),
                                      ("lower", 5.0, False), ("higher", 8.0, False),
                                      ("higher", 7.5, True), ("higher", 15.0, False)):
        summary = ab.summarise([(10.0, change)] * 4, better, 0.2)
        assert summary["regressed"] is regressed, (better, change)
        assert summary["unresolved"] is False
    # no bound, no verdict: the clock has none
    assert "regressed" not in ab.summarise([(1.0, 2.0)], "lower")


def test_unknown_direction_rejected():
    with pytest.raises(ValueError):
        ab.summarise([(1.0, 2.0)], "faster")


def _checkout(root, bench=""):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(bench)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "op_cost_ref", "better": "lower", "bound": 0.2},
        {"name": "sdri_db", "better": "higher", "bound": 0.15},
    ]}))
    return root


def test_paths_of_unequal_length_refused(tmp_path, capsys):
    parent, change = _checkout(tmp_path / "par"), _checkout(tmp_path / "change")
    with pytest.raises(ValueError, match="length"):
        ab.check_paths(parent, change)
    code = ab.main([
        "--parent", str(parent), "--change", str(change), "--workloads", "w",
        "--seeds", "1", "--out", str(tmp_path / "out.json"),
    ])
    assert code == 2
    assert "length" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_checkout_without_the_benchmark_refused(tmp_path):
    _checkout(tmp_path / "par")
    (tmp_path / "new").mkdir()
    with pytest.raises(ValueError, match="bench/run.py"):
        ab.check_paths(tmp_path / "par", tmp_path / "new")


def test_pairs_alternate_and_the_report_sums_them(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "par"), _checkout(tmp_path / "new")
    calls = []

    def fake_run(root, workload, seed, seconds):
        side = "parent" if root == parent.resolve() else "change"
        calls.append((workload, seed, side))
        assert seconds == 20
        cost = {"parent": 3.0, "change": 2.0}[side] + seed / 100.0
        return {"correct": True, "attempted": 10, "failed": int(side == "parent"),
                "metrics": {"op_cost_ref": {"value": cost, "unit": "ref"},
                            "sdri_db": {"value": 1.5, "unit": "dB"}},
                "clock": {"reference_s": 0.01, "call_s": 0.01 * cost}}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert ab.main([
        "--parent", str(parent), "--change", str(change),
        "--workloads", "a", "b", "--seeds", "1", "2", "3",
        "--out", str(out),
    ]) == 0
    assert calls == [
        ("a", 1, "parent"), ("a", 1, "change"), ("b", 1, "parent"), ("b", 1, "change"),
        ("a", 2, "change"), ("a", 2, "parent"), ("b", 2, "change"), ("b", 2, "parent"),
        ("a", 3, "parent"), ("a", 3, "change"), ("b", 3, "parent"), ("b", 3, "change"),
    ]
    report = json.loads(out.read_text())
    assert report["seeds"] == [1, 2, 3] and report["seconds"] == 20.0
    assert report["checkouts"] == {"parent": "par", "change": "new",
                                   "path_length": len(str(parent.resolve()))}
    assert set(report["environment"]) >= {"python", "numpy", "scipy", "nproc"}
    for workload in ("a", "b"):
        summary = report["workloads"][workload]
        cost = summary["metrics"]["op_cost_ref"]
        assert cost["parent"]["median"] == pytest.approx(3.02)
        assert cost["change"]["median"] == pytest.approx(2.02)
        assert (cost["change_wins"], cost["parent_wins"]) == (3, 0)
        sdri = summary["metrics"]["sdri_db"]
        assert (sdri["change_wins"], sdri["parent_wins"]) == (0, 0)
        assert summary["failed"] == {"parent": 3, "change": 0}
        assert summary["attempted"] == {"parent": 30, "change": 30}
        assert [pair["first"] for pair in summary["runs"]] == [
            "parent", "change", "parent"]
        assert summary["exited_nonzero"] == {"parent": 0, "change": 0}
        clock = summary["clock"]
        assert clock["reference_s"]["change_minus_parent"] == 0.0
        assert clock["call_s"]["parent"]["median"] == pytest.approx(0.0302)
        assert clock["call_s"]["change"]["median"] == pytest.approx(0.0202)


# a stand-in for bench/run.py: writes a report whose reference and call
# times scale with COST, and prints a report line; or exits 3 at seed 2
_FAKE_BENCH = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
assert args["--seconds"] == "20" and args["--trace"] == "0"
if args["--seed"] == "2" and EXIT_AT_SEED_2:
    sys.exit(3)
out = pathlib.Path(".bench_out")
out.mkdir(exist_ok=True)
(out / ("report-%s-seed%s-trace0.json" % (args["--workload"], args["--seed"]))
 ).write_text(json.dumps({
    "reference_s": [0.01 * COST, 0.02 * COST, 0.04 * COST],
    "call_latencies_s": [[0, False, 0.1 * COST, COST], [1, False, 0.5, 7.0]]}))
print("a line before the report")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "op_cost_ref": {"value": COST, "unit": "ref"},
    "sdri_db": {"value": 1.5, "unit": "dB"}}}))
"""


def test_a_run_that_exits_nonzero_is_kept_and_the_rest_still_summed(tmp_path, capsys):
    parent = _checkout(tmp_path / "par", _FAKE_BENCH.replace(
        "EXIT_AT_SEED_2", "False").replace("COST", "3.0"))
    change = _checkout(tmp_path / "new", _FAKE_BENCH.replace(
        "EXIT_AT_SEED_2", "True").replace("COST", "2.0"))
    out = tmp_path / "BENCH.json"
    assert ab.main([
        "--parent", str(parent), "--change", str(change), "--workloads", "a",
        "--seeds", "1", "2", "3", "--out", str(out),
    ]) == 1
    summary = json.loads(out.read_text())["workloads"]["a"]
    assert [sorted(pair) for pair in summary["runs"]] == [
        ["change", "first", "parent", "seed"]] * 3
    assert summary["runs"][1]["change"] == {"correct": False, "returncode": 3}
    assert summary["exited_nonzero"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 12, "change": 8}
    assert summary["failed"] == {"parent": 0, "change": 0}
    # only the two pairs whose runs both finished are summarised
    cost = summary["metrics"]["op_cost_ref"]
    assert cost["pairs"] == 2 and cost["change_wins"] == 2
    assert cost["parent"]["median"] == 3.0 and cost["change"]["median"] == 2.0
    # each run's clock is read from the report it wrote
    assert summary["runs"][0]["parent"]["clock"] == pytest.approx(
        {"reference_s": 0.06, "call_s": 0.4})
    assert summary["runs"][2]["change"]["clock"] == pytest.approx(
        {"reference_s": 0.04, "call_s": 0.35})
    clock = summary["clock"]
    assert clock["reference_s"]["pairs"] == 2
    assert clock["reference_s"]["parent"]["median"] == pytest.approx(0.06)
    assert clock["reference_s"]["change"]["median"] == pytest.approx(0.04)
    assert clock["call_s"]["change_wins"] == 2
    err = capsys.readouterr().err
    assert '"reference_s": 0.06' in err and '"call_s": 0.35' in err


def test_a_workload_with_no_finished_pair_has_no_summary(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "par"), _checkout(tmp_path / "new")
    monkeypatch.setattr(ab, "run_bench", lambda *args: {"correct": False,
                                                         "returncode": 1})
    out = tmp_path / "BENCH.json"
    assert ab.main([
        "--parent", str(parent), "--change", str(change), "--workloads", "a",
        "--seeds", "1", "--out", str(out),
    ]) == 1
    summary = json.loads(out.read_text())["workloads"]["a"]
    assert summary["metrics"] == {} and summary["clock"] == {}
    assert summary["exited_nonzero"] == {"parent": 1, "change": 1}


def test_a_line_per_workload_and_metric_states_the_gain(tmp_path, monkeypatch,
                                                        capsys):
    parent, change = _checkout(tmp_path / "par"), _checkout(tmp_path / "new")

    def fake_run(root, workload, seed, seconds):
        # workload a: the change costs less in 9 pairs and ties in seed 10,
        # and reads higher SDRi in all 10; workload b: it costs less in 8
        # pairs, ties in 2, and reads lower SDRi in all 10
        side = "parent" if root == parent.resolve() else "change"
        cost, sdri = 3.0 + seed / 100.0, 1.5
        if side == "change":
            tied = seed == 10 if workload == "a" else seed >= 9
            cost -= 0.0 if tied else 1.0
            sdri += 0.25 if workload == "a" else -0.25
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"op_cost_ref": {"value": cost, "unit": "ref"},
                            "sdri_db": {"value": sdri, "unit": "dB"}},
                "clock": {"reference_s": 0.01, "call_s": 0.01 * cost}}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert ab.main([
        "--parent", str(parent), "--change", str(change), "--workloads", "a", "b",
        "--seeds", *map(str, range(1, 11)), "--out", str(out),
    ]) == 0
    metrics = {workload: summary["metrics"] for workload, summary
               in json.loads(out.read_text())["workloads"].items()}
    assert [[metrics[w][m]["gain"] for m in ("op_cost_ref", "sdri_db")]
            for w in ("a", "b")] == [[True, True], [False, False]]
    assert metrics["b"]["op_cost_ref"]["clears_parent_iqr"]
    assert (metrics["b"]["op_cost_ref"]["change_wins"],
            metrics["b"]["op_cost_ref"]["parent_wins"]) == (8, 0)
    assert capsys.readouterr().out.splitlines() == [
        "a op_cost_ref: parent 3.055, change 2.055 (-32.73 %), parent IQR 0.045, "
        "pairs won 9/0 of 10, gain true, regressed false, unresolved false",
        "a sdri_db: parent 1.5, change 1.75 (+16.67 %), parent IQR 0, "
        "pairs won 10/0 of 10, gain true, regressed false, unresolved false",
        "b op_cost_ref: parent 3.055, change 2.055 (-32.73 %), parent IQR 0.045, "
        "pairs won 8/0 of 10, gain false, regressed false, unresolved false",
        # 0.25 dB below a 1.5 dB parent: past the bound of 0.15 x 1.5
        "b sdri_db: parent 1.5, change 1.25 (-16.67 %), parent IQR 0, "
        "pairs won 0/10 of 10, gain false, regressed true, unresolved false",
    ]


def test_regressed_and_unresolved_from_fake_runs(tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "par"), _checkout(tmp_path / "new")

    def fake_run(root, workload, seed, seconds):
        # the parent's cost spreads by 0.45 around 10.55, inside the 20 %
        # bound; its SDRi alternates 4 and 8 dB, an IQR of 4 dB, wider than
        # 15 % of its 6 dB median.  The change costs 25 % more in "slower"
        # and 15 % more in "within", and reads 6 dB of SDRi in "slower",
        # 9 dB, above every parent run, in "within"
        side = "parent" if root == parent.resolve() else "change"
        cost, sdri = 10.0 + seed / 10.0, 4.0 + 4.0 * (seed % 2)
        if side == "change":
            cost *= 1.25 if workload == "slower" else 1.15
            sdri = 6.0 if workload == "slower" else 9.0
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"op_cost_ref": {"value": cost, "unit": "ref"},
                            "sdri_db": {"value": sdri, "unit": "dB"}},
                "clock": {"reference_s": 0.01, "call_s": 0.01 * cost}}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    assert ab.main([
        "--parent", str(parent), "--change", str(change),
        "--workloads", "slower", "within",
        "--seeds", *map(str, range(1, 11)), "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())["workloads"]
    verdicts = {(workload, name): (metric["regressed"], metric["unresolved"])
                for workload, summary in report.items()
                for name, metric in summary["metrics"].items()}
    assert verdicts == {
        ("slower", "op_cost_ref"): (True, False),
        ("slower", "sdri_db"): (False, True),
        ("within", "op_cost_ref"): (False, False),
        ("within", "sdri_db"): (False, False),
    }
    assert [line.split(", gain ")[1] for line in capsys.readouterr().out.splitlines()] == [
        "false, regressed true, unresolved false",
        "false, regressed false, unresolved true",
        "false, regressed false, unresolved false",
        "false, regressed false, unresolved false",
    ]
    # the clock has no bound, so no verdict
    assert "regressed" not in report["slower"]["clock"]["call_s"]
