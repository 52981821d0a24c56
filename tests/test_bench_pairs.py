"""The pair runner's summary rules, on canned numbers (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.21, 0.20, 0.22, 0.21, 0.23, 0.20, 0.21, 0.22, 0.21, 0.20]


def test_nine_wins_and_a_gain_above_the_iqr_meet_the_rule():
    change = [0.18, 0.17, 0.19, 0.18, 0.19, 0.21, 0.18, 0.18, 0.17, 0.18]  # pair 6 lost
    s = bench_pairs.summarize_metric(PARENT, change, "lower", 0.25, claimed=True)
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
    assert s["parent"]["median"] == pytest.approx(0.21)
    assert s["parent"]["q1"] == pytest.approx(0.2025)
    assert s["parent"]["q3"] == pytest.approx(0.2175)
    assert s["median_gain"] == pytest.approx(0.03)
    assert s["relative_gain"] == pytest.approx(0.03 / 0.21)
    assert s["gain_rule_met"] and s["claimed"]
    assert s["bound_check"] == "within_bound"


def test_ties_count_for_neither_side():
    change = [p - 0.03 for p in PARENT]
    change[0], change[1] = PARENT[0] + 0.01, PARENT[1]  # a loss and a tie
    s = bench_pairs.summarize_metric(PARENT, change, "lower", 0.25, claimed=True)
    assert (s["wins"], s["losses"]) == (8, 1)
    assert not s["gain_rule_met"]  # 8/10 wins


def test_a_gain_inside_the_parent_iqr_is_not_claimed():
    change = [p - 0.005 for p in PARENT]  # wins every pair, by less than the IQR
    s = bench_pairs.summarize_metric(PARENT, change, "lower", 0.25, claimed=True)
    assert s["wins"] == 10 and not s["gain_rule_met"]


def test_bound_checks():
    parent = [100.0] * 10
    s = bench_pairs.summarize_metric(parent, [111.0] * 10, "lower", 0.1, claimed=False)
    assert s["bound_check"] == "regressed" and not s["gain_rule_met"]
    s = bench_pairs.summarize_metric(parent, [109.0] * 10, "lower", 0.1, claimed=False)
    assert s["bound_check"] == "within_bound"
    # a parent spread wider than the bound leaves the metric unresolved ...
    wide = [70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 100.0, 100.0, 100.0]
    s = bench_pairs.summarize_metric(wide, [105.0] * 10, "lower", 0.1, claimed=False)
    assert s["bound_check"] == "unresolved"
    # ... unless every change run is better than every parent run
    s = bench_pairs.summarize_metric(wide, [60.0] * 10, "lower", 0.1, claimed=False)
    assert s["bound_check"] == "within_bound"


def test_higher_is_better_metrics_flip_the_sign():
    parent = [10.0, 11.0, 10.0, 12.0, 10.0, 11.0, 10.0, 11.0, 10.0, 11.0]
    s = bench_pairs.summarize_metric(parent, [p + 3.0 for p in parent], "higher", 0.1, False)
    assert s["wins"] == 10 and s["median_gain"] == pytest.approx(3.0)
    assert s["gain_rule_met"] and s["bound_check"] == "within_bound"
    s = bench_pairs.summarize_metric(parent, [p - 3.0 for p in parent], "higher", 0.1, False)
    assert s["losses"] == 10 and s["bound_check"] == "regressed"


def test_workload_summary_reads_every_end_to_end_metric():
    def side(op_s, failed):
        return {"metrics": {"op_s": op_s, "peak_rss_mb": 110.0}, "correct": True,
                "failed": failed, "attempted": 20}

    pairs = [{"seed": 1 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": side(p, 0), "change": side(p - 0.03, int(i == 3))}
             for i, p in enumerate(PARENT)]
    end_to_end = [{"name": "op_s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    s = bench_pairs.summarize_workload(pairs, end_to_end, {"op_s"})
    assert s["pairs"] is pairs
    assert s["metrics"]["op_s"]["claimed"] and s["metrics"]["op_s"]["gain_rule_met"]
    rss = s["metrics"]["peak_rss_mb"]
    assert not rss["claimed"] and rss["wins"] == 0 and rss["losses"] == 0
    assert s["operations"] == {"parent": {"failed": 0, "attempted": 200},
                               "change": {"failed": 1, "attempted": 200}}


def test_seed_ranges():
    assert bench_pairs.seed_range("201-205") == [201, 202, 203, 204, 205]
    assert bench_pairs.seed_range("7") == [7]


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", never)
    out = tmp_path / "pairs.json"
    argv = ["--workload", "geometry", "--seeds", "1-2", "--seconds", "1", "--out", str(out)]
    (tmp_path / "parent").mkdir()
    (tmp_path / "change-x").mkdir()
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change-x"), *argv])
    assert code == 2 and "differ in length" in capsys.readouterr().err
    assert not out.exists()

    # equal lengths run
    def canned(checkout, command, workload, seed, seconds):
        return {"metrics": {"op_s": 0.2, "peak_rss_mb": 100.0}, "correct": True,
                "failed": 0, "attempted": 5}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "run.py"],
        "end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), *argv])
    assert code == 0 and len(json.loads(out.read_text())["workloads"]["geometry"]["pairs"]) == 2


def test_claims_outside_the_run_are_refused(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", never)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "run.py"],
        "end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "geometry", "--seeds", "1-2", "--seconds", "1", "--out", str(out)]
    # a workload the run does not measure, a per-layer metric, a typo, no metric
    for claim in ("eval-n512:op_s", "geometry:grid.convolve_s", "geometry:op_sec",
                  "geometry"):
        assert bench_pairs.main([*argv, "--claim", claim]) == 2
        assert f"--claim {claim} names no" in capsys.readouterr().err
    assert not out.exists()

    def canned(checkout, command, workload, seed, seconds):
        return {"metrics": {"op_s": 0.2, "peak_rss_mb": 100.0}, "correct": True,
                "failed": 0, "attempted": 5}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    assert bench_pairs.main([*argv, "--claim", "geometry:op_s"]) == 0
    metrics = json.loads(out.read_text())["workloads"]["geometry"]["metrics"]
    assert metrics["op_s"]["claimed"] and not metrics["peak_rss_mb"]["claimed"]
