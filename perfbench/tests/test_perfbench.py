"""Tests of the benchmark itself: span arithmetic, metric names against
BENCHMARK.json, and a short smoke run of each workload.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_on_synthetic_span_tree():
    t = spans.Tracer()
    root = t.add("dynamics.run", 0.0, 10.0, amount=5)
    play = t.add("learners.ftrl.play", 1.0, 4.0, parent=root)
    t.add("games.expected_utilities", 2.0, 3.0, parent=play)
    t.add("games.expected_utilities", 5.0, 9.0, parent=root)
    t.add("dynamics.report", 11.0, 12.5, error=True)
    summary = spans.summarize(t)
    per = summary["spans"]
    assert per["dynamics.run"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert per["learners.ftrl.play"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert per["games.expected_utilities"]["self_s"] == pytest.approx(1.0 + 4.0)
    assert per["games.expected_utilities"]["calls"] == 2
    assert per["dynamics.report"]["errors"] == 1
    assert summary["covered_s"] == pytest.approx(10.0 + 1.5)
    assert summary["oracle_calls_in_run"] == 1  # the other call's parent is the learner

    metrics, absent = spans.layer_metrics(summary, passes=1, traced_wall_s=14.0,
                                          untraced_wall_s=12.0)
    assert metrics["dynamics.run.us_per_round"][0] == pytest.approx(10.0 / 5 * 1e6)
    assert metrics["dynamics.run.self_us_per_round"][0] == pytest.approx(3.0 / 5 * 1e6)
    assert metrics["games.oracle_calls_per_round"][0] == pytest.approx(1 / 5)
    assert metrics["unattributed_s"][0] == pytest.approx(14.0 - 11.5)
    assert metrics["tracing.overhead_s"][0] == pytest.approx(2.0)
    assert metrics["dynamics.errors"][0] == 1
    assert metrics["dynamics.calls"][0] == 2
    assert "auctions.expected_utilities.us_per_call" in absent
    assert "dynamics.run.us_per_round" not in absent


def test_installed_traces_nested_calls_and_restores_originals():
    from regretlab import dynamics, games, library
    from regretlab.learners import LearnerSpec

    import regretlab

    before = (dynamics.run, regretlab.run, games.NormalFormGame.__dict__["expected_utilities"])
    tracer = spans.Tracer()
    game = library.make_random_game(2, [2, 2], 1)
    with spans.installed(tracer):
        regretlab.run(game, [LearnerSpec("optimistic_hedge", 0.1)] * 2, 3)
    assert (dynamics.run, regretlab.run,
            games.NormalFormGame.__dict__["expected_utilities"]) == before
    summary = spans.summarize(tracer)
    per = summary["spans"]
    assert per["dynamics.run"]["calls"] == 1 and per["dynamics.run"]["amount"] == 3
    assert per["games.expected_utilities"]["calls"] == 2 * 3
    assert per["learners.ftrl.play"]["calls"] == per["learners.ftrl.observe"]["calls"] == 6
    assert summary["oracle_calls_in_run"] == 3 * 3  # two utilities and welfare per round


def test_end_to_end_uses_each_operations_median_and_the_speed_factor():
    assert [run.min_ops(p) for p in (0.75, 0.90, 0.95)] == [40, 100, 200]
    # ten operations, four passes; "slow" was preempted once, "bad" always fails
    records = []
    for k in range(4):
        for i in range(8):
            records.append((f"op{i}", k, (i + 1) / 1000, True))
        records.append(("slow", k, 0.5 if k == 2 else 0.009, True))
        records.append(("bad", k, 0.001, False))
    res = {"op_records": records, "op_rounds": {**{f"op{i}": 10 for i in range(8)},
                                                "slow": 10, "bad": 10},
           "failed": 4, "attempted": 40, "timed_s": 2.0, "peak_rss_mb": 1.0,
           "calibration_s": [run.CAL_REF_MS / 2e3] * 9 + [1.0]}  # one outlier trimmed
    setup = [{"import_s": 1.0, "build_s": 0.5,
              "setup_calibration_s": [run.CAL_REF_MS / 1e3] * 5}] * 3
    metrics, detail = run.end_to_end("configs_cli", setup, res)
    assert detail["speed_factor"] == pytest.approx(2.0)
    assert detail["op_samples"] == 40 and detail["op_samples_beyond_tail"] == 10
    # sorted medians: 1..8 ms four times each, then 9 ms ("slow"), then failures
    assert metrics["op_p50_ms"] == pytest.approx(2 * 5.5)
    assert metrics["op_tail_ms"] == pytest.approx(2 * 8.0)
    assert metrics["rounds_per_s"] == pytest.approx(90 / (0.045 + 0.001) / 2)
    assert metrics["success_rate"] == pytest.approx(0.9)
    assert metrics["setup_s"] == pytest.approx(1.5)


def test_metric_and_workload_names_match_benchmark_json():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == sorted(workloads.WORKLOADS)
    assert sorted(run.TAIL_PERCENTILE) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_output_checks(workload, trace):
    result = run.collect(workload, seed=5, seconds=0.0, trace=trace, probes=1, ops_floor=0)
    assert result["correct"], result["detail"]["problems"]
    assert result["attempted"] >= 1
    bench = _benchmark_json()
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    failures = [f["message"] for f in result["detail"]["failures"]]
    if workload == "configs_cli":
        # the routing trace cannot be re-reported yet; it must count as failed
        assert result["failed"] == result["detail"]["passes"] * (1 + trace)
        assert all(m.startswith("report routing/") for m in failures)
    else:
        assert result["failed"] == 0 and not failures


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_selfplay",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
