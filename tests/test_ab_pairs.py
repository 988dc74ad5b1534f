"""The summary of tools/ab_pairs.py: quartiles, pair ratios, wins and
the gain, bound and unresolved rules, on hand-made pairs; and a
comparison that outlives one hung run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = {
    "ops_per_s": {"better": "higher", "bound": 0.25},
    "cpu_us_per_op": {"better": "lower", "bound": 0.25},
}


def run(ops, cpu, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": ops, "cpu_us_per_op": cpu}}


def pairs(parent, change):
    return [{"pair": i, "parent": a, "change": b} for i, (a, b) in enumerate(zip(parent, change))]


def test_summary_counts_wins_ratios_and_quartiles():
    parent = [run(100.0 + i, 50.0) for i in range(10)]
    change = [run(120.0 + i, 50.0 - i) for i in range(10)]
    summary = ab_pairs.summarize(pairs(parent, change), METRICS)
    assert summary["pairs"] == 10 and summary["all_correct"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    ops = summary["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == pytest.approx(104.5)
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == pytest.approx((102.25, 106.75))
    assert (ops["parent"]["min"], ops["parent"]["max"]) == (100.0, 109.0)
    ratios = sorted((120 + i) / (100 + i) for i in range(10))
    assert ops["median_of_pair_ratios"] == pytest.approx((ratios[4] + ratios[5]) / 2)
    assert ops["change_wins"] == 10 and ops["gain"]
    assert ops["change_worse_by"] == pytest.approx(-20 / 104.5)
    assert ops["within_bound"]
    cpu = summary["metrics"]["cpu_us_per_op"]
    # pair 0 is a tie, which counts for neither side
    assert cpu["change_wins"] == 9 and cpu["gain"]


def test_gain_needs_nine_tenths_of_wins_and_a_shift_past_the_parent_iqr():
    parent = [run(100.0 + 10 * (i % 2), 50.0) for i in range(10)]
    # wins 8 of 10: no gain however large the shift
    change = [run(200.0 if i < 8 else 50.0, 50.0) for i in range(10)]
    assert not ab_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["ops_per_s"]["gain"]
    # wins every pair but by less than the parent's own spread
    change = [run(a["metrics"]["ops_per_s"] + 1.0, 50.0) for a in parent]
    ops = ab_pairs.summarize(pairs(parent, change), METRICS)["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 10 and not ops["gain"]


def test_worsening_past_the_bound_and_failures_are_reported():
    parent = [run(100.0, 50.0) for _ in range(4)]
    change = [run(70.0, 70.0, correct=i != 2, failed=i) for i in range(4)]
    summary = ab_pairs.summarize(pairs(parent, change), METRICS)
    assert not summary["all_correct"]
    assert summary["failed"] == {"parent": 0, "change": 6}
    assert summary["metrics"]["ops_per_s"]["change_worse_by"] == pytest.approx(0.3)
    assert not summary["metrics"]["ops_per_s"]["within_bound"]
    assert summary["metrics"]["cpu_us_per_op"]["change_worse_by"] == pytest.approx(0.4)
    assert not summary["metrics"]["cpu_us_per_op"]["within_bound"]


def test_a_run_past_its_timeout_is_recorded_and_the_comparison_goes_on(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}'
    )
    result_line = '{"correct": true, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": 100.0}}}'
    calls = []

    def fake_run(command, cwd, timeout, **kwargs):
        calls.append(Path(cwd).name)
        if len(calls) == 2:
            raise ab_pairs.subprocess.TimeoutExpired(command, timeout)
        return ab_pairs.subprocess.CompletedProcess(command, 0, stdout=result_line + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "train_lockstep", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert ab_pairs.main(argv) == 1  # not every run was correct
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    document = json.loads(out.read_text())["sets"]["train_lockstep_seed_1"]
    timed_out = document["runs"][0]["change"]
    assert (timed_out["correct"], timed_out["exit_code"], timed_out["error"]) == (False, None, "timed out")
    assert timed_out["metrics"] == {}
    assert document["runs"][2]["change"]["exit_code"] == 0
    assert not document["summary"]["all_correct"]
    assert document["summary"]["metrics"]["ops_per_s"]["change_wins"] == 0


def test_a_metric_spread_wider_than_its_bound_is_unresolved():
    # tight on both sides: resolved, whichever way it moved
    tight = [run(100.0 + i % 2, 50.0) for i in range(10)]
    summary = ab_pairs.summarize(pairs(tight, [run(99.0 + i % 2, 50.0) for i in range(10)]), METRICS)
    assert not summary["metrics"]["ops_per_s"]["unresolved"]
    # the change's runs spread over (q3 - q1) / median = 0.5 > 0.25, and do not all win
    wide = [run((50.0, 150.0)[i % 2], 50.0) for i in range(10)]
    summary = ab_pairs.summarize(pairs(tight, wide), METRICS)
    change = summary["metrics"]["ops_per_s"]["change"]
    assert (change["q3"] - change["q1"]) / change["median"] > 0.25
    assert summary["metrics"]["ops_per_s"]["unresolved"]
    assert not summary["metrics"]["cpu_us_per_op"]["unresolved"]
    # the parent's side is wide: unresolved too
    assert ab_pairs.summarize(pairs(wide, tight), METRICS)["metrics"]["ops_per_s"]["unresolved"]
    # a wide side whose every change run beats every parent run is resolved
    faster = [run((200.0, 400.0)[i % 2], (20.0, 40.0)[i % 2]) for i in range(10)]
    metrics = ab_pairs.summarize(pairs(tight, faster), METRICS)["metrics"]
    assert not metrics["ops_per_s"]["unresolved"] and not metrics["cpu_us_per_op"]["unresolved"]
    assert "unresolved False" in ab_pairs.format_summary("w", 1, ab_pairs.summarize(pairs(tight, faster), METRICS))
