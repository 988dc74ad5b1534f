"""Tests for the benchmark itself.

    python3 -m pytest perfbench

They pin the output schema, check that every metric BENCHMARK.json
names is emitted with its unit, check the self-time arithmetic on a
synthetic span set, and make a short smoke pass of each workload in
both modes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def smoke():
    """One short run of every workload in both modes, keyed (workload, trace)."""
    results = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = run_bench("--workload", workload, "--seconds", "1", "--trace", trace)
            results[workload, trace] = done
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_schema_and_metric_set(smoke, workload, trace):
    done = smoke[workload, trace]
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(smoke, workload):
    result = json.loads(smoke[workload, "0"].stdout.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_call_counts_match_the_workload_shape(smoke):
    def metrics(workload):
        done = smoke[workload, "1"]
        return {k: v["value"] for k, v in json.loads(done.stdout.strip().splitlines()[-1])["metrics"].items()}

    train = metrics("train_lockstep")
    for name in ("env.step", "agent.select_action", "agent.update_q", "client.poll"):
        assert train[f"{name}_calls_per_op"] == pytest.approx(1.0)
    assert train["env.reset_calls_per_op"] > 0
    idle = metrics("capture_idle")
    assert idle["client.poll_calls_per_op"] == pytest.approx(1.0)
    assert idle["agent.update_q_calls_per_op"] == 0.0
    assert idle["wire.empty_update_ratio"] > 0.9
    live = metrics("capture_live")
    assert live["client.fixed_rate_self_us"] > 0
    assert live["wire.empty_update_ratio"] < 0.5


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "train_lockstep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_determinism_check_fails_the_run(monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.MANIFEST["score_digests"], "3", "0" * 16)
    outcome = workloads.run("train_lockstep", 3, 0.1, traced=False)
    assert any("score digest" in problem for problem in outcome.problems)


def test_fidelity_check_reports_a_diverged_mirror():
    from checks import fidelity_problems
    from fbenv.client import connect
    from fbenv.server import MockServer, ServerConfig

    with MockServer(ServerConfig(port=0, lockstep=True)).start() as server:
        with connect("127.0.0.1", server.port) as session:
            assert fidelity_problems(server, session)[0] == []
            session.framebuffer.pixels[0] ^= 0xFF
            problems, _ = fidelity_problems(server, session)
    assert any("hash" in problem for problem in problems)


def test_self_time_subtracts_the_union_of_children():
    def span(name, start, end, parent=None):
        return [name, start, end, 1, parent, None, True]

    root = span("root", 0, 100)
    a = span("a", 10, 30, root)
    b = span("b", 20, 50, root)  # overlaps a: the union 10..50 counts once
    c = span("c", 90, 120, root)  # runs past the parent: only 90..100 counts
    leaf = span("leaf", 12, 18, a)
    selves = spans.self_times_ns([root, a, b, c, leaf])
    assert selves[id(root)] == 100 - 40 - 10
    assert selves[id(a)] == 20 - 6
    assert selves[id(b)] == 30
    assert selves[id(leaf)] == 6


def test_step_rate_is_taken_at_the_median_interval():
    from workloads import median_step_rate

    # steps start every 2 ms, but one interval holds a 50 ms stall
    starts = [0, 2, 4, 6, 56, 58, 60]
    step_spans = [["env.step", ms * 1_000_000, ms * 1_000_000 + 1, 1, None, None, True] for ms in starts]
    assert median_step_rate(step_spans) == pytest.approx(500.0)
    assert median_step_rate(step_spans[:1]) == 0.0


def test_tracer_links_parents_and_shares_request_ids():
    module = type(sys)("layer")
    module.encode = lambda: b"x"

    class Server:
        def update(self):
            return module.encode()

    original = Server.update
    tracer = spans.Tracer()
    with tracer:
        tracer.patch(Server, "update", "server.update", request_scoped=True)
        tracer.patch(module, "encode", "wire.encode")
        server = Server()
        server.update()
        server.update()
    assert Server.update is original
    recorded = [(s[spans.NAME], s[spans.RID][1], s[spans.PARENT]) for s in tracer.spans]
    first, _, second, _ = tracer.spans
    assert recorded == [
        ("server.update", 0, None),
        ("wire.encode", 0, first),
        ("server.update", 1, None),
        ("wire.encode", 1, second),
    ]
    assert all(s[spans.OK] and s[spans.END] >= s[spans.START] for s in tracer.spans)


def test_client_requests_and_server_updates_pair_by_request_id():
    import workloads
    from fbenv.client import connect
    from fbenv.server import MockServer, ServerConfig

    tracer = spans.Tracer()
    with MockServer(ServerConfig(port=0, tick_rate=100.0)).start() as server:
        with connect("127.0.0.1", server.port) as session:
            with tracer:
                workloads.install(tracer)
                for _ in range(50):
                    session.poll()
    by_rid = {}
    for span in tracer.spans:
        if span[spans.NAME] in ("client.poll", "server.update"):
            by_rid.setdefault(span[spans.RID][1], {})[span[spans.NAME]] = span
    assert sorted(by_rid) == list(range(50))
    for pair in by_rid.values():
        poll, update = pair["client.poll"], pair["server.update"]
        assert poll[spans.THREAD] != update[spans.THREAD]
        assert poll[spans.START] < update[spans.START] < update[spans.END] < poll[spans.END]


def test_manifest_records_seeds_loops_and_predictions():
    gated = {name for name, info in MANIFEST["workloads"].items() if info["gated"]}
    assert gated == {w["name"] for w in SPEC["workloads"]}
    assert MANIFEST["default_seed"] != MANIFEST["held_out_seed"]
    for info in MANIFEST["workloads"].values():
        assert info["loop"] in ("closed", "open") and info["why"]
        assert info["gated"] or info["not_gated_because"]
    layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in MANIFEST["predictions"]:
        assert row["layer_metric"] in layer
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["unchanged_on"]) <= set(WORKLOADS)
    assert set(MANIFEST["baseline_machine"]) == {"nproc", "python", "numpy"}
