"""The benchmark's three workloads, each driving an in-process
``MockServer`` and one client over loopback.

Every workload returns an :class:`Outcome`: ops attempted and failed,
problems found by the correctness checks, and metrics as
``{name: {"value": float, "unit": str}}``. An untraced run reports the
end-to-end metrics; a traced run measures half its time untraced and
half traced and reports the per-layer metrics plus the tracing overhead.

A capture run is split into windows and a training run into trainings
of TRAIN_EPISODES episodes on a fresh server; metrics are medians over
those windows. A training's step rate is taken at the median interval
between consecutive ``Env.step`` calls rather than as steps over wall
time: the op is a two-thread lockstep ping-pong, and on a shared host
the scheduler delays a varying share of its wake-ups, which moved the
wall-time rate by a third between runs of the same code. Set-up is repeated and reported as a median, so work
moved into set-up shows.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import fbenv.agent
import fbenv.client
import fbenv.env
import fbenv.game
import fbenv.server
from fbenv.agent import AgentConfig
from fbenv.client import Session, connect
from fbenv.env import Env, EnvConfig, make_env
from fbenv.keys import KEY_LEFT, KEY_RIGHT
from fbenv.server import MockServer, ServerConfig

from checks import fidelity_problems, score_digest
from spans import END, NAME, START, SpanStats, Tracer

HOST = "127.0.0.1"
MANIFEST = json.loads((Path(__file__).parent / "manifest.json").read_text())

SETUP_SAMPLES = 60
# servers stopping at once while set-ups are measured
SETUP_BATCH = 10
# An untraced capture run reports medians over many short windows, so the
# scheduler stalls of a shared host, which come in bursts, move few of
# them: with 10 windows capture_live's delivered_ratio and op_ms_p50
# spread 0.13 to 0.15 over 10 runs, with 60 about 0.05. A traced run
# keeps 10 windows, so that at 300 fps each window of a 45 s run has over
# 10 frames beyond its p99.
CAPTURE_WINDOWS = 60
TRACED_CAPTURE_WINDOWS = 10
TRAIN_EPISODES = 50
IDLE_TICK_RATE = 30.0
LIVE_RATE = 300.0
HASH_ROUNDS_TRACED = 5

# Spans whose median µs per call and calls per op are reported.
TIMED_SPANS = (
    "server.update",
    "game.step_game",
    "game.render",
    "wire.encode_framebuffer_update",
    "wire.decode_client_message",
    "wire.decode_server_message",
    "client.poll",
    "client.snapshot",
    "framebuffer.to_grayscale",
    "framebuffer.downsample",
    "framebuffer.apply_update",
    "framebuffer.pixel_rgb",
    "env.step",
    "env.reset",
    "agent.discretize",
    "agent.select_action",
    "agent.update_q",
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    patch = tracer.patch
    patch(fbenv.game, "step_game", "game.step_game")
    patch(fbenv.game, "render", "game.render")
    patch(fbenv.server, "encode_framebuffer_update", "wire.encode_framebuffer_update",
          on_result=tracer.count_update)
    patch(fbenv.server, "decode_client_message", "wire.decode_client_message")
    patch(fbenv.server.MockServer, "_update_payload", "server.update", request_scoped=True)
    patch(fbenv.client, "decode_server_message", "wire.decode_server_message")
    patch(fbenv.client, "apply_update", "framebuffer.apply_update")
    patch(fbenv.client, "to_grayscale", "framebuffer.to_grayscale")
    patch(Session, "poll", "client.poll", request_scoped=True)
    patch(Session, "refresh", "client.refresh", request_scoped=True)
    patch(Session, "snapshot", "client.snapshot")
    patch(Session, "run_fixed_rate", "client.run_fixed_rate")
    patch(Session, "send_key", "client.send_key")
    tracer.patch_module_sleep(fbenv.client, "client.sleep")
    patch(fbenv.env, "downsample", "framebuffer.downsample")
    patch(fbenv.env, "pixel_rgb", "framebuffer.pixel_rgb")
    patch(Env, "step", "env.step")
    patch(Env, "reset", "env.reset")
    patch(fbenv.agent, "discretize", "agent.discretize")
    patch(fbenv.agent, "select_action", "agent.select_action")
    patch(fbenv.agent, "update_q", "agent.update_q")
    patch(fbenv.agent, "train", "agent.train")


@dataclass
class Window:
    """One measured stretch: a capture window or one training."""

    ops: int
    wall: float
    cpu: float
    rate: float
    p50_ms: float
    p99_ms: float
    delivered: float


def put_end_to_end(out: Outcome, setups: list[float], windows: list[Window]) -> None:
    """Every end-to-end metric, each the median over the run's windows."""
    out.put("setup_s", statistics.median(setups), "s")
    out.put("ops_per_s", median_of(windows, lambda w: w.rate), "1/s")
    out.put("op_ms_p50", median_of(windows, lambda w: w.p50_ms), "ms")
    out.put("cpu_us_per_op", median_of(windows, lambda w: w.cpu / w.ops * 1e6), "us")
    out.put("delivered_ratio", median_of(windows, lambda w: w.delivered), "ratio")


def median_of(windows: list[Window], value) -> float:
    return statistics.median(value(w) for w in windows) if windows else 0.0


def put_layers(out: Outcome, tracer: Tracer, traced: list[Window], untraced: list[Window],
               hash_round_trips: list[float]) -> None:
    """Every per-layer metric, from the spans of the traced windows.

    The untraced windows give the tracing overhead and op_ms_p99, which
    is too unsteady from run to run on a shared machine to bound as an
    end-to-end metric.
    """
    stats = SpanStats(tracer.spans)
    ops = sum(w.ops for w in traced)
    per_op = 1.0 / ops if ops else 0.0
    for name in TIMED_SPANS:
        out.put(f"{name}_us", stats.median_us(name), "us")
        out.put(f"{name}_calls_per_op", stats.count(name) * per_op, "1/op")
    out.put("server.update_self_us", stats.median_self_us("server.update"), "us")
    out.put("client.poll_wait_us", stats.median_self_us("client.poll"), "us")
    out.put("env.step_self_us", stats.median_self_us("env.step"), "us")
    out.put("client.fixed_rate_self_us", stats.total_self_us("client.run_fixed_rate") * per_op, "us")
    out.put("agent.loop_self_us", stats.total_self_us("agent.train") * per_op, "us")
    out.put("server.hash_ms", statistics.median(hash_round_trips) * 1000.0, "ms")
    updates = tracer.update_count
    out.put("wire.update_bytes", tracer.update_bytes / updates if updates else 0.0, "bytes")
    out.put("wire.empty_update_ratio", tracer.empty_updates / updates if updates else 0.0, "ratio")
    incomplete = stats.failed_count("wire.decode_client_message") + stats.failed_count(
        "wire.decode_server_message"
    )
    out.put("wire.incomplete_decodes_per_op", incomplete * per_op, "1/op")
    traced_rate = median_of(traced, lambda w: w.rate)
    untraced_rate = median_of(untraced, lambda w: w.rate)
    out.put("trace.traced_ops_per_s", traced_rate, "1/s")
    out.put("trace.untraced_ops_per_s", untraced_rate, "1/s")
    out.put("trace.overhead_ratio", 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "ratio")
    out.put("tail.op_ms_p99", median_of(untraced, lambda w: w.p99_ms), "ms")


def percentile_ms(latencies_ns: list[int], fraction: float) -> float:
    if not latencies_ns:
        return 0.0
    ordered = sorted(latencies_ns)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))] / 1e6


def median_step_rate(step_spans) -> float:
    """Steps per second at the median interval between the starts of
    consecutive ``Env.step`` spans of one training. An interval holds a
    step and the agent's work before the next one; the few that hold a
    reset do not move the median, so reset cost shows in cpu_us_per_op
    and env.reset_us instead."""
    starts = [span[START] for span in step_spans]
    intervals = [later - earlier for earlier, later in zip(starts, starts[1:])]
    return 1e9 / statistics.median(intervals) if intervals else 0.0


def start(config: ServerConfig, open_client):
    """Start a server and its client; returns (set-up seconds, server, client)."""
    started = time.perf_counter()
    server = MockServer(config).start()
    try:
        client = open_client(server.port)
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - started, server, client


def measure_setups(config: ServerConfig, open_client) -> list[float]:
    """Set-up times of SETUP_SAMPLES throwaway servers and clients.

    Each server stops on a helper thread, because ``MockServer.stop``
    waits out its accept loops' poll interval; the helpers are joined
    after every SETUP_BATCH set-ups, so few servers wind down while
    later set-ups are timed.
    """
    setups = []
    stoppers = []
    for index in range(SETUP_SAMPLES):
        elapsed, server, client = start(config, open_client)
        setups.append(elapsed)
        client.close()
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stoppers.append(stopper)
        if len(stoppers) == SETUP_BATCH or index == SETUP_SAMPLES - 1:
            for stopper in stoppers:
                stopper.join()
            stoppers.clear()
    return setups


# -- train_lockstep ----------------------------------------------------------


def run_train(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    server_config = ServerConfig(port=0, lockstep=True, seed=seed)
    open_env = lambda port: make_env(EnvConfig(port=port, lockstep=True))
    agent_config = AgentConfig(seed=seed)
    setups = measure_setups(server_config, open_env)
    digests: set[str] = set()
    tracer = Tracer()
    hash_round_trips: list[float] = []
    windows: dict[bool, list[Window]] = {False: [], True: []}
    phases = (False, True) if traced else (False,)
    budget = seconds / len(phases)
    for phase in phases:
        while not out.problems and sum(w.wall for w in windows[phase]) < budget:
            elapsed, server, env = start(server_config, open_env)
            setups.append(elapsed)
            # the untraced phase times Env.step alone, for the step rate and
            # the latency percentiles
            step_timer = Tracer()
            try:
                if phase:
                    install(tracer)
                else:
                    step_timer.patch(Env, "step", "env.step")
                first_span = len(tracer.spans)
                with tracer if phase else step_timer:
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    _, report = fbenv.agent.train(env, agent_config, TRAIN_EPISODES)
                    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                steps = report.steps_total
                out.attempted += steps
                if report.error is not None:
                    out.attempted += 1
                    out.failed += 1
                    out.problems.append(f"training stopped: {report.error!r}")
                    break
                stale = max(0, 1 + len(report.episode_scores) + steps - env.session.frame_counter)
                out.failed += stale
                digests.add(score_digest(report.episode_scores, steps))
                problems, round_trips = fidelity_problems(
                    server, env.session, HASH_ROUNDS_TRACED if phase else 1
                )
                out.problems += problems
                hash_round_trips += round_trips
                step_spans = step_timer.spans if not phase else [
                    span for span in tracer.spans[first_span:] if span[NAME] == "env.step"
                ]
                latencies = [span[END] - span[START] for span in step_timer.spans]
                windows[phase].append(Window(
                    steps, wall, cpu, median_step_rate(step_spans),
                    percentile_ms(latencies, 0.50), percentile_ms(latencies, 0.99),
                    (steps - stale) / steps,
                ))
            finally:
                env.close()
                server.stop()
    pinned = MANIFEST["score_digests"].get(str(seed))
    if len(digests) > 1:
        out.problems.append(f"score series differ between trainings at seed {seed}: {sorted(digests)}")
    elif pinned is not None and digests and digests != {pinned}:
        out.problems.append(f"score digest {digests.pop()} != recorded {pinned} at seed {seed}")
    if traced:
        put_layers(out, tracer, windows[True], windows[False], hash_round_trips)
    elif windows[False]:
        put_end_to_end(out, setups, windows[False])
    return out


# -- capture_idle and capture_live ------------------------------------------


def run_capture(seed: int, seconds: float, traced: bool, live: bool) -> Outcome:
    out = Outcome()
    rate = LIVE_RATE if live else IDLE_TICK_RATE
    server_config = ServerConfig(port=0, tick_rate=rate, auto_reset=True, seed=seed)
    open_session = lambda port: connect(HOST, port)
    setups = measure_setups(server_config, open_session)
    elapsed, server, session = start(server_config, open_session)
    setups.append(elapsed)

    last_counter = session.frame_counter
    stale = 0
    # capture_live steers with a seeded tilt that differs from the last
    # one on every frame, so each server tick redraws the paddle
    steering = random.Random(seed)
    held = None

    def on_frame(frame, index):
        nonlocal last_counter, stale, held
        counter = session.frame_counter
        if counter == last_counter:
            stale += 1
        last_counter = counter
        if live:
            key = steering.choice([k for k in (None, KEY_LEFT, KEY_RIGHT) if k != held])
            if held is not None:
                session.send_key(held, False)
            if key is not None:
                session.send_key(key, True)
            held = key

    tracer = Tracer()
    window_count = TRACED_CAPTURE_WINDOWS if traced else CAPTURE_WINDOWS
    window_s = seconds / window_count
    windows: dict[bool, list[Window]] = {False: [], True: []}
    try:
        for index in range(window_count):
            phase = traced and index >= window_count // 2
            if phase and not windows[True]:
                install(tracer)
            stale_before = stale
            cpu0 = time.process_time()
            if live:
                stats = session.run_fixed_rate(LIVE_RATE, on_frame, duration=window_s)
            else:
                stats = session.run_unrestricted(on_frame, window_s)
            cpu = time.process_time() - cpu0
            frames = stats.frames_delivered
            out.attempted += frames
            if stats.error is not None:
                out.attempted += 1
                out.failed += 1
                out.problems.append(f"capture stopped: {stats.error!r}")
                break
            if live:
                delivered = frames / (LIVE_RATE * window_s)
            else:
                delivered = (frames - (stale - stale_before)) / frames
            windows[phase].append(
                Window(frames, stats.wall_time, cpu, frames / stats.wall_time,
                       stats.latency_p50_ms, stats.latency_p99_ms, delivered)
            )
        out.failed += stale
        problems, hash_round_trips = fidelity_problems(server, session, HASH_ROUNDS_TRACED if traced else 1)
        out.problems += problems
    finally:
        tracer.unpatch()
        session.close()
        server.stop()

    if traced:
        put_layers(out, tracer, windows[True], windows[False], hash_round_trips)
    elif windows[False]:
        put_end_to_end(out, setups, windows[False])
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    if workload == "train_lockstep":
        return run_train(seed, seconds, traced)
    return run_capture(seed, seconds, traced, live=workload == "capture_live")
