"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 3, 4 and 7
involve wall-clock runs (roughly 20 s, 8 s and two training runs of a
few minutes respectively); the whole module is self-contained and
starts its own servers on free ports.
"""

import socket
import struct
import time

import numpy as np
import pytest

from fbenv.agent import AgentConfig, QTable, epsilon, train, update_q
from fbenv.agent import EpsilonSchedule
from fbenv.bench import MODE_FIXED, MODE_UNRESTRICTED, bench
from fbenv.client import connect
from fbenv.env import EnvConfig, make_env
from fbenv.errors import UnsupportedEncodingError, UnsupportedSecurityError
from fbenv.fnv import fnv1a64
from fbenv.keys import KEY_LEFT, KEY_RIGHT
from fbenv.server import MockServer, ServerConfig
from fbenv.wire import (
    RGBX32,
    FramebufferUpdateRequest,
    KeyEvent,
    PixelFormat,
    PointerEvent,
    Rectangle,
    SetEncodings,
    SetPixelFormat,
    decode_client_message,
    decode_server_message,
    encode_client_message,
    perform_handshake,
)

from helpers import (
    ScriptedSocket,
    greedy_policy,
    handshake_script,
    oracle_start_position,
    oracle_survival_ticks,
    values_for,
)


def start_server(**kwargs) -> MockServer:
    kwargs.setdefault("port", 0)
    return MockServer(ServerConfig(**kwargs)).start()


def random_client_message(rng: np.random.Generator):
    kind = int(rng.integers(0, 5))
    if kind == 0:
        formats = [
            RGBX32,
            PixelFormat(32, 24, True, True, 255, 255, 255, 0, 8, 16),
            PixelFormat(16, 16, False, True, 31, 63, 31, 11, 5, 0),
            PixelFormat(8, 8, False, True, 7, 7, 3, 5, 2, 0),
        ]
        return SetPixelFormat(formats[int(rng.integers(len(formats)))])
    if kind == 1:
        count = int(rng.integers(0, 9))
        encodings = tuple(
            int(v) for v in rng.integers(-(1 << 31), 1 << 31, size=count, dtype=np.int64)
        )
        return SetEncodings(encodings)
    if kind == 2:
        return FramebufferUpdateRequest(
            bool(rng.integers(2)),
            Rectangle(*(int(v) for v in rng.integers(0, 1 << 16, size=4))),
        )
    if kind == 3:
        return KeyEvent(bool(rng.integers(2)), int(rng.integers(0, 1 << 32)))
    return PointerEvent(
        int(rng.integers(0, 256)), int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16))
    )


def test_criterion_1_protocol_conformance():
    started = time.perf_counter()
    rng = np.random.default_rng(0xC0DEC)
    for _ in range(1000):
        message = random_client_message(rng)
        encoded = encode_client_message(message)
        decoded, consumed = decode_client_message(encoded)
        assert consumed == len(encoded)
        assert decoded == message

    server = start_server(lockstep=True, seed=1)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            info = perform_handshake(sock)
            assert (info.width, info.height) == (160, 160)
    finally:
        server.stop()

    with pytest.raises(UnsupportedEncodingError):
        data = struct.pack(">BxH", 0, 1) + struct.pack(">HHHHi", 0, 0, 2, 1, 5)
        decode_server_message(data, RGBX32, (160, 160))
    with pytest.raises(UnsupportedSecurityError):
        perform_handshake(ScriptedSocket(handshake_script(security_types=b"\x02")))

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: 1000 round-trips bit-exact, live handshake complete, "
        f"rejections correct ({elapsed:.2f}s < 5s)"
    )


def test_criterion_2_framebuffer_fidelity():
    started = time.perf_counter()
    server = start_server(lockstep=True, auto_reset=True, seed=0xF1DE)
    session = connect("127.0.0.1", server.port)
    side = socket.create_connection(("127.0.0.1", server.side_channel_port), timeout=5.0)
    rng = np.random.default_rng(0xF1DE)
    samples = 0
    try:
        for tick in range(1, 501):
            action = int(rng.integers(0, 3))
            session.send_key(KEY_LEFT, action == 1)
            session.send_key(KEY_RIGHT, action == 2)
            session.poll()
            if tick % 25 == 0:
                side.sendall(b"HASH\n")
                line = b""
                while not line.endswith(b"\n"):
                    line = line + side.recv(64)
                digest_hex, generation_text = line.split()
                assert int(generation_text) == session.frame_counter
                assert int(digest_hex, 16) == fnv1a64(bytes(session.framebuffer.pixels))
                samples += 1
    finally:
        side.close()
        session.close()
        server.stop()
    elapsed = time.perf_counter() - started
    assert samples == 20
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: client/server hashes equal at {samples} sampled "
        f"generations over 500 random ticks ({elapsed:.2f}s < 30s)"
    )


def test_criterion_3_fixed_rate_timing():
    server = start_server(tick_rate=30.0, seed=3)
    try:
        report_30 = bench(MODE_FIXED, 10.0, "127.0.0.1", server.port, fps=30.0)
        report_300 = bench(MODE_FIXED, 10.0, "127.0.0.1", server.port, fps=300.0)
    finally:
        server.stop()
    assert 285 <= report_30.frames <= 315, report_30.frames
    assert 2850 <= report_300.frames <= 3150, report_300.frames
    assert report_30.cpu_ratio < report_300.cpu_ratio
    print(
        f"\nACCEPTANCE 3 PASS: 30 fps -> {report_30.frames} frames, "
        f"300 fps -> {report_300.frames} frames, cpu ratio "
        f"{report_30.cpu_ratio:.4f} < {report_300.cpu_ratio:.4f}"
    )


def test_criterion_4_unrestricted_throughput():
    started = time.perf_counter()
    server = start_server(tick_rate=30.0, seed=4)
    try:
        unrestricted = bench(MODE_UNRESTRICTED, 5.0, "127.0.0.1", server.port)
        fixed = bench(MODE_FIXED, 3.0, "127.0.0.1", server.port, fps=30.0)
    finally:
        server.stop()
    elapsed = time.perf_counter() - started
    assert unrestricted.achieved_fps >= 1000.0, unrestricted.achieved_fps
    assert unrestricted.achieved_fps >= 10.0 * fixed.achieved_fps
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4 PASS: unrestricted {unrestricted.achieved_fps:.0f} fps "
        f">= 1000 and >= 10x fixed-rate {fixed.achieved_fps:.1f} fps "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_5_update_rule_matches_value_iteration():
    # 3-state chain: action 0 steps left (floored), action 1 steps right;
    # entering state 2 pays +1 and terminates
    gamma = 0.5

    def chain(state, action):
        next_state = max(state - 1, 0) if action == 0 else state + 1
        return next_state, (1.0 if next_state == 2 else 0.0), next_state == 2

    oracle = np.zeros((3, 2))
    for _ in range(200):
        fresh = np.zeros_like(oracle)
        for state in range(2):
            for action in range(2):
                next_state, reward, terminal = chain(state, action)
                fresh[state, action] = reward + (
                    0.0 if terminal else gamma * oracle[next_state].max()
                )
        oracle = fresh

    q = QTable(2)
    sweeps_used = None
    for sweep in range(1, 51):
        for state in range(2):
            for action in range(2):
                next_state, reward, terminal = chain(state, action)
                update_q(q, state, action, reward, next_state, terminal, 1.0, gamma)
        learned = np.array([values_for(q, s) for s in range(3)])
        if np.max(np.abs(learned[:2] - oracle[:2])) <= 1e-9:
            sweeps_used = sweep
            break
    assert sweeps_used is not None and sweeps_used <= 50
    policy = greedy_policy(q)
    for state in range(2):
        assert policy[state] == int(np.argmax(oracle[state]))
    print(
        f"\nACCEPTANCE 5 PASS: chain-MDP Q matched value iteration within 1e-9 "
        f"after {sweeps_used} sweeps; greedy policy identical"
    )


def test_criterion_6_epsilon_schedule():
    schedule = EpsilonSchedule(start=0.9, end=0.1, anneal_steps=10000)
    assert epsilon(schedule, 0) == 0.9
    assert epsilon(schedule, 10000) == 0.1
    assert abs(epsilon(schedule, 5000) - 0.5) <= 1e-12
    previous = epsilon(schedule, 0)
    for step in range(1, 20001):
        current = epsilon(schedule, step)
        assert current <= previous
        previous = current
    print(
        "\nACCEPTANCE 6 PASS: epsilon exact at 0/10000, midpoint within 1e-12, "
        "monotone over 0..20000"
    )


ENV_SEED = 1701
AGENT_SEED = 42


def run_training(episodes: int) -> tuple[list[float], float]:
    server = start_server(lockstep=True, seed=ENV_SEED)
    try:
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            started = time.perf_counter()
            _, report = train(env, AgentConfig(seed=AGENT_SEED), episodes)
            wall = time.perf_counter() - started
        assert report.error is None
        return report.episode_scores, wall
    finally:
        server.stop()


def test_criterion_7_learnability_and_replay():
    baseline_server = start_server(lockstep=True, seed=ENV_SEED)
    try:
        rng = np.random.default_rng(AGENT_SEED)
        with make_env(EnvConfig(port=baseline_server.port, lockstep=True)) as env:
            random_scores = [
                env.run_episode(lambda obs: int(rng.integers(0, 3)))[0] for _ in range(50)
            ]
    finally:
        baseline_server.stop()
    random_mean = float(np.mean(random_scores))

    scores_first, wall_first = run_training(500)
    assert wall_first < 600.0, f"training took {wall_first:.0f}s"
    trained_mean = float(np.mean(scores_first[-50:]))
    assert trained_mean >= 5.0 * random_mean, (trained_mean, random_mean)

    scores_second, _ = run_training(500)
    first_bytes = struct.pack(f"{len(scores_first)}d", *scores_first)
    second_bytes = struct.pack(f"{len(scores_second)}d", *scores_second)
    assert first_bytes == second_bytes

    print(
        f"\nACCEPTANCE 7 PASS: trained final-50 mean {trained_mean:.2f} >= "
        f"5x random mean {random_mean:.2f} (ratio {trained_mean / random_mean:.1f}x), "
        f"run took {wall_first:.0f}s < 600s, score series byte-identical on re-run"
    )


def test_criterion_8_scoring_rule():
    server = start_server(lockstep=True, seed=8)
    try:
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            score, _ = env.run_episode(lambda obs: 0)
            episode = server.episode
    finally:
        server.stop()
    p0 = oracle_start_position(8, episode)
    oracle_ticks = oracle_survival_ticks(p0, lambda i, p, v: 0)
    tick_rate = 30.0
    oracle_score = oracle_ticks / tick_rate
    assert abs(score - oracle_score) <= 1.0 / tick_rate + 1e-12
    print(
        f"\nACCEPTANCE 8 PASS: all-no-op episode score {score:.3f} matches "
        f"oracle {oracle_score:.3f} within one tick"
    )
