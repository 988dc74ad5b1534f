"""Lockstep training against ``fbenv serve`` in a process of its own: the
deployment the paper describes, where the server's connection thread
serves the client with its ``recv`` loop; and the count of timed steps
and capture frames that reuse the cached frame while that process is
held."""

import itertools
import os
import select
import signal
import struct
import threading
import time

from fbenv.agent import AgentConfig, train
from fbenv.client import SessionState, connect
from fbenv.env import EnvConfig, make_env
from fbenv.errors import ConnectionLostError
from fbenv.fnv import fnv1a64
from fbenv.server import MockServer, ServerConfig

from helpers import server_process, side_channel_hash

SEED = 5
EPISODES = 4


def score_bytes(report) -> bytes:
    return struct.pack(f"{len(report.episode_scores)}d", *report.episode_scores)


def train_in_process():
    with MockServer(ServerConfig(port=0, lockstep=True, seed=SEED)).start() as server:
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            _, report = train(env, AgentConfig(seed=SEED), EPISODES)
    assert report.error is None
    return report


def intercept_step(env, step_number: int, action) -> None:
    """Run ``action()`` just before the env's ``step_number``-th step."""
    step = env.step
    calls = itertools.count()

    def intercepted_step(step_action):
        if next(calls) == step_number:
            action()
        return step(step_action)

    env.step = intercepted_step


def test_training_against_a_server_process_gives_the_in_process_scores():
    expected = train_in_process()
    with server_process("--lockstep", "--seed", str(SEED)) as (_, port, side_port):
        with make_env(EnvConfig(port=port, lockstep=True)) as env:
            _, report = train(env, AgentConfig(seed=SEED), EPISODES)
            digest, generation = side_channel_hash(side_port)
            assert generation == env.session.frame_counter
            assert digest == fnv1a64(bytes(env.session.framebuffer.pixels))
    assert report.error is None
    assert len(report.episode_scores) == EPISODES
    assert report.steps_total == expected.steps_total
    assert score_bytes(report) == score_bytes(expected)


def test_stopping_the_server_process_mid_training_costs_time_not_scores():
    expected = train_in_process()
    with server_process("--lockstep", "--seed", str(SEED)) as (process, port, _):
        resume = threading.Timer(1.0, process.send_signal, (signal.SIGCONT,))

        def stop_for_a_second():
            process.send_signal(signal.SIGSTOP)
            os.waitpid(process.pid, os.WUNTRACED)  # returns once the child has stopped
            resume.start()

        with make_env(EnvConfig(port=port, lockstep=True)) as env:
            intercept_step(env, expected.steps_total // 2, stop_for_a_second)
            started = time.monotonic()
            _, report = train(env, AgentConfig(seed=SEED), EPISODES)
            elapsed = time.monotonic() - started
        resume.join()
    assert report.error is None
    assert elapsed >= 1.0  # a step waited out the stop
    assert report.steps_total == expected.steps_total
    assert score_bytes(report) == score_bytes(expected)


def test_killing_the_server_process_ends_training_at_once():
    threads = threading.active_count()
    with server_process("--lockstep", "--seed", str(SEED)) as (process, port, _):
        with make_env(EnvConfig(port=port, lockstep=True)) as env:

            def kill():
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=5.0)

            intercept_step(env, 100, kill)
            started = time.monotonic()
            _, report = train(env, AgentConfig(seed=SEED), 50)
            elapsed = time.monotonic() - started
            assert isinstance(report.error, ConnectionLostError)
            assert report.steps_total == 100
            assert env.session.state is SessionState.CLOSED
            assert env.session._sock.fileno() == -1
    assert elapsed < 2.0  # the loss is seen at once, not after a step's timeout
    assert threading.active_count() == threads


#: steps or frames taken while the server process is held
HELD = 3


def hold(process) -> None:
    process.send_signal(signal.SIGSTOP)
    os.waitpid(process.pid, os.WUNTRACED)  # returns once the child has stopped


def resume(process, sock) -> None:
    """Let the held server run, and wait for its replies to the requests
    it held, so the next poll finds an update."""
    process.send_signal(signal.SIGCONT)
    readable, _, _ = select.select([sock], [], [], 5.0)
    assert readable, "no reply within 5 s of resuming the server"


def test_timed_steps_that_reuse_the_cached_frame_are_counted():
    with server_process("--seed", str(SEED)) as (process, port, _):
        with make_env(EnvConfig(port=port)) as env:
            env.reset()
            for _ in range(2):
                env.step(0)
            assert env.stale_steps == 0
            hold(process)
            for _ in range(HELD):
                observation = env.step(0).observation
                assert env.stale_steps == observation.step_index - 2
            resume(process, env.session._sock)
            for _ in range(2):
                env.step(0)
            assert env.stale_steps == HELD


def test_capture_frames_that_reuse_the_cached_frame_are_counted():
    stop = threading.Event()
    with server_process("--seed", str(SEED)) as (process, port, _):
        with connect("127.0.0.1", port) as session:

            def callback(framebuffer, index):
                if index == 2:
                    hold(process)
                elif index == 2 + HELD:
                    resume(process, session._sock)
                elif index == 4 + HELD:
                    stop.set()

            stats = session.run_unrestricted(callback, 30.0, stop)
    assert stats.error is None
    assert stats.frames_delivered == 5 + HELD
    assert stats.frames_stale == HELD
