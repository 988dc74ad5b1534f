"""Lockstep training against ``fbenv serve`` in a process of its own: the
deployment the paper describes, where the server's connection thread
serves the client with its ``recv`` loop."""

import itertools
import signal
import struct
import time

from fbenv.agent import AgentConfig, train
from fbenv.client import SessionState
from fbenv.env import EnvConfig, make_env
from fbenv.errors import ConnectionLostError
from fbenv.server import MockServer, ServerConfig

from helpers import server_process

SEED = 5
EPISODES = 4


def score_bytes(report) -> bytes:
    return struct.pack(f"{len(report.episode_scores)}d", *report.episode_scores)


def test_training_against_a_server_process_gives_the_in_process_scores():
    with MockServer(ServerConfig(port=0, lockstep=True, seed=SEED)).start() as server:
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            _, expected = train(env, AgentConfig(seed=SEED), EPISODES)
    with server_process("--lockstep", "--seed", str(SEED)) as (_, port, _):
        with make_env(EnvConfig(port=port, lockstep=True)) as env:
            _, report = train(env, AgentConfig(seed=SEED), EPISODES)
    assert expected.error is None and report.error is None
    assert len(report.episode_scores) == EPISODES
    assert report.steps_total == expected.steps_total
    assert score_bytes(report) == score_bytes(expected)


def test_killing_the_server_process_ends_training_at_once():
    with server_process("--lockstep", "--seed", str(SEED)) as (process, port, _):
        with make_env(EnvConfig(port=port, lockstep=True)) as env:
            step = env.step
            calls = itertools.count()

            def step_after_a_kill(action):
                if next(calls) == 100:
                    process.send_signal(signal.SIGKILL)
                    process.wait(timeout=5.0)
                return step(action)

            env.step = step_after_a_kill
            started = time.monotonic()
            _, report = train(env, AgentConfig(seed=SEED), 50)
            elapsed = time.monotonic() - started
            assert isinstance(report.error, ConnectionLostError)
            assert report.steps_total == 100
            assert env.session.state is SessionState.CLOSED
    assert elapsed < 2.0  # the loss is seen at once, not after a step's timeout
