"""Environment facade tests: reset/step semantics, probe, config files."""

import itertools
import os
import re
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbenv.env
from fbenv.env import Env, EnvConfig, Observation, Transition, load_env_config, make_env
from fbenv.errors import ConnectionLostError, InvalidStateError
from fbenv.framebuffer import Framebuffer, GrayFrame, downsample, pixel_rgb, to_grayscale
from fbenv.keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE
from fbenv.server import MockServer
from fbenv.wire import FramebufferUpdateRequest

from helpers import (
    TEST_FORMATS,
    crop,
    oracle_start_position,
    oracle_survival_ticks,
    reference_parse_client_message,
    server_process,
)

LEFT_ACTION = 1
RIGHT_ACTION = 2
NOOP_ACTION = 0


def test_default_env_yields_16x16_observations(env_factory):
    env, _ = env_factory(lockstep=True)
    observation = env.reset()
    assert (observation.frame.width, observation.frame.height) == (16, 16)
    assert observation.step_index == 0


def test_probe_outside_screen_is_a_config_error(server_factory):
    server = server_factory(lockstep=True)
    with pytest.raises(ValueError):
        make_env(EnvConfig(port=server.port, probe_xy=(200, 5)))


def test_crop_and_observation_must_fit_the_screen(server_factory):
    server = server_factory(lockstep=True)
    with pytest.raises(ValueError, match="exceeds"):
        make_env(EnvConfig(port=server.port, crop=(100, 100, 100, 100), probe_xy=(105, 105)))
    with pytest.raises(ValueError, match="larger"):
        make_env(EnvConfig(port=server.port, crop=(0, 0, 10, 10), probe_xy=(5, 5)))


def test_crop_must_contain_probe():
    with pytest.raises(ValueError):
        EnvConfig(crop=(50, 50, 20, 20), probe_xy=(5, 5))


@pytest.mark.parametrize(
    "probe, match",
    [
        ({"probe_rgb": (300, 0, 0)}, "probe_rgb must be three values in 0..255"),
        ({"probe_rgb": (255, -1, 0)}, "probe_rgb must be three values in 0..255"),
        ({"probe_rgb": (255, 0)}, "probe_rgb must be three values in 0..255"),
        ({"probe_rgb": (255, 0, 0, 0)}, "probe_rgb must be three values in 0..255"),
        ({"probe_xy": (5,)}, "probe_xy must be two values"),
        ({"probe_xy": (5, 5, 5)}, "probe_xy must be two values"),
    ],
    ids=["red_over_255", "negative_green", "two_channels", "four_channels", "one_coordinate", "three_coordinates"],
)
def test_a_probe_that_cannot_match_is_refused_by_name(probe, match):
    """A channel outside 0..255 never matches the terminal screen, and a
    short colour checks only some channels: either would hide episode ends."""
    with pytest.raises(ValueError, match=match):
        EnvConfig(**probe)


def test_unreachable_endpoint_raises():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectionLostError):
        make_env(EnvConfig(port=port))


def test_noop_step_on_fresh_env(env_factory):
    env, _ = env_factory(lockstep=True)
    env.reset()
    result = env.step(NOOP_ACTION)
    assert result.reward == pytest.approx(1.0 / 30.0)
    assert not result.terminal
    assert result.observation.step_index == 1


def test_unknown_action_id_rejected(env_factory):
    env, _ = env_factory(lockstep=True)
    env.reset()
    with pytest.raises(ValueError):
        env.step(3)
    with pytest.raises(ValueError):
        env.step(-1)


def test_forced_left_reaches_red_screen_at_oracle_tick(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    env.reset()
    episode = server.episode
    p0 = oracle_start_position(31, episode)
    expected_ticks = oracle_survival_ticks(p0, lambda i, p, v: -1)
    steps = 0
    while True:
        result = env.step(LEFT_ACTION)
        steps += 1
        if result.terminal:
            break
    assert steps == expected_ticks
    assert result.reward == 0.0
    assert not result.truncated
    with pytest.raises(InvalidStateError):
        env.step(NOOP_ACTION)


def test_reset_after_terminal_restores_play(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    env.reset()
    while not env.step(LEFT_ACTION).terminal:
        pass
    observation = env.reset()
    assert observation.step_index == 0
    result = env.step(NOOP_ACTION)
    assert not result.terminal


def test_reset_sequences_replay_across_identical_servers(server_factory):
    def start_frames(seed):
        server = server_factory(lockstep=True, seed=seed)
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            frames = []
            for _ in range(3):
                frames.append(env.reset().frame.tobytes())
                while not env.step(LEFT_ACTION).terminal:
                    pass
            return frames

    assert start_frames(77) == start_frames(77)


def test_probe_agrees_with_server_terminal_flag(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    env.reset()
    rng = np.random.default_rng(1)
    while True:
        result = env.step(int(rng.integers(0, 3)))
        assert result.terminal == server.game_state().terminal or result.truncated
        if result.terminal:
            break


@settings(max_examples=300, deadline=None)
@given(
    fmt=st.sampled_from(TEST_FORMATS),
    word=st.integers(0, 2**32 - 1),
    offsets=st.tuples(*[st.integers(-30, 30)] * 3),
    tolerance=st.integers(0, 30),
)
def test_probe_is_the_rescaled_channel_rule_in_every_format(fmt, word, offsets, tolerance):
    """The probe resolved at creation decides as the per-step rule did:
    every channel of the pixel, rescaled to 0..255, within the tolerance
    of the probe colour."""
    x, y, bpp = 5, 7, fmt.bytes_per_pixel
    fb = Framebuffer.blank(16, 16, fmt)
    offset = (y * 16 + x) * bpp
    fb.pixels[offset : offset + bpp] = (word >> (32 - 8 * bpp)).to_bytes(bpp, "big")
    rgb = pixel_rgb(fb, x, y)
    probe_rgb = tuple(min(255, max(0, channel + delta)) for channel, delta in zip(rgb, offsets))
    config = EnvConfig(probe_xy=(x, y), probe_rgb=probe_rgb, probe_tolerance=tolerance)
    env = Env(config, SimpleNamespace(width=16, height=16, framebuffer=fb))
    deviation = max(abs(channel - expected) for channel, expected in zip(rgb, probe_rgb))
    assert env._probe_terminal() == (deviation <= tolerance)


def test_observations_and_transitions_are_immutable_truthy_records_equal_only_per_type():
    frame = GrayFrame(2, 2, np.zeros((2, 2), dtype=np.uint8))
    observation = Observation(frame, 3)
    transition = Transition(observation, 1, 0.5, Observation(frame, 4), False)
    for record in (observation, transition):
        twin = type(record)(*record)
        assert twin is not record
        assert record == twin and not record != twin
        assert record != tuple(record) and tuple(record) != record
        assert record
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert observation != transition
    for record in (observation, transition):
        with pytest.raises(TypeError):  # a GrayFrame is unhashable, so neither record hashes
            hash(record)


def test_noop_episode_score_matches_dynamics_oracle(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 47}, lockstep=True)
    score, transitions = env.run_episode(lambda obs: NOOP_ACTION)
    episode = server.episode
    p0 = oracle_start_position(47, episode)
    oracle_ticks = oracle_survival_ticks(p0, lambda i, p, v: 0)
    reward = env.config.reward_per_step
    assert abs(score - oracle_ticks * reward) <= reward + 1e-12
    assert len(transitions) == oracle_ticks
    assert transitions[-1].terminal
    assert transitions[-1].reward == 0.0
    assert all(t.reward == reward for t in transitions[:-1])


def test_single_step_cap_yields_one_transition(env_factory):
    env, _ = env_factory(lockstep=True, max_episode_steps=1)
    score, transitions = env.run_episode(lambda obs: NOOP_ACTION)
    assert len(transitions) == 1
    assert transitions[0].terminal


def test_truncation_is_flagged_distinctly(env_factory):
    env, _ = env_factory(lockstep=True, max_episode_steps=5)
    env.reset()
    for _ in range(4):
        result = env.step(NOOP_ACTION)
        assert not result.terminal
    result = env.step(NOOP_ACTION)
    assert result.terminal and result.truncated
    assert result.reward == pytest.approx(1.0 / 30.0)  # survived the step


def test_random_policy_replays_identically_in_lockstep(server_factory):
    def run(seed):
        server = server_factory(lockstep=True, seed=5)
        rng = np.random.default_rng(seed)
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            scores = []
            for _ in range(3):
                score, _ = env.run_episode(lambda obs: int(rng.integers(0, 3)))
                scores.append(score)
        return scores

    assert run(9) == run(9)


def test_lockstep_score_counts_server_ticks(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 47}, lockstep=True)
    score, transitions = env.run_episode(lambda obs: NOOP_ACTION)
    ticks = server.game_state().ticks_survived
    # every tick except the fatal one pays one reward
    assert score == pytest.approx((ticks - 1) * env.config.reward_per_step)


def test_lockstep_observations_match_the_full_frame_oracle_and_stay_frozen(env_factory):
    region = (2, 3, 150, 151)  # neither side divides into 16 cells evenly
    env, _ = env_factory(lockstep=True, crop=region, max_episode_steps=400)
    rng = np.random.default_rng(4)

    def oracle():
        return downsample(crop(to_grayscale(env.session.framebuffer), *region), 16, 16)

    kept = []
    for _ in range(2):  # the second reset redraws the game over the red screen
        kept.append((env.reset(), oracle()))
        while True:
            result = env.step(int(rng.integers(0, 3)))
            kept.append((result.observation, oracle()))
            if result.terminal:
                break
    assert result.terminal and not result.truncated
    for observation, expected in kept:
        assert observation.frame == expected
    assert len({observation.frame.tobytes() for observation, _ in kept}) > 10


def test_lockstep_trajectory_is_wall_clock_independent(server_factory):
    def run(delay):
        server = server_factory(lockstep=True, seed=13)
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            env.reset()
            frames = []
            for i in range(30):
                if delay and i % 7 == 0:
                    time.sleep(delay)
                result = env.step(LEFT_ACTION if i % 2 else RIGHT_ACTION)
                frames.append(result.observation.frame.tobytes())
                if result.terminal:
                    break
        return frames

    assert run(0.0) == run(0.02)


def test_lockstep_waits_out_a_slow_server(server_factory, monkeypatch):
    def noop_episode_frames():
        server = server_factory(lockstep=True, seed=11)
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            _, transitions = env.run_episode(lambda obs: NOOP_ACTION)
        return [t.next_state.frame.tobytes() for t in transitions]

    expected = noop_episode_frames()
    original = MockServer._update_payload
    calls = itertools.count()

    def stall_once(self, incremental):
        # late in the episode: early frames move too little for a lag to show
        if next(calls) == 60:
            time.sleep(0.15)  # longer than the client's POLL_DEADLINE
        return original(self, incremental)

    monkeypatch.setattr(MockServer, "_update_payload", stall_once)
    assert noop_episode_frames() == expected


def test_lockstep_step_raises_when_no_update_comes(env_factory, monkeypatch):
    # an in-process server replies in full within the step's write, so a
    # reply with no update fails the step at once, well within its timeout
    env, _ = env_factory(lockstep=True)
    env.reset()
    original = MockServer._dispatch

    def ignore_requests(self, message):
        if isinstance(message, FramebufferUpdateRequest):
            return None
        return original(self, message)

    monkeypatch.setattr(fbenv.env, "DEFAULT_CONNECT_TIMEOUT", 0.2)
    monkeypatch.setattr(MockServer, "_dispatch", ignore_requests)
    started = time.monotonic()
    with pytest.raises(ConnectionLostError):
        env.step(NOOP_ACTION)
    assert time.monotonic() - started < 0.1


def test_lockstep_step_raises_while_the_server_process_is_stopped(monkeypatch):
    with server_process("--lockstep", "--seed", "11") as (process, port, _):
        with make_env(EnvConfig(port=port, lockstep=True)) as env:
            env.reset()
            env.step(NOOP_ACTION)
            monkeypatch.setattr(fbenv.env, "DEFAULT_CONNECT_TIMEOUT", 0.2)
            process.send_signal(signal.SIGSTOP)
            os.waitpid(process.pid, os.WUNTRACED)  # returns once the child has stopped
            try:
                started = time.monotonic()
                with pytest.raises(ConnectionLostError):
                    env.step(NOOP_ACTION)
                elapsed = time.monotonic() - started
            finally:
                process.send_signal(signal.SIGCONT)
    assert 0.2 <= elapsed < 2.0


def test_action_latching_holds_one_key(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    env.reset()
    env.step(LEFT_ACTION)
    assert server.game_state().tilt == -1
    env.step(RIGHT_ACTION)
    assert server.game_state().tilt == 1
    env.step(NOOP_ACTION)
    assert server.game_state().tilt == 0


def client_messages(payload: bytes) -> list:
    """The (kind, fields) of each client message in ``payload``."""
    messages, offset = [], 0
    while offset < len(payload):
        kind, fields, consumed = reference_parse_client_message(payload[offset:])
        messages.append((kind, fields))
        offset += consumed
    return messages


class RecordingSocket:
    """Socket proxy that logs the client messages of each ``sendall``."""

    def __init__(self, sock, writes: list):
        self._sock = sock
        self._writes = writes

    def sendall(self, payload):
        self._writes.append(client_messages(payload))
        self._sock.sendall(payload)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def record_writes(env) -> list:
    """Log the client messages of each write of the env's session: a
    sendall, or a call of its in-process server's end."""
    writes = []
    session = env.session
    end = session._server_end
    if end is None:
        session._sock = RecordingSocket(session._sock, writes)
        return writes
    serve = end.serve

    def recording_serve(payload):
        writes.append(client_messages(payload))
        return serve(payload)

    end.serve = recording_serve
    return writes


def key(keysym, down):
    return ("key_event", {"down": int(down), "keysym": keysym})


def test_lockstep_step_is_one_write(env_factory):
    env, server = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    writes = record_writes(env)
    env.reset()
    assert [[kind for kind, _ in write] for write in writes] == [
        ["key_event", "key_event", "update_request"]
    ]
    assert writes[0][:2] == [key(KEY_SPACE, True), key(KEY_SPACE, False)]
    actions = itertools.cycle([LEFT_ACTION, RIGHT_ACTION, NOOP_ACTION, RIGHT_ACTION])
    expected_keys = {  # (previous action, action) -> key events of the step
        (NOOP_ACTION, LEFT_ACTION): [key(KEY_LEFT, True)],
        (LEFT_ACTION, RIGHT_ACTION): [key(KEY_LEFT, False), key(KEY_RIGHT, True)],
        (RIGHT_ACTION, NOOP_ACTION): [key(KEY_RIGHT, False)],
        (NOOP_ACTION, RIGHT_ACTION): [key(KEY_RIGHT, True)],
        (RIGHT_ACTION, LEFT_ACTION): [key(KEY_RIGHT, False), key(KEY_LEFT, True)],
    }
    previous = NOOP_ACTION
    for _ in range(12):
        action = next(actions)
        writes.clear()
        result = env.step(action)
        assert len(writes) == 1
        *keys, (kind, fields) = writes[0]
        assert keys == expected_keys[previous, action]
        assert kind == "update_request" and fields["incremental"] == 1
        assert server.game_state().tilt == {NOOP_ACTION: 0, LEFT_ACTION: -1, RIGHT_ACTION: 1}[action]
        assert not result.terminal
        previous = action


class NoIOSocket:
    """Socket proxy whose sends and receives raise."""

    def __init__(self, sock):
        self._sock = sock

    def __getattr__(self, name):
        if name in ("sendall", "send", "recv"):
            raise AssertionError(f"{name} after the handshake")
        return getattr(self._sock, name)


def test_an_in_process_lockstep_env_makes_no_socket_io_after_the_handshake(env_factory):
    env, _ = env_factory(server_kwargs={"lockstep": True, "seed": 31}, lockstep=True)
    env.session._sock = NoIOSocket(env.session._sock)
    env.reset()
    actions = itertools.cycle([LEFT_ACTION, RIGHT_ACTION, NOOP_ACTION])
    for _ in range(100):
        if env.step(next(actions)).terminal:
            env.reset()


def test_timed_step_writes_its_keys_before_the_tick_wait(env_factory, monkeypatch):
    env, _ = env_factory(
        server_kwargs={"tick_rate": 30.0, "seed": 31}, lockstep=False, tick_rate=30.0
    )
    env.reset()
    writes = record_writes(env)
    wait = env._pacer.wait

    def recording_wait(*args):
        writes.append("wait")
        return wait(*args)

    monkeypatch.setattr(env._pacer, "wait", recording_wait)
    env.step(LEFT_ACTION)
    env.step(RIGHT_ACTION)
    request = ("update_request", {"incremental": 1, "x": 0, "y": 0, "width": 160, "height": 160})
    assert writes == [
        [key(KEY_LEFT, True)], "wait", [request],
        [key(KEY_LEFT, False), key(KEY_RIGHT, True)], "wait", [request],
    ]


def test_timed_mode_paces_steps(env_factory):
    env, _ = env_factory(
        server_kwargs={"tick_rate": 30.0, "seed": 31}, lockstep=False, tick_rate=30.0
    )
    env.reset()
    started = time.monotonic()
    for _ in range(15):
        env.step(NOOP_ACTION)
    elapsed = time.monotonic() - started
    assert 0.4 <= elapsed <= 0.8  # 15 steps at 30 Hz is half a second


def test_timed_steps_never_bunch_after_a_policy_stall(env_factory):
    env, _ = env_factory(
        server_kwargs={"tick_rate": 20.0, "seed": 31}, lockstep=False, tick_rate=20.0
    )
    period = 1.0 / 20.0
    env.reset()
    env.step(NOOP_ACTION)
    time.sleep(1.8 * period)  # the policy overruns the next tick
    env.step(NOOP_ACTION)
    stepped = time.monotonic()
    env.step(NOOP_ACTION)
    assert time.monotonic() - stepped >= 0.5 * period


# -- config files ------------------------------------------------------------


def test_config_file_sets_every_field(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text(
        "host = 10.0.0.1\n"
        "port = 5901\n"
        "actions = noop,0xff51,0xff53,0x20\n"
        "crop = 10,20,100,120\n"
        "obs_width = 8\n"
        "obs_height = 8\n"
        "probe_x = 15\n"
        "probe_y = 25\n"
        "probe_rgb = 10,20,30\n"
        "probe_tolerance = 4\n"
        "reward_per_step = 0.25\n"
        "max_episode_steps = 77\n"
        "lockstep = true\n"
        "tick_rate = 60.0\n"
        "reset_keysym = 0xff0d\n"
    )
    assert load_env_config(path) == EnvConfig(
        host="10.0.0.1",
        port=5901,
        actions=(None, KEY_LEFT, KEY_RIGHT, 0x20),
        crop=(10, 20, 100, 120),
        obs_width=8,
        obs_height=8,
        probe_xy=(15, 25),
        probe_rgb=(10, 20, 30),
        probe_tolerance=4,
        reward_per_step=0.25,
        max_episode_steps=77,
        lockstep=True,
        tick_rate=60.0,
        reset_keysym=0xFF0D,
    )


def test_config_parses_comments_and_spacing(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text(
        "# comment line\n"
        "port = 6000   # trailing comment\n"
        "\n"
        "lockstep = true\n"
        "actions = noop,0xff51,0xff53\n"
        "probe_y = 9\n"
    )
    config = load_env_config(path)
    assert config.port == 6000
    assert config.lockstep is True
    assert config.actions == (None, KEY_LEFT, KEY_RIGHT)
    assert config.probe_xy == (EnvConfig().probe_xy[0], 9)


def test_config_default_text_is_pinned(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text(
        "# environment configuration\n"
        "host = 127.0.0.1\n"
        "port = 5900\n"
        "actions = noop,0xff51,0xff53\n"
        "obs_width = 16\n"
        "obs_height = 16\n"
        "probe_x = 5\n"
        "probe_y = 5\n"
        "probe_rgb = 255,0,0\n"
        "probe_tolerance = 10\n"
        "reward_per_step = 0.03333333333333333\n"
        "max_episode_steps = 3000\n"
        "lockstep = false\n"
        "tick_rate = 30.0\n"
        "reset_keysym = 0x20\n"
    )  # no crop line: crop=None captures the full screen
    assert load_env_config(path) == EnvConfig()


def test_config_names_the_file_line_and_key_of_a_value_it_cannot_read(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text("# ports\nport = abc\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: port: invalid literal"):
        load_env_config(path)


def test_config_names_the_file_of_a_config_env_config_refuses(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text("probe_rgb = 300,0,0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: probe_rgb must be three values"):
        load_env_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        load_env_config(path)


def test_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_env_config(path)


@pytest.mark.parametrize("value", ["yes", "1", "on", ""])
def test_config_rejects_a_malformed_lockstep_value(tmp_path, value):
    path = tmp_path / "env.cfg"
    path.write_text(f"lockstep = {value}\n")
    with pytest.raises(ValueError, match="lockstep"):
        load_env_config(path)
    for flag, expected in (("TRUE", True), ("False", False)):
        path.write_text(f"lockstep = {flag}\n")
        assert load_env_config(path).lockstep is expected
