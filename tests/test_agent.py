"""Agent tests: schedule, updates, discretizer, chain-MDP convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbenv.agent import (
    BLANK_KEY,
    AgentConfig,
    EpsilonSchedule,
    QTable,
    _ball_band,
    ball_column,
    config_hash,
    discretize,
    epsilon,
    select_action,
    train,
    update_q,
)
from fbenv.env import EnvConfig, Observation, make_env
from fbenv.framebuffer import GrayFrame, downsample, to_grayscale
from fbenv.game import GameState, render

from helpers import greedy_policy, values_for

def observation(state: GameState, step_index: int = 0) -> Observation:
    frame = downsample(to_grayscale(render(state)), 16, 16)
    return Observation(frame, step_index)


def game_state(p=0.0, v=0.0, tilt=0, ticks=0, terminal=False):
    return GameState(p, v, tilt, ticks, terminal, 0)


# -- epsilon schedule --------------------------------------------------------


def test_epsilon_endpoints_and_midpoint():
    schedule = EpsilonSchedule()
    assert epsilon(schedule, 0) == 0.9
    assert epsilon(schedule, 10000) == 0.1
    assert epsilon(schedule, 5000) == pytest.approx(0.5, abs=1e-12)
    assert epsilon(schedule, 20000) == 0.1  # clamped past the anneal


def test_epsilon_monotone_non_increasing():
    schedule = EpsilonSchedule()
    values = [epsilon(schedule, step) for step in range(0, 12000, 37)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_epsilon_rejects_negative_step():
    with pytest.raises(ValueError):
        epsilon(EpsilonSchedule(), -1)


def test_schedule_validates_bounds():
    with pytest.raises(ValueError):
        EpsilonSchedule(start=0.1, end=0.9)
    with pytest.raises(ValueError):
        EpsilonSchedule(anneal_steps=0)


# -- action selection --------------------------------------------------------


def test_greedy_pick_is_argmax():
    q = QTable(3)
    q.row(7)[:] = [0.1, 0.9, 0.3]
    rng = np.random.default_rng(0)
    assert select_action(q, 7, 0.0, rng) == 1


def test_all_zero_row_ties_to_lowest_id():
    q = QTable(3)
    rng = np.random.default_rng(0)
    assert select_action(q, 42, 0.0, rng) == 0
    q.row(42)[:] = [0.5, 0.5, 0.2]
    assert select_action(q, 42, 0.0, rng) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    )
)
def test_best_action_and_max_value_match_numpy(values):
    """On finite rows, ties included, the greedy pick is numpy's argmax
    (the lowest tied id) and the bootstrap value numpy's max."""
    q = QTable(len(values))
    q.row(3)[:] = values
    assert q.best_action(3) == int(np.argmax(values))
    assert q.max_value(3) == float(np.max(values))


def test_epsilon_one_is_uniform():
    q = QTable(4)
    rng = np.random.default_rng(1234)
    draws = 100000
    counts = np.zeros(4, dtype=int)
    for _ in range(draws):
        counts[select_action(q, 0, 1.0, rng)] += 1
    expected = draws / 4
    sigma = math.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_select_action_validates_epsilon():
    with pytest.raises(ValueError):
        select_action(QTable(2), 0, 1.5, np.random.default_rng(0))


def test_seeded_selection_is_reproducible():
    q = QTable(3)
    first = [select_action(q, 0, 1.0, np.random.default_rng(5)) for _ in range(50)]
    second = [select_action(q, 0, 1.0, np.random.default_rng(5)) for _ in range(50)]
    assert first == second


# -- Q updates ----------------------------------------------------------------


def test_zero_everything_is_a_fixed_point():
    q = QTable(2)
    update_q(q, 0, 0, 0.0, 1, False, 0.5, 0.9)
    assert values_for(q, 0).tolist() == [0.0, 0.0]


def test_update_worked_example():
    q = QTable(2)
    q.row(0)[0] = 1.0
    q.row(1)[:] = [2.0, 0.5]
    update_q(q, 0, 0, 1.0, 1, False, 0.5, 0.99)
    assert q.row(0)[0] == pytest.approx(1.99, abs=1e-12)


def test_terminal_update_with_full_rate_sets_reward():
    q = QTable(2)
    q.row(0)[1] = -3.5
    q.row(9)[:] = [100.0, 100.0]  # must be ignored: terminal bootstrap is zero
    update_q(q, 0, 1, 1.0, 9, True, 1.0, 0.99)
    assert q.row(0)[1] == 1.0


def test_alpha_zero_freezes_the_table():
    q = QTable(2)
    update_q(q, 0, 0, 5.0, 1, False, 0.0, 0.9)
    assert values_for(q, 0).tolist() == [0.0, 0.0]


def test_update_rejects_non_finite_reward():
    q = QTable(2)
    with pytest.raises(ValueError):
        update_q(q, 0, 0, float("nan"), 1, False, 0.5, 0.9)
    with pytest.raises(ValueError):
        update_q(q, 0, 0, float("inf"), 1, False, 1.0, 0.9)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(0, 5),
    a=st.integers(0, 2),
    r=st.floats(-5, 5),
    s2=st.integers(0, 5),
    terminal=st.booleans(),
    alpha=st.floats(0.01, 1.0),
    gamma=st.floats(0.0, 0.99),
)
def test_update_touches_exactly_one_cell(s, a, r, s2, terminal, alpha, gamma):
    q = QTable(3)
    rng = np.random.default_rng(0)
    for key in range(6):
        q.row(key)[:] = rng.normal(size=3)
    before = {key: values_for(q, key) for key in range(6)}
    update_q(q, s, a, r, s2, terminal, alpha, gamma)
    for key in range(6):
        after = values_for(q, key)
        for action in range(3):
            if key == s and action == a:
                continue
            assert after[action] == before[key][action]


# -- chain MDP vs value iteration oracle --------------------------------------

# A 3-state deterministic chain: action 0 moves left (floored at state 0),
# action 1 moves right; entering state 2 pays +1 and ends the episode.
N_STATES = 3
N_ACTIONS = 2
TERMINAL_STATE = 2


def chain_step(state: int, action: int) -> tuple[int, float, bool]:
    next_state = max(state - 1, 0) if action == 0 else state + 1
    if next_state == TERMINAL_STATE:
        return next_state, 1.0, True
    return next_state, 0.0, False


def value_iteration_oracle(gamma: float, iterations: int = 200) -> np.ndarray:
    q = np.zeros((N_STATES, N_ACTIONS))
    for _ in range(iterations):
        fresh = np.zeros_like(q)
        for state in range(N_STATES - 1):
            for action in range(N_ACTIONS):
                next_state, reward, terminal = chain_step(state, action)
                bootstrap = 0.0 if terminal else q[next_state].max()
                fresh[state, action] = reward + gamma * bootstrap
        q = fresh
    return q


def test_chain_mdp_converges_to_value_iteration():
    gamma = 0.5
    oracle = value_iteration_oracle(gamma)
    q = QTable(N_ACTIONS)
    sweeps = 0
    for sweep in range(50):
        sweeps += 1
        for state in range(N_STATES - 1):
            for action in range(N_ACTIONS):
                next_state, reward, terminal = chain_step(state, action)
                update_q(q, state, action, reward, next_state, terminal, 1.0, gamma)
        learned = np.array([values_for(q, s) for s in range(N_STATES)])
        if np.max(np.abs(learned[: N_STATES - 1] - oracle[: N_STATES - 1])) <= 1e-9:
            break
    assert sweeps <= 50
    learned = np.array([values_for(q, s) for s in range(N_STATES)])
    assert np.max(np.abs(learned[: N_STATES - 1] - oracle[: N_STATES - 1])) <= 1e-9
    # and the greedy policy matches the oracle's
    policy = greedy_policy(q)
    for state in range(N_STATES - 1):
        assert policy[state] == int(np.argmax(oracle[state]))


def test_greedy_policy_empty_table_defaults_to_zero():
    policy = greedy_policy(QTable(3))
    assert policy[123] == 0
    assert policy[BLANK_KEY] == 0


def test_greedy_policy_scale_invariance():
    q = QTable(3)
    rng = np.random.default_rng(8)
    for key in range(10):
        q.row(key)[:] = rng.normal(size=3)
    base = dict(greedy_policy(q))
    scaled = QTable(3)
    for key in range(10):
        scaled.row(key)[:] = 7.5 * values_for(q, key)
    assert dict(greedy_policy(scaled)) == base


# -- discretizer ---------------------------------------------------------------


def test_centered_ball_maps_to_center_bins():
    # dead center: ball pixels 72..79 all land in downsample cell 7
    obs = observation(game_state(p=0.0))
    assert ball_column(obs.frame) == 7
    assert discretize(obs, None) == 5 * 5 + 2  # position bin 5, velocity bin 0
    # a nudge right puts the ball majority into cell 8 -> bin 6
    nudged = observation(game_state(p=0.0728))
    assert ball_column(nudged.frame) == 8
    assert discretize(nudged, None) == 6 * 5 + 2


def test_identical_frames_give_zero_velocity():
    a = observation(game_state(p=0.31))
    b = observation(game_state(p=0.31), step_index=1)
    key_static = discretize(b, a)
    assert key_static % 5 == 2


def test_moving_ball_shifts_velocity_bin():
    slow = observation(game_state(p=0.0))
    fast = observation(game_state(p=0.2), step_index=1)
    key = discretize(fast, slow)
    assert key % 5 > 2  # rightward motion
    key_back = discretize(slow, fast)
    assert key_back % 5 < 2


def test_terminal_and_blank_frames_use_reserved_key():
    red = observation(game_state(terminal=True))
    assert discretize(red, None) == BLANK_KEY
    dark = Observation(GrayFrame(16, 16, np.zeros((16, 16), dtype=np.uint8)), 0)
    assert discretize(dark, None) == BLANK_KEY


@pytest.mark.parametrize("height, band_rows", [(1, 1), (16, 1), (40, 2), (160, 8)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ball_column_matches_numpy_argmax(height, band_rows, data):
    """The ball column is numpy's argmax of the band's column maxima
    (ties to the lowest column), and None for a uniform band."""
    top, bottom = _ball_band(height)
    assert bottom - top == band_rows
    width = data.draw(st.integers(1, 24), label="width")
    values = data.draw(arrays(np.uint8, (height, width), elements=st.integers(0, 3)))
    if data.draw(st.booleans(), label="uniform band"):
        values[top:bottom] = values[top, 0]
    brightness = values[top:bottom].max(axis=0)
    expected = None if brightness.max() == brightness.min() else int(np.argmax(brightness))
    assert ball_column(GrayFrame(width, height, values)) == expected


def test_discretizer_keys_cover_expected_range():
    for p in np.linspace(-1.0, 1.0, 41):
        key = discretize(observation(game_state(p=float(p))), None)
        assert 0 <= key <= BLANK_KEY


# -- persistence ---------------------------------------------------------------


def test_qtable_load_names_a_file_without_the_header(tmp_path):
    path = tmp_path / "not-a-table.tsv"
    path.write_text("0\t1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="not-a-table.tsv"):
        QTable.load(path)


@pytest.mark.parametrize("values", ["nan 1.0 inf", "1.0 inf 2.0", "-inf 0.0 0.0"])
def test_qtable_load_rejects_non_finite_values(tmp_path, values):
    path = tmp_path / "q.tsv"
    path.write_text(f"# n_actions=3 config_hash=0\n0\t1.0 2.0 3.0\n5\t{values}\n")
    with pytest.raises(ValueError, match="key 5"):
        QTable.load(path)


def test_qtable_save_load_round_trip(tmp_path):
    q = QTable(3)
    rng = np.random.default_rng(3)
    for key in (0, 5, BLANK_KEY):
        q.row(key)[:] = rng.normal(size=3)
    path = tmp_path / "q.tsv"
    config = AgentConfig()
    q.save(path, config)
    loaded = QTable.load(path)
    assert loaded.n_actions == 3
    assert sorted(loaded.keys()) == sorted(q.keys())
    for key in q.keys():
        assert values_for(loaded, key).tolist() == values_for(q, key).tolist()
    header = path.read_text().splitlines()[0]
    assert header.startswith("# n_actions=3 config_hash=")
    assert f"{config_hash(config):016x}" in header


def test_config_hash_tracks_parameters():
    a = AgentConfig()
    b = AgentConfig(learning_rate=0.2)
    assert config_hash(a) == config_hash(AgentConfig())
    assert config_hash(a) != config_hash(b)


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AgentConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        AgentConfig(discount=1.0)


# -- training loop -------------------------------------------------------------


def test_training_is_deterministic(server_factory):
    def run():
        server = server_factory(lockstep=True, seed=3)
        with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
            q, report = train(env, AgentConfig(seed=9), episodes=8)
        return report.episode_scores, {k: values_for(q, k).tolist() for k in q.keys()}

    scores_a, table_a = run()
    scores_b, table_b = run()
    assert scores_a == scores_b
    assert table_a == table_b
    assert len(scores_a) == 8


def test_training_learns_at_least_within_bounds(server_factory):
    server = server_factory(lockstep=True, seed=3)
    with make_env(EnvConfig(port=server.port, lockstep=True)) as env:
        q, report = train(env, AgentConfig(seed=9), episodes=10)
    assert report.error is None
    assert report.steps_total == sum(
        round(s / (1.0 / 30.0)) + 1 for s in report.episode_scores
    )
    bound = (1.0 / 30.0) / (1.0 - 0.99) + 1e-9
    for key in q.keys():
        assert np.all(np.abs(values_for(q, key)) <= bound)


def test_training_surfaces_env_errors(server_factory):
    server = server_factory(lockstep=True, seed=3)
    env = make_env(EnvConfig(port=server.port, lockstep=True))

    class Boom(RuntimeError):
        pass

    original_step = env.step
    calls = []

    def failing_step(action):
        calls.append(action)
        if len(calls) >= 12:
            raise Boom("flaky wire")
        return original_step(action)

    env.step = failing_step
    q, report = train(env, AgentConfig(seed=9), episodes=50)
    env.close()
    assert isinstance(report.error, Boom)
    assert report.steps_total == 11
