"""Paddle game dynamics, rendering, and scoring tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbenv.errors import InvalidStateError
from fbenv.game import (
    BALL_SIZE,
    BALL_TOP_ROW,
    PADDLE_END_OFFSET,
    PADDLE_END_WIDTH,
    PADDLE_ROW,
    PADDLE_THICKNESS,
    SCREEN_HEIGHT,
    SCREEN_WIDTH,
    GameState,
    ball_center_column,
    draw,
    drawn_rows,
    episode_seed,
    new_game,
    render,
    score,
    step_game,
)
from fbenv.framebuffer import pack_rgb, pixel_rgb, word_dtype
from fbenv.wire import PixelFormat

from helpers import (
    TEST_FORMATS,
    oracle_ball_columns,
    oracle_episode_seed,
    oracle_start_position,
    oracle_step,
    oracle_survival_ticks,
    oracle_trajectory,
)


def state(p=0.0, v=0.0, tilt=0, ticks=0, terminal=False, seed=0):
    return GameState(p, v, tilt, ticks, terminal, seed)


# -- dynamics ----------------------------------------------------------------


def test_center_equilibrium_with_no_input():
    g = state()
    for _ in range(500):
        g = step_game(g, 0)
    assert g.position == 0.0 and g.velocity == 0.0 and not g.terminal
    assert g.ticks_survived == 500


def test_single_step_worked_example():
    g = step_game(state(p=0.5), 0)
    assert g.velocity == pytest.approx(0.001, abs=1e-15)
    assert g.position == pytest.approx(0.501, abs=1e-15)


def test_edge_state_terminates_in_one_step():
    for tilt in (-1, 0, 1):
        g = step_game(state(p=1.0, v=0.05), tilt)
        assert g.position > 1.0
        assert g.terminal


def test_step_rejects_terminal_state():
    with pytest.raises(InvalidStateError):
        step_game(state(terminal=True), 0)


def test_step_rejects_bad_tilt():
    with pytest.raises(ValueError):
        step_game(state(), 2)


def test_dynamics_match_oracle_trajectory():
    rng = np.random.default_rng(3)
    tilts = [int(t) for t in rng.integers(-1, 2, size=400)]
    g = new_game(episode_seed(21, 0))
    expected = oracle_trajectory(g.position, g.velocity, tilts)
    for tilt, (p, v) in zip(tilts, expected):
        g = step_game(g, tilt)
        assert g.position == p and g.velocity == v
        if g.terminal:
            break


def test_holding_left_drives_ball_left():
    ticks = oracle_survival_ticks(0.0, lambda i, p, v: -1)
    assert ticks <= 50  # constant push escapes well within 50 ticks
    g = state()
    for _ in range(ticks - 1):
        g = step_game(g, -1)
    assert not g.terminal and g.position < 0
    final = step_game(g, -1)
    assert final.terminal and final.position < -1.0


@settings(max_examples=30, deadline=None)
@given(
    p0=st.floats(-0.5, 0.5),
    v0=st.floats(-0.05, 0.05),
    seed=st.integers(0, 2**31),
)
def test_zero_input_mirror_symmetry(p0, v0, seed):
    rng = np.random.default_rng(seed)
    tilts = [int(t) for t in rng.integers(-1, 2, size=100)]
    a = state(p=p0, v=v0)
    b = state(p=-p0, v=-v0)
    for tilt in tilts:
        if a.terminal:
            break
        a = step_game(a, tilt)
        b = step_game(b, -tilt)
        assert b.position == -a.position
        assert b.velocity == -a.velocity
        assert b.terminal == a.terminal


def test_random_policy_survival_is_short_and_bounded():
    for episode in range(5):
        p0 = oracle_start_position(99, episode)
        rng = np.random.default_rng(episode)
        ticks = oracle_survival_ticks(p0, lambda i, p, v: int(rng.integers(-1, 2)))
        assert 10 <= ticks <= 1000


def test_bang_bang_policy_survives_indefinitely():
    # switching on position plus a velocity lead keeps the ball captive
    for episode in range(3):
        p, v = oracle_start_position(99, episode), 0.0
        for _ in range(50000):
            lead = p + 10.0 * v
            p, v = oracle_step(p, v, -1 if lead > 0 else (1 if lead < 0 else 0))
            assert abs(p) <= 1.0


# -- determinism and seeding -------------------------------------------------


def test_identical_seed_and_inputs_replay_identically():
    tilts = [(-1) ** i for i in range(120)]

    def run():
        states = [new_game(episode_seed(5, 0))]
        for tilt in tilts:
            if states[-1].terminal:
                break
            states.append(step_game(states[-1], tilt))
        return states

    first, second = run(), run()
    assert len(first) > 10
    assert first == second
    assert all(
        bytes(render(a).pixels) == bytes(render(b).pixels) for a, b in zip(first, second)
    )


def test_episode_seed_matches_documented_derivation():
    for base in (0, 7, 2**63):
        for episode in (0, 1, 17):
            assert episode_seed(base, episode) == oracle_episode_seed(base, episode)


def test_new_game_start_positions():
    for episode in range(20):
        g = new_game(episode_seed(13, episode))
        assert abs(g.position) <= 0.1
        assert g.position == oracle_start_position(13, episode)
        assert g.velocity == 0.0 and g.ticks_survived == 0 and not g.terminal


# -- rendering ---------------------------------------------------------------


def test_render_ball_at_center():
    fb = render(state(p=0.0))
    gray = fb.as_array()
    assert ball_center_column(0.0) == 76
    lit = set(oracle_ball_columns(0.0))
    assert lit == set(range(72, 80))
    for row in range(BALL_TOP_ROW, BALL_TOP_ROW + BALL_SIZE):
        for col in range(60, 100):
            expected = (255, 255, 255) if col in lit else (0, 0, 0)
            assert pixel_rgb(fb, col, row) == expected


def test_render_paddle_bar():
    fb = render(state(tilt=0))
    assert pixel_rgb(fb, 80, 140) == (255, 255, 255)
    assert pixel_rgb(fb, 80, 141) == (255, 255, 255)
    assert pixel_rgb(fb, 80, 143) == (0, 0, 0)
    tilted = render(state(tilt=1))
    assert pixel_rgb(tilted, 0, 142) == (255, 255, 255)  # left end pushed down
    assert pixel_rgb(tilted, 159, 138) == (255, 255, 255)  # right end raised
    assert pixel_rgb(tilted, 80, 140) == (255, 255, 255)  # middle unmoved


def test_render_terminal_screen_is_solid_red():
    fb = render(state(terminal=True))
    arr = fb.as_array()
    assert np.all(arr[:, :, 2] == 255)  # red byte in the canonical layout
    assert np.all(arr[:, :, 1] == 0)
    assert np.all(arr[:, :, 0] == 0)
    assert pixel_rgb(fb, 5, 5) == (255, 0, 0)


def test_render_is_deterministic():
    a = render(state(p=0.123, v=0.01, tilt=-1))
    b = render(state(p=0.123, v=0.01, tilt=-1))
    assert bytes(a.pixels) == bytes(b.pixels)


def test_render_respects_requested_format():
    fmt = PixelFormat(16, 16, False, True, 31, 63, 31, 11, 5, 0)
    fb = render(state(terminal=True), fmt)
    assert len(fb.pixels) == 160 * 160 * 2
    assert pixel_rgb(fb, 0, 0) == (255, 0, 0)


def test_render_clips_ball_at_edges():
    fb = render(state(p=-1.0))
    lit = set(oracle_ball_columns(-1.0))
    assert lit == {0, 1, 2, 3}
    row = BALL_TOP_ROW + 1
    for col in range(0, 12):
        expected = (255, 255, 255) if col in lit else (0, 0, 0)
        assert pixel_rgb(fb, col, row) == expected


def oracle_render(g: GameState, fmt: PixelFormat) -> bytes:
    """Reference drawing: a full RGB array, then pack_rgb over all of it."""
    rgb = np.zeros((SCREEN_HEIGHT, SCREEN_WIDTH, 3), dtype=np.uint8)
    if g.terminal:
        rgb[:, :] = (255, 0, 0)
        return pack_rgb(rgb, fmt)
    left = PADDLE_ROW + PADDLE_END_OFFSET * g.tilt
    right = PADDLE_ROW - PADDLE_END_OFFSET * g.tilt
    rgb[PADDLE_ROW : PADDLE_ROW + PADDLE_THICKNESS, PADDLE_END_WIDTH : SCREEN_WIDTH - PADDLE_END_WIDTH] = 255
    rgb[left : left + PADDLE_THICKNESS, :PADDLE_END_WIDTH] = 255
    rgb[right : right + PADDLE_THICKNESS, SCREEN_WIDTH - PADDLE_END_WIDTH :] = 255
    for col in oracle_ball_columns(g.position):
        rgb[BALL_TOP_ROW : BALL_TOP_ROW + BALL_SIZE, col] = 255
    return pack_rgb(rgb, fmt)


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(TEST_FORMATS),
    p=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.99, 0.99, 1.0])),
    tilt=st.sampled_from([-1, 0, 1]),
    terminal=st.booleans(),
)
def test_render_matches_rgb_oracle_in_every_format(fmt, p, tilt, terminal):
    g = state(p=p, tilt=tilt, terminal=terminal)
    fb = render(g, fmt)
    assert fb.format == fmt
    assert bytes(fb.pixels) == oracle_render(g, fmt)


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(TEST_FORMATS),
    p=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.99, 0.99, 1.0])),
    tilt=st.sampled_from([-1, 0, 1]),
    terminal=st.booleans(),
)
def test_drawn_rows_bound_every_drawn_pixel(fmt, p, tilt, terminal):
    g = state(p=p, tilt=tilt, terminal=terminal)
    top, bottom = drawn_rows(g)
    assert 0 <= top < bottom <= SCREEN_HEIGHT
    if terminal:
        assert (top, bottom) == (0, SCREEN_HEIGHT)
    # black packs to 0 in every format, so background rows are all-zero bytes
    rows = np.frombuffer(oracle_render(g, fmt), dtype=np.uint8).reshape(SCREEN_HEIGHT, -1)
    assert not rows[:top].any() and not rows[bottom:].any()
    assert rows[top].any() and rows[bottom - 1].any()  # and the band is tight


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from(TEST_FORMATS),
    states=st.lists(
        st.builds(
            state,
            p=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.99, 0.99, 1.0])),
            tilt=st.sampled_from([-1, 0, 1]),
            terminal=st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_draw_in_place_matches_a_fresh_render(fmt, states):
    """One word array redrawn through a sequence of states (tilts, clipped
    balls, terminal states and the resets after them) always holds what a
    fresh render of the current state holds."""
    words = np.zeros((SCREEN_HEIGHT, SCREEN_WIDTH), dtype=word_dtype(fmt))
    previous = None
    for g in states:
        draw(words, g, fmt, previous)
        assert words.tobytes() == oracle_render(g, fmt)
        previous = g


# -- the state record --------------------------------------------------------


def test_game_state_is_an_immutable_truthy_record_equal_only_to_game_states():
    g = new_game(5)
    twin = GameState(*g)
    assert twin is not g
    assert g == twin and not g != twin
    assert hash(g) == hash(twin)
    assert g != tuple(g) and tuple(g) != g
    assert g != step_game(g, 1)
    assert g
    with pytest.raises(AttributeError):
        g.position = 0.0
    with pytest.raises(AttributeError):
        g.extra = 1


# -- scoring -----------------------------------------------------------------


def test_score_examples():
    assert score(state(ticks=90), tick_rate=30.0) == 3
    assert score(state(ticks=0), tick_rate=30.0) == 0
    assert score(state(ticks=29), tick_rate=30.0) == 0
    assert score(state(ticks=90)) == 90  # lockstep counts ticks directly
