"""The deterministic paddle-balance game behind the mock server.

A ball sits on a tilting paddle. Position ``p`` lives in [-1, 1] of
half-screen widths; each tick applies, in this exact order::

    velocity += CONTROL_GAIN * tilt + DRIFT_GAIN * position
    position += velocity

so the ball accelerates away from the center (unstable without input)
and the paddle tilt pushes it back. The episode ends when |p| > 1.
The gains are sized so a random policy survives roughly 40-120 ticks
while a bang-bang policy toward the center survives indefinitely.

Rendering is pure and byte-deterministic: black background, white
paddle bar with tilt shown as end offsets, a white 8x8 ball, and a
solid red screen once the state is terminal (the terminal probe
target). :func:`draw` does all drawing, in place over a previous render.
Each episode draws its starting perturbation from :func:`episode_seed`.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .errors import InvalidStateError
from .framebuffer import Framebuffer, pack_rgb, word_dtype
from .record import record
from .wire import RGBX32, PixelFormat

SCREEN_WIDTH = 160
SCREEN_HEIGHT = 160

CONTROL_GAIN = 0.004
DRIFT_GAIN = 0.002
INITIAL_SPREAD = 0.1

# paddle geometry: a 2-row bar at row 140; its outer 16-column ends are
# shifted vertically by 2 * tilt rows (left end down when tilt is +1)
PADDLE_ROW = 140
PADDLE_THICKNESS = 2
PADDLE_END_WIDTH = 16
PADDLE_END_OFFSET = 2

# ball geometry: 8x8 square resting just above the paddle
BALL_SIZE = 8
BALL_TOP_ROW = 132

WHITE_RGB = (255, 255, 255)
TERMINAL_RGB = (255, 0, 0)

_SEED_STRIDE = 0x9E3779B97F4A7C15  # 64-bit golden-ratio increment
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


@record
class GameState:
    position: float
    velocity: float
    tilt: int
    ticks_survived: int
    terminal: bool
    rng_seed: int


def episode_seed(base_seed: int, episode: int) -> int:
    """Per-episode seed: base plus a golden-ratio stride, mod 2^64."""
    return (base_seed + episode * _SEED_STRIDE) & _SEED_MASK


def new_game(rng_seed: int) -> GameState:
    """Fresh episode with p0 drawn uniformly from +-INITIAL_SPREAD."""
    p0 = random.Random(rng_seed).uniform(-INITIAL_SPREAD, INITIAL_SPREAD)
    return GameState(
        position=p0, velocity=0.0, tilt=0, ticks_survived=0, terminal=False, rng_seed=rng_seed
    )


def step_game(state: GameState, tilt_input: int) -> GameState:
    """Advance one tick under the given tilt input (-1, 0 or +1)."""
    if state.terminal:
        raise InvalidStateError("cannot step a terminal game state")
    if tilt_input not in (-1, 0, 1):
        raise ValueError(f"tilt input must be -1, 0 or +1, got {tilt_input}")
    velocity = state.velocity + CONTROL_GAIN * tilt_input + DRIFT_GAIN * state.position
    position = state.position + velocity
    ticks = state.ticks_survived + 1
    return GameState(position, velocity, tilt_input, ticks, abs(position) > 1.0, state.rng_seed)


def ball_center_column(position: float) -> int:
    """Ball center column for a position in [-1, 1], rounded half-up."""
    return int((position + 1.0) / 2.0 * (SCREEN_WIDTH - BALL_SIZE - 1) + 0.5)


def render(state: GameState, fmt: PixelFormat = RGBX32) -> Framebuffer:
    """Draw the state into a fresh framebuffer in the given format."""
    fb = Framebuffer.blank(SCREEN_WIDTH, SCREEN_HEIGHT, fmt)
    draw(fb.as_words(), state, fmt)
    return fb


def draw(words: np.ndarray, state: GameState, fmt: PixelFormat, previous: GameState | None = None) -> None:
    """Draw ``state`` in place into ``words``, a (height, width) array of
    ``fmt`` words that holds ``render(previous, fmt)``, or all background
    when ``previous`` is None, so that it ends equal to ``render(state,
    fmt)``. Black packs to 0 in every true-color format, so the background
    is the zero word."""
    if previous is not None:
        top, bottom = drawn_rows(previous)
        words[top:bottom] = 0
    white, red = _colour_words(fmt)
    if state.terminal:
        words[:] = red
        return
    mid = PADDLE_ROW
    left = mid + PADDLE_END_OFFSET * state.tilt
    right = mid - PADDLE_END_OFFSET * state.tilt
    words[mid : mid + PADDLE_THICKNESS, PADDLE_END_WIDTH : SCREEN_WIDTH - PADDLE_END_WIDTH] = white
    words[left : left + PADDLE_THICKNESS, :PADDLE_END_WIDTH] = white
    words[right : right + PADDLE_THICKNESS, SCREEN_WIDTH - PADDLE_END_WIDTH :] = white
    center = ball_center_column(state.position)
    col_lo = max(0, center - BALL_SIZE // 2)
    col_hi = min(SCREEN_WIDTH, center + BALL_SIZE // 2)
    words[BALL_TOP_ROW : BALL_TOP_ROW + BALL_SIZE, col_lo:col_hi] = white


def drawn_rows(state: GameState) -> tuple[int, int]:
    """Rows ``[top, bottom)`` outside which ``render(state)`` is all
    background: every row for a terminal state, else the ball's rows and
    the paddle's rows at the state's tilt."""
    if state.terminal:
        return 0, SCREEN_HEIGHT
    reach = PADDLE_END_OFFSET * abs(state.tilt)
    top = min(BALL_TOP_ROW, PADDLE_ROW - reach)
    bottom = max(BALL_TOP_ROW + BALL_SIZE, PADDLE_ROW + reach + PADDLE_THICKNESS)
    return top, bottom


@functools.lru_cache(maxsize=8)
def _colour_words(fmt: PixelFormat) -> tuple[np.generic, np.generic]:
    """White and the terminal red as ``fmt`` words."""
    rgb = np.array([[WHITE_RGB, TERMINAL_RGB]], dtype=np.uint8)
    white, red = np.frombuffer(pack_rgb(rgb, fmt), dtype=word_dtype(fmt))
    return white, red


def score(state: GameState, tick_rate: float | None = None) -> int:
    """Points earned so far: one per second survived at ``tick_rate``, or
    one per tick when it is None (lockstep mode)."""
    if tick_rate is None:
        return state.ticks_survived
    return int(state.ticks_survived // tick_rate)
