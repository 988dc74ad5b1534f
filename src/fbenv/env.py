"""Gym-style facade over a client session: reset/step, rewards, terminal
pixel probe.

Everything the environment knows arrives through pixels. An observation
is the (cropped) framebuffer in grayscale, box-filtered to
``obs_width`` x ``obs_height``; a :class:`fbenv.framebuffer.GrayCells`
keeps it, redoing per step only the cell rows whose pixels changed (a
paddle redraw touches two of the default 16). Episode end is detected
by probing one framebuffer pixel for the server's solid-red
terminal screen, and reward accrues per surviving step (default 1/30 so
a second survived is worth one point at the standard tick rate). The
probe is resolved when the Env is made: the byte offset of its pixel,
the struct that reads its word and, per channel, the shift, the mask
and the range of raw values whose 0..255 rescale is within the
tolerance; a step then reads one word and compares each channel with
its range, the same way in every true-colour format.

Actions latch: a step that changes action queues key-up for the
previously held key and key-down for its own, so exactly one directional
key is ever held. In lockstep mode the queued keys go out in the same
write as the step's update request, so a step costs one write and one
server wake; it is exactly one game tick, and trajectories are
independent of wall-clock speed: a step waits up to
``DEFAULT_CONNECT_TIMEOUT`` for its update and raises
:class:`~fbenv.errors.ConnectionLostError` if none comes, rather than
reuse the cached frame. In timed mode the keys are written before the
step waits for its tick, so the server's ticker sees them on time, and
steps are paced to the configured tick rate by
:class:`fbenv.client.Pacer`, whose grid restarts at each reset. A reset
writes its key-up, its reset key tap and its refresh request at once.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .client import DEFAULT_CONNECT_TIMEOUT, Pacer, Session, connect
from .errors import ConnectionLostError, InvalidStateError, ResetTimeoutError, UnsupportedFormatError
# downsample and pixel_rgb are unused here; they stay importable as
# fbenv.env.downsample and fbenv.env.pixel_rgb, the names perfbench's tracer wraps
from .framebuffer import GrayCells, GrayFrame, downsample, pixel_rgb  # noqa: F401
from .keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE

RESET_DEADLINE = 2.0

#: struct code of one pixel word, by bytes per pixel
_WORD_CODES = {1: "B", 2: "H", 4: "I"}


def _channel_range(cmax: int, expected: int, tolerance: int) -> tuple[int, int]:
    """Raw values ``[low, high]`` of a channel with color-max ``cmax``
    whose 0..255 rescale (half-up, as :func:`fbenv.framebuffer.pixel_rgb`
    gives it) is within ``tolerance`` of ``expected``; ``low > high`` when
    none is."""
    # the rescale floor((510 r + cmax) / (2 cmax)) is at least L exactly when
    # 510 r >= cmax (2L - 1), and at most U exactly when 510 r < cmax (2U + 1)
    low, high = expected - tolerance, expected + tolerance
    return max(0, -(-cmax * (2 * low - 1) // 510)), min(cmax, (cmax * (2 * high + 1) - 1) // 510)


@dataclass(frozen=True)
class EnvConfig:
    host: str = "127.0.0.1"
    port: int = 5900
    #: keysym per action id; None is the no-op action
    actions: tuple[int | None, ...] = (None, KEY_LEFT, KEY_RIGHT)
    #: (x, y, width, height) source region; None captures the full screen
    crop: tuple[int, int, int, int] | None = None
    obs_width: int = 16
    obs_height: int = 16
    probe_xy: tuple[int, int] = (5, 5)
    probe_rgb: tuple[int, int, int] = (255, 0, 0)
    probe_tolerance: int = 10
    reward_per_step: float = 1.0 / 30.0
    max_episode_steps: int = 3000
    lockstep: bool = False
    #: frame pacing for timed mode; also the documented basis for the
    #: reward_per_step default (one point per second)
    tick_rate: float = 30.0
    reset_keysym: int = KEY_SPACE

    def __post_init__(self):
        if not self.actions:
            raise ValueError("action set must not be empty")
        if self.obs_width < 1 or self.obs_height < 1:
            raise ValueError("observation dimensions must be positive")
        if self.max_episode_steps < 1:
            raise ValueError("max_episode_steps must be at least 1")
        if self.probe_tolerance < 0:
            raise ValueError("probe tolerance must be non-negative")
        if self.tick_rate <= 0:
            raise ValueError("tick rate must be positive")
        if self.crop is not None:
            x, y, w, h = self.crop
            if w < 1 or h < 1 or x < 0 or y < 0:
                raise ValueError(f"invalid crop region {self.crop}")
            px, py = self.probe_xy
            if not (x <= px < x + w and y <= py < y + h):
                raise ValueError(f"probe {self.probe_xy} outside crop region {self.crop}")


@dataclass(frozen=True)
class Observation:
    frame: GrayFrame
    step_index: int


@dataclass(frozen=True)
class Transition:
    state: Observation
    action: int
    reward: float
    next_state: Observation
    terminal: bool


class StepResult(NamedTuple):
    observation: Observation
    reward: float
    terminal: bool
    truncated: bool


class Env:
    """Connected environment; single-owner and synchronous."""

    def __init__(self, config: EnvConfig, session: Session):
        self.config = config
        self.session = session
        px, py = config.probe_xy
        if not (0 <= px < session.width and 0 <= py < session.height):
            raise ValueError(f"probe {config.probe_xy} outside {session.width}x{session.height} screen")
        fb = session.framebuffer
        fmt = fb.format
        if not fmt.true_color:
            raise UnsupportedFormatError("palette formats carry no direct RGB to probe")
        # the probe, resolved once: where its word lies and each channel's
        # (shift, color-max) and range of raw values within tolerance
        self._pixels = fb.pixels
        self._probe_offset = (py * fb.width + px) * fmt.bytes_per_pixel
        byte_order = ">" if fmt.big_endian else "<"
        self._probe_word = struct.Struct(byte_order + _WORD_CODES[fmt.bytes_per_pixel]).unpack_from
        self._probe_channels = tuple(
            (shift, cmax, *_channel_range(cmax, expected, config.probe_tolerance))
            for shift, cmax, expected in zip(
                (fmt.red_shift, fmt.green_shift, fmt.blue_shift),
                (fmt.red_max, fmt.green_max, fmt.blue_max),
                config.probe_rgb,
            )
        )
        self._step_index = 0
        self._episode_over = False
        self._held: int | None = None
        self._pacer = Pacer(1.0 / config.tick_rate)
        self._cells = GrayCells(session.framebuffer, config.obs_width, config.obs_height, config.crop)

    def close(self) -> None:
        self.session.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def n_actions(self) -> int:
        return len(self.config.actions)

    # -- observation ------------------------------------------------------

    def _observe(self) -> Observation:
        return Observation(self._cells.observe(), self._step_index)

    def _probe_terminal(self) -> bool:
        """Whether every channel of the probe pixel, rescaled to 0..255,
        is within the tolerance of the probe colour."""
        (word,) = self._probe_word(self._pixels, self._probe_offset)
        for shift, cmax, low, high in self._probe_channels:
            if not low <= (word >> shift) & cmax <= high:
                return False
        return True

    # -- episode control ---------------------------------------------------

    def reset(self) -> Observation:
        """Start a fresh episode and return its first observation."""
        if self._held is not None:
            self.session.queue_key(self._held, False)
            self._held = None
        self.session.queue_key(self.config.reset_keysym, True)
        self.session.queue_key(self.config.reset_keysym, False)
        deadline = time.monotonic() + RESET_DEADLINE
        while True:
            self.session.refresh()
            if not self._probe_terminal():
                break
            if time.monotonic() >= deadline:
                raise ResetTimeoutError("terminal screen persisted past the reset deadline")
            time.sleep(0.01)
        self._step_index = 0
        self._episode_over = False
        self._pacer = Pacer(1.0 / self.config.tick_rate)
        self._pacer.wait()  # the reset frame takes the first tick
        return self._observe()

    def step(self, action_id: int) -> StepResult:
        """Inject an action, advance one frame, and score the transition."""
        if self._episode_over:
            raise InvalidStateError("episode is over; call reset() first")
        if not 0 <= action_id < self.n_actions:
            raise ValueError(f"action id {action_id} outside 0..{self.n_actions - 1}")
        keysym = self.config.actions[action_id]
        if keysym != self._held:
            if self._held is not None:
                self.session.queue_key(self._held, False)
            if keysym is not None:
                self.session.queue_key(keysym, True)
            self._held = keysym
        if self.config.lockstep:
            if not self.session.poll(DEFAULT_CONNECT_TIMEOUT):
                raise ConnectionLostError(f"no lockstep update within {DEFAULT_CONNECT_TIMEOUT:g} s")
        else:
            self.session.flush()
            self._pacer.wait()
            self.session.poll()
        terminal = self._probe_terminal()
        self._step_index += 1
        truncated = not terminal and self._step_index >= self.config.max_episode_steps
        reward = 0.0 if terminal else self.config.reward_per_step
        self._episode_over = terminal or truncated
        return StepResult(self._observe(), reward, self._episode_over, truncated)

    def run_episode(self, policy: Callable[[Observation], int]) -> tuple[float, list[Transition]]:
        """Reset, then follow ``policy`` until the episode ends.

        Returns the episode score (sum of rewards) and the transition
        record. Policy exceptions abort the episode and propagate.
        """
        observation = self.reset()
        transitions: list[Transition] = []
        score = 0.0
        while True:
            action = policy(observation)
            result = self.step(action)
            transitions.append(
                Transition(observation, action, result.reward, result.observation, result.terminal)
            )
            score += result.reward
            observation = result.observation
            if result.terminal:
                return score, transitions


def make_env(config: EnvConfig) -> Env:
    """Connect to the configured server and return a ready environment."""
    session = connect(config.host, config.port)
    try:
        return Env(config, session)
    except BaseException:
        session.close()
        raise


# -- flat key=value config files -----------------------------------------


def _parse_action(token: str) -> int | None:
    token = token.strip().lower()
    if token == "noop":
        return None
    return int(token, 0)


def _parse_lockstep(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"lockstep must be true or false, got {value!r}")
    return value.lower() == "true"


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.split(","))


#: file key -> (EnvConfig field, index into that field or None, writer,
#: reader), in the order save_env_config writes them; a None value
#: (a full-screen crop) writes no line
_CONFIG_KEYS = {
    "host": ("host", None, str, str),
    "port": ("port", None, str, int),
    "actions": (
        "actions",
        None,
        lambda actions: ",".join("noop" if a is None else hex(a) for a in actions),
        lambda value: tuple(_parse_action(t) for t in value.split(",")),
    ),
    "obs_width": ("obs_width", None, str, int),
    "obs_height": ("obs_height", None, str, int),
    "probe_x": ("probe_xy", 0, str, int),
    "probe_y": ("probe_xy", 1, str, int),
    "probe_rgb": ("probe_rgb", None, _join, _ints),
    "probe_tolerance": ("probe_tolerance", None, str, int),
    "reward_per_step": ("reward_per_step", None, repr, float),
    "max_episode_steps": ("max_episode_steps", None, str, int),
    "lockstep": ("lockstep", None, lambda flag: "true" if flag else "false", _parse_lockstep),
    "tick_rate": ("tick_rate", None, repr, float),
    "reset_keysym": ("reset_keysym", None, hex, lambda value: int(value, 0)),
    "crop": ("crop", None, _join, _ints),
}


def save_env_config(config: EnvConfig, path) -> None:
    """Write a config as one `key = value` per line."""
    lines = ["# environment configuration"]
    for key, (field, index, write, _) in _CONFIG_KEYS.items():
        value = getattr(config, field)
        if index is not None:
            value = value[index]
        if value is not None:
            lines.append(f"{key} = {write(value)}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_env_config(path) -> EnvConfig:
    """Parse a flat key=value config file; `#` starts a comment. A key
    left out keeps its EnvConfig default; so does the other half of
    probe_x/probe_y."""
    kwargs = {}
    with open(path, "r", encoding="ascii") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            field, index, _, read = _CONFIG_KEYS[key]
            parsed = read(value)
            if index is not None:
                pair = list(kwargs.get(field, getattr(EnvConfig, field)))
                pair[index] = parsed
                parsed = tuple(pair)
            kwargs[field] = parsed
    return EnvConfig(**kwargs)
