"""Gym-style facade over a client session: reset/step, rewards, terminal
pixel probe.

Everything the environment knows arrives through pixels. An observation
is the (cropped) framebuffer in grayscale, box-filtered to
``obs_width`` x ``obs_height``; a :class:`fbenv.framebuffer.GrayCells`
keeps it, redoing per step only the cell rows whose pixels changed (a
paddle redraw touches two of the default 16). Episode end is detected
by probing one framebuffer pixel for the server's solid-red
terminal screen, and reward accrues per surviving step (default 1/30 so
a second survived is worth one point at the standard tick rate).

Actions latch: each step sends key-down for its direction and key-up for
the previously held one, so exactly one directional key is ever held.
In lockstep mode a step is exactly one game tick and trajectories are
independent of wall-clock speed: a step waits up to
``DEFAULT_CONNECT_TIMEOUT`` for its update and raises
:class:`~fbenv.errors.ConnectionLostError` if none comes, rather than
reuse the cached frame. In timed mode steps are paced to the
configured tick rate by :class:`fbenv.client.Pacer`, whose grid restarts
at each reset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .client import DEFAULT_CONNECT_TIMEOUT, Pacer, Session, connect
from .errors import ConnectionLostError, InvalidStateError, ResetTimeoutError
# downsample is unused here; it stays importable as fbenv.env.downsample,
# the name perfbench's tracer wraps
from .framebuffer import GrayCells, GrayFrame, downsample, pixel_rgb  # noqa: F401
from .keys import KEY_LEFT, KEY_RIGHT, KEY_SPACE

RESET_DEADLINE = 2.0


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
        self._validate_geometry()
        self._step_index = 0
        self._episode_over = False
        self._held: int | None = None
        self._pacer = Pacer(1.0 / config.tick_rate)
        self._cells = GrayCells(session.framebuffer, config.obs_width, config.obs_height, config.crop)

    def _validate_geometry(self) -> None:
        width, height = self.session.width, self.session.height
        region = self.config.crop or (0, 0, width, height)
        x, y, w, h = region
        if x + w > width or y + h > height:
            raise ValueError(f"crop {region} exceeds {width}x{height} screen")
        if self.config.obs_width > w or self.config.obs_height > h:
            raise ValueError("observation dimensions exceed the captured region")
        px, py = self.config.probe_xy
        if not (0 <= px < width and 0 <= py < height):
            raise ValueError(f"probe {self.config.probe_xy} outside {width}x{height} screen")

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
        x, y = self.config.probe_xy
        actual = pixel_rgb(self.session.framebuffer, x, y)
        return all(
            abs(channel - expected) <= self.config.probe_tolerance
            for channel, expected in zip(actual, self.config.probe_rgb)
        )

    # -- episode control ---------------------------------------------------

    def reset(self) -> Observation:
        """Start a fresh episode and return its first observation."""
        if self._held is not None:
            self.session.send_key(self._held, False)
            self._held = None
        self.session.press_key(self.config.reset_keysym)
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
                self.session.send_key(self._held, False)
            if keysym is not None:
                self.session.send_key(keysym, True)
            self._held = keysym
        if self.config.lockstep:
            if not self.session.poll(DEFAULT_CONNECT_TIMEOUT):
                raise ConnectionLostError(f"no lockstep update within {DEFAULT_CONNECT_TIMEOUT:g} s")
        else:
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


def _format_action(keysym: int | None) -> str:
    return "noop" if keysym is None else f"0x{keysym:x}"


def _parse_action(token: str) -> int | None:
    token = token.strip().lower()
    if token == "noop":
        return None
    return int(token, 0)


def save_env_config(config: EnvConfig, path) -> None:
    """Write a config as one `key = value` per line."""
    lines = [
        "# environment configuration",
        f"host = {config.host}",
        f"port = {config.port}",
        f"actions = {','.join(_format_action(a) for a in config.actions)}",
        f"obs_width = {config.obs_width}",
        f"obs_height = {config.obs_height}",
        f"probe_x = {config.probe_xy[0]}",
        f"probe_y = {config.probe_xy[1]}",
        f"probe_rgb = {','.join(str(c) for c in config.probe_rgb)}",
        f"probe_tolerance = {config.probe_tolerance}",
        f"reward_per_step = {config.reward_per_step!r}",
        f"max_episode_steps = {config.max_episode_steps}",
        f"lockstep = {'true' if config.lockstep else 'false'}",
        f"tick_rate = {config.tick_rate!r}",
        f"reset_keysym = 0x{config.reset_keysym:x}",
    ]
    if config.crop is not None:
        lines.append(f"crop = {','.join(str(v) for v in config.crop)}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_env_config(path) -> EnvConfig:
    """Parse a flat key=value config file; `#` starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    kwargs = {}
    parsers = {
        "host": str,
        "port": int,
        "obs_width": int,
        "obs_height": int,
        "probe_tolerance": int,
        "max_episode_steps": int,
        "reward_per_step": float,
        "tick_rate": float,
        "reset_keysym": lambda v: int(v, 0),
        "lockstep": lambda v: v.lower() == "true",
        "actions": lambda v: tuple(_parse_action(t) for t in v.split(",")),
        "crop": lambda v: tuple(int(t) for t in v.split(",")),
    }
    probe: dict[str, int | tuple[int, ...]] = {}
    for key, value in values.items():
        if key in ("probe_x", "probe_y"):
            probe[key] = int(value)
        elif key == "probe_rgb":
            probe[key] = tuple(int(t) for t in value.split(","))
        elif key in parsers:
            kwargs[key] = parsers[key](value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if "probe_x" in probe or "probe_y" in probe:
        default = EnvConfig()
        kwargs["probe_xy"] = (
            probe.get("probe_x", default.probe_xy[0]),
            probe.get("probe_y", default.probe_xy[1]),
        )
    if "probe_rgb" in probe:
        kwargs["probe_rgb"] = probe["probe_rgb"]
    return EnvConfig(**kwargs)
