"""Tabular Q-learning on discretized pixel observations.

The update rule is the classic one-step bootstrap

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

with the bootstrap term zeroed on terminal transitions. Exploration is
epsilon-greedy with a linear anneal (0.9 down to 0.1 over the first
10000 steps by default).

Observations are made tabular by a hand-rolled discretizer tuned to the
paddle game's screen: the ball's column is the brightest column of the
band of rows the ball moves in, quantized to 12 position bins, and its
per-frame column delta gives one of 5 velocity bins. A frame with no
distinguishable ball (terminal screens, blank frames) maps to a reserved
key, so the state space is 12 * 5 + 1 keys.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import game
from .env import Env, Observation
from .fnv import fnv1a64

N_POSITION_BINS = 12
N_VELOCITY_BINS = 5
MAX_COLUMN_DELTA = 2
BLANK_KEY = N_POSITION_BINS * N_VELOCITY_BINS
N_STATE_KEYS = BLANK_KEY + 1


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 0.9
    end: float = 0.1
    anneal_steps: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ValueError("schedule must satisfy 0 <= end <= start <= 1")
        if self.anneal_steps < 1:
            raise ValueError("anneal_steps must be positive")


def epsilon(schedule: EpsilonSchedule, step: int) -> float:
    """Linearly annealed exploration rate, clamped at the endpoint.

    Exact at both ends: step 0 returns start, any step at or past the
    anneal horizon returns end (no float residue).
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    if step >= schedule.anneal_steps:
        return schedule.end
    progress = step / schedule.anneal_steps
    return schedule.start - (schedule.start - schedule.end) * progress


@dataclass(frozen=True)
class AgentConfig:
    learning_rate: float = 0.1
    discount: float = 0.99
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning rate {self.learning_rate} outside (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount {self.discount} outside [0, 1)")


def config_hash(config: AgentConfig) -> int:
    """Stable digest of an agent config, stored in saved Q-table headers."""
    text = (
        f"alpha={config.learning_rate!r} gamma={config.discount!r} "
        f"eps={config.schedule.start!r}->{config.schedule.end!r}"
        f"/{config.schedule.anneal_steps} seed={config.seed}"
    )
    return fnv1a64(text.encode("ascii"))


@dataclass
class TrainReport:
    episode_scores: list[float]
    steps_total: int
    final_epsilon: float
    wall_time: float
    error: Exception | None = None


class QTable:
    """State-key -> Q-value vector map; unseen states read as zeros.

    A row is a list of Python floats, so a step's argmax, max and update
    do no numpy scalar work; the arithmetic is float64 either way.
    """

    def __init__(self, n_actions: int):
        if n_actions < 1:
            raise ValueError("need at least one action")
        self.n_actions = n_actions
        self._rows: dict[int, list[float]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self):
        return self._rows.keys()

    def row(self, key: int) -> list[float]:
        """Mutable Q-vector, created on first touch."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [0.0] * self.n_actions
        return row

    def max_value(self, key: int) -> float:
        row = self._rows.get(key)
        return max(row) if row is not None else 0.0

    def best_action(self, key: int) -> int:
        """Argmax action; ties break toward the lowest action id."""
        row = self._rows.get(key)
        return row.index(max(row)) if row is not None else 0

    def save(self, path, config: AgentConfig | None = None) -> None:
        """Persist as `state-key <tab> q0 q1 ... qN` rows with a header."""
        digest = config_hash(config) if config is not None else 0
        with open(path, "w", encoding="ascii") as handle:
            handle.write(f"# n_actions={self.n_actions} config_hash={digest:016x}\n")
            for key in sorted(self._rows):
                values = " ".join(repr(float(v)) for v in self._rows[key])
                handle.write(f"{key}\t{values}\n")

    @classmethod
    def load(cls, path) -> "QTable":
        with open(path, "r", encoding="ascii") as handle:
            header = handle.readline()
            fields = dict(
                part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
            )
            if "n_actions" not in fields:
                raise ValueError(f"{path} is not a Q-table file: no n_actions header")
            table = cls(int(fields["n_actions"]))
            for line in handle:
                if not line.strip():
                    continue
                key_text, _, values_text = line.partition("\t")
                row = [float(v) for v in values_text.split()]
                if len(row) != table.n_actions:
                    raise ValueError(f"row for key {key_text} has {len(row)} values")
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"row for key {key_text} holds a non-finite value")
                table._rows[int(key_text)] = row
        return table


# -- observation discretizer ----------------------------------------------


def _ball_band(height: int) -> tuple[int, int]:
    """Rows of a scaled frame that cover the ball's vertical extent."""
    top = height * game.BALL_TOP_ROW // game.SCREEN_HEIGHT
    bottom = height * (game.BALL_TOP_ROW + game.BALL_SIZE - 1) // game.SCREEN_HEIGHT + 1
    return top, bottom


def ball_column(frame) -> int | None:
    """Brightest column of the ball band, or None for a featureless band.

    A uniform band (all-dark frame, solid terminal screen) has no unique
    argmax and yields None.
    """
    top, bottom = _ball_band(frame.height)
    brightness = frame.values[top:bottom].max(axis=0).tolist()
    brightest = max(brightness)
    if brightest == min(brightness):
        return None
    return brightness.index(brightest)


def discretize(observation: Observation, previous: Observation | None) -> int:
    """Map an observation to a table key: position bin x velocity bin.

    Velocity comes from the ball-column delta against the previous
    observation (0 when there is none). Featureless frames map to the
    reserved BLANK_KEY.
    """
    previous_column = None if previous is None else ball_column(previous.frame)
    return _state_key(ball_column(observation.frame), previous_column, observation.frame.width)


def _state_key(column: int | None, previous_column: int | None, width: int) -> int:
    """:func:`discretize` from the ball columns of a frame of ``width``
    columns and of the frame before it."""
    if column is None:
        return BLANK_KEY
    position_bin = column * N_POSITION_BINS // width
    delta = 0
    if previous_column is not None:
        delta = max(-MAX_COLUMN_DELTA, min(MAX_COLUMN_DELTA, column - previous_column))
    return position_bin * N_VELOCITY_BINS + delta + MAX_COLUMN_DELTA


# -- core operations --------------------------------------------------------


def select_action(q: QTable, key: int, eps: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: random with probability eps, else the greedy pick."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon {eps} outside [0, 1]")
    if rng.random() < eps:
        return int(rng.integers(q.n_actions))
    return q.best_action(key)


def update_q(
    q: QTable,
    state_key: int,
    action: int,
    reward: float,
    next_key: int,
    terminal: bool,
    alpha: float,
    gamma: float,
) -> QTable:
    """One bootstrap update; touches exactly the (state, action) cell."""
    if not math.isfinite(reward):
        raise ValueError(f"non-finite reward {reward}")
    row = q.row(state_key)
    bootstrap = 0.0 if terminal else q.max_value(next_key)
    row[action] += alpha * (reward + gamma * bootstrap - row[action])
    if not math.isfinite(row[action]):
        raise ValueError("Q-value became non-finite")
    return q


def train(env: Env, config: AgentConfig, episodes: int) -> tuple[QTable, TrainReport]:
    """Run epsilon-greedy Q-learning episodes against an environment.

    Fully deterministic for a lockstep environment and fixed seeds. An
    environment error aborts training; the partial report carries it in
    ``report.error``. Each observation's ball column is found once and
    carried to the next step's key, which :func:`discretize` gives too.
    """
    if episodes < 1:
        raise ValueError("need at least one episode")
    q = QTable(env.n_actions)
    rng = np.random.default_rng(config.seed)
    scores: list[float] = []
    steps_total = 0
    reward_ceiling = 0.0
    error: Exception | None = None
    started = time.perf_counter()
    try:
        for _ in range(episodes):
            observation = env.reset()
            column = ball_column(observation.frame)
            key = _state_key(column, None, observation.frame.width)
            score = 0.0
            while True:
                eps = epsilon(config.schedule, steps_total)
                action = select_action(q, key, eps, rng)
                result = env.step(action)
                frame = result.observation.frame
                next_column = ball_column(frame)
                next_key = _state_key(next_column, column, frame.width)
                # truncation is not a real terminal: keep the bootstrap
                game_over = result.terminal and not result.truncated
                update_q(
                    q,
                    key,
                    action,
                    result.reward,
                    next_key,
                    game_over,
                    config.learning_rate,
                    config.discount,
                )
                reward_ceiling = max(reward_ceiling, result.reward)
                assert abs(q.row(key)[action]) <= reward_ceiling / (1.0 - config.discount) + 1e-9
                steps_total += 1
                score += result.reward
                column = next_column
                key = next_key
                if result.terminal:
                    break
            scores.append(score)
    except Exception as exc:
        error = exc
    report = TrainReport(
        episode_scores=scores,
        steps_total=steps_total,
        final_epsilon=epsilon(config.schedule, steps_total),
        wall_time=time.perf_counter() - started,
        error=error,
    )
    return q, report
