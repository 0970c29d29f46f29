"""Native benchmark environments.

Three small environments with explicit, perturbable dynamics:

* :class:`PendulumEnv` -- continuous-torque pendulum swing-up whose gravity,
  friction and other physical parameters can be overridden to create
  simulator/reality gaps.
* :class:`WindyGridEnv` -- discrete gridworld with a per-step latent wind
  state, small enough to solve exactly by dynamic programming.
* :class:`BanditEnv` -- a single-decision, two-action problem with a latent
  binary context that biases naive value estimation when hidden.

Environments own their randomness: the first ``reset`` must be given an
integer seed and the trajectory is then a deterministic, bit-exact function
of ``(seed, action sequence)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Annotated

import numpy as np

from .records import Count, NonNegative, Positive, Probability, Range
from .records import check_fields, read_record, read_value
from .seeding import DYNAMICS, derived_rng

TWO_PI = 2.0 * math.pi


class EnvError(RuntimeError):
    """Environment contract violation (unseeded reset, step after done, bad input)."""


def wrap_angle(theta):
    """Wrap an angle, or each angle of an array, to the interval (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


@dataclass(frozen=True)
class StepResult:
    obs: np.ndarray
    reward: float
    done: bool


@dataclass(frozen=True)
class DiscreteActions:
    count: int

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ContinuousActions:
    low: float
    high: float
    dim: int = 1

    def __post_init__(self):
        check_fields(self)


class Environment:
    """Base class for seeded, steppable environments.

    Subclasses set ``name``, ``obs_dim`` and ``action_space`` and implement
    ``_start`` (the first state of an episode), ``step`` and ``full_state``.
    ``full_state`` exposes the privileged internal state (a superset of what
    observations reveal), is defined from construction on, and is never
    touched by observation wrappers.
    """

    name: str = "env"
    obs_dim: int = 0
    action_space: DiscreteActions | ContinuousActions = DiscreteActions(1)
    observes_full_state: bool = False  # True when each observation is full_state()

    def __init__(self):
        self._rng: np.random.Generator | None = None  # None until the first reset
        self._done = True
        self._t = 0

    @property
    def params(self):
        """The dynamics parameter record, which subclasses store as ``_params``."""
        return self._params

    @property
    def unwrapped(self) -> "Environment":
        return self

    def _check_steppable(self) -> None:
        if self._rng is None:
            raise EnvError(f"{self.name}: step() called before reset()")
        if self._done:
            raise EnvError(f"{self.name}: step() called after done; reset() first")

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start an episode and return its first observation; without a seed
        the dynamics stream carries on, so the first reset needs one."""
        if seed is not None:
            self._rng = derived_rng(seed, DYNAMICS)
        elif self._rng is None:
            raise EnvError(f"{self.name}: first reset() requires an integer seed")
        self._t = 0
        self._done = False
        return self._start()

    def _start(self) -> np.ndarray:
        """Draw the first state from ``_rng`` and return its observation."""
        raise NotImplementedError

    def run_episode(self, choose, seed: int | None = None) -> tuple[np.ndarray, list, list]:
        """One episode: ``reset(seed)``, then ``step(choose(obs))`` until done.
        Returns the T + 1 observations stacked, and the T actions and the T
        rewards as lists."""
        observations, actions, rewards = [self.reset(seed)], [], []
        done = False
        while not done:
            actions.append(choose(observations[-1]))
            res = self.step(actions[-1])
            observations.append(res.obs)
            rewards.append(res.reward)
            done = res.done
        return np.stack(observations), actions, rewards

    def step(self, action) -> StepResult:
        raise NotImplementedError

    def full_state(self) -> np.ndarray:
        raise NotImplementedError

    def with_params(self, **overrides) -> "Environment":
        """A fresh copy of this environment with dynamics parameters
        overridden; JSON lists are read as tuples."""
        try:
            params = read_record(type(self.params), overrides, "parameter", self.params)
        except ValueError as exc:
            raise EnvError(f"{self.name}: invalid parameters: {exc}") from exc
        return type(self)(params)

    def simulate_step(self, obs: np.ndarray, actions) -> np.ndarray:
        """Deterministic one-step predictions: the (n, obs_dim) next
        observations for an (n, obs_dim) array of observations and n actions.

        Used by model-based agents that anchor a learned correction to this
        environment acting as a simulator.  Stochastic state components are
        predicted by their expected value.
        """
        raise EnvError(f"{self.name}: one-step simulation is not supported")

    def _sim_inputs(self, obs, actions) -> tuple[np.ndarray, np.ndarray]:
        """``simulate_step``'s checked (n, obs_dim) observations and n actions."""
        O = np.asarray(obs, dtype=float)
        if O.ndim != 2 or O.shape[1] != self.obs_dim or not np.isfinite(O).all():
            raise EnvError(f"{self.name}: simulate_step needs finite (n, {self.obs_dim}) "
                           f"observations, got shape {O.shape} or a non-finite value")
        return O, np.asarray(actions).reshape(len(O))


# ---------------------------------------------------------------------------
# Pendulum swing-up
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the torque-limited pendulum.

    The angle is measured from the upright position, so theta = 0 is the
    (unstable) target and theta = pi hangs straight down.
    """

    gravity: Positive = 9.81
    friction: NonNegative = 0.05
    mass: Positive = 1.0
    length: Positive = 1.0
    torque_limit: Positive = 2.0
    dt: Positive = 0.05
    horizon: Count = 200

    def __post_init__(self):
        check_fields(self)


def pendulum_step(state, torque, params: PendulumParams):
    """One semi-implicit Euler update of the pendulum, for one state or many.

    ``state`` is ``(theta, omega)`` and ``torque`` the applied torque: floats,
    or arrays of one shape for a batch of states stepped at once.  theta is
    normalized to (-pi, pi] and the torque is clamped to the declared limit
    before entering the dynamics.  The reward penalizes distance from
    upright, spin and control effort, evaluated at the post-update state.

    Returns ``((theta2, omega2), reward)`` of the input's shape.  Each entry
    of a batch is bit-equal to stepping that entry alone: every operation
    works element by element, and the squares use ``np.float_power``, which
    is the float ``x**2`` (libm ``pow``), where numpy's array ``x**2`` is
    ``x*x`` and can differ from it in the last bit.
    """
    # [()] turns a 0-d array into a numpy float, whose operations cost less
    theta, omega, tq = (np.asarray(v, dtype=float)[()] for v in (state[0], state[1], torque))
    if not theta.shape == omega.shape == tq.shape:
        raise EnvError(f"pendulum_step: theta, omega and torque shapes differ: "
                       f"{theta.shape}, {omega.shape}, {tq.shape}")
    finite = np.isfinite((theta, omega, tq))
    if np.count_nonzero(finite) < finite.size:
        which = "state" if not finite[:2].all() else "torque"
        raise EnvError(f"pendulum_step: non-finite {which} input")
    p = params
    tq = np.minimum(np.maximum(tq, -p.torque_limit), p.torque_limit)
    theta = wrap_angle(theta)
    omega2 = omega + p.dt * (
        -(p.gravity / p.length) * np.sin(theta + math.pi)
        + tq / (p.mass * p.length**2)
        - p.friction * omega
    )
    theta2 = wrap_angle(theta + p.dt * omega2)
    reward = -(np.float_power(theta2, 2) + 0.1 * np.float_power(omega2, 2)
               + 0.001 * np.float_power(tq, 2))
    return (theta2, omega2), reward


def _pendulum_obs(theta, omega) -> np.ndarray:
    """The observation (cos theta, sin theta, omega) of one state, or the
    (n, 3) observations of n states."""
    obs = np.empty(np.shape(theta) + (3,))
    obs[..., 0] = np.cos(theta)
    obs[..., 1] = np.sin(theta)
    obs[..., 2] = omega
    return obs


def pendulum_energy(state: tuple[float, float], params: PendulumParams) -> float:
    """Mechanical energy with the potential zero at the hanging rest state."""
    theta, omega = state
    p = params
    kinetic = 0.5 * p.mass * p.length**2 * omega**2
    potential = p.mass * p.gravity * p.length * (1.0 + math.cos(theta))
    return kinetic + potential


class PendulumEnv(Environment):
    """Continuous pendulum swing-up with observation (cos theta, sin theta, omega)."""

    name = "pendulum"

    def __init__(self, params: PendulumParams | None = None):
        super().__init__()
        self._params = params if params is not None else PendulumParams()
        self.obs_dim = 3
        self.action_space = ContinuousActions(
            -self._params.torque_limit, self._params.torque_limit, 1
        )
        self._theta = 0.0
        self._omega = 0.0

    def _start(self) -> np.ndarray:
        # uniform(-pi, pi) samples [-pi, pi); negating yields (-pi, pi]
        self._theta = -float(self._rng.uniform(-math.pi, math.pi))
        self._omega = float(self._rng.uniform(-1.0, 1.0))
        return _pendulum_obs(self._theta, self._omega)

    def step(self, action) -> StepResult:
        self._check_steppable()
        torque = float(np.asarray(action, dtype=float).reshape(-1)[0])
        (theta, omega), reward = pendulum_step(
            (self._theta, self._omega), torque, self._params
        )
        self._theta, self._omega = float(theta), float(omega)
        self._t += 1
        self._done = self._t >= self._params.horizon
        return StepResult(_pendulum_obs(theta, omega), float(reward), self._done)

    def full_state(self) -> np.ndarray:
        return np.array([self._theta, self._omega], dtype=float)

    def lockstep_returns(self, episodes: int, seed: int, choose) -> np.ndarray:
        """Undiscounted returns of ``episodes`` episodes stepped together;
        ``choose`` maps the (episodes, 3) observations of one time step to
        their torques.

        Stepping draws nothing and every episode lasts ``horizon`` steps, so
        drawing all resets first, in episode order (the first seeded with
        ``seed``), gives the returns of ``reset``/``step`` episodes run one
        after another, bit for bit, when ``choose`` treats each row as it
        would treat it alone; the env is left as they leave it, done.
        """
        if episodes < 1:
            raise EnvError(f"{self.name}: lockstep_returns needs episodes >= 1")
        starts = []
        for ep in range(episodes):
            self.reset(seed=seed if ep == 0 else None)
            starts.append((self._theta, self._omega))
        theta, omega = np.array(starts).T
        returns = np.zeros(episodes)
        for _ in range(self._params.horizon):
            torques = choose(_pendulum_obs(theta, omega))
            (theta, omega), reward = pendulum_step((theta, omega), torques, self._params)
            returns += reward
        self._theta, self._omega = float(theta[-1]), float(omega[-1])
        self._t = self._params.horizon
        self._done = True
        return returns

    def simulate_step(self, obs: np.ndarray, actions) -> np.ndarray:
        # Each (cos theta, sin theta, omega) row is inverted to (theta, omega);
        # the cos/sin pair is renormalized, so mildly noisy observations decode
        # fine, while a pair of near-zero magnitude carries no angle.  The
        # decode stays on math.atan2: np.arctan2 differs from it in the last
        # bit on some inputs.
        O, A = self._sim_inputs(obs, actions)
        if (np.hypot(O[:, 0], O[:, 1]) < 1e-6).any():
            raise EnvError("pendulum: observation not invertible (cos/sin "
                           "magnitude ~ 0, e.g. zeroed dimensions)")
        theta = wrap_angle(np.array([math.atan2(s, c) for c, s in O[:, :2].tolist()]))
        (theta2, omega2), _ = pendulum_step((theta, O[:, 2]), A.astype(float), self._params)
        return _pendulum_obs(theta2, omega2)


# ---------------------------------------------------------------------------
# Windy gridworld
# ---------------------------------------------------------------------------

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_MOVES = ((0, 1), (0, -1), (-1, 0), (1, 0))


@dataclass(frozen=True)
class WindyGridParams:
    """Defaults put the start top-left and the goal near the bottom-right.

    The goal sits one row above the bottom wall, so a windy descent pushes
    the agent straight past it: anticipating the wind genuinely pays, which
    is what makes the wind a usable latent confounder.
    """

    width: Count = 5
    height: Count = 5
    wind_prob: Probability = 0.4
    goal: tuple[int, int] = (4, 1)
    start: tuple[int, int] = (0, 4)
    step_penalty: float = -1.0
    goal_reward: float = 10.0
    horizon: Count = 50
    discount: Annotated[float, Range(0, 1, lo_open=True, hi_open=True)] = 0.95

    def __post_init__(self):
        check_fields(self)
        for label, cell in (("goal", self.goal), ("start", self.start)):
            x, y = cell
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"{label} cell {cell} out of bounds")
        if self.start == self.goal:
            raise ValueError("start and goal must differ")


def windygrid_step(
    cell: tuple[int, int], wind: int, action: int, params: WindyGridParams
) -> tuple[tuple[int, int], float, bool]:
    """Deterministic cell transition for a given current wind flag.

    The intended move is applied (clamped at walls), then active wind pushes
    the agent one extra cell downward (toward y = 0), also clamped.  Reaching
    the goal ends the episode with ``goal_reward``; any other step costs
    ``step_penalty``.  Resampling the wind for the next step is the caller's
    (environment's) job.
    """
    x, y = int(cell[0]), int(cell[1])
    if not (0 <= x < params.width and 0 <= y < params.height):
        raise EnvError(f"windygrid: cell {cell!r} out of bounds")
    if wind not in (0, 1):
        raise EnvError(f"windygrid: wind flag must be 0 or 1, got {wind!r}")
    if not 0 <= int(action) < 4:
        raise EnvError(f"windygrid: action must be in [0, 4), got {action!r}")
    dx, dy = _MOVES[int(action)]
    x2 = min(max(x + dx, 0), params.width - 1)
    y2 = min(max(y + dy, 0), params.height - 1)
    if wind:
        y2 = max(y2 - 1, 0)
    if (x2, y2) == params.goal:
        return (x2, y2), float(params.goal_reward), True
    return (x2, y2), float(params.step_penalty), False


class WindyGridEnv(Environment):
    """Gridworld whose full state is (x, y, wind); the default observation
    reveals everything, so hiding the wind is an explicit wrapper choice."""

    name = "windygrid"
    observes_full_state = True

    def __init__(self, params: WindyGridParams | None = None):
        super().__init__()
        self._params = params if params is not None else WindyGridParams()
        self.obs_dim = 3
        self.action_space = DiscreteActions(4)
        self._cell = self._params.start
        self._wind = 0

    def _obs(self) -> np.ndarray:
        return np.array(
            [float(self._cell[0]), float(self._cell[1]), float(self._wind)]
        )

    def _sample_wind(self) -> int:
        return int(self._rng.random() < self._params.wind_prob)

    def _start(self) -> np.ndarray:
        self._cell = self._params.start
        self._wind = self._sample_wind()
        return self._obs()

    def step(self, action) -> StepResult:
        self._check_steppable()
        self._cell, reward, reached_goal = windygrid_step(
            self._cell, self._wind, int(action), self._params
        )
        self._wind = self._sample_wind()
        self._t += 1
        self._done = reached_goal or self._t >= self._params.horizon
        return StepResult(self._obs(), reward, self._done)

    def full_state(self) -> np.ndarray:
        return self._obs()

    def simulate_step(self, obs: np.ndarray, actions) -> np.ndarray:
        # Declared reconstruction rule: round (half to even) to the nearest
        # valid cell, wind on above 0.5, so zeroed or model-predicted
        # observations decode.
        O, A = self._sim_inputs(obs, actions)
        bad = ~((A >= 0) & (A < 4))  # a table lookup would silently wrap -1
        if bad.any():
            raise EnvError(f"windygrid: action must be in [0, 4), got {A[bad][0]!r}")
        p = self._params
        x = np.clip(np.rint(O[:, 0]), 0, p.width - 1).astype(np.intp)
        y = np.clip(np.rint(O[:, 1]), 0, p.height - 1).astype(np.intp)
        out = np.empty(O.shape)
        out[:, :2] = _next_cells(p)[x, y, (O[:, 2] > 0.5).astype(np.intp), A.astype(np.intp)]
        out[:, 2] = p.wind_prob  # the next wind is i.i.d.; predict it by its mean
        return out


@functools.lru_cache(maxsize=64)
def _next_cells(params: WindyGridParams) -> np.ndarray:
    """``windygrid_step``'s next cell for each (x, y, wind, action), shape
    (width, height, 2, 4, 2); read-only, as every caller shares it."""
    inputs = itertools.product(range(params.width), range(params.height), (0, 1), range(4))
    cells = [windygrid_step((x, y), wind, a, params)[0] for x, y, wind, a in inputs]
    table = np.array(cells, dtype=float).reshape(params.width, params.height, 2, 4, 2)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Confounded bandit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BanditSpec:
    """Two-action bandit with a latent binary context z.

    ``reward_table[z][a]`` is P(r = 1 | z, a).  Entries may be exact
    ``Fraction`` values, which downstream analysis preserves.  The defaults
    make the second action dominate in expectation over z, while a
    z-dependent behavior policy can make the first action look better in the
    logged data.
    """

    p_z0: Probability = Fraction(1, 3)  # exact Fractions included
    reward_table: tuple[tuple[Probability, Probability], tuple[Probability, Probability]] = (
        (Fraction(1, 6), Fraction(1, 4)),  # z = 0: (a0, a1)
        (Fraction(1, 3), Fraction(1, 2)),  # z = 1: (a0, a1)
    )

    def __post_init__(self):
        check_fields(self)

    @property
    def p_z1(self):
        return 1 - self.p_z0


def bandit_pull(z: int, action: int, spec: BanditSpec, rng: np.random.Generator) -> int:
    """Draw a Bernoulli reward for (z, action) under the spec's table."""
    if z not in (0, 1):
        raise EnvError(f"bandit: z must be 0 or 1, got {z!r}")
    if action not in (0, 1):
        raise EnvError(f"bandit: action must be 0 or 1, got {action!r}")
    return int(rng.random() < float(spec.reward_table[z][action]))


class BanditEnv(Environment):
    """Single-decision episode: reset samples z, one step pulls an arm."""

    name = "bandit"

    def __init__(self, params: BanditSpec | None = None):
        super().__init__()
        self._params = params if params is not None else BanditSpec()
        self.obs_dim = 0
        self.action_space = DiscreteActions(2)
        self._z = 0

    def _start(self) -> np.ndarray:
        self._z = int(self._rng.random() >= float(self._params.p_z0))
        return np.empty(0, dtype=float)

    def step(self, action) -> StepResult:
        self._check_steppable()
        reward = bandit_pull(self._z, int(action), self._params, self._rng)
        self._done = True
        return StepResult(np.empty(0, dtype=float), float(reward), True)

    def full_state(self) -> np.ndarray:
        return np.array([float(self._z)])


# ---------------------------------------------------------------------------
# Construction from config records
# ---------------------------------------------------------------------------

_REGISTRY = {"pendulum": PendulumEnv, "windygrid": WindyGridEnv, "bandit": BanditEnv}


def make_env(name: str, params: dict | None = None) -> Environment:
    """Build an environment from a structured config record.

    ``params`` (an object, or None for none) holds parameter overrides
    applied on top of the environment's defaults; see ``with_params``.
    """
    if name not in _REGISTRY:
        raise EnvError(f"unknown environment {name!r}; valid: {sorted(_REGISTRY)}")
    overrides = read_value(dict | None, params, "env 'params'") or {}
    return _REGISTRY[name]().with_params(**overrides)
