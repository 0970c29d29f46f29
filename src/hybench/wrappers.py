"""Composable environment wrappers.

Each error-injection wrapper injects one kind of simulator/reality
discrepancy into an environment while preserving its observation
dimension, action space, horizon and done semantics:

* transition-parameter overrides (wrong physics),
* additive Gaussian observation noise,
* observation dimensions fixed to zero,
* additive Gaussian noise on executed actions (continuous envs only),
* a FIFO action-execution delay.

``full_state`` always bypasses observation wrappers: it is the privileged
channel used to manufacture confounded datasets.  Every wrapper is the exact
identity when its parameter is the neutral element (empty override map,
sigma = 0, delay = 0, empty index set).  :class:`HistoryStack` and
:class:`FullStateObservation` change what a behavior policy observes.

:class:`EnvWrapper` writes the episode protocol once: a wrapper supplies
only its ``_start``/``_observe``/``_execute`` hooks.  Copying lives in one
place too: ``with_params`` rebuilds a wrapper chain around a copy of the
base environment, and :func:`clone_env` and :func:`with_transition_error`
are each one call of it.

The ``with_*`` functions are the operators behind the serializable
``sim2real`` specs: ``hybench.data.SPEC_KINDS`` names each kind, its fields
with their annotations and its operator, ``hybench.data.check_spec`` reads
a spec's fields through ``hybench.records``, and ``hybench.data.apply_specs``
applies a list of specs.  :func:`hidden_indices` is the one check of hidden
observation indices, shared with the dataset corruption that zeroes them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .envs import ContinuousActions, EnvError, Environment, StepResult
from .records import Count, NonNegative, read_value
from .seeding import ACTION_NOISE, OBS_NOISE, derived_rng


class EnvWrapper(Environment):
    """Delegating base wrapper, and the one episode protocol of wrappers:
    ``reset`` calls ``_start(seed)`` after the inner reset, ``step`` hands the
    inner environment ``_execute(action)``, and both return ``_observe`` of
    the inner observation.  Subclasses override only these hooks.  They take
    ``(env, *args)``, store each argument under its name and list the names
    in ``_args``: ``with_params`` rebuilds a wrapper chain from them around
    a replacement inner environment, and cache keys see them (never
    run-time state)."""

    _args: tuple[str, ...] = ()

    def __init__(self, env: Environment):
        self.env = env

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.env.name

    @property
    def obs_dim(self) -> int:  # type: ignore[override]
        return self.env.obs_dim

    @property
    def action_space(self):  # type: ignore[override]
        return self.env.action_space

    @property
    def params(self):
        return self.env.params

    @property
    def unwrapped(self) -> Environment:
        return self.env.unwrapped

    def with_params(self, **overrides) -> Environment:
        args = (getattr(self, name) for name in self._args)
        return type(self)(self.env.with_params(**overrides), *args)

    def reset(self, seed: int | None = None) -> np.ndarray:
        obs = self.env.reset(seed)
        self._start(seed)
        return self._observe(obs)

    def step(self, action) -> StepResult:
        res = self.env.step(self._execute(action))
        return StepResult(self._observe(res.obs), res.reward, res.done)

    def _start(self, seed: int | None) -> None:
        pass

    def _observe(self, obs: np.ndarray) -> np.ndarray:
        return obs

    def _execute(self, action):
        return action

    def full_state(self) -> np.ndarray:
        return self.env.full_state()

    def simulate_step(self, obs, actions):
        return self.env.simulate_step(obs, actions)


def clone_env(env: Environment) -> Environment:
    """Fresh, unseeded copy of an environment including its wrapper chain."""
    return env.with_params()


def env_signature(env: Environment) -> tuple:
    """Hashable description of an environment including its wrapper chain;
    every wrapper argument is a number or a tuple of integers."""
    if isinstance(env, EnvWrapper):
        args = tuple((name, getattr(env, name)) for name in env._args)
        return (type(env).__name__, args, env_signature(env.env))
    return (type(env).__name__, repr(env.params))


def with_transition_error(env: Environment, overrides: dict) -> Environment:
    """Copy of ``env``, wrapper chain included, whose innermost dynamics
    parameters are overridden.  Unknown parameter names are an error; an
    empty override map yields a bit-identical environment."""
    return env.with_params(**dict(overrides))


class ObsNoiseWrapper(EnvWrapper):
    """Adds i.i.d. N(0, sigma^2) per dimension to every returned observation.

    The stored environment state stays clean and ``full_state`` is untouched.
    The noise stream is derived from the reset seed with its own tag, so the
    inner dynamics see exactly the seed an unwrapped environment would.
    """

    _args = ("sigma",)

    def __init__(self, env: Environment, sigma: float):
        super().__init__(env)
        self.sigma = float(read_value(NonNegative, sigma, "sigma"))
        self._noise_rng = None

    def _start(self, seed: int | None) -> None:
        if seed is not None:
            self._noise_rng = derived_rng(seed, OBS_NOISE)

    def _observe(self, obs: np.ndarray) -> np.ndarray:
        if self.sigma == 0.0:
            return obs
        if self._noise_rng is None:
            raise EnvError("observation-noise wrapper used before a seeded reset")
        return obs + self.sigma * self._noise_rng.standard_normal(obs.shape)


def with_obs_noise(env: Environment, sigma: float) -> ObsNoiseWrapper:
    return ObsNoiseWrapper(env, sigma)


def hidden_indices(indices, obs_dim: int) -> tuple[int, ...]:
    """The distinct ``indices`` in ascending order, each checked to name one
    of ``obs_dim`` observation entries."""
    idx = tuple(sorted({int(i) for i in indices}))
    for i in idx:
        if not 0 <= i < obs_dim:
            raise ValueError(f"hidden index {i} out of range for observation dim {obs_dim}")
    return idx


class HiddenDimsWrapper(EnvWrapper):
    """Fixes the named observation entries to exactly 0.0.

    The observation-space dimension is deliberately unchanged so downstream
    consumers keep a single observation definition.
    """

    _args = ("indices",)

    def __init__(self, env: Environment, indices):
        super().__init__(env)
        self.indices = hidden_indices(indices, env.obs_dim)

    def _observe(self, obs: np.ndarray) -> np.ndarray:
        if not self.indices:
            return obs
        out = obs.copy()
        out[list(self.indices)] = 0.0
        return out


def with_hidden_dims(env: Environment, indices) -> HiddenDimsWrapper:
    return HiddenDimsWrapper(env, indices)


class ActionNoiseWrapper(EnvWrapper):
    """Executes clamp(action + N(0, sigma^2)) instead of the submitted action.

    The returned transition reflects the noisy action; the agent never
    observes the perturbation.  ``last_executed_action`` records what
    actually ran, for diagnostics only.
    """

    _args = ("sigma",)

    def __init__(self, env: Environment, sigma: float):
        if not isinstance(env.action_space, ContinuousActions):
            raise ValueError("action noise requires a continuous action space")
        super().__init__(env)
        self.sigma = float(read_value(NonNegative, sigma, "sigma"))
        self._noise_rng = None
        self.last_executed_action: np.ndarray | None = None

    def _start(self, seed: int | None) -> None:
        if seed is not None:
            self._noise_rng = derived_rng(seed, ACTION_NOISE)
        self.last_executed_action = None

    def _execute(self, action):
        if self.sigma == 0.0:
            return action
        if self._noise_rng is None:
            raise EnvError("action-noise wrapper used before a seeded reset")
        space = self.env.action_space
        a = np.asarray(action, dtype=float).reshape(-1)
        noisy = a + self.sigma * self._noise_rng.standard_normal(a.shape)
        self.last_executed_action = np.clip(noisy, space.low, space.high)
        return self.last_executed_action


def with_action_noise(env: Environment, sigma: float) -> ActionNoiseWrapper:
    return ActionNoiseWrapper(env, sigma)


class ActionDelayWrapper(EnvWrapper):
    """Delays action execution by ``delay`` steps through a FIFO queue that
    starts filled with zero-actions at every reset."""

    _args = ("delay",)

    def __init__(self, env: Environment, delay: int):
        super().__init__(env)
        self.delay = read_value(int, delay, "delay")
        self._queue: deque = deque()

    def _zero_action(self):
        space = self.env.action_space
        if isinstance(space, ContinuousActions):
            return np.zeros(space.dim)
        return 0

    def _start(self, seed: int | None) -> None:
        self._queue = deque(self._zero_action() for _ in range(self.delay))

    def _execute(self, action):
        if self.delay == 0:
            return action
        self._queue.append(action)
        return self._queue.popleft()


def with_action_delay(env: Environment, delay: int) -> ActionDelayWrapper:
    return ActionDelayWrapper(env, delay)


class HistoryStack(EnvWrapper):
    """Observation wrapper exposing the concatenation of the last k
    observations (zero-padded after reset).  Used to train history-aware
    behavior policies; not an error-injection wrapper."""

    _args = ("k",)

    def __init__(self, env: Environment, k: int):
        super().__init__(env)
        self.k = read_value(Count, k, "k")
        self._window = np.zeros((self.k, env.obs_dim))

    @property
    def obs_dim(self) -> int:  # type: ignore[override]
        return self.env.obs_dim * self.k

    def _start(self, seed: int | None) -> None:
        self._window = np.zeros((self.k, self.env.obs_dim))

    def _observe(self, obs: np.ndarray) -> np.ndarray:
        self._window = np.roll(self._window, -1, axis=0)
        self._window[-1] = obs
        return self._window.reshape(-1).copy()


class FullStateObservation(EnvWrapper):
    """Observation wrapper that emits ``full_state()`` directly.  Used to
    train privileged behavior policies whose input is the full state."""

    @property
    def obs_dim(self) -> int:  # type: ignore[override]
        return len(self.env.full_state())

    def _observe(self, obs: np.ndarray) -> np.ndarray:
        return self.env.full_state()
