"""Offline dataset generation, corruption and serialization.

Datasets are ordered (obs, action, reward, next_obs, done) records, stored
as five columns and labeled with how they were produced: which environment,
which behavior-policy tier (random / medium / medium_replay / medium_expert /
expert), whether the behavior policy acted on the recorded observation
("observed") or on privileged full state ("privileged"), and which
corruptions were applied afterwards.

Corruption operators model the gap between recorded data and the world the
data came from: post-hoc Gaussian noise on stored observations, zeroing of
stored dimensions, and history-aware collection where the behavior policy's
actual decision input (a window of past observations) is discarded.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .envs import Environment, StepResult
from .records import check_keys, key_errors, read_record
from .seeding import COLLECT_ENV, COLLECT_POLICY, DATA_NOISE, derived_rng, derived_seed
from .wrappers import (
    EnvWrapper,
    clone_env,
    env_signature,
    with_action_delay,
    with_action_noise,
    with_hidden_dims,
    with_obs_noise,
    with_transition_error,
)

FORMAT_VERSION = "b4mrl-ds/1"
DATASET_TIERS = ("random", "medium", "medium_replay", "medium_expert", "expert")
BEHAVIOR_MODES = ("observed", "privileged")

DEFAULT_TIER_BUDGET = {"pendulum": 40_000, "windygrid": 25_000, "bandit": 2_000}
DEFAULT_DATASET_SIZE = {"pendulum": 100_000, "windygrid": 20_000, "bandit": 10_000}


class DatasetIOError(Exception):
    """Base class for dataset file errors; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DatasetVersionError(DatasetIOError):
    pass


class DatasetParseError(DatasetIOError):
    pass


class DatasetDimensionError(DatasetIOError):
    pass


class TierError(RuntimeError):
    """Raised when a tier policy cannot be produced within its budget."""


# ---------------------------------------------------------------------------
# Metadata and columns
# ---------------------------------------------------------------------------


def _jsonify(value):
    """Convert parameter values to JSON-native types (tuples become lists,
    exact fractions become 'p/q' strings) so metadata round-trips exactly."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def env_params_dict(env: Environment) -> dict:
    params = env.params
    return _jsonify(asdict(params) if is_dataclass(params) else dict(params))


@dataclass
class DatasetMeta:
    env_name: str
    env_params: dict
    tier: str
    corruption: tuple[dict, ...] = ()
    behavior_mode: str = "observed"
    seed: int = 0
    format_version: str = FORMAT_VERSION
    record_count: int = 0

    def __post_init__(self):
        if self.tier not in DATASET_TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; valid: {DATASET_TIERS}")
        if self.behavior_mode not in BEHAVIOR_MODES:
            raise ValueError(
                f"unknown behavior mode {self.behavior_mode!r}; valid: {BEHAVIOR_MODES}"
            )
        self.corruption = tuple(dict(c) for c in self.corruption)

    def to_dict(self) -> dict:
        return _jsonify(asdict(self))


@dataclass(eq=False)
class Dataset:
    """Metadata plus five read-only columns of equal length n: observations
    ``O`` (n, obs_dim), actions ``A`` (int64 on discrete grids, float64 for
    continuous controls), rewards ``R`` (float64), next observations ``O2``
    (n, obs_dim) and done flags ``D`` (bool)."""

    meta: DatasetMeta
    O: np.ndarray
    A: np.ndarray
    R: np.ndarray
    O2: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name, dtype in (("O", float), ("A", None), ("R", float), ("O2", float),
                            ("D", bool)):
            # a view: freezing it leaves the caller's own array writable
            col = np.asarray(getattr(self, name), dtype=dtype).view()
            col.flags.writeable = False
            setattr(self, name, col)
        n = len(self.R)
        if n == 0:
            raise ValueError("datasets must be non-empty")
        if self.O.ndim != 2 or self.O2.shape != self.O.shape:
            raise ValueError(
                f"observations {self.O.shape} and next observations "
                f"{self.O2.shape} must share one (n, obs_dim) shape"
            )
        if (self.R.shape, self.D.shape, len(self.A), len(self.O)) != ((n,), (n,), n, n):
            raise ValueError("dataset columns must all hold the same number of records")
        if self.meta.record_count != n:
            raise ValueError(
                f"meta.record_count={self.meta.record_count} but dataset holds "
                f"{n} records"
            )

    def __len__(self) -> int:
        return len(self.R)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.meta == other.meta and all(
            np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays())
        )

    def arrays(self):
        """(O, A, R, O2, D), the stored read-only columns."""
        return self.O, self.A, self.R, self.O2, self.D


def _stack_rows(rows) -> tuple:
    """Columns from (obs, action, reward, next_obs, done) row tuples."""
    O, A, R, O2, D = zip(*rows)
    return (np.array(O, dtype=float), np.asarray(A), np.asarray(R, dtype=float),
            np.array(O2, dtype=float), np.asarray(D, dtype=bool))


def _env_dataset(env: Environment, columns, tier: str, behavior_mode: str, seed: int,
                 corruption: tuple = ()) -> Dataset:
    meta = DatasetMeta(
        env_name=env.name,
        env_params=env_params_dict(env),
        tier=tier,
        corruption=corruption,
        behavior_mode=behavior_mode,
        seed=seed,
        record_count=len(columns[2]),
    )
    return Dataset(meta, *columns)


def concat_datasets(parts: list[Dataset], tier: str, seed: int) -> Dataset:
    """Concatenate record streams; behavior mode is privileged if any part is."""
    columns = [np.concatenate(cols) for cols in zip(*(p.arrays() for p in parts))]
    corruption = tuple(c for part in parts for c in part.meta.corruption)
    mode = (
        "privileged"
        if any(p.meta.behavior_mode == "privileged" for p in parts)
        else "observed"
    )
    meta = replace(
        parts[0].meta,
        tier=tier,
        seed=seed,
        corruption=corruption,
        behavior_mode=mode,
        record_count=len(columns[2]),
    )
    return Dataset(meta, *columns)


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def collect_dataset(
    env: Environment,
    policy,
    n_records: int,
    behavior_mode: str,
    seed: int,
    tier: str = "random",
) -> Dataset:
    """Roll the behavior policy for exactly ``n_records`` transitions.

    In ``observed`` mode the policy consumes the (possibly wrapped)
    observation that is also recorded; in ``privileged`` mode it consumes
    ``full_state()`` while the records keep only the emitted observations.
    Episodes reset on done.
    """
    if behavior_mode not in BEHAVIOR_MODES:
        raise ValueError(f"unknown behavior mode {behavior_mode!r}")
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    policy.reseed(derived_seed(seed, COLLECT_POLICY))
    obs = env.reset(seed=derived_seed(seed, COLLECT_ENV) % 2**31)
    rows = []
    while len(rows) < n_records:
        decision_input = env.full_state() if behavior_mode == "privileged" else obs
        action = policy.act(decision_input)
        res = env.step(action)
        rows.append((obs, _plain_action(action), res.reward, res.obs, res.done))
        obs = env.reset() if res.done else res.obs
    return _env_dataset(env, _stack_rows(rows), tier, behavior_mode, seed)


def _plain_action(action):
    if isinstance(action, np.ndarray):
        return float(action.reshape(-1)[0]) if action.size == 1 else action.copy()
    if isinstance(action, (np.integer,)):
        return int(action)
    if isinstance(action, (np.floating,)):
        return float(action)
    return action


def collect_history_confounded(
    env: Environment,
    k: int,
    policy_over_history,
    n_records: int,
    seed: int,
    tier: str = "random",
) -> Dataset:
    """Collect data with a policy that acts on the last ``k`` observations.

    The decision window (:class:`HistoryStack`) is discarded: records keep
    only the single current observation, which hides part of what drove the
    actions whenever k > 1.
    """
    stacked = collect_dataset(HistoryStack(env, k), policy_over_history, n_records,
                              "observed", seed, tier)
    newest = slice(stacked.O.shape[1] - env.obs_dim, None)
    return _env_dataset(
        env, (stacked.O[:, newest].copy(), stacked.A, stacked.R,
              stacked.O2[:, newest].copy(), stacked.D),
        tier, "privileged" if k > 1 else "observed", seed,
        corruption=({"kind": "history_confounded", "k": int(k)},),
    )


class HistoryStack(EnvWrapper):
    """Observation wrapper exposing the concatenation of the last k
    observations (zero-padded after reset).  Used to train history-aware
    behavior policies; not an error-injection wrapper."""

    _args = ("k",)

    def __init__(self, env: Environment, k: int):
        if k < 1:
            raise ValueError("history length k must be >= 1")
        super().__init__(env)
        self.k = int(k)
        self._window = np.zeros((self.k, env.obs_dim))

    @property
    def obs_dim(self) -> int:  # type: ignore[override]
        return self.env.obs_dim * self.k

    def reset(self, seed: int | None = None) -> np.ndarray:
        obs = self.env.reset(seed)
        self._window = np.zeros((self.k, self.env.obs_dim))
        self._window[-1] = obs
        return self._window.reshape(-1).copy()

    def step(self, action) -> StepResult:
        res = self.env.step(action)
        self._window = np.roll(self._window, -1, axis=0)
        self._window[-1] = res.obs
        return StepResult(self._window.reshape(-1).copy(), res.reward, res.done)


class FullStateObservation(EnvWrapper):
    """Observation wrapper that emits ``full_state()`` directly.  Used to
    train privileged behavior policies whose input is the full state."""

    def __init__(self, env: Environment):
        super().__init__(env)
        probe = type(env.unwrapped)(env.unwrapped.params)
        probe.reset(seed=0)
        self._state_dim = probe.full_state().shape[0]

    @property
    def obs_dim(self) -> int:  # type: ignore[override]
        return self._state_dim

    def reset(self, seed: int | None = None) -> np.ndarray:
        self.env.reset(seed)
        return self.env.full_state()

    def step(self, action) -> StepResult:
        res = self.env.step(action)
        return StepResult(self.env.full_state(), res.reward, res.done)


# ---------------------------------------------------------------------------
# Corruption operators
# ---------------------------------------------------------------------------


def _corrupted_mode(dataset: Dataset, changed: bool) -> str:
    # Once stored observations diverge from what the behavior policy saw, the
    # dataset is effectively privileged: actions depend on hidden information.
    if dataset.meta.behavior_mode == "privileged" or changed:
        return "privileged"
    return "observed"


def _with_observations(dataset: Dataset, O, O2, tag: dict, changed: bool) -> Dataset:
    meta = replace(
        dataset.meta,
        corruption=dataset.meta.corruption + (tag,),
        behavior_mode=_corrupted_mode(dataset, changed),
    )
    return Dataset(meta, O, dataset.A, dataset.R, O2, dataset.D)


def corrupt_obs_noise(dataset: Dataset, sigma: float, seed: int | None = None) -> Dataset:
    """Add one fixed Gaussian noise draw per (record index, dimension).

    Noise row i perturbs record i's observation and noise row i+1 its next
    observation, so a state appearing as next_obs of record t and obs of
    record t+1 inside one episode receives the same draw.  The whole
    corruption is a pure function of (seed, record index, dimension); the
    seed defaults to the dataset's own.
    """
    if sigma < 0:
        raise ValueError(f"observation noise sigma must be >= 0, got {sigma}")
    if seed is None:
        seed = dataset.meta.seed
    tag = {"kind": "obs_noise", "sigma": float(sigma), "seed": int(seed)}
    O, O2 = dataset.O, dataset.O2
    # without observation dimensions there is nothing to perturb
    changed = sigma != 0.0 and O.shape[1] > 0
    if changed:
        noise = sigma * derived_rng(seed, DATA_NOISE).standard_normal(
            (len(O) + 1, O.shape[1])
        )
        O, O2 = O + noise[:-1], O2 + noise[1:]
    return _with_observations(dataset, O, O2, tag, changed)


def corrupt_hide_dims(dataset: Dataset, indices) -> Dataset:
    """Zero the named dimensions of every stored obs and next_obs.

    This manufactures hidden confounding exactly when the behavior policy
    used those entries; zeroing an already-zero column changes nothing and
    keeps the dataset's observed/privileged label intact.
    """
    idx = tuple(sorted({int(i) for i in indices}))
    dim = dataset.O.shape[1]
    for i in idx:
        if not 0 <= i < dim:
            raise ValueError(f"hidden index {i} out of range for observation dim {dim}")
    cols = list(idx)
    O, O2 = dataset.O.copy(), dataset.O2.copy()
    changed = bool(np.any(O[:, cols] != 0.0) or np.any(O2[:, cols] != 0.0))
    O[:, cols] = 0.0
    O2[:, cols] = 0.0
    tag = {"kind": "hidden_dims", "indices": list(idx)}
    return _with_observations(dataset, O, O2, tag, changed)


# ---------------------------------------------------------------------------
# Tier policies
# ---------------------------------------------------------------------------


@dataclass
class TierPolicy:
    tier: str
    policy: object
    raw_score: float
    normalized_score: float
    train_result: object | None = None
    checkpoint_index: int | None = None


_TRAIN_CACHE: dict = {}


def online_training_run(env: Environment, budget: int, seed: int, config=None):
    """Cached online training run on a fresh clone of ``env``.

    The same run backs the expert reference, the expert tier and the medium
    checkpoint search, so each (env, budget, seed) trains at most once per
    process.
    """
    from . import agents

    cfg = config if config is not None else agents.default_agent_config(env)
    key = (env_signature(env), budget, seed, cfg)
    if key not in _TRAIN_CACHE:
        _TRAIN_CACHE[key] = agents.train_online_q(
            clone_env(env), cfg, seed, budget=budget
        )
    return _TRAIN_CACHE[key]


MEDIUM_NORMALIZED_TARGET = 40.0


def train_tier_policy(
    env: Environment,
    tier: str,
    budget: int | None = None,
    seed: int = 0,
    config=None,
    refs=None,
) -> TierPolicy:
    """Produce the behavior policy for a dataset tier, with measured scores.

    ``random`` is the uniform policy; ``expert`` is the final policy of an
    online training run; ``medium`` is the earliest training checkpoint whose
    normalized score crosses the medium target.  Scores are normalized
    against the environment's reference pair.
    """
    from . import agents, bench

    if tier not in ("random", "medium", "expert"):
        raise ValueError(f"tier policies exist for random/medium/expert, not {tier!r}")
    if budget is None:
        budget = DEFAULT_TIER_BUDGET.get(env.name, 20_000)
    cfg = config if config is not None else agents.default_agent_config(env)
    if refs is None:
        refs = bench.compute_reference_pair(env, seed=seed, budget=budget, config=cfg)

    if tier == "random":
        policy = agents.UniformPolicy(agents.resolve_action_grid(env, cfg), seed=seed)
        raw, _ = agents.evaluate_policy(clone_env(env), policy, episodes=100, seed=seed)
        return TierPolicy(
            tier, policy, raw, bench.normalize_score(raw, refs.random_ref, refs.expert_ref)
        )

    result = online_training_run(env, budget, seed, cfg)
    if tier == "expert":
        raw = result.curve[result.best_index][1]
        return TierPolicy(
            tier,
            result.policy,
            raw,
            bench.normalize_score(raw, refs.random_ref, refs.expert_ref),
            train_result=result,
            checkpoint_index=result.best_index,
        )

    best = -np.inf
    for i, (steps, raw) in enumerate(result.curve):
        score = bench.normalize_score(raw, refs.random_ref, refs.expert_ref)
        best = max(best, score)
        if score >= MEDIUM_NORMALIZED_TARGET:
            return TierPolicy(
                "medium",
                result.checkpoint_policy(i),
                raw,
                score,
                train_result=result,
                checkpoint_index=i,
            )
    raise TierError(
        f"medium tier unreachable within budget {budget}: best normalized score "
        f"achieved was {best:.1f} (target {MEDIUM_NORMALIZED_TARGET})"
    )


# ---------------------------------------------------------------------------
# Spec kinds: simulator perturbations and dataset corruptions
# ---------------------------------------------------------------------------


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < np.inf:
        raise ValueError(f"must be a finite number >= 0, got {value!r}")
    return float(value)


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"must be an integer >= 0, got {value!r}")
    return int(value)


def _ints(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be a list of integers >= 0, got {value!r}")
    return [_int(i) for i in value]


def check_field(name: str, coerce, value):
    """``coerce(value)``, failing with a message that names the field."""
    try:
        return coerce(value)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


def _params(value) -> dict:
    if not isinstance(value, Mapping):
        raise ValueError(f"must be an object of parameter values, got {value!r}")
    return dict(value)


# kind -> stage -> (operator, required fields, optional fields).  Stage "env"
# perturbs a training simulator (``sim2real``), stage "data" corrupts a
# generated dataset (``corruption``).  The operator runs as op(target, **fields);
# each field maps to its JSON value's coercion.  Every number is >= 0.
SPEC_KINDS = {
    "transition_param_override": {"env": (with_transition_error, {"overrides": _params}, {})},
    "obs_noise": {"env": (with_obs_noise, {"sigma": _real}, {}),
                  "data": (corrupt_obs_noise, {"sigma": _real}, {"seed": _int})},
    "hidden_dims": {"env": (with_hidden_dims, {"indices": _ints}, {}),
                    "data": (corrupt_hide_dims, {"indices": _ints}, {})},
    "action_noise": {"env": (with_action_noise, {"sigma": _real}, {})},
    "action_delay": {"env": (with_action_delay, {"delay": _int}, {})},
}
_STAGE_NOUNS = {"env": "sim2real", "data": "corruption"}


def check_spec(spec, stage: str) -> dict:
    """Validate one spec for ``stage`` and return its canonical form: a new
    dict of the kind and each given field, coerced to its JSON type."""
    noun = _STAGE_NOUNS[stage]
    if not isinstance(spec, Mapping):
        raise ValueError(f"a {noun} spec must be an object with a 'kind', got {spec!r}")
    kind = spec.get("kind")
    stages = SPEC_KINDS.get(kind, {}) if isinstance(kind, str) else {}
    if stage not in stages:
        valid = sorted(k for k, by_stage in SPEC_KINDS.items() if stage in by_stage)
        raise ValueError(f"unknown {noun} kind {kind!r}; valid: {valid}")
    _, required, optional = stages[stage]
    unknown, missing = key_errors(spec, ("kind", *required), optional)
    if missing:
        raise ValueError(f"missing keys {missing} for {noun} kind {kind!r}")
    if unknown:
        raise ValueError(f"unknown keys {unknown} for {noun} kind {kind!r}")
    out = {"kind": kind}
    for name, coerce in {**required, **optional}.items():
        if name in spec:
            out[name] = check_field(f"{noun} kind {kind!r}: {name!r}", coerce, spec[name])
    return out


def apply_specs(target, specs, stage: str):
    """Apply specs in order to an environment (stage "env") or a dataset
    (stage "data").  Later specs act on the output of earlier ones, so
    hidden dims listed after observation noise zero the noisy values."""
    for spec in specs:
        spec = check_spec(spec, stage)
        op = SPEC_KINDS[spec.pop("kind")][stage][0]
        target = op(target, **spec)
    return target


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecipe:
    """Declarative description of how to produce one dataset.

    ``hidden_during_collection`` wraps the environment before the behavior
    policy is trained and before collection, so the policy never sees those
    dimensions (partial observability without confounding).  ``corruption``
    entries are applied post hoc, after collection.  For ``medium_replay``
    the records are the training run's replay buffer up to the medium
    checkpoint, so ``n_records`` only caps the size.
    """

    tier: str = "medium"
    n_records: int | None = None
    behavior_mode: str = "observed"
    hidden_during_collection: tuple[int, ...] = ()
    corruption: tuple[dict, ...] = ()
    history_k: int | None = None
    seed: int = 0
    collect_epsilon: float = 0.05
    train_budget: int | None = None

    def __post_init__(self):
        if self.tier not in DATASET_TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; valid: {DATASET_TIERS}")
        if self.behavior_mode not in BEHAVIOR_MODES:
            raise ValueError(f"unknown behavior mode {self.behavior_mode!r}")
        # None alone means "the environment's default"
        for name in ("n_records", "history_k", "train_budget"):
            value = getattr(self, name)
            if value is not None and check_field(name, _int, value) < 1:
                raise ValueError(f"{name} must be >= 1 or null, got {value}")
        if not 0.0 <= self.collect_epsilon <= 1.0:
            raise ValueError(f"collect_epsilon must be in [0, 1], got {self.collect_epsilon}")
        check_field("seed", _int, self.seed)
        if self.tier == "medium_replay" and (self.history_k or 1) > 1:
            raise ValueError("history-aware collection is not defined for medium_replay")
        object.__setattr__(self, "hidden_during_collection", tuple(
            check_field("hidden_during_collection", _ints, self.hidden_during_collection)))
        object.__setattr__(
            self, "corruption", tuple(check_spec(c, "data") for c in self.corruption)
        )

    def to_dict(self) -> dict:
        return _jsonify(asdict(self))


def generate_dataset(env: Environment, recipe: DatasetRecipe, refs=None) -> Dataset:
    """Materialize a dataset from a recipe on (a clone of) the given true env."""
    from . import agents

    n_records = recipe.n_records or DEFAULT_DATASET_SIZE.get(env.name, 20_000)
    budget = recipe.train_budget or DEFAULT_TIER_BUDGET.get(env.name, 20_000)

    collect_env = clone_env(env)
    if recipe.hidden_during_collection:
        collect_env = with_hidden_dims(collect_env, recipe.hidden_during_collection)

    # The behavior policy trains on whatever it will consume at collection
    # time: wrapped observations in observed mode, full state in privileged.
    if recipe.behavior_mode == "privileged":
        policy_env = FullStateObservation(clone_env(env))
    else:
        policy_env = clone_env(collect_env)
    if recipe.history_k is not None and recipe.history_k > 1:
        policy_env = HistoryStack(policy_env, recipe.history_k)

    def tier_policy(tier: str):
        tp = train_tier_policy(policy_env, tier, budget, recipe.seed, refs=refs)
        return agents.with_epsilon(tp.policy, recipe.collect_epsilon), tp

    if recipe.tier == "medium_replay":
        tp = train_tier_policy(policy_env, "medium", budget, recipe.seed, refs=refs)
        replay = tp.train_result.replay_prefix(tp.checkpoint_index)
        dataset = _env_dataset(env, [col[-n_records:] for col in replay], "medium_replay",
                               recipe.behavior_mode, recipe.seed)
    elif recipe.tier == "medium_expert":
        half = n_records // 2
        parts = []
        for tier, count in (("medium", half), ("expert", n_records - half)):
            pol, _ = tier_policy(tier)
            parts.append(
                _collect(collect_env, pol, count, recipe, tier)
            )
        dataset = concat_datasets(parts, "medium_expert", recipe.seed)
    else:
        pol, _ = tier_policy(recipe.tier)
        dataset = _collect(collect_env, pol, n_records, recipe, recipe.tier)

    return apply_specs(dataset, recipe.corruption, "data")


def _collect(collect_env, policy, count, recipe: DatasetRecipe, tier: str) -> Dataset:
    env = clone_env(collect_env)
    if recipe.history_k is not None and recipe.history_k > 1:
        return collect_history_confounded(
            env, recipe.history_k, policy, count, recipe.seed, tier=tier
        )
    return collect_dataset(env, policy, count, recipe.behavior_mode, recipe.seed, tier=tier)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def check_format_version(d, expected: str, what: str) -> None:
    """Raise unless ``d`` is an object whose ``format_version`` is ``expected``."""
    version = d.get("format_version") if isinstance(d, dict) else None
    if version != expected:
        raise ValueError(f"unsupported {what} format {version!r}; expected {expected!r}")


def save_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# JSON numbers decode to exactly these types, and true/false to bool; the
# NaN and Infinity tokens decode to strings, as write_dataset refuses them
_NUMBER_TYPES = frozenset((int, float))
_RECORD_DECODER = json.JSONDecoder(parse_constant=str)


def _is_number_list(value) -> bool:
    return type(value) is list and _NUMBER_TYPES.issuperset(map(type, value))


# record key -> (check of its decoded JSON value, what the check asks for)
_RECORD_VALUES = {
    "o": (_is_number_list, "a list of numbers"),
    "a": (lambda v: type(v) in _NUMBER_TYPES or _is_number_list(v),
          "a number or a list of numbers"),
    "r": (lambda v: type(v) in _NUMBER_TYPES, "a number"),
    "o2": (_is_number_list, "a list of numbers"),
    "d": (lambda v: type(v) is bool, "true or false"),
}


def write_dataset(dataset: Dataset, path) -> None:
    """Line-delimited text: one metadata object, then one object per record
    with keys o, a, r, o2, d.  Reals are written with full round-trip
    precision, so read(write(d)) == d bit-exactly.  Non-finite values have
    no JSON spelling and are rejected before the file is opened."""
    O, A, R, O2, D = dataset.arrays()
    finite = {
        name: np.isfinite(col).all(axis=tuple(range(1, col.ndim)))
        for name, col in (("obs", O), ("action", A), ("reward", R), ("next_obs", O2))
    }
    ok = np.logical_and.reduce(list(finite.values()))
    if not ok.all():
        i = int(np.argmin(ok))
        bad = ", ".join(name for name, col_ok in finite.items() if not col_ok[i])
        raise ValueError(f"record {i}: non-finite {bad} cannot be serialized")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dataset.meta.to_dict()) + "\n")
        for o, a, r, o2, d in zip(O.tolist(), A.tolist(), R.tolist(), O2.tolist(),
                                  D.tolist()):
            fh.write(json.dumps({"o": o, "a": a, "r": r, "o2": o2, "d": d}) + "\n")


def read_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise DatasetParseError("missing metadata line", line=1)
        try:
            meta_d = json.loads(header)
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"metadata is not valid JSON ({exc.msg})", line=1)
        if not isinstance(meta_d, dict):
            raise DatasetParseError("metadata line must be a JSON object", line=1)
        version = meta_d.get("format_version")
        if version != FORMAT_VERSION:
            raise DatasetVersionError(
                f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}",
                line=1,
            )
        try:  # a file names every field, defaults included
            check_keys(meta_d, "metadata", tuple(f.name for f in fields(DatasetMeta)))
            meta = read_record(DatasetMeta, meta_d, "metadata")
        except ValueError as exc:
            raise DatasetParseError(str(exc), line=1)

        rows = []
        dim = None
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                raise DatasetParseError("blank record line", line=line_no)
            if len(rows) >= meta.record_count:
                raise DatasetParseError(
                    f"more records than the declared record_count={meta.record_count}",
                    line=line_no,
                )
            try:
                rec_d = _RECORD_DECODER.decode(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(f"record is not valid JSON ({exc.msg})", line=line_no)
            if not isinstance(rec_d, dict) or rec_d.keys() != _RECORD_VALUES.keys():
                raise DatasetParseError(
                    f"record must be an object with keys {sorted(_RECORD_VALUES)}",
                    line=line_no,
                )
            for key, (ok, expected) in _RECORD_VALUES.items():
                if not ok(rec_d[key]):
                    raise DatasetParseError(
                        f"{key!r} must be {expected}, got {rec_d[key]!r}", line=line_no
                    )
            obs, action, next_obs = rec_d["o"], rec_d["a"], rec_d["o2"]
            # an action is a number (None) or a list of a fixed length
            action_len = len(action) if type(action) is list else None
            if dim is None:
                dim, first_action_len = len(obs), action_len
            if len(obs) != dim or len(next_obs) != dim:
                raise DatasetDimensionError(
                    f"observation dimensions {len(obs)}/{len(next_obs)} do not "
                    f"match the dataset dimension {dim}",
                    line=line_no,
                )
            if action_len != first_action_len:
                first = ("a number" if first_action_len is None
                         else f"a list of {first_action_len} numbers")
                raise DatasetParseError(
                    f"action {action!r} differs in form from the first record's "
                    f"action, which is {first}",
                    line=line_no,
                )
            if type(action) is list:
                action = np.asarray(action, dtype=float)
            rows.append((obs, action, rec_d["r"], next_obs, rec_d["d"]))
        if len(rows) != meta.record_count:
            raise DatasetParseError(
                f"expected {meta.record_count} records, file ends after {len(rows)}",
                line=len(rows) + 2,
            )
    return Dataset(meta, *_stack_rows(rows))
