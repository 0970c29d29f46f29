"""Reference agents.

All policies act greedily (or epsilon-softly) over a fixed discrete action
grid, scored by a linear Q-function in a fixed feature expansion through an
(m, K) action basis B: Q(s, a_k) = phi(s) . W . B[:, k].  Two choices of B
exist:

* ``onehot``    -- the K x K identity, an independent weight column per grid
  action (tabular-style, right for genuinely discrete action sets);
* ``quadratic`` -- rows [1, a, a^2], so Q(s, a) = V(s) + g(s) a + h(s) a^2
  with V, g, h linear in the state features.  For discretized continuous
  controls the per-decision action gaps are tiny, and pooling every
  transition into one smooth-in-a fit keeps the advantage signal above the
  regression noise.

Four trainers share one fitted-Q core (Bellman targets, zeroed at done,
bootstrap values clipped to the feasible range implied by observed rewards):
``train_online_q``, ``train_offline_bcq``, ``train_mopo_lite`` and the
simulator-anchored hybrid ``train_hymopo``.  Training is deterministic given
(inputs, config, seed), bit-exactly at a fixed BLAS thread count: grams and
Cholesky factors can change bits between 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Annotated, Literal

import numpy as np

from .envs import ContinuousActions, DiscreteActions, EnvError, Environment, PendulumEnv
from .models import (
    CorrectionEnsemble,
    FeatureKind,
    FeatureMap,
    ModelConfig,
    _tril_inverse,
    disagreement,
    fit_ensemble,
)
from .records import Count, NonNegative, Positive, Probability, Range
from .records import check_fields, load_json, read_value, read_versioned, save_json, write_record
from .seeding import (
    EVAL_ENV,
    EVAL_POLICY,
    EXPLORE,
    MODEL_FIT,
    POLICY,
    Q_FEATURES,
    ROLLOUT,
    TRAIN_ENV,
    derived_rng,
    derived_seed,
)
from .wrappers import clone_env

if TYPE_CHECKING:
    from .data import Dataset

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentConfig:
    """Shared knobs for all trainers; per-environment defaults come from
    :func:`default_agent_config`."""

    action_grid: tuple[float, ...] | None = None
    gamma: Annotated[float, Range(0, 1, hi_open=True)] = 0.99
    # Q-function features
    q_feature_kind: FeatureKind = "random_fourier"
    q_feature_count: Count = 256
    q_bandwidth: Positive = 1.0
    q_poly_degree: int = 9
    q_poly_dim_degrees: tuple[int, ...] | None = None
    q_input_shift: tuple[float, ...] | None = None
    q_input_scale: tuple[float, ...] | None = None
    q_ridge: Positive = 1e-6
    q_action_design: Literal["onehot", "quadratic"] = "onehot"
    # online training
    sweeps: Count = 40
    episodes_per_sweep: Count = 5
    q_iterations: Count = 10
    epsilon_start: Probability = 1.0
    epsilon_end: Probability = 0.05
    explore_hold: Count = 1
    mc_lower_bound: bool = False
    n_step: Count = 1
    greedy_demo_episodes: int = 0
    eval_episodes: Count = 20
    fit_cap: Count = 50_000
    # offline training
    bc_threshold: Probability = 0.1
    offline_iterations: Count = 120
    # model-based training
    lam: NonNegative = 0.0  # the uncertainty penalty's weight: negative would reward it
    rollout_horizon: int = 5
    rollout_batch: int = 64
    epochs: Count = 30
    rollout_epsilon: Probability = 0.3
    mix_real: Probability = 0.5
    model: ModelConfig = ModelConfig()

    def __post_init__(self):
        check_fields(self)
        if self.action_grid is not None and not self.action_grid:
            raise ValueError("action_grid must hold at least one action, or be null")


def default_agent_config(env: Environment) -> AgentConfig:
    """Per-environment defaults keyed on the base env, adapted to the actual
    observed dimension (which wrappers such as history stacking change)."""
    name = env.name
    obs_dim = env.obs_dim
    if name == "pendulum":
        tl = env.params.torque_limit
        if obs_dim % 3 == 0 and obs_dim > 0:
            obs_scale = (1.0, 1.0, 0.125) * (obs_dim // 3)
        elif obs_dim == 2:  # full-state (theta, omega) observations
            obs_scale = (0.5, 0.125)
        else:
            obs_scale = (1.0,) * obs_dim
        return AgentConfig(
            action_grid=tuple(np.linspace(-tl, tl, 9)),
            gamma=0.99,
            q_feature_kind="random_fourier",
            q_feature_count=512,
            q_bandwidth=0.6,
            q_input_scale=obs_scale,
            q_ridge=1e-6,
            q_action_design="quadratic",
            # small sweeps: many checkpoints, so the first crossing of the
            # medium threshold lands close to it
            sweeps=70,
            episodes_per_sweep=3,
            q_iterations=8,
            # dynamics are deterministic, so observed reward-to-go is a sound
            # lower bound on the optimal episodic action value
            mc_lower_bound=True,
            n_step=8,
            greedy_demo_episodes=1,
            explore_hold=16,
            eval_episodes=40,
            model=ModelConfig(
                feature_kind="random_fourier",
                feature_count=256,
                bandwidth=1.0,
                input_scale=obs_scale + (0.5,),
            ),
        )
    if name == "windygrid":
        p = env.params
        sx = 2.0 / max(p.width - 1, 1)
        sy = 2.0 / max(p.height - 1, 1)
        cell_shift = (-(p.width - 1) / 2.0, -(p.height - 1) / 2.0, -0.5)
        cell_scale = (sx, sy, 2.0)
        k = obs_dim // 3 if obs_dim % 3 == 0 and obs_dim > 0 else 1
        shift = cell_shift * k
        scale = cell_scale * k
        if k == 1:
            q_kind = "polynomial"
            q_count = 256
        else:  # history windows: the full polynomial basis would explode
            q_kind = "random_fourier"
            q_count = 512
        return AgentConfig(
            action_grid=(0, 1, 2, 3),
            gamma=p.discount,
            q_feature_kind=q_kind,
            q_feature_count=q_count,
            q_bandwidth=0.8,
            q_poly_degree=(p.width - 1) + (p.height - 1) + 1,
            # per-dim caps make the basis complete and full-rank on the grid,
            # so fitted-Q is exact dynamic programming on the empirical MDP
            q_poly_dim_degrees=(p.width - 1, p.height - 1, 1) * k,
            q_input_shift=shift,
            q_input_scale=scale,
            q_ridge=1e-8,
            # few Bellman refits per sweep: value information spreads over
            # many checkpoints, leaving genuinely mid-quality policies for
            # the medium tier to pick up
            sweeps=50,
            episodes_per_sweep=6,
            q_iterations=2,
            # narrow behavior data inflates unpenalized model rollouts via
            # the Bellman max; the uncertainty penalty keeps them honest
            lam=0.8,
            model=ModelConfig(
                # bounded cosine features: model predictions stay tame even
                # when sampled rollout states drift off the grid
                feature_kind="random_fourier",
                feature_count=768,
                bandwidth=0.7,
                input_shift=shift + (0.0,) * 4,
                input_scale=scale + (1.0,) * 4,
            ),
        )
    if name == "bandit":
        return AgentConfig(
            action_grid=(0, 1),
            gamma=0.99,
            q_feature_kind="polynomial",
            q_poly_degree=1,
            sweeps=5,
            episodes_per_sweep=50,
            q_iterations=2,
        )
    return AgentConfig()


def resolve_action_grid(env: Environment, config: AgentConfig) -> tuple:
    if config.action_grid is not None:
        return tuple(config.action_grid)
    space = env.action_space
    if isinstance(space, DiscreteActions):
        return tuple(range(space.count))
    return tuple(np.linspace(space.low, space.high, 9))


# ---------------------------------------------------------------------------
# Q-function and policies
# ---------------------------------------------------------------------------


def _action_basis(action_grid: tuple, design: str) -> np.ndarray:
    """(m, K) action basis: the K x K identity for ``onehot``; for
    ``quadratic`` the rows [1, a, a^2] per grid action, a scaled to [-1, 1]."""
    if design != "quadratic":
        return np.eye(len(action_grid))
    vals = np.asarray(action_grid, dtype=float)
    scale = max(float(np.abs(vals).max()), 1e-12)
    a = vals / scale
    return np.stack([np.ones_like(a), a, a * a])


@dataclass
class QFunction:
    """Linear state-action values over a shared observation feature map,
    Q(s, a_k) = phi(s) . W . B[:, k] for the (m, K) action basis B of the
    design (see :func:`_action_basis`)."""

    features: FeatureMap
    weights: np.ndarray  # (F, m)
    basis: np.ndarray  # (m, K)

    def values(self, obs_batch: np.ndarray) -> np.ndarray:
        return self.features.transform(obs_batch) @ self.weights @ self.basis


class Policy:
    """Base policy over a fixed action grid with owned exploration RNG."""

    def __init__(self, action_grid, epsilon: float = 0.0, seed: int = 0):
        self.action_grid = tuple(action_grid)
        self.epsilon = float(read_value(Probability, epsilon, "epsilon"))
        self._rng = derived_rng(seed, POLICY)

    def reseed(self, seed: int) -> None:
        self._rng = derived_rng(seed, POLICY)

    def action_index(self, obs) -> int:
        """Greedy action index for this observation."""
        raise NotImplementedError

    def action_indices(self, obs_batch) -> np.ndarray:
        """Greedy action index of each row of an (n, obs_dim) batch."""
        return np.array([self.action_index(obs) for obs in obs_batch], dtype=int)

    def act(self, obs, greedy: bool = False):
        if not greedy and self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            return self.action_grid[int(self._rng.integers(len(self.action_grid)))]
        return self.action_grid[self.action_index(obs)]


class UniformPolicy(Policy):
    """Uniform draw over the grid; by definition it has no greedy mode."""

    def __init__(self, action_grid, seed: int = 0):
        super().__init__(action_grid, epsilon=1.0, seed=seed)

    def action_index(self, obs) -> int:
        return int(self._rng.integers(len(self.action_grid)))

    def act(self, obs, greedy: bool = False):
        return self.action_grid[self.action_index(obs)]


class FunctionPolicy(Policy):
    """Wraps a plain function obs -> grid index (handy for exact policies)."""

    def __init__(self, fn, action_grid, epsilon: float = 0.0, seed: int = 0):
        super().__init__(action_grid, epsilon=epsilon, seed=seed)
        self._fn = fn

    def action_index(self, obs) -> int:
        return int(self._fn(obs))


@dataclass
class BehaviorModel:
    """Least-squares multi-class model of the behavior policy's action
    probabilities on rows of Q features, clipped to [0, 1] and renormalized."""

    weights: np.ndarray  # (F, K)

    def probs_batch(self, Phi: np.ndarray) -> np.ndarray:
        raw = np.clip(Phi @ self.weights, 0.0, None)
        sums = raw.sum(axis=1, keepdims=True)
        uniform = np.full_like(raw, 1.0 / raw.shape[1])
        return np.where(sums > 1e-12, raw / np.where(sums > 0, sums, 1.0), uniform)

    def allowed(self, Phi: np.ndarray, threshold: float) -> np.ndarray:
        """The actions whose probability clears ``threshold``; a row where
        none does allows every action."""
        mask = self.probs_batch(Phi) >= threshold
        return mask | ~mask.any(axis=1, keepdims=True)


ACTION_MEMO_CAP = 256  # observations a QPolicy remembers its greedy action for


class QPolicy(Policy):
    """Greedy/epsilon-soft policy over a QFunction, optionally restricted to
    actions whose behavior probability clears a threshold (falls back to the
    unrestricted argmax when no action qualifies).

    ``action_indices`` featurizes a batch of observations once, for the Q
    scores and the behavior mask; ``action_index`` is its batch of one, and
    remembers the greedy action of the first ``ACTION_MEMO_CAP`` distinct
    observations it scores, keyed on the shape and bytes of the validated
    row, so a finite observation space (windygrid has 50) pays one feature
    transform per observation rather than one per step.  Exploration draws
    stay in ``act``, so every action is the one the uncached computation
    gives.  The memo holds because ``q``, ``behavior`` and ``bc_threshold``
    are never written in place (nothing in hybench, its tests or demos
    does); a policy with other values is a new ``QPolicy`` with an empty
    memo, and the memo is not serialized.  The cap exists because
    continuous observations (pendulum) never repeat: there an unbounded memo
    only grows the heap, and its tens of thousands of small entries shift
    glibc's heap layout enough to raise peak RSS by far more than their own
    few megabytes.
    """

    def __init__(self, q: QFunction, action_grid, epsilon: float = 0.0, seed: int = 0,
                 behavior: BehaviorModel | None = None, bc_threshold: float = 0.0):
        super().__init__(action_grid, epsilon=epsilon, seed=seed)
        self.q = q
        self.behavior = behavior
        self.bc_threshold = float(bc_threshold)
        self._memo: dict[tuple, int] = {}

    def action_indices(self, obs_batch) -> np.ndarray:
        Phi = self.q.features.transform(obs_batch)
        scores = Phi @ self.q.weights @ self.q.basis
        if self.behavior is not None and self.bc_threshold > 0.0:
            scores = np.where(self.behavior.allowed(Phi, self.bc_threshold), scores, -np.inf)
        return np.argmax(scores, axis=1)

    def action_index(self, obs) -> int:
        row = np.asarray(obs, dtype=float)[None, :]
        key = (row.shape, row.tobytes())  # a (1, d) obs keeps failing as (1, 1, d)
        a = self._memo.get(key)
        if a is None:
            a = int(self.action_indices(row)[0])
            if len(self._memo) < ACTION_MEMO_CAP:
                self._memo[key] = a
        return a


def with_epsilon(policy: Policy, epsilon: float) -> Policy:
    """Copy of a policy with a different exploration rate (uniform policies
    are returned unchanged)."""
    if isinstance(policy, UniformPolicy):
        return policy
    if isinstance(policy, QPolicy):
        return QPolicy(policy.q, policy.action_grid, epsilon=epsilon,
                       behavior=policy.behavior, bc_threshold=policy.bc_threshold)
    if isinstance(policy, FunctionPolicy):
        return FunctionPolicy(policy._fn, policy.action_grid, epsilon=epsilon)
    raise TypeError(f"cannot adjust epsilon of {type(policy).__name__}")


# ---------------------------------------------------------------------------
# Fitted-Q core
# ---------------------------------------------------------------------------


def _build_q_features(env_obs_dim: int, config: AgentConfig, seed: int) -> FeatureMap:
    if config.q_feature_kind == "polynomial":
        return FeatureMap.polynomial(
            env_obs_dim, config.q_poly_degree, config.q_input_shift,
            config.q_input_scale, config.q_poly_dim_degrees
        )
    return FeatureMap.random_fourier(
        env_obs_dim,
        config.q_feature_count,
        config.q_bandwidth,
        derived_seed(seed, Q_FEATURES),
        config.q_input_shift,
        config.q_input_scale,
    )


def check_feature_maps(env: Environment, config: AgentConfig, model_based: bool) -> None:
    """Build the Q feature map for ``env``'s observations and, for a
    model-based agent that fits a model, one model feature map for its
    (obs, action) inputs, so that a setting that does not fit those
    dimensions (an input shift, scale or degree cap of the wrong length)
    fails when a config loads, not in every seed."""
    maps = [("Q", lambda: _build_q_features(env.obs_dim, config, 0))]
    if model_based and config.rollout_horizon > 0 and config.rollout_batch > 0:
        space = _grid_action_space(resolve_action_grid(env, config))
        width = space.count if isinstance(space, DiscreteActions) else space.dim
        maps.append(("model", lambda: config.model.feature_map(env.obs_dim + width, 0)))
    for what, build in maps:
        try:
            build()
        except ValueError as exc:
            raise ValueError(f"agent config {what} features: {exc}") from None


class _Block:
    """The fitted-Q rows of one data source, in tables of ``capacity`` rows
    that ``append`` fills in order; ``Phi``, ``A``, ``R``, ``Phi2``, ``D``
    and ``G`` are the filled rows (``G``, kept only with ``returns``, is the
    observed discounted reward-to-go: an exact lower bound on the optimal
    episodic action value when the dynamics are deterministic).  Reading
    ``grams``, the per-action grams Phi_k^T Phi_k, adds only the rows
    appended since the last read, so each row's gram is summed once.
    ``mask2`` optionally restricts the next-state actions of the Bellman max.
    """

    def __init__(self, basis: np.ndarray, capacity: int, width: int,
                 boot_gamma=None, returns: bool = False):
        self.boot_gamma = boot_gamma  # bootstrap discount (gamma^n for n-step rows)
        self.mask2 = None
        self._tables = (np.empty((capacity, width)), np.empty(capacity, int), np.empty(capacity),
                        np.empty((capacity, width)), np.empty(capacity, bool),
                        np.empty(capacity) if returns else None)
        self._grams = np.zeros((basis.shape[1], width, width))
        self.n = self._summed = 0
        self.append(*(t if t is None else t[:0] for t in self._tables))  # sets the empty views

    def append(self, Phi, A, R, Phi2, D, G=None) -> None:
        n = self.n + len(A)
        for table, rows in zip(self._tables, (Phi, A, R, Phi2, D, G)):
            if table is not None:
                table[self.n:n] = rows
        self.n = n
        self.Phi, self.A, self.R, self.Phi2, self.D, self.G = (
            t if t is None else t[:n] for t in self._tables)

    @property
    def grams(self) -> np.ndarray:
        if self._summed < self.n:
            self._add_grams(self.Phi[self._summed:], self.A[self._summed:])
            self._summed = self.n
        return self._grams

    def _add_grams(self, Phi: np.ndarray, A: np.ndarray) -> None:
        for k, gram in enumerate(self._grams):
            Phi_k = Phi[A == k]
            gram += Phi_k.T @ Phi_k


def _bellman_iterate(
    blocks: list[_Block],
    weights: list[float],
    basis: np.ndarray,
    gamma: float,
    ridge: float,
    iterations: int,
    W0: np.ndarray | None,
) -> np.ndarray:
    # Q(s, a) = phi(s) . W . B[:, a] is linear in the stacked columns of W
    # with regressor B[:, a] (x) phi(s), so block (p, q) of the gram is
    # sum_k B[p, k] B[q, k] C_k over the per-action grams C_k.  The ridge gram
    # G = L L^T is fixed across iterations, so it is factored and L inverted
    # once per call; each iteration then solves G w = rhs with two
    # matrix-vector products, w = L^-T (L^-1 rhs).
    m = basis.shape[0]
    F = blocks[0].Phi.shape[1]
    G = np.zeros((m * F, m * F))
    for p in range(m):
        for q in range(m):
            coef = basis[p] * basis[q]
            if coef.any():
                G[p * F:(p + 1) * F, q * F:(q + 1) * F] = sum(
                    np.tensordot(w * coef, blk.grams, axes=1)
                    for blk, w in zip(blocks, weights))
    G[np.diag_indices(m * F)] += ridge
    L = np.linalg.cholesky(G)
    del G  # free the gram before the inverse's temporaries are allocated
    linv = _tril_inverse(L)
    W = np.zeros((F, m)) if W0 is None else W0

    # Feasible value range for the observed rewards.  Bootstrap values are
    # clipped into it: the fixed point is untouched (true values lie inside),
    # but regression extrapolation at poorly covered states cannot feed back
    # and blow up the iteration.
    v_lo, v_hi = np.inf, -np.inf
    for blk in blocks:
        bg = blk.boot_gamma if blk.boot_gamma is not None else gamma
        r_min, r_max = float(blk.R.min()), float(blk.R.max())
        v_lo = min(v_lo, r_min, r_min / (1.0 - bg))
        v_hi = max(v_hi, r_max, r_max / (1.0 - bg))

    for _ in range(iterations):
        rhs = np.zeros((F, m))
        for blk, w in zip(blocks, weights):
            bg = blk.boot_gamma if blk.boot_gamma is not None else gamma
            scores = blk.Phi2 @ W @ basis
            if blk.mask2 is not None:
                scores = np.where(blk.mask2, scores, -np.inf)
            boot = np.clip(scores.max(axis=1), v_lo, v_hi)
            y = blk.R + bg * (~blk.D) * boot
            if blk.G is not None:
                y = np.maximum(y, blk.G)
            rhs += w * (blk.Phi.T @ (y[:, None] * basis.T[blk.A]))
        W = (linv.T @ (linv @ rhs.T.ravel())).reshape(m, F).T
    return W


def actions_to_indices(A: np.ndarray, action_grid: tuple) -> np.ndarray:
    """Map recorded actions onto grid indices (nearest value for continuous)."""
    grid = np.asarray(action_grid, dtype=float)
    A = np.asarray(A)
    if np.issubdtype(A.dtype, np.integer):
        idx = A.astype(int)
        if idx.min() < 0 or idx.max() >= len(grid):
            raise ValueError("discrete action out of range for the action grid")
        return idx
    vals = A.astype(float).reshape(len(A), -1)[:, 0]
    return np.argmin(np.abs(vals[:, None] - grid[None, :]), axis=1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_policy(
    env: Environment, policy: Policy, episodes: int, seed: int
) -> tuple[float, float]:
    """Mean and sample std of undiscounted greedy-episode returns.

    Deterministic given the seed; a single episode reports std 0 by
    convention.  On an unwrapped pendulum all episodes run in lockstep
    (``PendulumEnv.lockstep_returns``), one batch of greedy actions per time
    step, where a ``UniformPolicy`` first draws every episode's actions in
    episode order; elsewhere they run one by one (``Environment.run_episode``).
    """
    episodes = read_value(Count, episodes, "episodes")
    policy.reseed(derived_seed(seed, EVAL_POLICY))
    if type(env) is PendulumEnv:
        torques = np.array([np.asarray(a, dtype=float).reshape(-1)[0]
                            for a in policy.action_grid])
        choose = policy.action_indices
        if isinstance(policy, UniformPolicy):  # its draws do not depend on O
            steps = iter(np.array([[policy.action_index(None) for _ in range(env.params.horizon)]
                                   for _ in range(episodes)]).T)
            choose = lambda O: next(steps)
        returns = env.lockstep_returns(episodes, derived_seed(seed, EVAL_ENV),
                                       lambda O: torques[choose(O)])
    else:
        returns = np.empty(episodes)
        for ep in range(episodes):
            _, _, rewards = env.run_episode(lambda obs: policy.act(obs, greedy=True),
                                            derived_seed(seed, EVAL_ENV) if ep == 0 else None)
            total = 0.0  # in step order; sum() compensates from Python 3.12 on
            for r in rewards:
                total += r
            returns[ep] = total
    std = float(np.std(returns, ddof=1)) if episodes > 1 else 0.0
    return float(returns.mean()), std


# ---------------------------------------------------------------------------
# Online fitted-Q
# ---------------------------------------------------------------------------


@dataclass
class OnlineTrainResult:
    """The delivered policy plus what it does not hold: per-sweep scores
    and Q weights (never written in place), and the replay."""

    policy: QPolicy
    curve: list[tuple[int, float]]  # (env steps, mean eval return) per sweep
    weights: list[np.ndarray]  # Q weights (F, m) per sweep
    replay: tuple  # (O, A, R, O2, D) columns, one row per env step

    def checkpoint_policy(self, index: int) -> QPolicy:
        q = replace(self.policy.q, weights=self.weights[index])
        return QPolicy(q, self.policy.action_grid)

    def replay_prefix(self, index: int) -> tuple:
        """The replay columns as they stood at checkpoint ``index``."""
        n = self.curve[index][0]  # one replay row per env step
        return tuple(col[:n] for col in self.replay)


def train_online_q(
    env: Environment, config: AgentConfig, seed: int, budget: int | None = None
) -> OnlineTrainResult:
    """Epsilon-greedy exploration with periodic fitted-Q regression sweeps.

    Each sweep collects episodes, refits Q on the whole replay buffer with
    Bellman targets (zeroed at done), and evaluates the greedy policy on a
    fresh clone of the training environment.  Exploratory actions can be held
    for several steps (coherent excursions), and on deterministic
    environments observed reward-to-go can serve as a lower-bound target.
    """
    grid = resolve_action_grid(env, config)
    basis = _action_basis(grid, config.q_action_design)
    K = len(grid)
    fm = _build_q_features(env.obs_dim, config, seed)
    explore = derived_rng(seed, EXPLORE)
    eval_env = clone_env(env)

    sweeps = config.sweeps
    horizon = getattr(env.params, "horizon", 1)
    if read_value(Count | None, budget, "budget") is not None:
        per_sweep = max(config.episodes_per_sweep * horizon, 1)
        sweeps = max(1, min(sweeps, int(np.ceil(budget / per_sweep))))

    policy = None  # greedy policy of the latest fit
    grid_arr = np.asarray(grid)
    n_step = int(config.n_step)
    block = _Block(basis, sweeps * config.episodes_per_sweep * horizon, fm.output_dim,
                   boot_gamma=config.gamma ** n_step, returns=config.mc_lower_bound)
    replay: list[tuple] = []  # per episode: (O, A, R, O2, D) columns
    curve: list[tuple[int, float]] = []
    weights: list[np.ndarray] = []
    gtail = config.gamma ** np.arange(n_step)

    for sweep in range(sweeps):
        frac = sweep / max(sweeps - 1, 1)
        sweep_eps = config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)
        for episode in range(config.episodes_per_sweep):
            # optional near-greedy episodes per sweep: uninterrupted
            # demonstrations of the current policy feed the reward-to-go
            # lower bound
            demo = episode < config.greedy_demo_episodes and policy is not None
            eps = config.epsilon_end if demo else sweep_eps
            ep_a: list[int] = []
            hold = 0

            def explore_or_act(obs):
                nonlocal hold
                if hold > 0:
                    hold -= 1  # keep the previous exploratory action
                    a_idx = ep_a[-1]
                elif explore.random() < eps or policy is None:
                    a_idx = int(explore.integers(K))
                    hold = int(explore.integers(config.explore_hold))
                else:
                    a_idx = policy.action_index(obs)
                ep_a.append(a_idx)
                return grid[a_idx]

            ep_O, _, ep_r = env.run_episode(
                explore_or_act, seed=derived_seed(seed, TRAIN_ENV) if block.n == 0 else None)
            T = len(ep_a)
            if T > horizon:  # it would not fit the block
                raise EnvError(f"{env.name}: an episode of {T} steps exceeds horizon {horizon}")
            rew = np.asarray(ep_r)
            t = np.arange(T)
            replay.append((ep_O[:-1], grid_arr[ep_a], rew, ep_O[1:], t == T - 1))
            # n-step rows: discounted reward window plus bootstrap n steps
            # ahead; windows hitting the episode end take the full remaining
            # return with no bootstrap (zero at done)
            ahead = np.minimum(t + n_step, T)
            rew_n = np.array([gtail[:k - i] @ rew[i:k] for i, k in zip(t, ahead)])
            g = 0.0
            tail: list[float] = []
            for r in reversed(ep_r):
                g = r + config.gamma * g
                tail.append(g)
            ep_Phi = fm.transform(ep_O)  # T + 1 >= 2 rows: the bits of any batch
            block.append(ep_Phi[:-1], ep_a, rew_n, ep_Phi[ahead], ahead == T, tail[::-1])
        W = _bellman_iterate([block], [1.0 / block.n], basis, config.gamma,
                             config.q_ridge, config.q_iterations,
                             None if policy is None else policy.q.weights)
        policy = QPolicy(QFunction(fm, W, basis), grid)
        score, _ = evaluate_policy(eval_env, policy, config.eval_episodes,
                                   derived_seed(seed, EVAL_ENV, sweep))
        curve.append((block.n, score))
        weights.append(W)

    # batch fitted-Q is not monotone across sweeps; deliver the latest tail
    # checkpoint whose score is within a whisker of the tail's best, i.e. the
    # most-converged of the near-best policies
    scores = np.array([score for _, score in curve])
    tail_start = int(np.floor(0.75 * (len(curve) - 1)))
    tol = 0.02 * max(float(scores.max() - scores.min()), 1e-12)
    tail = scores[tail_start:]
    near_best = np.nonzero(tail >= tail.max() - tol)[0]
    best = tail_start + int(near_best[-1])
    replay_cols = tuple(np.concatenate(col) for col in zip(*replay))
    policy = QPolicy(QFunction(fm, weights[best], basis), grid)
    return OnlineTrainResult(policy, curve, weights, replay_cols)


# ---------------------------------------------------------------------------
# Offline behavior-constrained fitted-Q
# ---------------------------------------------------------------------------


def _real_block(dataset: Dataset, grid: tuple, basis: np.ndarray, fm: FeatureMap,
                config: AgentConfig, seed: int) -> tuple[np.ndarray, _Block]:
    """The observations and the block of the dataset's rows, at most
    ``fit_cap`` of them: a seeded subsample, kept in order."""
    O, A, R, O2, D = dataset.arrays()
    cols = (O, actions_to_indices(A, grid), R, O2, D)
    if len(O) > config.fit_cap:
        keep = np.sort(derived_rng(seed, 0x5B5).choice(len(O), config.fit_cap, replace=False))
        cols = tuple(col[keep] for col in cols)
    O, idx, R, O2, D = cols
    block = _Block(basis, len(O), fm.output_dim)
    block.append(fm.transform(O), idx, R, fm.transform(O2), D)
    return O, block


def train_offline_bcq(dataset: Dataset, config: AgentConfig, seed: int = 0) -> QPolicy:
    """Behavior-constrained fitted-Q on a fixed dataset.

    The behavior model is a least-squares action classifier over the Q
    features; Bellman argmaxes (and the deployed policy) only consider
    actions with behavior probability >= bc_threshold, falling back to the
    global argmax when none qualifies.  bc_threshold = 0 is plain fitted-Q.
    The policy returned holds the Q-function and the behavior model.
    """
    if len(dataset) == 0:
        raise ValueError("offline training requires a non-empty dataset")
    grid = _grid_from_dataset(dataset, config)
    basis = _action_basis(grid, config.q_action_design)
    fm = _build_q_features(dataset.O.shape[1], config, seed)
    _, block = _real_block(dataset, grid, basis, fm, config, seed)

    G = block.Phi.T @ block.Phi + config.q_ridge * np.eye(fm.output_dim)
    behavior = BehaviorModel(np.linalg.solve(G, block.Phi.T @ np.eye(len(grid))[block.A]))
    if config.bc_threshold:
        block.mask2 = behavior.allowed(block.Phi2, config.bc_threshold)
    W = _bellman_iterate([block], [1.0 / block.n], basis, config.gamma,
                         config.q_ridge, config.offline_iterations, None)
    return QPolicy(QFunction(fm, W, basis), grid, behavior=behavior,
                   bc_threshold=config.bc_threshold)


def _grid_from_dataset(dataset: Dataset, config: AgentConfig) -> tuple:
    if config.action_grid is not None:
        return tuple(config.action_grid)
    A = dataset.arrays()[1]
    if np.issubdtype(A.dtype, np.integer):
        return tuple(range(int(A.max()) + 1))
    return tuple(np.unique(A.astype(float)))


# ---------------------------------------------------------------------------
# Model-based trainers
# ---------------------------------------------------------------------------


@dataclass
class RolloutTrace:
    """Every synthetic transition of a model-based run, one row each in
    generation order.  The columns keep every quantity entering the update
    algebra, so conformance can be replayed exactly."""

    epoch: np.ndarray  # (n,) int, like step, start_index and action_index
    step: np.ndarray
    start_index: np.ndarray
    action_index: np.ndarray
    obs: np.ndarray  # (n, obs_dim)
    next_obs: np.ndarray  # (n, obs_dim)
    sim_next_obs: np.ndarray | None  # (n, obs_dim); None without a simulator
    target_draw: np.ndarray  # (n, obs_dim + 1): sampled (state part, reward)
    reward: np.ndarray  # (n,) float, like penalty and penalized_reward
    penalty: np.ndarray
    penalized_reward: np.ndarray

    def __len__(self) -> int:
        return len(self.epoch)

    @classmethod
    def empty(cls, n: int, obs_dim: int, with_sim: bool) -> "RolloutTrace":
        """A trace of n rows, to be written in place."""
        def col(*width, dtype=float):
            return np.empty((n, *width), dtype=dtype)

        return cls(col(dtype=int), col(dtype=int), col(dtype=int), col(dtype=int),
                   col(obs_dim), col(obs_dim), col(obs_dim) if with_sim else None,
                   col(obs_dim + 1), col(), col(), col())


@dataclass
class ModelBasedTrainResult:
    """``ensemble`` is None when ``rollout_horizon`` or ``rollout_batch`` is
    0: no rollout samples the model then, so none is fitted."""

    policy: QPolicy
    ensemble: CorrectionEnsemble | None
    trace: RolloutTrace


def train_mopo_lite(dataset: Dataset, config: AgentConfig, seed: int = 0
                    ) -> ModelBasedTrainResult:
    """Model-based offline training on a direct ensemble (no simulator)."""
    return _train_model_based(dataset, config, seed, simulator=None)


def train_hymopo(dataset: Dataset, simulator: Environment, config: AgentConfig,
                 seed: int = 0) -> ModelBasedTrainResult:
    """Hybrid model-based training anchored to a simulator.

    The simulator predicts each dataset transition once; an ensemble learns
    the additive gap (and reward).  Synthetic rollouts start from dataset
    observations, step through simulator-plus-sampled-correction, and their
    rewards are penalized by the ensemble uncertainty before joining the real
    data in fitted-Q updates.
    """
    if simulator is None:
        raise ValueError("hybrid training requires a simulator")
    return _train_model_based(dataset, config, seed, simulator=simulator)


def _train_model_based(dataset: Dataset, config: AgentConfig, seed: int,
                       simulator: Environment | None) -> ModelBasedTrainResult:
    if len(dataset) == 0:
        raise ValueError("model-based training requires a non-empty dataset")
    grid = _grid_from_dataset(dataset, config)
    basis = _action_basis(grid, config.q_action_design)
    K = len(grid)
    obs_dim = dataset.O.shape[1]
    fm = _build_q_features(obs_dim, config, seed)

    space = _grid_action_space(grid)
    b = config.rollout_batch
    rollouts = config.rollout_horizon > 0 and b > 0
    ens = None
    if rollouts:
        model_cfg = replace(config.model, seed=derived_seed(seed, MODEL_FIT))
        sim_preds = (None if simulator is None
                     else simulator.simulate_step(dataset.O, dataset.A))
        ens = fit_ensemble(dataset, model_cfg, sim_preds, action_space=space)
        noise_sd = np.sqrt(np.stack([m.noise_var for m in ens.members]))

    O, real = _real_block(dataset, grid, basis, fm, config, seed)

    rollout_rng = derived_rng(seed, ROLLOUT)
    W = None
    rows = config.epochs * config.rollout_horizon * b
    trace = RolloutTrace.empty(rows, obs_dim, simulator is not None)
    syn = _Block(basis, rows, fm.output_dim)  # a row per trace row
    grid_arr = np.asarray(grid)
    discrete = isinstance(space, DiscreteActions)

    for epoch in range(config.epochs):
        if rollouts:
            starts = rollout_rng.integers(0, real.n, size=b)
            cur = O[starts]
            phi = fm.transform(cur)
            for j in range(config.rollout_horizon):
                explore_mask = rollout_rng.random(b) < config.rollout_epsilon
                randoms = rollout_rng.integers(K, size=b)
                if W is None:  # before the first fit every action is random
                    a_idx = randoms
                else:
                    a_idx = np.where(explore_mask, randoms, (phi @ W @ basis).argmax(axis=1))
                # the model consumes action values; on discrete grids value == index
                a_model = a_idx if discrete else grid_arr[a_idx]
                members = rollout_rng.integers(ens.n_members, size=b)
                draws_z = rollout_rng.standard_normal((b, obs_dim + 1))

                mus = ens.member_means(cur, a_model)  # (N, b, T)
                mu_sel = mus[members, np.arange(b)]
                draw = mu_sel + noise_sd[members] * draws_z
                delta_or_next = draw[:, :obs_dim]
                r_sample = draw[:, obs_dim]

                if simulator is not None:
                    sim_next = simulator.simulate_step(cur, grid_arr[a_idx])
                    next_obs = sim_next + delta_or_next
                else:
                    sim_next = None
                    next_obs = delta_or_next

                pen = disagreement(mus)  # the same means the draw used
                r_tilde = r_sample - config.lam * pen

                phi2 = fm.transform(next_obs)
                row = (epoch, j, starts, a_idx, cur, next_obs, sim_next, draw, r_sample,
                       pen, r_tilde)
                for field, value in zip(fields(RolloutTrace), row):
                    if value is not None:  # sim_next without a simulator
                        getattr(trace, field.name)[syn.n:syn.n + b] = value
                syn.append(phi, a_idx, r_tilde, phi2, np.zeros(b, dtype=bool))
                cur, phi = next_obs, phi2

        blocks, weights = [real], [1.0 / real.n]
        if syn.n:
            blocks.append(syn)
            weights = [config.mix_real / real.n, (1.0 - config.mix_real) / syn.n]
        W = _bellman_iterate(blocks, weights, basis, config.gamma, config.q_ridge,
                             config.q_iterations, W)

    return ModelBasedTrainResult(QPolicy(QFunction(fm, W, basis), grid), ens, trace)


def _grid_action_space(grid: tuple):
    if all(isinstance(a, (int, np.integer)) for a in grid):
        return DiscreteActions(len(grid))
    vals = np.asarray(grid, dtype=float)
    return ContinuousActions(float(vals.min()), float(vals.max()), 1)


# ---------------------------------------------------------------------------
# Policy serialization (round-trip identity is the only contract)
# ---------------------------------------------------------------------------

POLICY_FORMAT_VERSION = "hybench-policy/4"


@dataclass(frozen=True)
class _PolicyRecord:
    """A saved policy: a ``QPolicy``, or without ``q`` a ``UniformPolicy``."""

    action_grid: tuple[float, ...]
    epsilon: float
    q: QFunction | None = None
    behavior: BehaviorModel | None = None
    bc_threshold: float = 0.0


def policy_to_dict(policy: Policy) -> dict:
    if isinstance(policy, QPolicy):
        record = _PolicyRecord(policy.action_grid, policy.epsilon, policy.q,
                               policy.behavior, policy.bc_threshold)
    elif isinstance(policy, UniformPolicy):
        record = _PolicyRecord(policy.action_grid, policy.epsilon)
    else:
        raise TypeError(f"cannot serialize policy type {type(policy).__name__}")
    return {"format_version": POLICY_FORMAT_VERSION, **write_record(record)}


def policy_from_dict(d: dict) -> Policy:
    r = read_versioned(_PolicyRecord, d, POLICY_FORMAT_VERSION, "policy")
    if r.q is None:
        return UniformPolicy(r.action_grid)
    return QPolicy(r.q, r.action_grid, epsilon=r.epsilon, behavior=r.behavior,
                   bc_threshold=r.bc_threshold)


def save_policy(policy: Policy, path) -> None:
    save_json(policy_to_dict(policy), path)


def load_policy(path) -> Policy:
    return policy_from_dict(load_json(path))
