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
(inputs, config, seed), bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, check_format_version, load_json, save_json
from .envs import ContinuousActions, DiscreteActions, Environment
from .models import (
    FEATURE_KINDS,
    CorrectionEnsemble,
    FeatureMap,
    ModelConfig,
    _tril_inverse,
    disagreement,
    fit_ensemble,
)
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

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentConfig:
    """Shared knobs for all trainers; per-environment defaults come from
    :func:`default_agent_config`."""

    action_grid: tuple[float, ...] | None = None
    gamma: float = 0.99
    # Q-function features
    q_feature_kind: str = "random_fourier"
    q_feature_count: int = 256
    q_bandwidth: float = 1.0
    q_poly_degree: int = 9
    q_poly_dim_degrees: tuple[int, ...] | None = None
    q_input_shift: tuple[float, ...] | None = None
    q_input_scale: tuple[float, ...] | None = None
    q_ridge: float = 1e-6
    q_action_design: str = "onehot"  # or "quadratic"
    # online training
    sweeps: int = 40
    episodes_per_sweep: int = 5
    q_iterations: int = 10
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    explore_hold: int = 1
    mc_lower_bound: bool = False
    n_step: int = 1
    greedy_demo_episodes: int = 0
    eval_episodes: int = 20
    fit_cap: int = 50_000
    # offline training
    bc_threshold: float = 0.1
    offline_iterations: int = 120
    # model-based training
    lam: float = 0.0
    rollout_horizon: int = 5
    rollout_batch: int = 64
    epochs: int = 30
    rollout_epsilon: float = 0.3
    mix_real: float = 0.5
    model: ModelConfig = ModelConfig()

    def __post_init__(self):
        if self.bc_threshold < 0 or self.bc_threshold > 1:
            raise ValueError("bc_threshold must be in [0, 1]")
        for name in ("sweeps", "episodes_per_sweep", "q_iterations", "explore_hold",
                     "n_step", "offline_iterations", "epochs", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.rollout_horizon < 0 or self.rollout_batch < 0:
            raise ValueError("rollout horizon and batch must be >= 0")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        if not 0 <= self.mix_real <= 1:
            raise ValueError(f"mix_real must be in [0, 1], got {self.mix_real}")
        if not self.q_ridge > 0:
            raise ValueError(f"q_ridge must be > 0, got {self.q_ridge}")
        for name, value, valid in (
            ("q_action_design", self.q_action_design, ("onehot", "quadratic")),
            ("q_feature_kind", self.q_feature_kind, FEATURE_KINDS),
        ):
            if value not in valid:
                raise ValueError(f"unknown {name} {value!r}; valid: {valid}")


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
    gamma: float
    action_design: str
    basis: np.ndarray  # (m, K)

    def values(self, obs_batch: np.ndarray) -> np.ndarray:
        return self.features.transform(obs_batch) @ self.weights @ self.basis


class Policy:
    """Base policy over a fixed action grid with owned exploration RNG."""

    def __init__(self, action_grid, epsilon: float = 0.0, seed: int = 0):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.action_grid = tuple(action_grid)
        self.epsilon = float(epsilon)
        self._rng = derived_rng(int(seed), POLICY)

    def reseed(self, seed: int) -> None:
        self._rng = derived_rng(int(seed), POLICY)

    def action_index(self, obs) -> int:
        """Greedy action index for this observation."""
        raise NotImplementedError

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
    probabilities, clipped to [0, 1] and renormalized."""

    features: FeatureMap
    weights: np.ndarray  # (F, K)

    def probs_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        raw = np.clip(self.features.transform(obs_batch) @ self.weights, 0.0, None)
        sums = raw.sum(axis=1, keepdims=True)
        uniform = np.full_like(raw, 1.0 / raw.shape[1])
        return np.where(sums > 1e-12, raw / np.where(sums > 0, sums, 1.0), uniform)


ACTION_MEMO_CAP = 256  # observations a QPolicy remembers its greedy action for


class QPolicy(Policy):
    """Greedy/epsilon-soft policy over a QFunction, optionally restricted to
    actions whose behavior probability clears a threshold (falls back to the
    unrestricted argmax when no action qualifies).

    ``action_index`` remembers the greedy action of the first
    ``ACTION_MEMO_CAP`` distinct observations it scores, keyed on the shape
    and bytes of the validated row, so a finite observation space (windygrid
    has 50) pays one feature transform per observation rather than one per
    step.  Exploration draws stay in ``act``, so every action is the one the
    uncached computation gives.  The memo holds because ``q``, ``behavior``
    and ``bc_threshold`` are never written in place (nothing in hybench, its
    tests or demos does); a policy with other values is a new ``QPolicy``
    with an empty memo, and the memo is not serialized.  The cap exists
    because continuous observations (pendulum) never repeat: there an
    unbounded memo only grows the heap, and its tens of thousands of small
    entries shift glibc's heap layout enough to raise peak RSS by far more
    than their own few megabytes.
    """

    def __init__(self, q: QFunction, action_grid, epsilon: float = 0.0, seed: int = 0,
                 behavior: BehaviorModel | None = None, bc_threshold: float = 0.0):
        super().__init__(action_grid, epsilon=epsilon, seed=seed)
        self.q = q
        self.behavior = behavior
        self.bc_threshold = float(bc_threshold)
        self._memo: dict[tuple, int] = {}

    def action_index(self, obs) -> int:
        row = np.asarray(obs, dtype=float)[None, :]
        key = (row.shape, row.tobytes())  # a (1, d) obs keeps failing as (1, 1, d)
        a = self._memo.get(key)
        if a is not None:
            return a
        scores = self.q.values(row)[0]
        if self.behavior is not None and self.bc_threshold > 0.0:
            mask = self.behavior.probs_batch(row)[0] >= self.bc_threshold
            if mask.any():
                scores = np.where(mask, scores, -np.inf)
        a = int(np.argmax(scores))
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


class _Block:
    """Feature-expanded transition block for one data source.

    ``grams`` holds the per-action feature grams Phi_k^T Phi_k, which add
    across blocks and rows.  ``mask2`` optionally restricts which next-state
    actions the Bellman argmax may consider (rows with an empty mask fall
    back to all actions).  ``mc_returns`` holds the observed discounted
    reward-to-go, an exact lower bound on the optimal episodic action value
    when the dynamics are deterministic.
    """

    def __init__(self, fm: FeatureMap, basis: np.ndarray, O, A, R, O2, D,
                 mask2=None, mc_returns=None, boot_gamma=None):
        self.A = np.asarray(A, dtype=int)
        self.R = np.asarray(R, dtype=float)
        self.D = np.asarray(D, dtype=bool)
        self.Phi = fm.transform(np.asarray(O))
        self.Phi2 = fm.transform(np.asarray(O2))
        self.n = len(self.A)
        self.boot_gamma = boot_gamma  # bootstrap discount (gamma^n for n-step rows)
        F = self.Phi.shape[1]
        self.grams = np.empty((basis.shape[1], F, F))
        for k, gram in enumerate(self.grams):
            Phi_k = self.Phi[self.A == k]
            np.matmul(Phi_k.T, Phi_k, out=gram)
        if mask2 is not None:
            mask2 = np.array(mask2, dtype=bool)
            mask2[~mask2.any(axis=1)] = True
        self.mask2 = mask2
        self.G = None if mc_returns is None else np.asarray(mc_returns, float)


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
    convention.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    policy.reseed(derived_seed(seed, EVAL_POLICY))
    returns = np.empty(episodes)
    for ep in range(episodes):
        obs = env.reset(seed=derived_seed(seed, EVAL_ENV) if ep == 0 else None)
        total = 0.0
        while True:
            res = env.step(policy.act(obs, greedy=True))
            total += res.reward
            if res.done:
                break
            obs = res.obs
        returns[ep] = total
    std = float(np.std(returns, ddof=1)) if episodes > 1 else 0.0
    return float(returns.mean()), std


# ---------------------------------------------------------------------------
# Online fitted-Q
# ---------------------------------------------------------------------------


@dataclass
class OnlineTrainResult:
    policy: QPolicy
    curve: list[tuple[int, float]]  # (env steps, mean eval return) per sweep
    checkpoints: list[dict]  # per sweep: weights and env steps
    replay: tuple  # (O, A, R, O2, D) columns, one row per env step
    features: FeatureMap
    action_grid: tuple
    gamma: float
    action_design: str
    best_index: int = -1

    def checkpoint_policy(self, index: int) -> QPolicy:
        ck = self.checkpoints[index]
        q = QFunction(self.features, ck["weights"].copy(), self.gamma,
                      self.action_design,
                      _action_basis(self.action_grid, self.action_design))
        return QPolicy(q, self.action_grid)

    def replay_prefix(self, index: int) -> tuple:
        """The replay columns as they stood at checkpoint ``index``."""
        n = self.checkpoints[index]["steps"]  # one replay row per env step
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
    if budget is not None:
        horizon = getattr(env.params, "horizon", 1)
        per_sweep = max(config.episodes_per_sweep * horizon, 1)
        sweeps = max(1, min(sweeps, int(np.ceil(budget / per_sweep))))

    policy = None  # greedy policy of the latest fit
    grid_arr = np.asarray(grid)
    replay: list[tuple] = []  # per episode: (O, A, R, O2, D) columns
    fit_rows: list[tuple] = []  # per episode: n-step (O, A index, R, O2, D, G)
    curve: list[tuple[int, float]] = []
    checkpoints: list[dict] = []
    steps = 0
    seeded = False

    n_step = int(config.n_step)
    gtail = config.gamma ** np.arange(n_step)

    for sweep in range(sweeps):
        frac = sweep / max(sweeps - 1, 1)
        sweep_eps = config.epsilon_start + frac * (
            config.epsilon_end - config.epsilon_start
        )
        for episode in range(config.episodes_per_sweep):
            # optional near-greedy episodes per sweep: uninterrupted
            # demonstrations of the current policy feed the reward-to-go
            # lower bound
            demo = episode < config.greedy_demo_episodes and policy is not None
            eps = config.epsilon_end if demo else sweep_eps
            obs = env.reset(seed=derived_seed(seed, TRAIN_ENV) if not seeded else None)
            seeded = True
            done = False
            ep_obs: list[np.ndarray] = [obs]
            ep_a: list[int] = []
            ep_r: list[float] = []
            hold = 0
            a_idx = 0
            while not done:
                if hold > 0:
                    hold -= 1  # keep the previous exploratory action
                elif explore.random() < eps or policy is None:
                    a_idx = int(explore.integers(K))
                    hold = int(explore.integers(config.explore_hold))
                else:
                    a_idx = policy.action_index(obs)
                res = env.step(grid[a_idx])
                ep_a.append(a_idx)
                ep_r.append(res.reward)
                ep_obs.append(res.obs)
                obs = res.obs
                done = res.done
                steps += 1
            T = len(ep_a)
            rew = np.asarray(ep_r)
            ep_O = np.stack(ep_obs)
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
            fit_rows.append((ep_O[:-1], np.asarray(ep_a), rew_n, ep_O[ahead], ahead == T,
                             np.asarray(tail[::-1])))
        O, A, R, O2, D, G = (np.concatenate(col) for col in zip(*fit_rows))
        block = _Block(fm, basis, O, A, R, O2, D,
                       mc_returns=G if config.mc_lower_bound else None,
                       boot_gamma=config.gamma ** n_step)
        W = _bellman_iterate([block], [1.0 / block.n], basis, config.gamma,
                             config.q_ridge, config.q_iterations,
                             None if policy is None else policy.q.weights)
        policy = QPolicy(
            QFunction(fm, W, config.gamma, config.q_action_design, basis), grid
        )
        score, _ = evaluate_policy(eval_env, policy, config.eval_episodes,
                                   derived_seed(seed, EVAL_ENV, sweep))
        curve.append((steps, score))
        checkpoints.append({"weights": W.copy(), "steps": steps})

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
    result = OnlineTrainResult(None, curve, checkpoints, replay_cols, fm, grid,
                               config.gamma, config.q_action_design, best)
    result.policy = result.checkpoint_policy(best)
    return result


def _grid_action(a):
    if isinstance(a, (np.floating, float)):
        return float(a)
    if isinstance(a, (np.integer, int)):
        return int(a)
    return a


# ---------------------------------------------------------------------------
# Offline behavior-constrained fitted-Q
# ---------------------------------------------------------------------------


@dataclass
class OfflineTrainResult:
    policy: QPolicy
    q: QFunction
    behavior: BehaviorModel


def _dataset_fit_arrays(dataset: Dataset, grid: tuple, config: AgentConfig, seed: int):
    O, A, R, O2, D = dataset.arrays()
    idx = actions_to_indices(A, grid)
    if len(O) > config.fit_cap:
        keep = derived_rng(seed, 0x5B5).choice(len(O), config.fit_cap, replace=False)
        keep.sort()
        O, idx, R, O2, D = O[keep], idx[keep], R[keep], O2[keep], D[keep]
    return O, idx, R, O2, D


def train_offline_bcq(dataset: Dataset, config: AgentConfig, seed: int = 0
                      ) -> OfflineTrainResult:
    """Behavior-constrained fitted-Q on a fixed dataset.

    The behavior model is a least-squares action classifier over the Q
    features; Bellman argmaxes (and the deployed policy) only consider
    actions with behavior probability >= bc_threshold, falling back to the
    global argmax when none qualifies.  bc_threshold = 0 is plain fitted-Q.
    """
    if len(dataset) == 0:
        raise ValueError("offline training requires a non-empty dataset")
    grid = _grid_from_dataset(dataset, config)
    basis = _action_basis(grid, config.q_action_design)
    K = len(grid)
    fm = _build_q_features(dataset.O.shape[1], config, seed)
    O, idx, R, O2, D = _dataset_fit_arrays(dataset, grid, config, seed)

    onehot = np.zeros((len(idx), K))
    onehot[np.arange(len(idx)), idx] = 1.0
    Phi = fm.transform(O)
    G = Phi.T @ Phi + config.q_ridge * np.eye(fm.output_dim)
    behavior = BehaviorModel(fm, np.linalg.solve(G, Phi.T @ onehot))

    mask2 = None
    if config.bc_threshold > 0.0:
        mask2 = behavior.probs_batch(O2) >= config.bc_threshold
    block = _Block(fm, basis, O, idx, R, O2, D, mask2=mask2)
    W = _bellman_iterate([block], [1.0 / block.n], basis, config.gamma,
                         config.q_ridge, config.offline_iterations, None)
    q = QFunction(fm, W, config.gamma, config.q_action_design, basis)
    policy = QPolicy(q, grid, behavior=behavior, bc_threshold=config.bc_threshold)
    return OfflineTrainResult(policy, q, behavior)


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

    epoch: np.ndarray  # (n,) int, like rollout, step, start_index, action_index, member
    rollout: np.ndarray
    step: np.ndarray
    start_index: np.ndarray
    action_index: np.ndarray
    member: np.ndarray
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
    def concat(cls, parts: list, obs_dim: int, with_sim: bool) -> "RolloutTrace":
        """Stack per-step parts in order; no parts give zero-row columns."""
        if not parts:
            i, x, f = np.zeros(0, dtype=int), np.zeros((0, obs_dim)), np.zeros(0)
            parts = [cls(i, i, i, i, i, i, x, x, x if with_sim else None,
                         np.zeros((0, obs_dim + 1)), f, f, f)]
        cols = zip(*([getattr(p, fld.name) for fld in fields(cls)] for p in parts))
        return cls(*(None if c[0] is None else np.concatenate(c) for c in cols))


@dataclass
class ModelBasedTrainResult:
    """``ensemble`` is None when ``rollout_horizon`` or ``rollout_batch`` is
    0: no rollout samples the model then, so none is fitted."""

    policy: QPolicy
    q: QFunction
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

    O, idx, R, O2, D = _dataset_fit_arrays(dataset, grid, config, seed)
    real = _Block(fm, basis, O, idx, R, O2, D)
    n_real = real.n

    rollout_rng = derived_rng(seed, ROLLOUT)
    q = None
    parts: list[RolloutTrace] = []  # one per rollout step; every array is new
    grid_arr = np.asarray(grid)
    discrete = isinstance(space, DiscreteActions)

    for epoch in range(config.epochs):
        if rollouts:
            starts = rollout_rng.integers(0, n_real, size=b)
            cur = O[starts]
            for j in range(config.rollout_horizon):
                explore_mask = rollout_rng.random(b) < config.rollout_epsilon
                randoms = rollout_rng.integers(K, size=b)
                if q is None:  # before the first fit every action is random
                    a_idx = randoms
                else:
                    a_idx = np.where(explore_mask, randoms, q.values(cur).argmax(axis=1))
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

                parts.append(RolloutTrace(
                    np.full(b, epoch), np.arange(b), np.full(b, j), starts, a_idx,
                    members, cur, next_obs, sim_next, draw, r_sample, pen, r_tilde))
                cur = next_obs

        blocks = [real]
        weights = [1.0 / n_real]
        if parts:
            SO, SA, SR, SO2 = (np.concatenate([getattr(p, name) for p in parts]) for name
                               in ("obs", "action_index", "penalized_reward", "next_obs"))
            syn_block = _Block(fm, basis, SO, SA, SR, SO2,
                               np.zeros(len(SO), dtype=bool))
            blocks = [real, syn_block]
            weights = [config.mix_real / n_real, (1.0 - config.mix_real) / len(SO)]
        W = _bellman_iterate(blocks, weights, basis, config.gamma, config.q_ridge,
                             config.q_iterations, None if q is None else q.weights)
        q = QFunction(fm, W, config.gamma, config.q_action_design, basis)

    trace = RolloutTrace.concat(parts, obs_dim, simulator is not None)
    return ModelBasedTrainResult(QPolicy(q, grid), q, ens, trace)


def _grid_action_space(grid: tuple):
    if all(isinstance(a, (int, np.integer)) for a in grid):
        return DiscreteActions(len(grid))
    vals = np.asarray(grid, dtype=float)
    return ContinuousActions(float(vals.min()), float(vals.max()), 1)


# ---------------------------------------------------------------------------
# Policy serialization (round-trip identity is the only contract)
# ---------------------------------------------------------------------------

POLICY_FORMAT_VERSION = "hybench-policy/1"


def policy_to_dict(policy: Policy) -> dict:
    out = {
        "format_version": POLICY_FORMAT_VERSION,
        "action_grid": [_grid_action(a) for a in policy.action_grid],
        "epsilon": policy.epsilon,
    }
    if isinstance(policy, UniformPolicy):
        out["type"] = "uniform"
        return out
    if isinstance(policy, QPolicy):
        out["type"] = "q"
        out["q"] = {
            "features": policy.q.features.to_dict(),
            "weights": policy.q.weights.tolist(),
            "gamma": policy.q.gamma,
            "action_design": policy.q.action_design,
        }
        out["bc_threshold"] = policy.bc_threshold
        if policy.behavior is not None:
            out["behavior"] = {
                "features": policy.behavior.features.to_dict(),
                "weights": policy.behavior.weights.tolist(),
            }
        return out
    raise TypeError(f"cannot serialize policy type {type(policy).__name__}")


def policy_from_dict(d: dict) -> Policy:
    check_format_version(d, POLICY_FORMAT_VERSION, "policy")
    grid = tuple(d["action_grid"])
    if d["type"] == "uniform":
        return UniformPolicy(grid)
    q_d = d["q"]
    design = q_d.get("action_design", "onehot")
    q = QFunction(FeatureMap.from_dict(q_d["features"]), np.array(q_d["weights"]),
                  q_d["gamma"], design, _action_basis(grid, design))
    behavior = None
    if "behavior" in d:
        behavior = BehaviorModel(
            FeatureMap.from_dict(d["behavior"]["features"]),
            np.array(d["behavior"]["weights"]),
        )
    return QPolicy(q, grid, epsilon=d["epsilon"], behavior=behavior,
                   bc_threshold=d.get("bc_threshold", 0.0))


def save_policy(policy: Policy, path) -> None:
    save_json(policy_to_dict(policy), path)


def load_policy(path) -> Policy:
    return policy_from_dict(load_json(path))
