"""Probabilistic ensemble dynamics models.

Closed-form linear-Gaussian regressors in fixed feature expansions stand in
for neural dynamics models.  One fit, :func:`fit_ensemble`, serves two modes:

* ``direct``    -- predict (next_obs, reward) from (obs, action);
* ``correction``-- predict (next_obs - simulator_next_obs, reward), i.e. an
  additive correction anchored to a simulator's one-step prediction.  The
  simulator's predictions are the plain (n, obs_dim) array that
  ``simulator.simulate_step(dataset.O, dataset.A)`` returns; passing it
  selects this mode.

Each ensemble member is trained on its own bootstrap resample (and, for
random Fourier features, its own feature draw); per-target-dimension residual
variance on a held-out split provides the Gaussian sampling width and the
uncertainty penalty used by model-based agents.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_format_version, load_json, save_json
from .envs import ContinuousActions, DiscreteActions
from .seeding import derived_rng


class ModelFitError(RuntimeError):
    """Raised when a regression cannot be solved as configured."""


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


FEATURE_KINDS = ("polynomial", "random_fourier")


class FeatureMap:
    """Deterministic feature expansion with a bias column.

    Two kinds: ``polynomial`` (all monomials up to a total degree) and
    ``random_fourier`` (cosine features with a seeded frequency draw).  An
    optional affine input transform ``(x + shift) * scale`` is part of the
    map's identity; it exists purely for conditioning.
    """

    def __init__(self, kind, input_dim, shift, scale, degree=None, count=None,
                 bandwidth=None, seed=None, dim_degrees=None):
        self.kind = kind
        self.input_dim = int(input_dim)
        self.shift = np.asarray(shift, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.degree = degree
        self.count = count
        self.bandwidth = bandwidth
        self.seed = seed
        self.dim_degrees = tuple(dim_degrees) if dim_degrees is not None else None
        if kind == "polynomial":
            self._exponents = [
                exps
                for d in range(degree + 1)
                for exps in _exponent_tuples(self.input_dim, d)
                if self._within_caps(exps)
            ]
            self.output_dim = len(self._exponents)
            # each monomial is a product of entries of a power table whose
            # column 0 is all ones and column k is Xs[:, dim] ** e for the
            # k-th distinct (dim, e); short monomials pad with column 0
            self._powers = sorted({p for exps in self._exponents for p in exps})
            slot = {p: k + 1 for k, p in enumerate(self._powers)}
            width = max(1, max(len(exps) for exps in self._exponents))
            self._factors = np.array(
                [[slot[p] for p in exps] + [0] * (width - len(exps))
                 for exps in self._exponents], dtype=np.intp
            ).T
        elif kind == "random_fourier":
            rng = derived_rng(int(seed))
            self._freqs = rng.standard_normal((count, self.input_dim)) / bandwidth
            self._phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
            self.output_dim = count + 1  # + bias
        else:
            raise ValueError(f"unknown feature kind {kind!r}")

    def _within_caps(self, exps) -> bool:
        if self.dim_degrees is None:
            return True
        return all(e <= self.dim_degrees[dim] for dim, e in exps)

    @classmethod
    def polynomial(cls, input_dim: int, degree: int, shift=None, scale=None,
                   dim_degrees=None) -> "FeatureMap":
        """All monomials of total degree <= ``degree``; ``dim_degrees``
        optionally caps the exponent per input dimension (on a finite grid of
        k levels per dimension, caps of k-1 give a complete full-rank basis).
        """
        if degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        shift = np.zeros(input_dim) if shift is None else shift
        scale = np.ones(input_dim) if scale is None else scale
        return cls("polynomial", input_dim, shift, scale, degree=int(degree),
                   dim_degrees=dim_degrees)

    @classmethod
    def random_fourier(cls, input_dim: int, count: int, bandwidth: float,
                       seed: int, shift=None, scale=None) -> "FeatureMap":
        if count < 1:
            raise ValueError("feature count must be >= 1")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        shift = np.zeros(input_dim) if shift is None else shift
        scale = np.ones(input_dim) if scale is None else scale
        return cls("random_fourier", input_dim, shift, scale,
                   count=int(count), bandwidth=float(bandwidth), seed=int(seed))

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"feature map expects input dim {self.input_dim}, got {X.shape[1]}"
            )
        Xs = (X + self.shift) * self.scale
        if self.kind == "polynomial":
            table = np.empty((X.shape[0], len(self._powers) + 1))
            table[:, 0] = 1.0
            for k, (dim, e) in enumerate(self._powers, 1):
                table[:, k] = Xs[:, dim] ** e
            cols = table[:, self._factors[0]]
            for idx in self._factors[1:]:
                cols *= table[:, idx]
            return cols
        Z = Xs @ self._freqs.T + self._phases
        phi = math.sqrt(2.0 / self.count) * np.cos(Z)
        return np.concatenate([np.ones((X.shape[0], 1)), phi], axis=1)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "shift": self.shift.tolist(),
            "scale": self.scale.tolist(),
        }
        if self.kind == "polynomial":
            out["degree"] = self.degree
            out["dim_degrees"] = (
                list(self.dim_degrees) if self.dim_degrees is not None else None
            )
        else:
            out.update(count=self.count, bandwidth=self.bandwidth, seed=self.seed)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMap":
        if d["kind"] == "polynomial":
            return cls.polynomial(d["input_dim"], d["degree"], d["shift"], d["scale"],
                                  d.get("dim_degrees"))
        return cls.random_fourier(
            d["input_dim"], d["count"], d["bandwidth"], d["seed"], d["shift"], d["scale"]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureMap) and self.to_dict() == other.to_dict()


def _exponent_tuples(dim: int, degree: int):
    """Non-zero (dim, exponent) pairs for every monomial of exact total degree."""
    if degree == 0:
        yield ()
        return
    for combo in itertools.combinations_with_replacement(range(dim), degree):
        exps = {}
        for d in combo:
            exps[d] = exps.get(d, 0) + 1
        yield tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# Model input encoding
# ---------------------------------------------------------------------------


def encode_model_input(obs: np.ndarray, actions, action_space) -> np.ndarray:
    """Stack observations with actions; discrete actions are one-hot."""
    O = np.asarray(obs, dtype=float)
    if O.ndim == 1:
        O = O[None, :]
    n = O.shape[0]
    if isinstance(action_space, DiscreteActions):
        A = np.zeros((n, action_space.count))
        A[np.arange(n), np.asarray(actions, dtype=int).reshape(n)] = 1.0
    else:
        A = np.asarray(actions, dtype=float).reshape(n, action_space.dim)
    return np.concatenate([O, A], axis=1)


# ---------------------------------------------------------------------------
# Gaussian regressor and ensemble
# ---------------------------------------------------------------------------


@dataclass
class GaussianRegressor:
    features: FeatureMap
    weights: np.ndarray  # (F, T)
    noise_var: np.ndarray  # (T,)
    ridge: float

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        return self.features.transform(X) @ self.weights

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianRegressor)
            and self.features == other.features
            and self.ridge == other.ridge
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.noise_var, other.noise_var)
        )


# Largest proven condition bound of the ridge gram that is factored directly:
# the normal equations then lose at most about kappa * eps ~ 1e-7 relative.
_CHOLESKY_MAX_COND = 1e9


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, written over ``L`` in place, by
    2x2 block recursion, inv([[A, 0], [C, D]]) = [[Ai, 0], [-Di C Ai, Di]].
    numpy has no triangular solve; this keeps all but the small leaves in
    matrix products, and in place no second n x n array is allocated."""
    n = L.shape[0]
    if n <= 128:
        L[...] = np.linalg.inv(L)
        return L
    h = n // 2
    _tril_inverse(L[:h, :h])
    _tril_inverse(L[h:, h:])
    L[h:, :h] = -L[h:, h:] @ (L[h:, :h] @ L[:h, :h])
    return L


def _solve_ridge(Phi: np.ndarray, Y: np.ndarray, ridge: float) -> np.ndarray:
    # Every eigenvalue of G = Phi^T Phi + ridge I lies in [ridge, tr(G)], so
    # kappa_2(G) <= tr(G) / ridge, read off Phi before G is formed.  Within
    # _CHOLESKY_MAX_COND, G is factored, G = L L^T, and W = L^-T (L^-1 Phi^T Y)
    # as in fitted-Q.  Random-Fourier rows have squared norm about 2, so their
    # bound is about 2n / ridge (4e7 for 18k rows at ridge 1e-3).  Monomial
    # bases read 1e12 and up; for them, and when the factor fails or W is not
    # finite, the augmented least-squares problem is solved instead: its
    # orthogonal method keeps the conditioning from squaring.
    F = Phi.shape[1]
    bound = (np.linalg.norm(Phi) ** 2 + F * ridge) / ridge
    if not np.isfinite(bound):  # NaN/inf features would reach LAPACK
        raise ModelFitError("non-finite features: the feature matrix holds NaN or inf")
    if bound <= _CHOLESKY_MAX_COND:
        G = Phi.T @ Phi
        G[np.diag_indices(F)] += ridge
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            pass
        else:
            del G  # free the gram before the inverse's temporaries are allocated
            linv = _tril_inverse(L)
            W = linv.T @ (linv @ (Phi.T @ Y))
            if np.isfinite(W).all():
                return W
    A = np.concatenate([Phi, math.sqrt(ridge) * np.eye(F)], axis=0)
    b = np.concatenate([Y, np.zeros((F, Y.shape[1]))], axis=0)
    try:
        W, *_ = np.linalg.lstsq(A, b, rcond=None)
        if not np.isfinite(W).all():
            raise np.linalg.LinAlgError("non-finite solution")
        return W
    except np.linalg.LinAlgError as exc:
        raise ModelFitError(
            f"singular normal equations at ridge={ridge}; increase the ridge "
            "or reduce the feature count"
        ) from exc


def fit_gaussian_regressor(
    features: FeatureMap,
    X: np.ndarray,
    Y: np.ndarray,
    ridge: float,
    val_X: np.ndarray,
    val_Y: np.ndarray,
) -> GaussianRegressor:
    if ridge <= 0:
        raise ValueError("ridge must be > 0")
    Phi = features.transform(X)
    W = _solve_ridge(Phi, Y, ridge)
    resid = val_Y - features.transform(val_X) @ W
    noise_var = np.mean(resid**2, axis=0)
    return GaussianRegressor(features, W, noise_var, float(ridge))


@dataclass(frozen=True)
class ModelConfig:
    """Configuration shared by direct and correction ensembles."""

    n_members: int = 5
    ridge: float = 1e-3
    holdout_fraction: float = 0.1
    seed: int = 0
    feature_kind: str = "random_fourier"
    feature_count: int = 256
    bandwidth: float = 1.0
    poly_degree: int = 3
    poly_dim_degrees: tuple | None = None
    input_shift: tuple | None = None
    input_scale: tuple | None = None

    def __post_init__(self):
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown model feature_kind {self.feature_kind!r}; "
                             f"valid: {FEATURE_KINDS}")
        if not self.ridge > 0:  # the fit's condition bound divides by it
            raise ValueError(f"model ridge must be > 0, got {self.ridge}")
        for name in ("n_members", "feature_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"model {name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError("model holdout_fraction must be in [0, 1), "
                             f"got {self.holdout_fraction}")

    def feature_map(self, input_dim: int, member_seed: int) -> FeatureMap:
        shift = self.input_shift
        scale = self.input_scale
        if self.feature_kind == "polynomial":
            return FeatureMap.polynomial(input_dim, self.poly_degree, shift, scale,
                                         self.poly_dim_degrees)
        return FeatureMap.random_fourier(
            input_dim, self.feature_count, self.bandwidth, member_seed, shift, scale
        )


def disagreement(mus: np.ndarray) -> np.ndarray:
    """The uncertainty penalty, always >= 0: the largest member deviation
    from the ensemble mean, per row of the (N, n, T) member means."""
    center = mus.mean(axis=0)
    return np.linalg.norm(mus - center, axis=2).max(axis=0)


@dataclass
class CorrectionEnsemble:
    """Ensemble over targets (state-part, reward); ``mode`` fixes whether the
    state-part is the next observation itself or a correction added to a
    simulator's prediction."""

    members: list[GaussianRegressor]
    mode: str  # "direct" | "correction"
    obs_dim: int
    action_space: DiscreteActions | ContinuousActions

    def __post_init__(self):
        if self.mode not in ("direct", "correction"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        dims = {m.weights.shape for m in self.members}
        if len(dims) != 1:
            raise ValueError("ensemble members must share input/target dimensions")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def member_means(self, obs, actions) -> np.ndarray:
        """Raw member mean targets, shape (N, n, T)."""
        X = encode_model_input(obs, actions, self.action_space)
        return np.stack([m.predict_mean(X) for m in self.members])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CorrectionEnsemble)
            and self.mode == other.mode
            and self.obs_dim == other.obs_dim
            and self.action_space == other.action_space
            and self.members == other.members
        )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _dataset_action_space(dataset: Dataset):
    A = dataset.arrays()[1]
    if np.issubdtype(A.dtype, np.integer):
        return DiscreteActions(int(A.max()) + 1)
    dim = 1 if A.ndim == 1 else A.shape[1]
    return ContinuousActions(float(A.min()), float(A.max()), dim)


def fit_ensemble(dataset: Dataset, config: ModelConfig, sim_next_obs=None,
                 action_space=None) -> CorrectionEnsemble:
    """Fit the ensemble on (obs, action) for (next_obs, reward) in direct
    mode, or, given the simulator's predictions ``sim_next_obs`` (from its
    ``simulate_step``), for (next_obs - sim_next_obs, reward) in correction
    mode.

    In correction mode the next observation enters training only through
    that residual, so a constant shared shift of both leaves the fit
    unchanged.
    """
    O, A, R, O2, _ = dataset.arrays()
    n = len(O)
    if n < 2:
        raise ValueError("need at least 2 records to fit an ensemble")
    if sim_next_obs is not None and np.shape(sim_next_obs) != O2.shape:
        raise ValueError(f"sim_next_obs must have shape {O2.shape}, "
                         f"got {np.shape(sim_next_obs)}")
    space = action_space if action_space is not None else _dataset_action_space(dataset)
    X = encode_model_input(O, A, space)
    state = O2 if sim_next_obs is None else O2 - sim_next_obs
    Y = np.concatenate([state, R[:, None]], axis=1)
    split_rng = derived_rng(config.seed, 0xF17)
    perm = split_rng.permutation(n)
    n_val = max(1, int(round(n * config.holdout_fraction)))
    n_val = min(n_val, n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    members = []
    for i in range(config.n_members):
        member_rng = derived_rng(config.seed, 0xB00, i)
        rows = train_idx[member_rng.integers(0, len(train_idx), len(train_idx))]
        fm = config.feature_map(X.shape[1], derived_rng(config.seed, 0xFEA, i).integers(2**31))
        members.append(
            fit_gaussian_regressor(fm, X[rows], Y[rows], config.ridge,
                                   X[val_idx], Y[val_idx])
        )
    mode = "direct" if sim_next_obs is None else "correction"
    return CorrectionEnsemble(members, mode, O.shape[1], space)


# ---------------------------------------------------------------------------
# Serialization (round-trip identity is the only contract)
# ---------------------------------------------------------------------------

ENSEMBLE_FORMAT_VERSION = "hybench-ensemble/1"


def ensemble_to_dict(ens: CorrectionEnsemble) -> dict:
    if isinstance(ens.action_space, DiscreteActions):
        space = {"type": "discrete", "count": ens.action_space.count}
    else:
        space = {
            "type": "continuous",
            "low": ens.action_space.low,
            "high": ens.action_space.high,
            "dim": ens.action_space.dim,
        }
    return {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "mode": ens.mode,
        "obs_dim": ens.obs_dim,
        "action_encoding": "onehot",
        "action_space": space,
        "members": [
            {
                "features": m.features.to_dict(),
                "weights": m.weights.tolist(),
                "noise_var": m.noise_var.tolist(),
                "ridge": m.ridge,
            }
            for m in ens.members
        ],
    }


def ensemble_from_dict(d: dict) -> CorrectionEnsemble:
    check_format_version(d, ENSEMBLE_FORMAT_VERSION, "ensemble")
    if d.get("action_encoding", "onehot") != "onehot":
        raise ValueError(f"unsupported action encoding {d['action_encoding']!r}; "
                         "expected 'onehot'")
    space_d = d["action_space"]
    if space_d["type"] == "discrete":
        space = DiscreteActions(space_d["count"])
    else:
        space = ContinuousActions(space_d["low"], space_d["high"], space_d["dim"])
    members = [
        GaussianRegressor(
            FeatureMap.from_dict(m["features"]),
            np.array(m["weights"]),
            np.array(m["noise_var"]),
            m["ridge"],
        )
        for m in d["members"]
    ]
    return CorrectionEnsemble(members, d["mode"], d["obs_dim"], space)


def save_ensemble(ens: CorrectionEnsemble, path) -> None:
    save_json(ensemble_to_dict(ens), path)


def load_ensemble(path) -> CorrectionEnsemble:
    return ensemble_from_dict(load_json(path))
