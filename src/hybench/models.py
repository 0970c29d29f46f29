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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated, Literal

import numpy as np

from .envs import ContinuousActions, DiscreteActions
from .records import Count, Positive, Range
from .records import check_fields, load_json, read_value, read_versioned, save_json, write_record
from .seeding import derived_rng

if TYPE_CHECKING:
    from .data import Dataset


class ModelFitError(RuntimeError):
    """Raised when a regression cannot be solved as configured."""


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


FeatureKind = Literal["polynomial", "random_fourier"]


@dataclass(frozen=True)
class FeatureMap:
    """Deterministic feature expansion with a bias column.

    Two kinds: ``polynomial`` (all monomials up to a total ``degree``,
    optionally capped per input dimension by ``dim_degrees``) and
    ``random_fourier`` (``count`` cosine features with a frequency draw
    seeded by ``seed``, scaled by ``bandwidth``).  The fields are the map's
    identity; its tables are derived from them.  An affine input transform
    ``(x + shift) * scale`` (zeros and ones when None) exists purely for
    conditioning.
    """

    kind: FeatureKind
    input_dim: int
    shift: tuple[float, ...] | None = None
    scale: tuple[float, ...] | None = None
    degree: int | None = None
    count: Count | None = None
    bandwidth: Positive | None = None
    seed: int | None = None
    dim_degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        n = self.input_dim
        put = functools.partial(object.__setattr__, self)
        put("shift", (0.0,) * n if self.shift is None else tuple(map(float, self.shift)))
        put("scale", (1.0,) * n if self.scale is None else tuple(map(float, self.scale)))
        for name in ("shift", "scale", "dim_degrees"):
            value = getattr(self, name)
            if value is not None and len(value) != n:
                raise ValueError(f"feature map {name} must have one entry per input "
                                 f"dimension ({n}), got {len(value)}")
        for name in (("count", "bandwidth", "seed") if self.kind == "polynomial"
                     else ("degree", "dim_degrees")):
            if getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} feature map takes no {name}")
        put("_shift", np.array(self.shift))
        put("_scale", np.array(self.scale))
        if self.kind == "polynomial":
            read_value(int, self.degree, "degree")  # not null
            caps = self.dim_degrees or (self.degree,) * n
            exponents = [exps for d in range(self.degree + 1) for exps in _exponent_tuples(n, d)
                         if all(e <= caps[dim] for dim, e in exps)]
            # each monomial is a product of entries of a power table whose
            # column 0 is all ones and column k is Xs[:, dim] ** e for the
            # k-th distinct (dim, e); short monomials pad with column 0
            powers = sorted({p for exps in exponents for p in exps})
            slot = {p: k + 1 for k, p in enumerate(powers)}
            width = max(1, max(len(exps) for exps in exponents))
            put("_exponents", exponents)
            put("_powers", powers)
            put("_factors", np.array([[slot[p] for p in exps] + [0] * (width - len(exps))
                                      for exps in exponents], dtype=np.intp).T)
            put("output_dim", len(exponents))
        else:
            for name, tp in (("count", int), ("bandwidth", float), ("seed", int)):
                read_value(tp, getattr(self, name), name)  # not null
            put("bandwidth", float(self.bandwidth))
            rng = derived_rng(self.seed)
            put("_freqs", rng.standard_normal((self.count, n)) / self.bandwidth)
            put("_phases", rng.uniform(0.0, 2.0 * math.pi, size=self.count))
            put("output_dim", self.count + 1)  # + bias

    @classmethod
    def polynomial(cls, input_dim: int, degree: int, shift=None, scale=None,
                   dim_degrees=None) -> "FeatureMap":
        """All monomials of total degree <= ``degree``; ``dim_degrees``
        optionally caps the exponent per input dimension (on a finite grid of
        k levels per dimension, caps of k-1 give a complete full-rank basis).
        """
        return cls("polynomial", input_dim, shift, scale, degree=degree,
                   dim_degrees=dim_degrees)

    @classmethod
    def random_fourier(cls, input_dim: int, count: int, bandwidth: float,
                       seed: int, shift=None, scale=None) -> "FeatureMap":
        return cls("random_fourier", input_dim, shift, scale,
                   count=count, bandwidth=bandwidth, seed=seed)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """C-ordered feature rows of ``X`` (a 1-D ``X`` is one row).  When 2
        to n/2 of its n rows are distinct, keyed on their bytes (-0.0 is not
        0.0), each distinct row is computed once; else every row is (a lone
        row's random-Fourier product takes another BLAS kernel, whose bits
        differ from the same row's inside a batch)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.input_dim:
            raise ValueError(f"feature map expects input dim {self.input_dim}, got {X.shape[1]}")
        if X.ndim == 2 and len(X) >= 4 and self.input_dim:  # 2 <= distinct <= n/2 needs n >= 4
            X = np.ascontiguousarray(X)
            keys = X.view(np.dtype((np.void, X.itemsize * self.input_dim))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            if 2 <= len(first) <= len(X) / 2:
                return self._expand(X[first])[inverse]
        return self._expand(X)

    def _expand(self, X: np.ndarray) -> np.ndarray:
        """Feature rows of every row of a checked (n, input_dim) ``X``."""
        Xs = (X + self._shift) * self._scale
        if self.kind == "polynomial":
            table = np.empty((X.shape[0], len(self._powers) + 1))
            table[:, 0] = 1.0
            for k, (dim, e) in enumerate(self._powers, 1):
                table[:, k] = Xs[:, dim] ** e
            cols = np.take(table, self._factors[0], axis=1)  # table[:, idx] is F-ordered
            for idx in self._factors[1:]:
                cols *= table[:, idx]
            return cols
        Z = Xs @ self._freqs.T + self._phases
        phi = math.sqrt(2.0 / self.count) * np.cos(Z)
        return np.concatenate([np.ones((X.shape[0], 1)), phi], axis=1)


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
    read_value(Positive, ridge, "ridge")
    Phi = features.transform(X)
    W = _solve_ridge(Phi, Y, ridge)
    resid = val_Y - features.transform(val_X) @ W
    noise_var = np.mean(resid**2, axis=0)
    return GaussianRegressor(features, W, noise_var, float(ridge))


@dataclass(frozen=True)
class ModelConfig:
    """Configuration shared by direct and correction ensembles."""

    n_members: Count = 5
    ridge: Positive = 1e-3  # the fit's condition bound divides by the ridge
    holdout_fraction: Annotated[float, Range(0, 1, hi_open=True)] = 0.1
    seed: int = 0
    feature_kind: FeatureKind = "random_fourier"
    feature_count: Count = 256
    bandwidth: Positive = 1.0
    poly_degree: int = 3
    poly_dim_degrees: tuple[int, ...] | None = None
    input_shift: tuple[float, ...] | None = None
    input_scale: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)

    def feature_map(self, input_dim: int, member_seed: int) -> FeatureMap:
        if self.feature_kind == "polynomial":
            return FeatureMap.polynomial(input_dim, self.poly_degree, self.input_shift,
                                         self.input_scale, self.poly_dim_degrees)
        return FeatureMap.random_fourier(input_dim, self.feature_count, self.bandwidth,
                                         member_seed, self.input_shift, self.input_scale)


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

    members: tuple[GaussianRegressor, ...]
    mode: Literal["direct", "correction"]
    obs_dim: int
    action_space: DiscreteActions | ContinuousActions

    def __post_init__(self):
        check_fields(self)
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

ENSEMBLE_FORMAT_VERSION = "hybench-ensemble/2"


def ensemble_to_dict(ens: CorrectionEnsemble) -> dict:
    return {"format_version": ENSEMBLE_FORMAT_VERSION, **write_record(ens)}


def ensemble_from_dict(d: dict) -> CorrectionEnsemble:
    return read_versioned(CorrectionEnsemble, d, ENSEMBLE_FORMAT_VERSION, "ensemble")


def save_ensemble(ens: CorrectionEnsemble, path) -> None:
    save_json(ensemble_to_dict(ens), path)


def load_ensemble(path) -> CorrectionEnsemble:
    return ensemble_from_dict(load_json(path))
