import dataclasses
import json
import math

import numpy as np
import pytest

import hybench as hb
from hybench import agents, data, models
from hybench.envs import EnvError, Environment
from hybench.models import FeatureMap, ModelConfig, encode_model_input
from hybench.records import read_record, write_record


@pytest.fixture(scope="module")
def pendulum_random_dataset():
    env = hb.make_env("pendulum")
    pol = agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=0)
    return data.collect_dataset(env, pol, 12_000, "observed", seed=0)


def model_config(env_name="pendulum", **over):
    env = hb.make_env(env_name)
    cfg = dataclasses.replace(agents.default_agent_config(env).model, seed=17)
    return dataclasses.replace(cfg, **over)


def split(ds, n_train):
    tr = data.Dataset(
        dataclasses.replace(ds.meta, record_count=n_train),
        *(col[:n_train] for col in ds.arrays()),
    )
    O, A, R, O2, _ = (col[n_train:] for col in ds.arrays())
    return tr, O, A, R, O2


def test_unknown_feature_kind_rejected():
    # "poly" used to fall through to random-Fourier features
    with pytest.raises(ValueError, match="feature_kind"):
        ModelConfig(feature_kind="poly")


@pytest.mark.parametrize("field,value", [
    ("ridge", 0.0),  # these two used to fail inside the ensemble fit
    ("ridge", -1.0),
    ("n_members", 0),  # used to fail after every member was skipped
    ("holdout_fraction", 1.5),  # used to leave one training record
    ("holdout_fraction", -0.1),
    ("feature_count", 0),  # used to fail in the first member's feature map
])
def test_bad_model_value_rejected_naming_field(field, value):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    # all of these used to construct; n_members 2.5 then failed in the fit
    ("n_members", 2.5),
    ("feature_count", True),
    ("poly_degree", 1.5),
    ("seed", -1),
    ("poly_dim_degrees", (1, 1.5)),
])
def test_non_integer_model_count_rejected_naming_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be (an integer|a list of integers)"):
        ModelConfig(**{field: value})


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, -0.0 differs
    from 0.0 and a NaN equals itself."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def windygrid_model_data():
    """(obs, one-hot action) model inputs and (next_obs, reward) targets of
    2000 uniform windygrid records: few distinct rows, many repeats."""
    env = hb.make_env("windygrid")
    pol = agents.UniformPolicy((0, 1, 2, 3), seed=0)
    O, A, R, O2, _ = data.collect_dataset(env, pol, 2000, "observed", seed=0).arrays()
    X = encode_model_input(O, A, env.action_space)
    return X, np.concatenate([O2, R[:, None]], axis=1)


def windygrid_model_map(seed=3) -> FeatureMap:
    return model_config("windygrid").feature_map(7, seed)


def transform_rows(monkeypatch) -> list:
    """The row count of each call of the row kernel ``FeatureMap._expand``
    from now on: the rows actually computed."""
    calls = []
    expand = FeatureMap._expand

    def spy(self, rows):
        calls.append(len(rows))
        return expand(self, rows)

    monkeypatch.setattr(FeatureMap, "_expand", spy)
    return calls


def transformed_rows(monkeypatch, fm, X):
    """``fm.transform(X)`` and the row count of each kernel call it made."""
    with monkeypatch.context() as m:
        calls = transform_rows(m)
        return fm.transform(X), calls


class TestFeatureMap:
    def test_polynomial_output_dim(self):
        fm = FeatureMap.polynomial(3, 4)
        assert fm.output_dim == math.comb(3 + 4, 4)
        fm0 = FeatureMap.polynomial(0, 3)
        assert fm0.output_dim == 1  # bias only

    def test_dim_capped_polynomial(self):
        fm = FeatureMap.polynomial(3, 9, dim_degrees=(4, 4, 1))
        assert fm.output_dim == 5 * 5 * 2

    def test_polynomial_columns_are_monomials(self):
        fm = FeatureMap.polynomial(3, 4, shift=(0.5, 0, -1), scale=(1, 2, 0.5),
                                   dim_degrees=(4, 2, 1))
        X = np.random.default_rng(2).normal(size=(6, 3))
        Xs = (X + fm.shift) * fm.scale
        Phi = fm.transform(X)
        assert Phi.shape == (6, fm.output_dim)
        for j, exps in enumerate(fm._exponents):
            col = np.ones(len(X))
            for dim, e in exps:
                col = col * Xs[:, dim] ** e
            assert np.array_equal(Phi[:, j], col), exps
        assert np.array_equal(fm.transform(X[2]), Phi[2:3])

    def test_random_fourier_output_dim_and_determinism(self):
        a = FeatureMap.random_fourier(3, 64, 1.0, seed=5)
        b = FeatureMap.random_fourier(3, 64, 1.0, seed=5)
        X = np.random.default_rng(0).normal(size=(10, 3))
        assert a.output_dim == 65
        assert np.array_equal(a.transform(X), b.transform(X))
        c = FeatureMap.random_fourier(3, 64, 1.0, seed=6)
        assert not np.array_equal(a.transform(X), c.transform(X))

    def test_serialization_round_trip(self):
        for fm in (
            FeatureMap.polynomial(3, 5, shift=(0, 0, -1), scale=(1, 1, 0.5)),
            FeatureMap.polynomial(2, 3, dim_degrees=(2, 1)),
            FeatureMap.random_fourier(4, 32, 0.7, seed=9),
        ):
            back = read_record(FeatureMap, write_record(fm), "feature map")
            assert back == fm
            X = np.random.default_rng(1).normal(size=(5, fm.input_dim))
            assert np.array_equal(back.transform(X), fm.transform(X))


    @pytest.mark.parametrize("kwargs,field", [
        (dict(kind="x", input_dim=2), "kind"),
        (dict(kind="polynomial", input_dim=3, degree=2, shift=(0.0,)), "shift"),
        (dict(kind="polynomial", input_dim=3, degree=2, scale=(1.0,)), "scale"),
        (dict(kind="polynomial", input_dim=3, degree=2, dim_degrees=(1,)), "dim_degrees"),
        (dict(kind="polynomial", input_dim=3, degree=-1), "degree"),
        (dict(kind="polynomial", input_dim=3), "degree"),
        (dict(kind="polynomial", input_dim=3, degree=2, seed=1), "seed"),
        (dict(kind="random_fourier", input_dim=3, count=8, bandwidth=1.0), "seed"),
        (dict(kind="random_fourier", input_dim=3, count=8, bandwidth=1.0, seed=2.5), "seed"),
        (dict(kind="random_fourier", input_dim=3, count=0, bandwidth=1.0, seed=1), "count"),
        (dict(kind="random_fourier", input_dim=3, count=8, bandwidth=0.0, seed=1),
         "bandwidth"),
        (dict(kind="random_fourier", input_dim=3, count=8, bandwidth=1.0, seed=1,
              scale=(1.0, 2.0)), "scale"),
    ])
    def test_bad_setting_fails_at_construction_naming_field(self, kwargs, field):
        # short shift, scale and dim_degrees used to broadcast or fail with an
        # IndexError; a missing seed failed with a TypeError
        with pytest.raises(ValueError, match=field):
            FeatureMap(**kwargs)

    def test_short_input_scale_fails_before_training(self):
        # a length-1 q_input_scale on the 3-dim windygrid used to train
        env = hb.make_env("windygrid")
        cfg = dataclasses.replace(agents.default_agent_config(env), q_input_scale=(1.0,))
        with pytest.raises(ValueError, match="scale"):
            agents.train_online_q(env, cfg, seed=0, budget=50)


FEATURE_MAPS = {
    "polynomial": FeatureMap.polynomial(3, 4, shift=(0.5, 0.0, -1.0), scale=(1.0, 2.0, 0.5)),
    "random_fourier": FeatureMap.random_fourier(3, 256, 0.7, seed=5, scale=(1.0, 2.0, 0.5)),
}


class TestTransformDistinct:
    """``FeatureMap.transform`` computes each distinct row once when 2 to
    n/2 of its n rows are distinct, with the bits of computing every row."""

    @pytest.mark.parametrize("kind", sorted(FEATURE_MAPS))
    @pytest.mark.parametrize("distinct,transformed", [
        (1, 120),  # one distinct row: every row is computed
        (2, 2),
        (3, 3),
        (50, 50),
        (60, 60),  # exactly half
        (61, 120),  # more than half: every row is computed
        (120, 120),  # all distinct
    ])
    def test_equals_transform_bit_for_bit(self, monkeypatch, kind, distinct, transformed):
        fm = FEATURE_MAPS[kind]
        rng = np.random.default_rng(distinct)
        base = rng.normal(size=(distinct, 3))
        X = base[rng.permutation(np.resize(np.arange(distinct), 120))]
        out, calls = transformed_rows(monkeypatch, fm, X)
        assert calls == [transformed]
        assert same_bits(out, fm._expand(X))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("kind", sorted(FEATURE_MAPS))
    def test_rows_keyed_on_their_bytes(self, monkeypatch, kind):
        # -0.0 and 0.0, and NaNs with different payloads, are different rows
        other_nan = (np.array([np.nan]).view(np.uint64) | 1).view(float)[0]
        keys = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, -0.0, 2.0],
                         [np.nan, 1.0, 2.0], [other_nan, 1.0, 2.0]])
        X = np.tile(keys, (4, 1))
        fm = FEATURE_MAPS[kind]
        out, calls = transformed_rows(monkeypatch, fm, X)
        assert calls == [len(keys)]
        assert same_bits(out, fm._expand(X))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("kind", sorted(FEATURE_MAPS))
    def test_one_dimensional_input_is_one_row(self, kind):
        fm = FEATURE_MAPS[kind]
        x = np.array([0.3, -1.0, 2.0])
        assert same_bits(fm.transform(x), fm._expand(x[None, :]))
        assert fm.transform(x).shape == (1, fm.output_dim)
        assert fm.transform(x).flags.c_contiguous

    def test_wrong_input_dim_named(self):
        with pytest.raises(ValueError, match="input dim 3, got 2"):
            FEATURE_MAPS["polynomial"].transform(np.zeros((10, 2)))

    def test_nan_input_still_raises_fit_error(self, windygrid_model_data):
        X, Y = windygrid_model_data
        X = X.copy()
        X[7, 0] = np.nan
        with pytest.raises(models.ModelFitError, match="non-finite features"):
            models.fit_gaussian_regressor(windygrid_model_map(), X, Y, 1e-3, X[:50], Y[:50])

    @pytest.mark.parametrize("fm", [
        windygrid_model_map(),
        FeatureMap.random_fourier(4, 256, 1.0, seed=11, scale=(1.0, 1.0, 0.125, 0.5)),
    ], ids=["windygrid_model", "pendulum_model"])
    def test_random_fourier_rows_match_inside_any_batch_of_two_or_more(self, fm):
        # what the dedupe rests on: a row's random-Fourier features do not
        # depend on the other rows of a batch of 2 or more (a batch of one
        # goes through a different BLAS kernel, so it is not used)
        X = np.random.default_rng(4).normal(size=(300, fm.input_dim))
        full = fm._expand(X)
        for size in (2, 3, 5, 17, 64, 139, 299):
            for start in (0, 1):
                rows = slice(start, start + size)
                assert same_bits(fm._expand(X[rows]), full[rows]), (size, start)
        order = np.random.default_rng(5).permutation(len(X))
        assert same_bits(fm._expand(X[order]), full[order])

    def test_fit_on_repeated_rows_equals_hand_solve(self, windygrid_model_data,
                                                    monkeypatch):
        X, Y = windygrid_model_data
        rng = np.random.default_rng(6)
        rows, val = rng.integers(len(X), size=1800), np.arange(200)
        fm = windygrid_model_map()
        with monkeypatch.context() as m:
            calls = transform_rows(m)
            reg = models.fit_gaussian_regressor(fm, X[rows], Y[rows], 1e-3, X[val], Y[val])
        # the fit transformed the distinct rows of its training and validation inputs
        assert calls == [len(np.unique(X[rows], axis=0)), len(np.unique(X[val], axis=0))]
        assert calls[0] < 200
        W = models._solve_ridge(fm._expand(X[rows]), Y[rows], 1e-3)
        noise_var = np.mean((Y[val] - fm._expand(X[val]) @ W) ** 2, axis=0)
        assert same_bits(reg.weights, W)
        assert same_bits(reg.noise_var, noise_var)


class TestAugmentation:
    def test_perfect_simulator_reproduces_next_obs(self, pendulum_random_dataset):
        ds = pendulum_random_dataset
        sim_next = hb.make_env("pendulum").simulate_step(ds.O, ds.A)
        O2 = pendulum_random_dataset.O2
        assert np.abs(sim_next - O2).max() < 1e-9

    def test_wrong_simulator_has_gap(self, pendulum_random_dataset):
        sim = hb.with_transition_error(hb.make_env("pendulum"), {"gravity": 19.62})
        sim_next = sim.simulate_step(pendulum_random_dataset.O, pendulum_random_dataset.A)
        O2 = pendulum_random_dataset.O2
        assert np.linalg.norm(sim_next - O2, axis=1).mean() > 0.01

    def test_deterministic(self, pendulum_random_dataset):
        sim = hb.make_env("pendulum")
        a = sim.simulate_step(pendulum_random_dataset.O, pendulum_random_dataset.A)
        b = sim.simulate_step(pendulum_random_dataset.O, pendulum_random_dataset.A)
        assert np.array_equal(a, b)

    def test_uninvertible_observation_raises(self, pendulum_random_dataset):
        broken = data.corrupt_hide_dims(pendulum_random_dataset, [0, 1])
        with pytest.raises(EnvError):
            hb.make_env("pendulum").simulate_step(broken.O, broken.A)


class TestCorrectionEnsemble:
    def test_perfect_simulator_learns_zero(self, pendulum_random_dataset):
        tr, O, A, R, O2 = split(pendulum_random_dataset, 10_000)
        ens = models.fit_ensemble(
            tr, model_config(), hb.make_env("pendulum").simulate_step(tr.O, tr.A)
        )
        X = encode_model_input(O, A, ens.action_space)
        pred = np.stack([m.predict_mean(X) for m in ens.members]).mean(axis=0)[:, :3]
        assert np.linalg.norm(pred, axis=1).mean() <= 0.05 * np.linalg.norm(
            O2 - O, axis=1
        ).mean()

    def test_constant_bias_recovered(self, pendulum_random_dataset):
        beta = 0.3

        class BiasedSim(hb.PendulumEnv):
            def simulate_step(self, obs, actions):
                nxt = super().simulate_step(obs, actions)
                nxt[:, 2] += beta
                return nxt

        tr, O, A, R, O2 = split(pendulum_random_dataset, 10_000)
        ens = models.fit_ensemble(tr, model_config(), BiasedSim().simulate_step(tr.O, tr.A))
        X = encode_model_input(O, A, ens.action_space)
        pred = np.stack([m.predict_mean(X) for m in ens.members]).mean(axis=0)
        assert abs(pred[:, 2].mean() - (-beta)) < 0.1 * beta

    def test_zero_simulator_as_hard_as_direct(self, pendulum_random_dataset):
        # a constant-zero anchor makes the correction target equal the next
        # observation itself, i.e. exactly the direct problem
        class ZeroSim(hb.PendulumEnv):
            def simulate_step(self, obs, actions):
                return np.zeros(np.shape(obs))

        tr, O, A, R, O2 = split(pendulum_random_dataset, 10_000)
        cfg = model_config()
        corr = models.fit_ensemble(tr, cfg, ZeroSim().simulate_step(tr.O, tr.A))
        direct = models.fit_ensemble(tr, cfg)
        X = encode_model_input(O, A, corr.action_space)
        mse_corr = np.mean(
            (np.stack([m.predict_mean(X) for m in corr.members]).mean(0)[:, :3] - O2) ** 2
        )
        mse_direct = np.mean(
            (np.stack([m.predict_mean(X) for m in direct.members]).mean(0)[:, :3] - O2) ** 2
        )
        assert abs(mse_corr - mse_direct) <= 0.1 * mse_direct

    def test_reads_next_obs_only_through_residual(self, pendulum_random_dataset):
        tr, *_ = split(pendulum_random_dataset, 4_000)
        cfg = model_config()
        sim_next = hb.make_env("pendulum").simulate_step(tr.O, tr.A)
        shift = 2.5
        shifted = data.Dataset(tr.meta, tr.O, tr.A, tr.R, tr.O2 + shift, tr.D)
        a = models.fit_ensemble(tr, cfg, sim_next)
        b = models.fit_ensemble(shifted, cfg, sim_next + shift)
        for ma, mb in zip(a.members, b.members):
            assert np.allclose(ma.weights, mb.weights, atol=1e-9)

    def test_mode_follows_sim_next_obs(self, pendulum_random_dataset):
        tr, *_ = split(pendulum_random_dataset, 300)
        cfg = model_config(n_members=1)
        assert models.fit_ensemble(tr, cfg).mode == "direct"
        assert models.fit_ensemble(tr, cfg, np.zeros(tr.O2.shape)).mode == "correction"
        with pytest.raises(ValueError, match="sim_next_obs"):
            models.fit_ensemble(tr, cfg, np.zeros((299, 3)))

    def test_members_differ_by_bootstrap(self, pendulum_random_dataset):
        tr, *_ = split(pendulum_random_dataset, 4_000)
        ens = models.fit_ensemble(tr, model_config())
        dists = [
            np.abs(a.weights - b.weights).max()
            for i, a in enumerate(ens.members)
            for b in ens.members[i + 1:]
        ]
        assert max(dists) > 0

    def test_direct_one_step_rmse(self, pendulum_random_dataset):
        tr, O, A, R, O2 = split(pendulum_random_dataset, 10_000)
        ens = models.fit_ensemble(tr, model_config())
        X = encode_model_input(O, A, ens.action_space)
        pred = np.stack([m.predict_mean(X) for m in ens.members]).mean(axis=0)[:, :3]
        assert np.sqrt(np.mean((pred - O2) ** 2)) <= 0.05

    def test_direct_and_correction_agree_on_perfect_sim(self, pendulum_random_dataset):
        tr, O, A, R, O2 = split(pendulum_random_dataset, 10_000)
        cfg = model_config()
        sim = hb.make_env("pendulum")
        corr = models.fit_ensemble(tr, cfg, sim.simulate_step(tr.O, tr.A))
        direct = models.fit_ensemble(tr, cfg)
        X = encode_model_input(O, A, corr.action_space)
        sim_next = sim.simulate_step(O, A)
        pred_corr = sim_next + np.stack(
            [m.predict_mean(X) for m in corr.members]
        ).mean(0)[:, :3]
        pred_direct = np.stack([m.predict_mean(X) for m in direct.members]).mean(0)[:, :3]
        err_corr = np.sqrt(np.mean((pred_corr - O2) ** 2))
        err_direct = np.sqrt(np.mean((pred_direct - O2) ** 2))
        gap = np.sqrt(np.mean((pred_corr - pred_direct) ** 2))
        assert gap <= err_corr + err_direct + 1e-12

    def test_interpolation_identity(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        Y = rng.normal(size=(20, 2))
        fm = FeatureMap.polynomial(2, 5)  # 21 features >= 20 samples
        reg = models.fit_gaussian_regressor(fm, X, Y, ridge=1e-12, val_X=X, val_Y=Y)
        assert np.abs(reg.predict_mean(X) - Y).max() < 1e-6

    def test_training_loss_monotone_in_feature_count(self, pendulum_random_dataset):
        tr, *_ = split(pendulum_random_dataset, 3_000)
        O, A, _, O2, _ = tr.arrays()
        X = encode_model_input(O, A, hb.make_env("pendulum").action_space)
        losses = []
        for degree in (1, 2, 3, 4):
            fm = FeatureMap.polynomial(4, degree, scale=(1, 1, 0.125, 0.5))
            reg = models.fit_gaussian_regressor(fm, X, O2, 1e-9, X[:10], O2[:10])
            losses.append(np.mean(np.linalg.norm(reg.predict_mean(X) - O2, axis=1)))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_well_conditioned_fit_takes_the_factor(self, pendulum_random_dataset,
                                                   monkeypatch):
        # a member of the windygrid workload's size: 4500 rows, 769 features
        O, A, R, O2, _ = (col[:4500] for col in pendulum_random_dataset.arrays())
        X = encode_model_input(O, A, hb.make_env("pendulum").action_space)
        Y = np.concatenate([O2, R[:, None]], axis=1)
        Phi = FeatureMap.random_fourier(4, 768, 0.7, seed=5).transform(X)
        ridge = 1e-3
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", None)  # the orthogonal path must not run
            W = models._solve_ridge(Phi, Y, ridge)
        F = Phi.shape[1]
        ref, *_ = np.linalg.lstsq(
            np.concatenate([Phi, math.sqrt(ridge) * np.eye(F)]),
            np.concatenate([Y, np.zeros((F, Y.shape[1]))]), rcond=None)
        assert np.linalg.norm(W - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_ill_conditioned_fit_is_orthogonal(self):
        # the interpolation system above: condition bound about 2.8e17
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        Y = rng.normal(size=(20, 2))
        Phi = FeatureMap.polynomial(2, 5).transform(X)
        ridge = 1e-12
        F = Phi.shape[1]
        ref, *_ = np.linalg.lstsq(
            np.concatenate([Phi, math.sqrt(ridge) * np.eye(F)]),
            np.concatenate([Y, np.zeros((F, 2))]), rcond=None)
        assert np.array_equal(models._solve_ridge(Phi, Y, ridge), ref)

    def test_non_finite_features_raise_fit_error(self, capfd):
        for bad in (np.nan, np.inf):
            Phi = np.ones((10, 4))
            Phi[4, 1] = bad
            with pytest.raises(models.ModelFitError, match="non-finite features"):
                models._solve_ridge(Phi, np.zeros((10, 1)), 1e-3)
        # named before any LAPACK call, which would complain on stderr
        assert "DLASCL" not in capfd.readouterr().err

    def test_singular_normal_equations_named(self):
        X = np.zeros((10, 2))
        Y = np.zeros((10, 1))
        fm = FeatureMap.polynomial(2, 2)
        with pytest.raises(ValueError):
            models.fit_gaussian_regressor(fm, X, Y, ridge=0.0, val_X=X, val_Y=Y)


class TestPredictAndPenalty:
    def _tiny_ensemble(self, mode="correction", noise=0.0, n=2):
        fm = FeatureMap.polynomial(4, 1)
        members = [
            models.GaussianRegressor(
                fm, np.zeros((fm.output_dim, 4)), np.full(4, noise), 1e-3
            )
            for _ in range(n)
        ]
        return models.CorrectionEnsemble(
            members, mode, 3, hb.make_env("pendulum").action_space
        )

    def test_zero_weight_member_returns_anchor(self):
        ens = self._tiny_ensemble()
        sim_next = np.array([0.3, -0.4, 1.0])
        mu = ens.member_means(np.zeros((1, 3)), [0.5])[0, 0]
        nxt, reward = sim_next + mu[:3], mu[3]
        assert np.array_equal(nxt, sim_next)
        assert reward == 0.0

    def test_sampling_mean_matches(self):
        # a draw is a member mean plus that member's Gaussian noise, as in rollouts
        ens = self._tiny_ensemble(noise=0.25)
        rng = np.random.default_rng(0)
        mu = ens.member_means(np.zeros((1, 3)), [0.5])[0, 0]
        draws = mu + np.sqrt(ens.members[0].noise_var) * rng.standard_normal((100_000, 4))
        sigma = math.sqrt(0.25)
        assert np.abs(draws.mean(axis=0)).max() <= 3 * sigma / math.sqrt(100_000) * 1.5

    def test_single_member_disagreement_zero(self):
        ens = self._tiny_ensemble(n=1)
        assert models.disagreement(ens.member_means(np.zeros((1, 3)), [0.5]))[0] == 0.0

    def test_penalty_member_order_invariant(self, pendulum_random_dataset):
        tr, O, A, *_ = split(pendulum_random_dataset, 3_000)
        ens = models.fit_ensemble(tr, model_config())
        permuted = models.CorrectionEnsemble(
            list(reversed(ens.members)), ens.mode, ens.obs_dim, ens.action_space
        )
        x = O[:5]
        a = A[:5]
        assert np.array_equal(
            models.disagreement(ens.member_means(x, a)),
            models.disagreement(permuted.member_means(x, a)),
        )

    def test_penalty_nonnegative(self, pendulum_random_dataset):
        tr, O, A, *_ = split(pendulum_random_dataset, 3_000)
        ens = models.fit_ensemble(tr, model_config())
        assert (models.disagreement(ens.member_means(O[:100], A[:100])) >= 0).all()


class TestEnsembleSerialization:
    def test_round_trip(self, pendulum_random_dataset, tmp_path):
        tr, *_ = split(pendulum_random_dataset, 3_000)
        ens = models.fit_ensemble(tr, model_config())
        path = tmp_path / "ens.json"
        models.save_ensemble(ens, path)
        assert models.load_ensemble(path) == ens

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": "nope"}')
        with pytest.raises(ValueError):
            models.load_ensemble(path)

    def test_only_onehot_encoding_read(self, pendulum_random_dataset):
        # actions are always one-hot encoded; the key that said so is gone
        tr, *_ = split(pendulum_random_dataset, 300)
        d = models.ensemble_to_dict(models.fit_ensemble(tr, model_config(n_members=1)))
        with pytest.raises(ValueError, match=r"unknown ensemble keys \['action_encoding'\]"):
            models.ensemble_from_dict(dict(d, action_encoding="numeric"))


    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("obs_dim"), r"ensemble is missing required keys \['obs_dim'\]"),
        (lambda d: d["members"][2].update(bias=0), r"unknown members\[2\] keys \['bias'\]"),
        (lambda d: d.update(obs_dim=3.5), r"obs_dim must be an integer"),
        (lambda d: d["members"][4]["weights"][-1].__setitem__(0, "nan"),
         r"members\[4\].weights must be a nested list of finite numbers"),
        (lambda d: d["members"][1]["features"].update(kind="x"),
         r"members\[1\].features.kind must be one of 'polynomial', 'random_fourier', "
         r"got 'x'"),
        (lambda d: d["members"][1]["features"].update(scale=[1.0]),
         r"members\[1\].features: feature map scale"),
        (lambda d: d["action_space"].update(count=9),
         r"action_space must be a DiscreteActions object or a ContinuousActions object"),
        (lambda d: d.update(format_version="hybench-ensemble/1"),
         r"unsupported ensemble format 'hybench-ensemble/1'"),
    ], ids=["missing", "unknown", "type", "weights", "kind", "scale", "action_space",
            "version"])
    def test_malformed_ensemble_fails_naming_field(self, pendulum_random_dataset, edit,
                                                   message):
        # a full ensemble: the message must not repeat its megabytes of weights
        tr, *_ = split(pendulum_random_dataset, 3_000)
        d = json.loads(json.dumps(models.ensemble_to_dict(
            models.fit_ensemble(tr, model_config()))))
        assert models.ensemble_from_dict(json.loads(json.dumps(d))) is not None
        edit(d)
        with pytest.raises(ValueError, match=message) as err:
            models.ensemble_from_dict(d)
        assert len(str(err.value)) < 300


class TestDeterminism:
    def test_identical_fits_bit_exact(self, pendulum_random_dataset):
        tr, *_ = split(pendulum_random_dataset, 4_000)
        cfg = model_config()
        a = models.fit_ensemble(tr, cfg)
        b = models.fit_ensemble(tr, cfg)
        assert a == b
