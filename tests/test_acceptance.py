"""Acceptance suite: one test per criterion, each printing a PASS line.

Stated per-criterion runtime limits are asserted.  Expensive shared
artifacts (reference pairs, the pendulum medium-tier policy) are built once
as session fixtures; their build time is charged to the tier criterion
(number 6), whose budget explicitly covers expert training.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

import hybench as hb
from hybench import agents, bench, data, models, oracle
from hybench.data import DatasetRecipe
from hybench.models import encode_model_input
from hybench.wrappers import with_hidden_dims

from conftest import FIXTURE_TIMES


def report(criterion: int, detail: str) -> None:
    print(f"\n[acceptance criterion {criterion}] PASS: {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


# -- criterion 4 / 9 shared construction ------------------------------------

CONFOUND_PARAMS = hb.WindyGridParams(start=(0, 0), goal=(4, 2), wind_prob=0.45)


def _blind_mdp(params):
    from hybench.envs import windygrid_step

    cells = [
        (x, y)
        for x in range(params.width)
        for y in range(params.height)
        if (x, y) != params.goal
    ]
    idx = {c: i for i, c in enumerate(cells)}
    term = len(cells)
    p = params.wind_prob
    T = np.zeros((term + 1, 4, term + 1))
    R = np.zeros((term + 1, 4))
    for c, s in idx.items():
        for a in range(4):
            for w, pw in ((0, 1 - p), (1, p)):
                c2, r, goal = windygrid_step(c, w, a, params)
                R[s, a] += pw * r
                T[s, a, term if goal else idx[c2]] += pw
    T[term, :, term] = 1
    start = np.zeros(term + 1)
    start[idx[params.start]] = 1
    terminal = np.zeros(term + 1, dtype=bool)
    terminal[term] = True
    mdp = oracle.TabularMDP(T, R, start, terminal, np.zeros((term + 1, 3)),
                            tuple(cells) + ("terminal",))
    return idx, mdp


def _confounding_policies(params):
    """Wind-aware optimal policy and wind-blind optimal policy for the
    confounding benchmark, both exact."""
    mdp = oracle.windygrid_mdp(params)
    _, pi_aware = oracle.value_iteration(mdp, params.discount, 1e-10)
    index = {lab: i for i, lab in enumerate(mdp.labels)}
    bidx, blind = _blind_mdp(params)
    _, pi_blind = oracle.value_iteration(blind, params.discount, 1e-10)

    def aware(state):
        key = ((int(round(state[0])), int(round(state[1]))), int(round(state[2])))
        return int(pi_aware[index[key]])

    def blind_fn(obs):
        return int(pi_blind[bidx[(int(round(obs[0])), int(round(obs[1])))]])

    return mdp, aware, blind_fn


def _confounded_datasets(params, seed, n_records=20_000, epsilon=0.15):
    """(confounded, unconfounded) dataset pair of the criterion-4 design."""
    mdp, aware, blind_fn = _confounding_policies(params)
    pol_a = agents.FunctionPolicy(aware, (0, 1, 2, 3), epsilon=epsilon, seed=seed)
    ds_conf = data.corrupt_hide_dims(
        data.collect_dataset(hb.WindyGridEnv(params), pol_a, n_records,
                             "privileged", seed=seed),
        [2],
    )
    pol_b = agents.FunctionPolicy(blind_fn, (0, 1, 2, 3), epsilon=epsilon, seed=seed)
    ds_blind = data.corrupt_hide_dims(
        data.collect_dataset(with_hidden_dims(hb.WindyGridEnv(params), [2]), pol_b,
                             n_records, "observed", seed=seed),
        [2],
    )
    return mdp, ds_conf, ds_blind


def test_criterion_1_confounding_reversal_exact():
    with Timer() as t:
        spec = hb.BanditSpec()
        pi_b = oracle.confounding_behavior_policy()
        analysis = oracle.analyze_bandit(spec, pi_b)
        assert analysis.true_values == (Fraction(5, 18), Fraction(5, 12))
        assert analysis.confounded_estimates == (Fraction(1, 3), Fraction(1, 4))
        assert analysis.true_argmax == 1
        assert analysis.confounded_argmax == 0
        for seed in (0, 1, 2):
            emp = oracle.bandit_empirical_check(spec, pi_b, 1_000_000, seed=seed)
            assert abs(emp.means[0] - 1 / 3) <= 0.01
            assert abs(emp.means[1] - 1 / 4) <= 0.01
            assert emp.argmax == 0
    assert t.elapsed < 60
    report(1, f"exact reversal a1->a0, Monte Carlo 3 seeds ({t.elapsed:.1f}s)")


def _held_out_state_mse(ensemble, simulator, held_out):
    O, A, _, O2, _ = held_out
    sim_next = simulator.simulate_step(O, A)
    X = encode_model_input(O, A, ensemble.action_space)
    corr = np.stack([m.predict_mean(X) for m in ensemble.members]).mean(axis=0)[:, :3]
    mse_model = float(np.mean(np.sum((sim_next + corr - O2) ** 2, axis=1)))
    mse_sim = float(np.mean(np.sum((sim_next - O2) ** 2, axis=1)))
    return mse_model, mse_sim


def test_criterion_2_correction_model_recovery(pendulum_medium_dataset):
    with Timer() as t:
        ds = pendulum_medium_dataset
        n_train = 18_000
        train = data.Dataset(
            dataclasses.replace(ds.meta, record_count=n_train),
            *(col[:n_train] for col in ds.arrays()),
        )
        held_out = [col[n_train:] for col in ds.arrays()]
        sim = hb.with_transition_error(hb.make_env("pendulum"), {"gravity": 19.62})
        cfg = dataclasses.replace(
            agents.default_agent_config(hb.make_env("pendulum")).model, seed=17
        )
        ens = models.fit_ensemble(train, cfg, sim.simulate_step(train.O, train.A))
        mse_model, mse_sim = _held_out_state_mse(ens, sim, held_out)
        assert mse_model <= 0.2 * mse_sim, (mse_model, mse_sim)
    assert t.elapsed + FIXTURE_TIMES.get("pendulum_medium_dataset", 0.0) < 300
    report(2, f"held-out MSE ratio {mse_model / mse_sim:.2e} <= 0.2 ({t.elapsed:.1f}s)")


def test_criterion_3_identity_simulator_null(pendulum_medium_dataset):
    with Timer() as t:
        ds = pendulum_medium_dataset
        n_train = 18_000
        train = data.Dataset(
            dataclasses.replace(ds.meta, record_count=n_train),
            *(col[:n_train] for col in ds.arrays()),
        )
        sim = hb.make_env("pendulum")
        cfg = dataclasses.replace(
            agents.default_agent_config(hb.make_env("pendulum")).model, seed=17
        )
        ens = models.fit_ensemble(train, cfg, sim.simulate_step(train.O, train.A))
        O, A, _, O2, _ = (col[n_train:] for col in ds.arrays())
        X = encode_model_input(O, A, ens.action_space)
        pred = np.stack([m.predict_mean(X) for m in ens.members]).mean(axis=0)[:, :3]
        ratio = float(
            np.linalg.norm(pred, axis=1).mean()
            / np.linalg.norm(O2 - O, axis=1).mean()
        )
        assert ratio <= 0.05
    assert t.elapsed < 300
    report(3, f"mean predicted correction ratio {ratio:.2e} <= 0.05 ({t.elapsed:.1f}s)")


def test_criterion_4_confounded_vs_unconfounded_offline():
    with Timer() as t:
        params = CONFOUND_PARAMS
        cfg = agents.default_agent_config(hb.WindyGridEnv(params))
        passes = 0
        values = []
        for seed in (0, 1, 2):
            mdp, ds_conf, ds_blind = _confounded_datasets(params, seed)
            vals = {}
            for label, ds in (("conf", ds_conf), ("blind", ds_blind)):
                res = agents.train_offline_bcq(ds, cfg, seed=seed)
                table = oracle.policy_table_from_agent(
                    mdp, res,
                    obs_transform=lambda o: np.array([o[0], o[1], 0.0]),
                )
                V = oracle.exact_policy_eval(mdp, table, params.discount, 1e-12)
                vals[label] = oracle.start_state_value(mdp, V)
            values.append(vals)
            if vals["conf"] <= vals["blind"] - 0.05 * abs(vals["blind"]):
                passes += 1
        assert passes >= 2, values
    assert t.elapsed < 300
    report(4, f"confounding hurt in {passes}/3 seeds, e.g. "
              f"{values[0]['conf']:.3f} vs {values[0]['blind']:.3f} ({t.elapsed:.1f}s)")


def test_criterion_5_wrapper_invariant_suite():
    with Timer() as t:
        # hidden dims exactly zero
        env = hb.with_hidden_dims(hb.make_env("pendulum"), [2])
        obs = env.reset(seed=0)
        assert obs[2] == 0.0
        for _ in range(50):
            res = env.step(1.0)
            assert res.obs[2] == 0.0

        # observation noise empirical std within 5% at n = 1e5 values
        for sigma in (0.01, 0.05):
            env = hb.with_obs_noise(hb.make_env("pendulum"), sigma)
            env.reset(seed=1)
            diffs = []
            while len(diffs) * 3 < 100_000:
                res = env.step(0.0)
                theta, omega = env.full_state()
                clean = np.array([np.cos(theta), np.sin(theta), omega])
                diffs.append(res.obs - clean)
                if res.done:
                    env.reset()
            std = np.asarray(diffs).ravel().std()
            assert abs(std - sigma) / sigma < 0.05, (sigma, std)

        # action noise empirical std within 5% at n = 1e5 samples
        for sigma in (0.2, 0.5):
            env = hb.with_action_noise(hb.make_env("pendulum"), sigma)
            env.reset(seed=2)
            samples = np.empty(100_000)
            for i in range(100_000):
                res = env.step(0.0)
                samples[i] = env.last_executed_action[0]
                if res.done:
                    env.reset()
            assert abs(samples.std() - sigma) / sigma < 0.05, (sigma, samples.std())

        # delay replay equivalence for d in {0, 1, 2}
        actions = list(np.linspace(-2, 2, 60))
        for d in (0, 1, 2):
            delayed = hb.with_action_delay(hb.make_env("pendulum", {"horizon": 100}), d)
            obs_delayed = [delayed.reset(seed=3)]
            for a in actions:
                obs_delayed.append(delayed.step(a).obs)
            plain = hb.make_env("pendulum", {"horizon": 100})
            shifted = [0.0] * d + actions[: len(actions) - d]
            obs_plain = [plain.reset(seed=3)]
            for a in shifted:
                obs_plain.append(plain.step(a).obs)
            assert np.array_equal(np.stack(obs_delayed), np.stack(obs_plain))

        # neutral wrappers bit-identical to the unwrapped env
        def trajectory(env):
            out = [env.reset(seed=4)]
            for a in actions:
                res = env.step(a)
                out.append(env.reset() if res.done else res.obs)
            return np.stack(out)

        base = trajectory(hb.make_env("pendulum"))
        for neutral in (
            hb.with_transition_error(hb.make_env("pendulum"), {}),
            hb.with_obs_noise(hb.make_env("pendulum"), 0.0),
            hb.with_hidden_dims(hb.make_env("pendulum"), []),
            hb.with_action_noise(hb.make_env("pendulum"), 0.0),
            hb.with_action_delay(hb.make_env("pendulum"), 0),
        ):
            assert np.array_equal(base, trajectory(neutral))
    assert t.elapsed < 120
    report(5, f"hidden dims, noise stds, delay replay, neutral identity "
              f"({t.elapsed:.1f}s)")


def test_criterion_6_normalization_and_tiers(pendulum_refs, pendulum_medium,
                                             windygrid_refs):
    with Timer() as t:
        # normalization fixed points, exact
        assert bench.normalize_score(-10.0, -10.0, 30.0) == 0.0
        assert bench.normalize_score(30.0, -10.0, 30.0) == 100.0
        assert bench.normalize_score(10.0, -10.0, 30.0) == 50.0

        # pendulum tiers at seed 0
        env = hb.make_env("pendulum")
        refs = pendulum_refs
        scores = {}
        for tier, policy in (
            ("random", data.train_tier_policy(env, "random", seed=0)),
            ("medium", pendulum_medium),
            ("expert", data.train_tier_policy(env, "expert", seed=0)),
        ):
            raw, _ = agents.evaluate_policy(hb.make_env("pendulum"), policy, 100,
                                            seed=1000)
            scores[tier] = bench.normalize_score(raw, refs.random_ref, refs.expert_ref)
        assert scores["random"] < scores["medium"] < scores["expert"], scores
        assert 35.0 <= scores["medium"] <= 55.0, scores

        # windygrid tiers at seed 0
        genv = hb.make_env("windygrid")
        grefs = windygrid_refs
        gscores = {}
        for tier in ("random", "medium", "expert"):
            tp = data.train_tier_policy(genv, tier, seed=0)
            raw, _ = agents.evaluate_policy(hb.make_env("windygrid"), tp, 200,
                                            seed=2000)
            gscores[tier] = bench.normalize_score(raw, grefs.random_ref,
                                                  grefs.expert_ref)
        assert gscores["random"] < gscores["medium"] < gscores["expert"], gscores
    charged = (
        t.elapsed
        + FIXTURE_TIMES.get("pendulum_refs", 0.0)
        + FIXTURE_TIMES.get("pendulum_medium", 0.0)
        + FIXTURE_TIMES.get("windygrid_refs", 0.0)
    )
    assert charged < 600, charged
    report(6, f"pendulum tiers {scores['random']:.1f} < {scores['medium']:.1f} "
              f"< {scores['expert']:.1f} (medium in [35, 55]); windygrid "
              f"{gscores['random']:.1f} < {gscores['medium']:.1f} < "
              f"{gscores['expert']:.1f} ({charged:.0f}s incl. training)")


def test_criterion_7_rollout_conformance_trace():
    with Timer() as t:
        env = hb.make_env("windygrid")
        ds = data.generate_dataset(
            env, DatasetRecipe(tier="medium", n_records=20_000, seed=0)
        )
        lam = 0.7
        cfg = dataclasses.replace(agents.default_agent_config(env), lam=lam, epochs=6)
        sim = hb.with_transition_error(hb.make_env("windygrid"), {"wind_prob": 0.5})
        res = agents.train_hymopo(ds, sim, cfg, seed=0)
        tr = res.trace
        assert len(tr)
        obs_pool = {o.tobytes() for o in ds.arrays()[0]}
        obs_dim = 3
        # exact replay of the rollout algebra over every row, zero tolerance
        assert np.array_equal(tr.next_obs, tr.sim_next_obs + tr.target_draw[:, :obs_dim])
        assert np.array_equal(tr.penalized_reward, tr.reward - lam * tr.penalty)
        assert (tr.penalty >= 0.0).all()
        assert (tr.penalized_reward <= tr.reward).all()
        assert all(o.tobytes() in obs_pool for o in tr.obs[tr.step == 0])
    report(7, f"{len(res.trace)} synthetic transitions replay exactly "
              f"({t.elapsed:.1f}s)")


def test_criterion_8_determinism_and_persistence(tmp_path):
    with Timer() as t:
        # identical config + seeds reproduce identical result rows
        cfg = bench.BenchConfig(
            benchmark_id="wg-determinism",
            env=bench.BenchEnv("windygrid"),
            agent=bench.BenchAgent("offline_bcq"),
            dataset=DatasetRecipe(tier="random", n_records=4_000, seed=0),
            seeds=(0, 1),
            eval_episodes=30,
        )
        first, fail1 = bench.run_benchmark(cfg)
        second, fail2 = bench.run_benchmark(cfg)
        assert not fail1 and not fail2
        for a, b in zip(first, second):
            # wall_time is the one legitimately non-reproducible column
            assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(
                b, wall_time=0.0
            )

        # bit-exact round trip of a 1e5-record pendulum dataset
        env = hb.make_env("pendulum")
        pol = agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=0)
        ds = data.collect_dataset(env, pol, 100_000, "observed", seed=0)
        path = tmp_path / "pendulum_100k.ds"
        data.write_dataset(ds, path)
        assert data.read_dataset(path) == ds
    report(8, f"identical result rows and 1e5-record bit-exact round trip "
              f"({t.elapsed:.1f}s)")


def test_criterion_9_hybrid_directional_checks():
    with Timer() as t:
        # (a) mildly wrong simulator: hybrid within 5 points of the best
        # single-source agent
        recipe = DatasetRecipe(tier="medium", n_records=20_000, seed=0)
        means = {}
        for agent, sim2real, ds in (
            ("online_q", ({"kind": "transition_param_override", "overrides": {"wind_prob": 0.4}},), None),
            ("offline_bcq", (), recipe),
            ("hymopo", ({"kind": "transition_param_override", "overrides": {"wind_prob": 0.4}},), recipe),
        ):
            cfg = bench.BenchConfig(
                benchmark_id=f"wg-gap-{agent}",
                env=bench.BenchEnv("windygrid", {"wind_prob": 0.3}),
                agent=bench.BenchAgent(agent),
                sim2real=sim2real,
                dataset=ds if agent != "online_q" else None,
                seeds=(0, 1, 2),
                eval_episodes=200,
            )
            results, failures = bench.run_benchmark(cfg)
            assert not failures, failures
            means[agent] = float(np.mean([r.normalized_score for r in results]))
        floor = max(means["online_q"], means["offline_bcq"]) - 5.0
        assert means["hymopo"] >= floor, means

        # (b) the same hybrid trainer drops under the criterion-4
        # high-confounding dataset relative to its unconfounded twin
        params = CONFOUND_PARAMS
        true_env = hb.WindyGridEnv(params)
        refs = bench.compute_reference_pair(true_env)
        cfg = dataclasses.replace(
            agents.default_agent_config(true_env), lam=0.3, rollout_batch=256
        )
        conf_scores, blind_scores = [], []
        for seed in (0, 1, 2):
            _, ds_conf, ds_blind = _confounded_datasets(params, seed)
            sim = hb.with_transition_error(hb.WindyGridEnv(params),
                                           {"wind_prob": 0.55})
            for ds, bucket in ((ds_conf, conf_scores), (ds_blind, blind_scores)):
                res = agents.train_hymopo(ds, sim, cfg, seed=seed)
                raw, _ = agents.evaluate_policy(hb.WindyGridEnv(params), res.policy,
                                                200, seed=seed + 500)
                bucket.append(
                    bench.normalize_score(raw, refs.random_ref, refs.expert_ref)
                )
        assert np.mean(conf_scores) < np.mean(blind_scores), (conf_scores,
                                                              blind_scores)
    report(9, f"hybrid {means['hymopo']:.1f} >= best-single {floor + 5:.1f} - 5; "
              f"confounded mean {np.mean(conf_scores):.1f} < unconfounded "
              f"{np.mean(blind_scores):.1f} ({t.elapsed:.0f}s)")
