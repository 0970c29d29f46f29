import dataclasses
import json

import numpy as np
import pytest

import hybench as hb
from hybench import agents, bench, data, models, oracle
from hybench.records import read_record
from hybench.seeding import EVAL_ENV, EVAL_POLICY, derived_seed
from hybench.wrappers import clone_env
from hybench.agents import (
    AgentConfig,
    FunctionPolicy,
    QPolicy,
    UniformPolicy,
    actions_to_indices,
    default_agent_config,
    evaluate_policy,
    policy_from_dict,
    policy_to_dict,
    train_hymopo,
    train_mopo_lite,
    train_offline_bcq,
    train_online_q,
    with_epsilon,
)


@pytest.fixture(scope="module")
def grid_env():
    return hb.make_env("windygrid")


@pytest.fixture(scope="module")
def grid_mdp(grid_env):
    return oracle.windygrid_mdp(grid_env.params)


@pytest.fixture(scope="module")
def grid_medium_dataset(grid_env):
    return data.generate_dataset(
        grid_env, data.DatasetRecipe(tier="medium", n_records=20_000, seed=0)
    )


def exact_value(mdp, policy, gamma, obs_transform=None):
    table = oracle.policy_table_from_agent(mdp, policy, obs_transform=obs_transform)
    V = oracle.exact_policy_eval(mdp, table, gamma, 1e-12)
    return oracle.start_state_value(mdp, V)


class TestEvaluatePolicy:
    def test_deterministic_setting_zero_std(self):
        env = hb.make_env("windygrid", {"wind_prob": 0.0})
        pol = FunctionPolicy(lambda o: 3, (0, 1, 2, 3))
        mean, std = evaluate_policy(env, pol, episodes=10, seed=0)
        assert std == 0.0

    def test_single_episode_zero_std(self):
        env = hb.make_env("windygrid")
        pol = UniformPolicy((0, 1, 2, 3), seed=0)
        _, std = evaluate_policy(env, pol, episodes=1, seed=0)
        assert std == 0.0

    def test_matches_oracle_within_ci(self, grid_env, grid_mdp):
        params = grid_env.params
        _, pi_star = oracle.value_iteration(grid_mdp, params.discount, 1e-10)
        index = {lab: i for i, lab in enumerate(grid_mdp.labels)}

        def fn(obs):
            key = ((int(round(obs[0])), int(round(obs[1]))), int(round(obs[2])))
            return int(pi_star[index[key]])

        pol = FunctionPolicy(fn, (0, 1, 2, 3))
        episodes = 10_000
        mean, std = evaluate_policy(hb.make_env("windygrid"), pol, episodes, seed=3)
        exact = oracle.finite_horizon_policy_value(grid_mdp, pi_star, params.horizon)
        assert abs(mean - exact) <= 3 * std / np.sqrt(episodes)

    def test_deterministic_given_seed(self):
        env = hb.make_env("windygrid")
        pol = UniformPolicy((0, 1, 2, 3), seed=0)
        a = evaluate_policy(env, pol, 50, seed=5)
        b = evaluate_policy(hb.make_env("windygrid"), pol, 50, seed=5)
        assert a == b


def sequential_evaluate(env, policy, episodes, seed):
    """``evaluate_policy`` as an episode-by-episode loop: one ``env.step``
    per step."""
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


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture(scope="module")
def pendulum_policies():
    env = hb.make_env("pendulum")
    cfg = default_agent_config(env)
    return [train_online_q(env, cfg, seed, budget=600).policy for seed in range(3)]


@pytest.fixture(scope="module")
def pendulum_bcq_policy():
    env = hb.make_env("pendulum")
    cfg = dataclasses.replace(default_agent_config(env), bc_threshold=0.2,
                              offline_iterations=20)
    grid = agents.resolve_action_grid(env, cfg)
    # a behavior policy that pushes with the swing: most actions are rare
    behavior = FunctionPolicy(lambda o: 8 if o[2] > 0 else 0, grid, epsilon=0.3)
    dataset = data.collect_dataset(env, behavior, 3000, "observed", seed=0)
    return train_offline_bcq(dataset, cfg, seed=0)


def forbid_lockstep(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("lockstep evaluation used")

    monkeypatch.setattr(hb.PendulumEnv, "lockstep_returns", fail)


def kernel_rows(monkeypatch) -> list:
    """(feature map, row count) of each call of the row kernel
    ``FeatureMap._expand`` from now on: the rows actually computed."""
    calls = []
    expand = agents.FeatureMap._expand

    def spy(fm, X):
        calls.append((fm, len(X)))
        return expand(fm, X)

    monkeypatch.setattr(agents.FeatureMap, "_expand", spy)
    return calls


class TestLockstepEvaluation:
    @pytest.mark.parametrize("episodes", [1, 40])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_equals_sequential_loop(self, pendulum_policies, index, episodes):
        policy = pendulum_policies[index]
        got = evaluate_policy(hb.make_env("pendulum"), policy, episodes, seed=index + 7)
        assert got == sequential_evaluate(hb.make_env("pendulum"), policy, episodes,
                                          seed=index + 7)
        if episodes == 1:
            assert got[1] == 0.0

    def test_perturbed_params(self, pendulum_policies):
        env = hb.make_env("pendulum").with_params(gravity=6.0, friction=0.2, horizon=60)
        got = evaluate_policy(env, pendulum_policies[0], 25, seed=3)
        assert got == sequential_evaluate(clone_env(env), pendulum_policies[0], 25, seed=3)

    def test_function_policy(self):
        env = hb.make_env("pendulum")
        policy = FunctionPolicy(lambda o: 8 if o[2] > 0 else 0,
                                agents.resolve_action_grid(env, default_agent_config(env)))
        assert evaluate_policy(env, policy, 10, seed=5) == sequential_evaluate(
            hb.make_env("pendulum"), policy, 10, seed=5)

    def test_behavior_masked_policy(self, pendulum_bcq_policy):
        policy = pendulum_bcq_policy
        obs = np.stack([hb.make_env("pendulum").reset(seed=s) for s in range(200)])
        masked = policy.action_indices(obs)
        unmasked = np.argmax(q_values(policy.q, obs), axis=1)
        assert (masked != unmasked).any()  # the mask decides some actions
        assert list(masked) == [direct_action_index(policy, o) for o in obs]
        got = evaluate_policy(hb.make_env("pendulum"), policy, 30, seed=2)
        assert got == sequential_evaluate(hb.make_env("pendulum"), policy, 30, seed=2)

    def test_env_left_as_the_sequential_loop_leaves_it(self, pendulum_policies):
        lock, seq = hb.make_env("pendulum"), hb.make_env("pendulum")
        evaluate_policy(lock, pendulum_policies[1], 5, seed=4)
        sequential_evaluate(seq, pendulum_policies[1], 5, seed=4)
        assert bits(lock.full_state()) == bits(seq.full_state())
        for env in (lock, seq):
            with pytest.raises(hb.EnvError, match="after done"):
                env.step(0.0)
        assert bits(lock.reset()) == bits(seq.reset())

    def test_other_cases_keep_the_sequential_loop(self, pendulum_policies, monkeypatch):
        forbid_lockstep(monkeypatch)
        policy = pendulum_policies[0]
        noisy = hb.with_obs_noise(hb.make_env("pendulum"), 0.05)
        assert evaluate_policy(noisy, policy, 3, seed=1) == sequential_evaluate(
            hb.with_obs_noise(hb.make_env("pendulum"), 0.05), policy, 3, seed=1)
        walker = FunctionPolicy(lambda o: 3, (0, 1, 2, 3), epsilon=0.5)
        assert evaluate_policy(hb.make_env("windygrid"), walker, 20, seed=1) == (
            sequential_evaluate(hb.make_env("windygrid"), walker, 20, seed=1))

    @pytest.mark.parametrize("horizon,episodes", [(200, 1), (200, 40), (60, 7), (1, 100)])
    def test_uniform_policy(self, monkeypatch, horizon, episodes):
        # every episode's draws are taken first, in the order episodes run
        # one by one would take them
        ran = []
        lockstep = hb.PendulumEnv.lockstep_returns

        def spy(env, *args):
            ran.append(args[0])
            return lockstep(env, *args)

        monkeypatch.setattr(hb.PendulumEnv, "lockstep_returns", spy)
        lock, seq = (hb.make_env("pendulum", {"horizon": horizon}) for _ in range(2))
        grid = agents.resolve_action_grid(lock, default_agent_config(lock))
        got = evaluate_policy(lock, UniformPolicy(grid, seed=horizon), episodes, seed=episodes)
        assert ran == [episodes]
        assert got == sequential_evaluate(seq, UniformPolicy(grid, seed=horizon), episodes,
                                          seed=episodes)
        assert bits(lock.full_state()) == bits(seq.full_state())

    @pytest.mark.parametrize("episodes", [True, 2.5, "3", np.float64(4.0), -1])
    def test_non_integer_episodes_rejected(self, episodes):
        pol = UniformPolicy((0, 1, 2, 3), seed=0)
        with pytest.raises(ValueError, match="episodes"):
            evaluate_policy(hb.make_env("windygrid"), pol, episodes, seed=0)


class TestOnlineQ:
    def test_windygrid_reaches_value_iteration_optimum(self, grid_env, grid_mdp):
        cfg = default_agent_config(grid_env)
        res = train_online_q(hb.make_env("windygrid"), cfg, seed=0, budget=25_000)
        V, _ = oracle.value_iteration(grid_mdp, grid_env.params.discount, 1e-10)
        v_pol = exact_value(grid_mdp, res.policy, grid_env.params.discount)
        assert abs(oracle.start_state_value(grid_mdp, V) - v_pol) <= 1e-3

    def test_curve_and_checkpoints_align(self, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), sweeps=5)
        res = train_online_q(hb.make_env("windygrid"), cfg, seed=1, budget=3_000)
        assert len(res.curve) == len(res.weights) == 5
        assert res.curve[-1][0] == len(res.replay[2])
        first = res.replay_prefix(0)
        assert len(first[0]) == res.curve[0][0]
        assert all(np.array_equal(p, r[:len(p)]) for p, r in zip(first, res.replay))

    def test_myopic_gamma_zero_fits_immediate_reward(self, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), gamma=0.0,
                                  sweeps=8, episodes_per_sweep=15, q_iterations=4)
        res = train_online_q(hb.make_env("windygrid"), cfg, seed=0, budget=10_000)
        O, A, R, _, _ = res.replay
        q = res.policy.q
        preds = q_values(q, O)[np.arange(len(A)), actions_to_indices(A, res.policy.action_grid)]
        assert np.sqrt(np.mean((preds - R) ** 2)) <= 0.1

    def test_deterministic_bit_exact(self, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), sweeps=4)
        a = train_online_q(hb.make_env("windygrid"), cfg, seed=2, budget=2_000)
        b = train_online_q(hb.make_env("windygrid"), cfg, seed=2, budget=2_000)
        assert np.array_equal(a.policy.q.weights, b.policy.q.weights)
        assert a.curve == b.curve

    @pytest.mark.parametrize("name,params,budget", [
        ("pendulum", {"horizon": 30}, 600),  # random-Fourier, n-step, return bound
        ("windygrid", {}, 2_000),  # polynomial over few distinct observations
    ])
    def test_last_fit_equals_a_block_rebuilt_from_the_replay(self, name, params, budget):
        # the block rebuilt from the replay: each sweep's rows transformed
        # again, O and O2 in one transform each, appended at the curve's step
        # counts with the grams read after each sweep, as each fit reads them
        env = hb.make_env(name, params)
        cfg = dataclasses.replace(default_agent_config(env), eval_episodes=3,
                                  q_feature_count=64)
        res = train_online_q(env, cfg, seed=1, budget=budget)
        O, A, R, O2, D = res.replay
        grid = res.policy.action_grid
        gtail = cfg.gamma ** np.arange(cfg.n_step)
        rows = []
        for ep in np.split(np.arange(len(R)), np.flatnonzero(D)[:-1] + 1):
            T, rew = len(ep), R[ep]
            ep_O = np.concatenate([O[ep], O2[ep[-1:]]])
            t = np.arange(T)
            ahead = np.minimum(t + cfg.n_step, T)
            rew_n = np.array([gtail[:k - i] @ rew[i:k] for i, k in zip(t, ahead)])
            g, tail = 0.0, []
            for r in reversed(rew.tolist()):
                g = r + cfg.gamma * g
                tail.append(g)
            rows.append((ep_O[:-1], actions_to_indices(A[ep], grid), rew_n, ep_O[ahead],
                         ahead == T, np.asarray(tail[::-1])))
        BO, BA, BR, BO2, BD, BG = (np.concatenate(col) for col in zip(*rows))
        fm, basis = res.policy.q.features, res.policy.q.basis
        block = agents._Block(basis, len(BA), fm.output_dim, boot_gamma=cfg.gamma ** cfg.n_step,
                              returns=cfg.mc_lower_bound)
        start = 0
        for steps, _ in res.curve:
            sweep = slice(start, steps)
            block.append(fm.transform(BO[sweep]), BA[sweep], BR[sweep], fm.transform(BO2[sweep]),
                         BD[sweep], BG[sweep])
            block.grams
            start = steps
        W = agents._bellman_iterate([block], [1.0 / block.n], basis, cfg.gamma, cfg.q_ridge,
                                    cfg.q_iterations, res.weights[-2])
        assert bits(W) == bits(res.weights[-1])

    def test_each_observation_is_featurized_once(self, monkeypatch):
        # fitting transforms each episode's T + 1 observations once; greedy
        # actions and lockstep evaluation transform at most eval_episodes rows
        env = hb.make_env("pendulum", {"horizon": 30})
        cfg = dataclasses.replace(default_agent_config(env), eval_episodes=5,
                                  q_feature_count=64)
        fit_rows = []
        transform = agents.FeatureMap.transform

        def spy(fm, X):
            out = transform(fm, X)
            if len(out) > cfg.eval_episodes:
                fit_rows.append(len(out))
            return out

        monkeypatch.setattr(agents.FeatureMap, "transform", spy)
        res = train_online_q(env, cfg, seed=0, budget=600)
        steps = res.curve[-1][0]
        episodes = len(res.curve) * cfg.episodes_per_sweep
        assert len(res.curve) == 7 and steps == 630
        assert sum(fit_rows) == steps + episodes

    @pytest.mark.parametrize("train", [
        lambda env, budget: train_online_q(env, default_agent_config(env), 0, budget=budget),
        lambda env, budget: data.online_training_run(env, budget, 0),
        lambda env, budget: bench.compute_reference_pair(env, episodes=2, budget=budget),
        lambda env, budget: data.train_tier_policy(env, "expert", budget),
    ], ids=["train_online_q", "online_training_run", "compute_reference_pair",
            "train_tier_policy"])
    @pytest.mark.parametrize("budget", [0, -5, 2.5, True])
    def test_budget_must_be_a_count(self, train, budget):
        # each of these used to train one sweep
        with pytest.raises(ValueError, match=r"^budget must be "):
            train(hb.make_env("windygrid"), budget)

    def test_episode_past_the_horizon_raises(self):
        class Overrun(hb.WindyGridEnv):
            # a goal-less corridor that ignores its horizon of 2
            def __init__(self, params=None):
                super().__init__(hb.WindyGridParams(horizon=2))

            def step(self, action):
                res = super().step(action)
                self._done = self._t >= 3
                return dataclasses.replace(res, done=self._done)

        cfg = dataclasses.replace(default_agent_config(Overrun()), sweeps=1,
                                  episodes_per_sweep=1)
        with pytest.raises(hb.EnvError, match="episode of 3 steps exceeds horizon 2"):
            train_online_q(Overrun(), cfg, seed=0)


class TestOfflineBCQ:
    def test_expert_data_recovers_expert(self, grid_env, grid_mdp):
        # deterministic wind-aware expert from value iteration
        _, pi_star = oracle.value_iteration(grid_mdp, grid_env.params.discount, 1e-10)
        index = {lab: i for i, lab in enumerate(grid_mdp.labels)}

        def fn(obs):
            key = ((int(round(obs[0])), int(round(obs[1]))), int(round(obs[2])))
            return int(pi_star[index[key]])

        expert = FunctionPolicy(fn, (0, 1, 2, 3))
        ds = data.collect_dataset(hb.make_env("windygrid"), expert, 15_000,
                                  "observed", seed=0)
        cfg = dataclasses.replace(default_agent_config(grid_env), bc_threshold=0.5)
        res = train_offline_bcq(ds, cfg, seed=0)
        seen = {tuple(obs) for obs in ds.O}
        match = [
            res.action_index(np.array(obs)) == fn(np.array(obs))
            for obs in seen
        ]
        assert np.mean(match) >= 0.99

    def test_tau_zero_equals_unconstrained(self, grid_medium_dataset, grid_env):
        cfg0 = dataclasses.replace(default_agent_config(grid_env), bc_threshold=0.0)
        a = train_offline_bcq(grid_medium_dataset, cfg0, seed=0)
        b = train_offline_bcq(grid_medium_dataset, cfg0, seed=0)
        assert np.array_equal(a.q.weights, b.q.weights)

    def test_confounded_worse_than_blind(self, grid_env):
        # full construction lives in the acceptance suite; here a smoke check
        # that training runs on corrupted datasets
        ds = data.generate_dataset(
            grid_env, data.DatasetRecipe(tier="random", n_records=4_000, seed=1)
        )
        hidden = data.corrupt_hide_dims(ds, [2])
        res = train_offline_bcq(hidden, default_agent_config(grid_env), seed=0)
        assert res.action_index(np.array([0.0, 4.0, 0.0])) in range(4)

    def test_each_dataset_row_is_featurized_once(self, grid_medium_dataset, grid_env,
                                                 monkeypatch):
        # O and O2 are expanded once each (one row per distinct observation);
        # the behavior fit, the Bellman mask and the block share them
        cfg = dataclasses.replace(default_agent_config(grid_env), bc_threshold=0.2)
        calls = kernel_rows(monkeypatch)
        train_offline_bcq(grid_medium_dataset, cfg, seed=0)
        O, _, _, O2, _ = grid_medium_dataset.arrays()
        assert [rows for _, rows in calls] == [len(np.unique(X, axis=0)) for X in (O, O2)]
        assert [f.name for f in dataclasses.fields(agents.BehaviorModel)] == ["weights"]

    def test_allowed_actions_fall_back_to_every_action(self):
        # the one rule of the deployed policy and of the Bellman mask: a row
        # where no action clears the threshold allows every action
        behavior = agents.BehaviorModel(np.array([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0]]))
        Phi = np.array([[1.0, 0.0], [0.4, 0.6]])  # probabilities .7 .3 0 and .28 .12 .6
        assert behavior.allowed(Phi, 0.5).tolist() == [[True, False, False],
                                                       [False, False, True]]
        assert behavior.allowed(Phi, 0.65).tolist() == [[True, False, False], [True] * 3]

    def test_empty_dataset_rejected(self, grid_env):
        with pytest.raises(ValueError):
            ds = data.generate_dataset(
                grid_env, data.DatasetRecipe(tier="random", n_records=10, seed=0)
            )
            ds.O, ds.A, ds.R, ds.O2, ds.D = (col[:0] for col in ds.arrays())
            train_offline_bcq(ds, default_agent_config(grid_env), seed=0)


class TestModelBased:
    def test_h0_equals_unconstrained_offline(self, grid_medium_dataset, grid_env):
        base = default_agent_config(grid_env)
        cfg_off = dataclasses.replace(
            base, bc_threshold=0.0, offline_iterations=base.epochs * base.q_iterations
        )
        off = train_offline_bcq(grid_medium_dataset, cfg_off, seed=0)
        cfg_h0 = dataclasses.replace(base, rollout_horizon=0)
        mopo = train_mopo_lite(grid_medium_dataset, cfg_h0, seed=0)
        assert np.array_equal(mopo.policy.q.weights, off.q.weights)
        assert len(mopo.trace) == 0

    def test_hymopo_degenerate_equals_offline(self, grid_medium_dataset, grid_env):
        base = default_agent_config(grid_env)
        cfg_off = dataclasses.replace(
            base, bc_threshold=0.0, offline_iterations=base.epochs * base.q_iterations
        )
        off = train_offline_bcq(grid_medium_dataset, cfg_off, seed=0)
        cfg_deg = dataclasses.replace(
            base, rollout_horizon=0, lam=0.0,
            model=dataclasses.replace(base.model, n_members=1),
        )
        hy = train_hymopo(grid_medium_dataset, hb.make_env("windygrid"), cfg_deg, seed=0)
        assert np.array_equal(hy.policy.q.weights, off.q.weights)

    def test_zero_rollouts_fit_no_model(self, grid_medium_dataset, grid_env, monkeypatch):
        # no rollout samples the model, so neither the simulator pass nor the
        # ensemble fit may run
        def unused(*args, **kwargs):
            raise AssertionError("model fitted for a run without rollouts")

        class UnusedSim(hb.WindyGridEnv):
            simulate_step = unused

        monkeypatch.setattr(agents, "fit_ensemble", unused)
        base = default_agent_config(grid_env)
        cfg_off = dataclasses.replace(
            base, bc_threshold=0.0, offline_iterations=base.epochs * base.q_iterations
        )
        off = train_offline_bcq(grid_medium_dataset, cfg_off, seed=0)
        mopo = train_mopo_lite(grid_medium_dataset,
                               dataclasses.replace(base, rollout_horizon=0), seed=0)
        hy = train_hymopo(grid_medium_dataset, UnusedSim(),
                          dataclasses.replace(base, rollout_batch=0), seed=0)
        for res in (mopo, hy):
            assert res.ensemble is None
            assert np.array_equal(res.policy.q.weights, off.q.weights)

    def test_paper_default_hyperparameters(self):
        cfg = AgentConfig()
        assert cfg.lam == 0.0
        assert cfg.rollout_horizon == 5

    def test_huge_lambda_crushes_synthetic_rewards(self, grid_medium_dataset, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), lam=1e6,
                                  epochs=6)
        res = train_mopo_lite(grid_medium_dataset, cfg, seed=0)
        r_min = grid_medium_dataset.arrays()[2].min()
        assert (res.trace.penalized_reward <= r_min).all()
        assert (res.trace.penalized_reward <= res.trace.reward).all()

    @pytest.mark.xfail(
        reason="hypothesized limit does not hold here: heavily penalized "
        "synthetic rows act as targeted pessimism at rollout-visited pairs "
        "and change the argmax, instead of reducing training to the "
        "unconstrained offline solution",
        strict=False,
    )
    def test_huge_lambda_degenerates_to_offline_value(self, grid_medium_dataset,
                                                      grid_env, grid_mdp):
        base = default_agent_config(grid_env)
        cfg_off = dataclasses.replace(
            base, bc_threshold=0.0, offline_iterations=base.epochs * base.q_iterations
        )
        off = train_offline_bcq(grid_medium_dataset, cfg_off, seed=0)
        v_off = exact_value(grid_mdp, off, grid_env.params.discount)
        cfg = dataclasses.replace(base, lam=1e6)
        res = train_mopo_lite(grid_medium_dataset, cfg, seed=0)
        v_mopo = exact_value(grid_mdp, res.policy, grid_env.params.discount)
        assert abs(v_mopo - v_off) <= 1.0

    @pytest.mark.parametrize("trainer", ["mopo_lite", "hymopo"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_return_matches_exact_value(self, grid_medium_dataset, grid_env,
                                                    grid_mdp, trainer, seed):
        # the evaluation a score is made of lies within 4 standard errors of
        # the trained policy's exact finite-horizon value; at the default 30
        # epochs each of these policies reaches the goal (at 4 to 15 epochs
        # most return -50 with std 0, which checks little)
        cfg = default_agent_config(grid_env)
        if trainer == "mopo_lite":
            res = train_mopo_lite(grid_medium_dataset, cfg, seed=seed)
        else:
            sim = hb.with_transition_error(hb.make_env("windygrid"), {"wind_prob": 0.5})
            res = train_hymopo(grid_medium_dataset, sim, cfg, seed=seed)
        episodes = 100
        mean, std = evaluate_policy(hb.make_env("windygrid"), res.policy, episodes, seed=seed)
        table = oracle.policy_table_from_agent(grid_mdp, res.policy)
        exact = oracle.finite_horizon_policy_value(grid_mdp, table, grid_env.params.horizon)
        assert abs(mean - exact) <= 4 * std / np.sqrt(episodes) + 1e-9

    def test_rollout_starts_come_from_dataset(self, grid_medium_dataset, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), epochs=4)
        res = train_mopo_lite(grid_medium_dataset, cfg, seed=0)
        obs_pool = {o.tobytes() for o in grid_medium_dataset.arrays()[0]}
        starts = res.trace.obs[res.trace.step == 0]
        assert len(starts)
        assert all(o.tobytes() in obs_pool for o in starts)

    def test_trace_algebra_exact(self, grid_medium_dataset, grid_env):
        cfg = dataclasses.replace(default_agent_config(grid_env), lam=0.7, epochs=4)
        sim = hb.with_transition_error(hb.make_env("windygrid"), {"wind_prob": 0.5})
        res = train_hymopo(grid_medium_dataset, sim, cfg, seed=0)
        obs_dim = 3
        tr, head = res.trace, slice(0, 500)
        assert np.array_equal(tr.next_obs[head],
                              tr.sim_next_obs[head] + tr.target_draw[head, :obs_dim])
        assert np.array_equal(tr.penalized_reward[head],
                              tr.reward[head] - cfg.lam * tr.penalty[head])
        assert (tr.penalty[head] >= 0.0).all()
        assert (tr.penalized_reward[head] <= tr.reward[head]).all()
        # the penalty is the ensemble's disagreement at the rollout input
        pen = models.disagreement(res.ensemble.member_means(tr.obs[head],
                                                            tr.action_index[head]))
        assert np.allclose(tr.penalty[head], pen, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("horizon,batch", [(0, 64), (5, 0)])
    def test_no_rollouts_give_typed_empty_trace(self, grid_medium_dataset, grid_env,
                                                horizon, batch):
        base = default_agent_config(grid_env)
        cfg = dataclasses.replace(base, epochs=1, rollout_horizon=horizon,
                                  rollout_batch=batch, model=dataclasses.replace(
                                      base.model, n_members=1, feature_count=32))
        mopo = train_mopo_lite(grid_medium_dataset, cfg, seed=0)
        hy = train_hymopo(grid_medium_dataset, hb.make_env("windygrid"), cfg, seed=0)
        assert mopo.trace.sim_next_obs is None
        assert hy.trace.sim_next_obs.shape == (0, 3)
        for tr in (mopo.trace, hy.trace):
            assert len(tr) == 0
            for name in ("epoch", "step", "start_index", "action_index"):
                col = getattr(tr, name)
                assert col.shape == (0,) and np.issubdtype(col.dtype, np.integer), name
            for name in ("reward", "penalty", "penalized_reward"):
                col = getattr(tr, name)
                assert col.shape == (0,) and col.dtype == float, name
            assert tr.obs.shape == tr.next_obs.shape == (0, 3)
            assert tr.target_draw.shape == (0, 4)

    def test_trace_is_the_synthetic_fit_data(self, grid_medium_dataset, grid_env):
        # each epoch fits Q on the real block and a block of every trace row
        # generated so far, its grams summed per epoch, warm-started from the
        # previous epoch's weights
        base = default_agent_config(grid_env)
        cfg = dataclasses.replace(base, epochs=2, model=dataclasses.replace(
            base.model, n_members=2, feature_count=64))
        res = train_mopo_lite(grid_medium_dataset, cfg, seed=0)
        tr = res.trace
        basis = res.policy.q.basis
        fm = res.policy.q.features
        _, real = agents._real_block(grid_medium_dataset, res.policy.action_grid, basis, fm,
                                     cfg, 0)
        syn = agents._Block(basis, len(tr), fm.output_dim)
        W = None
        for epoch in range(cfg.epochs):
            rows = tr.epoch == epoch
            syn.append(fm.transform(tr.obs[rows]), tr.action_index[rows],
                       tr.penalized_reward[rows], fm.transform(tr.next_obs[rows]),
                       np.zeros(rows.sum(), dtype=bool))
            W = agents._bellman_iterate(
                [real, syn], [cfg.mix_real / real.n, (1.0 - cfg.mix_real) / syn.n],
                basis, cfg.gamma, cfg.q_ridge, cfg.q_iterations, W)
        assert np.array_equal(W, res.policy.q.weights)

    def test_each_synthetic_row_is_featurized_once(self, monkeypatch):
        # the real block's rows once, then per epoch the rollout starts and
        # each step's next observations: no epoch expands an earlier row
        env = hb.make_env("pendulum", {"horizon": 30})
        base = default_agent_config(env)
        grid = agents.resolve_action_grid(env, base)
        ds = data.collect_dataset(env, UniformPolicy(grid, seed=0), 300, "observed", seed=0)
        cfg = dataclasses.replace(base, q_feature_count=32, epochs=4, rollout_horizon=3,
                                  rollout_batch=8, model=dataclasses.replace(
                                      base.model, n_members=2, feature_count=32))
        calls = kernel_rows(monkeypatch)
        res = train_mopo_lite(ds, cfg, seed=0)
        q_rows = sum(rows for fm, rows in calls if fm == res.policy.q.features)
        b = cfg.rollout_batch
        assert q_rows == 2 * len(ds) + cfg.epochs * (b + cfg.rollout_horizon * b)

    def test_perfect_sim_hybrid_at_least_mopo(self):
        # three-seed mean comparison on the pendulum with an exact simulator
        env = hb.make_env("pendulum")
        pol = UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=0)
        ds = data.collect_dataset(env, pol, 8_000, "observed", seed=0)
        cfg = dataclasses.replace(default_agent_config(env), epochs=10,
                                  rollout_batch=48)
        hy_scores, mo_scores = [], []
        for seed in (0, 1, 2):
            hy = train_hymopo(ds, hb.make_env("pendulum"), cfg, seed=seed)
            mo = train_mopo_lite(ds, cfg, seed=seed)
            vh, _ = evaluate_policy(hb.make_env("pendulum"), hy.policy, 20, seed=99)
            vm, _ = evaluate_policy(hb.make_env("pendulum"), mo.policy, 20, seed=99)
            hy_scores.append(vh)
            mo_scores.append(vm)
        assert np.mean(hy_scores) >= np.mean(mo_scores) - 1e-9

    def test_perfect_sim_synthetic_matches_true_dynamics(self):
        env = hb.make_env("pendulum")
        pol = UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=0)
        ds = data.collect_dataset(env, pol, 6_000, "observed", seed=0)
        cfg = dataclasses.replace(default_agent_config(env), epochs=3,
                                  rollout_batch=32)
        hy = train_hymopo(ds, hb.make_env("pendulum"), cfg, seed=0)
        grid = np.asarray(hy.policy.action_grid)
        noise = max(
            float(np.sqrt(m.noise_var[:3].sum())) for m in hy.ensemble.members
        )
        true_env = hb.make_env("pendulum")
        tr = hy.trace
        truth = true_env.simulate_step(tr.obs[:1000], grid[tr.action_index[:1000]])
        errs = np.linalg.norm(tr.next_obs[:1000] - truth, axis=1)
        assert np.median(errs) <= max(3 * noise, 1e-9)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("q_feature_kind", "polynomal"),  # used to train with random-Fourier features
        ("explore_hold", 0),  # used to fail in mid-training
        ("mix_real", 1.5),  # these two used to fail after the ensemble fit
        ("mix_real", -0.5),
        ("n_step", 0),  # used to be clamped to 1
        ("q_ridge", 0.0),  # these two used to fail in online training
        ("q_ridge", -1e-3),
    ])
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            AgentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        # all of these used to be accepted
        ("q_feature_count", 0),
        ("q_bandwidth", 0.0),
        ("q_bandwidth", -1.0),
        ("model.bandwidth", 0.0),
        ("model.bandwidth", -0.5),
        ("model.poly_degree", -1),
        ("action_grid", []),
        ("epsilon_start", 1.5),
        ("epsilon_end", -0.1),
        ("rollout_epsilon", 2.0),
        ("fit_cap", 0),  # used to fail in every seed, with a ZeroDivisionError in BCQ
        ("lam", -1.0),  # used to turn the uncertainty penalty into a bonus
    ])
    def test_out_of_range_value_rejected_when_config_loads(self, field, value):
        *model, name = field.split(".")
        overrides = {"model": {name: value}} if model else {name: value}
        config = {"benchmark_id": "x", "env": {"name": "windygrid"},
                  "agent": {"name": "online_q", "config": overrides}}
        with pytest.raises(ValueError, match=name):
            read_record(hb.bench.BenchConfig, config, "config")

    @pytest.mark.parametrize("field,value", [
        ("eval_episodes", 2.5),  # used to fail at the first evaluation
        ("sweeps", True),
        ("epochs", "3"),
        ("rollout_batch", 1.5),
        ("q_feature_count", 256.0),
        ("fit_cap", -1),
    ])
    def test_non_integer_count_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AgentConfig(**{field: value})


class TestPolicySerialization:
    def test_q_policy_round_trip(self, grid_medium_dataset, grid_env):
        res = train_offline_bcq(grid_medium_dataset,
                                default_agent_config(grid_env), seed=0)
        back = policy_from_dict(policy_to_dict(res))
        probe = np.array([2.0, 3.0, 1.0])
        assert back.action_index(probe) == res.action_index(probe)
        assert np.array_equal(back.q.weights, res.q.weights)
        assert back.bc_threshold == res.bc_threshold

    def test_uniform_round_trip(self):
        pol = UniformPolicy((0, 1, 2), seed=3)
        back = policy_from_dict(policy_to_dict(pol))
        assert isinstance(back, UniformPolicy)
        assert back.action_grid == (0, 1, 2)

    def test_save_load_file(self, tmp_path, grid_medium_dataset, grid_env):
        res = train_offline_bcq(grid_medium_dataset,
                                default_agent_config(grid_env), seed=0)
        path = tmp_path / "policy.json"
        agents.save_policy(res, path)
        back = agents.load_policy(path)
        assert np.array_equal(back.q.weights, res.q.weights)

    def test_previous_format_file_refused(self, tmp_path, pendulum_bcq_policy):
        # a /4 random-Fourier policy was fit on float64-cosine features, so it
        # would score other actions than it was trained to
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(dict(policy_to_dict(pendulum_bcq_policy),
                                        format_version="hybench-policy/4")))
        with pytest.raises(ValueError, match=r"unsupported policy format 'hybench-policy/4'; "
                                             r"expected 'hybench-policy/5'"):
            agents.load_policy(path)


    def test_json_round_trip_is_bit_exact(self, pendulum_bcq_policy):
        # a float grid, the quadratic design and a behavior mask, through JSON text
        pol = with_epsilon(pendulum_bcq_policy, 0.1)
        back = policy_from_dict(json.loads(json.dumps(policy_to_dict(pol))))
        assert back.action_grid == pol.action_grid and back.epsilon == 0.1
        assert back.bc_threshold == pol.bc_threshold
        assert back.q.features == pol.q.features
        for a, b in ((back.q.weights, pol.q.weights), (back.q.basis, pol.q.basis),
                     (back.behavior.weights, pol.behavior.weights)):
            assert bits(a) == bits(b)
        obs = np.random.default_rng(0).normal(size=(200, 3))
        assert np.array_equal(back.action_indices(obs), pol.action_indices(obs))

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("epsilon"), r"policy is missing required keys \['epsilon'\]"),
        (lambda d: d.update(type="q"), r"unknown policy keys \['type'\]"),
        (lambda d: d["q"]["features"].update(bandwidth="0.9"),
         r"q.features.bandwidth must be a finite number"),
        (lambda d: d["q"]["weights"][3].append("x"), r"q.weights must be a nested list"),
        (lambda d: d["q"]["features"].update(kind="x"),
         r"q.features.kind must be one of 'polynomial', 'random_fourier', got 'x'"),
        (lambda d: d["q"]["features"].pop("seed"), r"q.features: .*seed"),
        (lambda d: d.update(format_version="hybench-policy/1"),
         r"unsupported policy format 'hybench-policy/1'"),
    ], ids=["missing", "unknown", "type", "ragged", "kind", "seed", "version"])
    def test_malformed_policy_fails_naming_field(self, pendulum_bcq_policy, edit, message):
        # these used to fail with a KeyError or TypeError, or to load
        d = json.loads(json.dumps(policy_to_dict(pendulum_bcq_policy)))
        edit(d)
        with pytest.raises(ValueError, match=message) as err:
            policy_from_dict(d)
        assert len(str(err.value)) < 300


def q_values(q, obs_batch):
    """Q(s, a_k) of each row of an observation batch, from the Q-function's
    own features, weights and action basis."""
    return q.features.transform(obs_batch) @ q.weights @ q.basis


def direct_action_index(policy, obs):
    """The greedy action of ``QPolicy.action_index`` computed without its memo."""
    row = np.asarray(obs, dtype=float)[None, :]
    scores = q_values(policy.q, row)[0]
    if policy.behavior is not None and policy.bc_threshold > 0.0:
        mask = policy.behavior.probs_batch(policy.q.features.transform(row))[0] >= \
            policy.bc_threshold
        if mask.any():
            scores = np.where(mask, scores, -np.inf)
    return int(np.argmax(scores))


class TestActionMemo:
    @pytest.mark.parametrize("bc_threshold", [0.0, 0.3], ids=["plain", "masked"])
    def test_memo_agrees_with_direct_argmax(self, grid_medium_dataset, grid_env,
                                            grid_mdp, bc_threshold):
        cfg = dataclasses.replace(default_agent_config(grid_env), bc_threshold=bc_threshold)
        policy = train_offline_bcq(grid_medium_dataset, cfg, seed=0)
        observations = np.unique(grid_mdp.observations, axis=0)
        expected = [direct_action_index(policy, obs) for obs in observations]
        for _ in range(2):
            assert [policy.action_index(obs) for obs in observations] == expected
        assert len(policy._memo) == len(observations)
        if bc_threshold > 0.0:  # the mask decides some of these actions
            unmasked = [int(np.argmax(q_values(policy.q, obs[None, :])[0]))
                        for obs in observations]
            assert unmasked != expected
        # copies and round trips start empty
        assert agents.with_epsilon(policy, 0.2)._memo == {}
        assert policy_from_dict(policy_to_dict(policy))._memo == {}

    def test_one_transform_per_distinct_observation(self, grid_medium_dataset, grid_env,
                                                    monkeypatch):
        res = train_offline_bcq(grid_medium_dataset, default_agent_config(grid_env), seed=0)
        policy = QPolicy(res.q, (0, 1, 2, 3))
        seen = []
        transform = agents.FeatureMap.transform

        def counting(fm, X):
            seen.append(np.asarray(X, dtype=float).tobytes())
            return transform(fm, X)

        monkeypatch.setattr(agents.FeatureMap, "transform", counting)
        evaluate_policy(hb.make_env("windygrid"), policy, episodes=50, seed=4)
        assert len(seen) == len(set(seen)) <= 50

    def test_masked_batch_is_featurized_once(self, pendulum_bcq_policy, monkeypatch):
        # the Q scores and the behavior mask share one expansion
        obs = np.stack([hb.make_env("pendulum").reset(seed=s) for s in range(50)])
        calls = kernel_rows(monkeypatch)
        pendulum_bcq_policy.action_indices(obs)
        assert [rows for _, rows in calls] == [50]

    def test_memo_stops_at_cap(self):
        env = hb.make_env("pendulum")
        cfg = default_agent_config(env)
        grid = agents.resolve_action_grid(env, cfg)
        fm = agents._build_q_features(env.obs_dim, cfg, seed=0)
        basis = agents._action_basis(grid, cfg.q_action_design)
        weights = np.random.default_rng(0).standard_normal((fm.output_dim, basis.shape[0]))
        policy = QPolicy(agents.QFunction(fm, weights, basis), grid)
        observations = np.random.default_rng(1).uniform(-1.0, 1.0, (1000, env.obs_dim))
        for obs in observations:
            assert policy.action_index(obs) == direct_action_index(policy, obs)
        assert len(policy._memo) == agents.ACTION_MEMO_CAP

    def test_cached_bytes_in_the_wrong_shape_still_raise(self, grid_medium_dataset,
                                                         grid_env):
        policy = train_offline_bcq(grid_medium_dataset, default_agent_config(grid_env),
                                   seed=0)
        obs = np.array([2.0, 3.0, 1.0])
        policy.action_index(obs)
        with pytest.raises(ValueError, match="input dim"):
            policy.action_index(obs[None, :])



def bellman_two_solves(blocks, weights, grid, design, gamma, ridge, iterations, W0):
    """Reference fit as it was before the factor inverse and the shared action
    basis: weighted blocks with optional next-state masks, no return bound,
    grams built per action (onehot) or from tau moments (quadratic), and two
    general solves on the Cholesky factor per system and iteration."""
    vals = np.asarray(grid, dtype=float)
    a = vals / np.abs(vals).max()
    powers = np.stack([np.ones_like(a), a, a * a])
    F, K = blocks[0].Phi.shape[1], len(grid)
    if design == "onehot":
        grams = [sum(w * b.Phi[b.A == k].T @ b.Phi[b.A == k] for b, w in zip(blocks, weights))
                 for k in range(K)]
    else:
        moments = [sum(w * b.Phi.T @ (a[b.A][:, None] ** j * b.Phi)
                       for b, w in zip(blocks, weights)) for j in range(5)]
        grams = [np.block([[moments[p + q] for q in range(3)] for p in range(3)])]
    chols = [np.linalg.cholesky(ridge * np.eye(len(g)) + g) for g in grams]
    v_lo = min(min(b.R.min(), b.R.min() / (1 - gamma)) for b in blocks)
    v_hi = max(max(b.R.max(), b.R.max() / (1 - gamma)) for b in blocks)
    W = W0
    for _ in range(iterations):
        rhss = [np.zeros(len(g)) for g in grams]
        for b, w in zip(blocks, weights):
            scores = b.Phi2 @ W if design == "onehot" else b.Phi2 @ W @ powers
            if b.mask2 is not None:
                scores = np.where(b.mask2, scores, -np.inf)
            y = b.R + gamma * ~b.D * np.clip(scores.max(axis=1), v_lo, v_hi)
            if design == "onehot":
                for k in range(K):
                    rhss[k] += w * b.Phi[b.A == k].T @ y[b.A == k]
            else:
                rhss[0] += w * np.concatenate([b.Phi.T @ (a[b.A] ** p * y) for p in range(3)])
        W = np.stack([np.linalg.solve(c.T, np.linalg.solve(c, r))
                      for c, r in zip(chols, rhss)], axis=1)
        if design == "quadratic":
            W = W[:, 0].reshape(3, F).T
    return W


def gram_updates(monkeypatch) -> dict:
    """Per block, the row count of each call of ``_Block._add_grams`` from
    now on, checking that each call adds the rows after those added before."""
    updates = {}
    add = agents._Block._add_grams

    def spy(block, Phi, A):
        done = sum(updates.setdefault(block, []))
        assert bits(Phi) == bits(block.Phi[done:done + len(A)])
        assert np.array_equal(A, block.A[done:done + len(A)])
        updates[block].append(len(A))
        add(block, Phi, A)

    monkeypatch.setattr(agents._Block, "_add_grams", spy)
    return updates


def assert_one_shot_grams(block, grams):
    one_shot = np.stack([block.Phi[block.A == k].T @ block.Phi[block.A == k]
                         for k in range(len(grams))])
    assert np.abs(grams - one_shot).max() <= 1e-12 * np.abs(one_shot).max()


class TestBlock:
    def test_grams_read_between_appends(self):
        # a 1-row chunk, an empty one and the rest; reading twice adds nothing
        blocks, _, _, basis, _ = TestBellmanKernel._blocks("quadratic", masked=False)
        whole = blocks[0]
        block = agents._Block(basis, whole.n, whole.Phi.shape[1])
        for rows in np.split(np.arange(whole.n), [1, 1, 90, 91, 260]):
            block.append(whole.Phi[rows], whole.A[rows], whole.R[rows], whole.Phi2[rows],
                         whole.D[rows])
            grams = block.grams.copy()
            assert_one_shot_grams(block, grams)
            assert bits(block.grams) == bits(grams)
        assert bits(block.Phi) == bits(whole.Phi) and bits(block.Phi2) == bits(whole.Phi2)
        assert block.n == whole.n and block.G is None

    @pytest.mark.parametrize("agent", ["online", "mopo_lite"])
    def test_each_row_enters_the_grams_once(self, agent, monkeypatch):
        # each fit adds the grams of its new rows only, so a block takes one
        # update per sweep or epoch that appended rows, over its rows in order
        env = hb.make_env("pendulum", {"horizon": 30})
        base = default_agent_config(env)
        updates = gram_updates(monkeypatch)
        if agent == "online":
            cfg = dataclasses.replace(base, eval_episodes=3, q_feature_count=64)
            res = train_online_q(env, cfg, seed=0, budget=600)
            fits = {res.curve[-1][0]: len(res.curve)}
        else:
            grid = agents.resolve_action_grid(env, base)
            ds = data.collect_dataset(env, UniformPolicy(grid, seed=0), 300, "observed", seed=0)
            cfg = dataclasses.replace(base, q_feature_count=32, epochs=4, rollout_horizon=3,
                                      rollout_batch=8, model=dataclasses.replace(
                                          base.model, n_members=2, feature_count=32))
            res = train_mopo_lite(ds, cfg, seed=0)
            fits = {len(ds): 1, len(res.trace): cfg.epochs}
        assert {blk.n: len(sizes) for blk, sizes in updates.items()} == fits
        for blk, sizes in updates.items():
            assert sum(sizes) == blk.n
            assert_one_shot_grams(blk, blk.grams)


class TestBellmanKernel:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 1539])
    def test_tril_inverse_inverts(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        L = np.linalg.cholesky(A @ A.T + np.eye(n))
        assert np.abs(agents._tril_inverse(L.copy()) @ L - np.eye(n)).max() < 1e-10

    def test_cholesky_reads_only_the_lower_triangle(self):
        # _bellman_iterate fills only the gram blocks p >= q: a numpy whose
        # cholesky read the strict upper triangle would fail here
        A = np.random.default_rng(0).standard_normal((600, 600))
        G = A @ A.T + np.eye(600)
        lower = G.copy()
        lower[np.triu_indices(600, 1)] = np.nan
        assert bits(np.linalg.cholesky(lower)) == bits(np.linalg.cholesky(G))

    @staticmethod
    def _blocks(design, masked):
        """One pendulum block of weight 1/n or, with ``masked``, two blocks of
        unequal weights whose second restricts the next-state argmax (the
        model-based and offline path)."""
        env = hb.make_env("pendulum", {"horizon": 50})
        config = dataclasses.replace(default_agent_config(env), q_feature_count=60,
                                     q_action_design=design)
        grid = agents.resolve_action_grid(env, config)
        basis = agents._action_basis(grid, design)
        fm = agents._build_q_features(env.obs_dim, config, seed=0)
        blocks = []
        for seed, n in ((1, 400), (2, 250))[:1 + masked]:
            ds = data.collect_dataset(env, UniformPolicy(grid, seed=seed), n, "observed", seed)
            O, A, R, O2, D = ds.arrays()
            idx = actions_to_indices(A, grid)
            assert len(np.unique(idx)) == len(grid)
            block = agents._Block(basis, n, fm.output_dim)
            block.append(fm.transform(O), idx, R, fm.transform(O2), D)
            if blocks:
                block.mask2 = np.random.default_rng(seed).random((n, len(grid))) < 0.4
                block.mask2[:5] = True  # rows that allow every action
            blocks.append(block)
        weights = [1.0 / blocks[0].n] if not masked else [0.7 / blocks[0].n, 0.3 / blocks[1].n]
        return blocks, weights, grid, basis, config

    @pytest.mark.parametrize("design", ["onehot", "quadratic"])
    def test_matches_two_solves_on_the_factor(self, design):
        self._check_against_reference(design, masked=False)

    @pytest.mark.parametrize("design", ["onehot", "quadratic"])
    def test_weighted_masked_blocks_match_two_solves(self, design):
        self._check_against_reference(design, masked=True)

    def _check_against_reference(self, design, masked):
        blocks, weights, grid, basis, config = self._blocks(design, masked)
        F = blocks[0].Phi.shape[1]
        W0 = np.random.default_rng(2).standard_normal((F, len(basis)))
        args = (config.gamma, config.q_ridge, 6, W0)
        W = agents._bellman_iterate(blocks, weights, basis, *args)
        W_ref = bellman_two_solves(blocks, weights, grid, design, *args)
        np.testing.assert_allclose(W, W_ref, rtol=1e-9, atol=1e-9 * np.abs(W_ref).max())

    @pytest.mark.parametrize("kind", ["polynomial", "random_fourier"])
    def test_block_features_equal_the_plain_transform(self, grid_env, kind):
        # blocks take transform rows, which compute each distinct windygrid
        # observation once, with the bits of computing every row
        config = dataclasses.replace(default_agent_config(grid_env), q_feature_kind=kind)
        grid = agents.resolve_action_grid(grid_env, config)
        fm = agents._build_q_features(grid_env.obs_dim, config, seed=0)
        ds = data.collect_dataset(grid_env, UniformPolicy(grid, seed=1), 3000, "observed", 1)
        O, _, _, O2, _ = ds.arrays()
        assert 2 * len(np.unique(O, axis=0)) < len(O)
        assert bits(fm.transform(O)) == bits(fm._expand(O))
        assert bits(fm.transform(O2)) == bits(fm._expand(O2))
