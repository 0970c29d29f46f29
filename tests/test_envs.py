import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import hybench as hb
from hybench import seeding
from hybench.envs import (ContinuousActions, DiscreteActions, EnvError, pendulum_energy,
                          wrap_angle)


def rollout(env, actions, seed=0):
    obs = [env.reset(seed=seed)]
    rewards = []
    for a in actions:
        res = env.step(a)
        rewards.append(res.reward)
        obs.append(env.reset() if res.done else res.obs)
    return np.stack(obs), np.array(rewards)


class TestPendulumStep:
    def test_upright_fixed_point(self):
        (theta, omega), reward = hb.pendulum_step((0.0, 0.0), 0.0, hb.PendulumParams())
        assert abs(theta) < 1e-15
        assert abs(omega) < 1e-15
        assert abs(reward) < 1e-15

    def test_hanging_equilibrium(self):
        (theta, omega), reward = hb.pendulum_step(
            (math.pi, 0.0), 0.0, hb.PendulumParams()
        )
        assert abs(omega) < 1e-15
        assert theta == pytest.approx(math.pi, abs=1e-12)
        assert reward == pytest.approx(-math.pi**2, abs=1e-12)

    def test_matches_independent_reimplementation(self):
        # second implementation of the same update rule, written from scratch
        p = hb.PendulumParams()
        theta, omega, torque = math.pi / 2, 0.0, 1.0
        tq = max(-p.torque_limit, min(p.torque_limit, torque))
        om2 = omega + p.dt * (
            -(p.gravity / p.length) * math.sin(theta + math.pi)
            + tq / (p.mass * p.length**2)
            - p.friction * omega
        )
        th2 = theta + p.dt * om2
        th2 = math.atan2(math.sin(th2), math.cos(th2))
        (got_th, got_om), _ = hb.pendulum_step((theta, omega), torque, p)
        assert got_th == pytest.approx(th2, abs=1e-12)
        assert got_om == pytest.approx(om2, abs=1e-12)

    def test_torque_clamped(self):
        p = hb.PendulumParams()
        s_clamped, r_clamped = hb.pendulum_step((1.0, 0.0), 100.0, p)
        s_limit, r_limit = hb.pendulum_step((1.0, 0.0), p.torque_limit, p)
        assert s_clamped == s_limit
        assert r_clamped == r_limit

    def test_non_finite_state_rejected(self):
        with pytest.raises(EnvError):
            hb.pendulum_step((float("nan"), 0.0), 0.0, hb.PendulumParams())
        with pytest.raises(EnvError):
            hb.pendulum_step((0.0, float("inf")), 0.0, hb.PendulumParams())

    def test_energy_drift_bounded(self):
        # friction-free, torque-free: the secular (time-averaged) energy error
        # of the symplectic update stays within 2% over an episode; the
        # instantaneous oscillation is O(dt) and larger.
        params = hb.PendulumParams(friction=0.0)
        for theta0, omega0 in ((math.pi / 2, 0.0), (1.0, 0.5), (0.5, -1.0)):
            state = (theta0, omega0)
            e0 = pendulum_energy(state, params)
            energies = []
            for _ in range(params.horizon):
                state, _ = hb.pendulum_step(state, 0.0, params)
                energies.append(pendulum_energy(state, params))
            drift = abs(np.mean(energies) - e0) / e0
            assert drift <= 0.02, f"secular energy drift {drift:.3%} from {theta0}"


def scalar_pendulum_step(theta, omega, torque, p):
    """The pendulum update on Python floats with math.sin and float ``**``,
    written out independently of ``pendulum_step``."""
    tq = min(max(torque, -p.torque_limit), p.torque_limit)
    theta = math.pi - (math.pi - theta) % (2.0 * math.pi)
    omega2 = omega + p.dt * (-(p.gravity / p.length) * math.sin(theta + math.pi)
                             + tq / (p.mass * p.length**2) - p.friction * omega)
    theta2 = math.pi - (math.pi - (theta + p.dt * omega2)) % (2.0 * math.pi)
    return theta2, omega2, -(theta2**2 + 0.1 * omega2**2 + 0.001 * tq**2)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPendulumStepBatch:
    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(0)
        n = 10_000
        theta = rng.uniform(-4 * math.pi, 4 * math.pi, n)
        omega = rng.uniform(-15.0, 15.0, n)
        torque = rng.uniform(-3.0, 3.0, n)  # a quarter beyond the +-2 limit
        edges = list(itertools.product(
            (math.pi, -math.pi, 0.0, -0.0, 3 * math.pi, 1e-300),
            (0.0, 1e3, -1e4, 8.5),
            (0.0, 2.0, -2.0, 2.0000001, 1e6, -1e9)))
        edge = np.array(edges).T
        return (np.concatenate([theta, edge[0]]), np.concatenate([omega, edge[1]]),
                np.concatenate([torque, edge[2]]))

    @pytest.mark.parametrize("params", [
        hb.PendulumParams(),
        hb.PendulumParams(gravity=4.0, friction=0.0, mass=1.5, length=0.7,
                          torque_limit=1.0, dt=0.02),
    ], ids=["default", "perturbed"])
    def test_batch_equals_scalar_calls(self, inputs, params):
        theta, omega, torque = inputs
        (theta2, omega2), reward = hb.pendulum_step((theta, omega), torque, params)
        assert theta2.shape == omega2.shape == reward.shape == theta.shape
        rows = [hb.pendulum_step((t, w), q, params)
                for t, w, q in zip(theta.tolist(), omega.tolist(), torque.tolist())]
        assert bits(theta2) == bits([r[0][0] for r in rows])
        assert bits(omega2) == bits([r[0][1] for r in rows])
        assert bits(reward) == bits([r[1] for r in rows])
        # and both equal the update on Python floats, squares by libm pow
        ref = [scalar_pendulum_step(t, w, q, params)
               for t, w, q in zip(theta.tolist(), omega.tolist(), torque.tolist())]
        assert bits(theta2) == bits([r[0] for r in ref])
        assert bits(omega2) == bits([r[1] for r in ref])
        assert bits(reward) == bits([r[2] for r in ref])

    def test_scalar_inputs_give_scalars(self):
        (theta, omega), reward = hb.pendulum_step((1.0, 0.5), 1.0, hb.PendulumParams())
        for value in (theta, omega, reward):
            assert isinstance(value, float) and np.ndim(value) == 0

    @pytest.mark.parametrize("where", ["theta", "omega", "torque"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, where, bad):
        arrays = {name: np.zeros(5) for name in ("theta", "omega", "torque")}
        arrays[where][3] = bad
        with pytest.raises(EnvError, match="non-finite"):
            hb.pendulum_step((arrays["theta"], arrays["omega"]), arrays["torque"],
                             hb.PendulumParams())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EnvError, match="shapes differ"):
            hb.pendulum_step((np.zeros(3), np.zeros(3)), np.zeros(2), hb.PendulumParams())


class TestPendulumEnv:
    def test_reset_deterministic(self):
        env = hb.make_env("pendulum")
        a = env.reset(seed=7)
        b = hb.make_env("pendulum").reset(seed=7)
        assert np.array_equal(a, b)

    def test_observation_dim_and_identity(self):
        env = hb.make_env("pendulum")
        obs = env.reset(seed=3)
        assert obs.shape == (3,)
        for _ in range(50):
            res = env.step(0.5)
            assert res.obs.shape == (3,)
            assert abs(res.obs[0] ** 2 + res.obs[1] ** 2 - 1.0) < 1e-9

    def test_trajectories_bit_exact(self):
        actions = np.linspace(-2, 2, 40)
        o1, r1 = rollout(hb.make_env("pendulum"), actions, seed=11)
        o2, r2 = rollout(hb.make_env("pendulum"), actions, seed=11)
        assert np.array_equal(o1, o2)
        assert np.array_equal(r1, r2)

    def test_unseeded_first_reset_rejected(self):
        with pytest.raises(EnvError):
            hb.make_env("pendulum").reset()

    def test_step_after_done_rejected(self):
        env = hb.make_env("pendulum", {"horizon": 3})
        env.reset(seed=0)
        for _ in range(3):
            res = env.step(0.0)
        assert res.done
        with pytest.raises(EnvError):
            env.step(0.0)

    def test_full_state_matches_observation(self):
        env = hb.make_env("pendulum")
        obs = env.reset(seed=5)
        theta, omega = env.full_state()
        # full state is the privileged (theta, omega) pair behind the obs
        assert env.full_state().shape == (2,)
        assert obs[0] == math.cos(theta)
        assert obs[1] == math.sin(theta)
        assert obs[2] == omega


class TestPendulumSimulateStep:
    def test_batch_equals_rows_one_at_a_time(self):
        env = hb.make_env("pendulum", {"gravity": 7.0, "friction": 0.2})
        rng = np.random.default_rng(1)
        n = 2000
        theta = rng.uniform(-math.pi, math.pi, n)
        radius = rng.uniform(0.5, 1.5, n)  # noisy observations still decode
        O = np.stack([radius * np.cos(theta), radius * np.sin(theta),
                      rng.uniform(-8.0, 8.0, n)], axis=1)
        A = rng.uniform(-3.0, 3.0, n)
        batch = env.simulate_step(O, A)
        assert batch.shape == (n, 3)
        rows = [env.simulate_step(O[i:i + 1], A[i:i + 1]) for i in range(n)]
        assert bits(batch) == bits(np.concatenate(rows))
        expected = []
        for (c, s, omega), a in zip(O.tolist(), A.tolist()):
            theta2, omega2, _ = scalar_pendulum_step(wrap_angle(math.atan2(s, c)), omega,
                                                     a, env.params)
            expected.append((math.cos(theta2), math.sin(theta2), omega2))
        assert bits(batch) == bits(expected)

    def test_empty_batch(self):
        out = hb.make_env("pendulum").simulate_step(np.empty((0, 3)), np.empty(0))
        assert out.shape == (0, 3)

    def test_non_invertible_row_rejected(self):
        O = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(EnvError, match="not invertible"):
            hb.make_env("pendulum").simulate_step(O, [0.0, 0.0])


class TestWindyGrid:
    def test_plain_move(self):
        params = hb.WindyGridParams()
        cell, reward, done = hb.windygrid_step((0, 0), 0, 3, params)  # right
        assert cell == (1, 0)
        assert reward == params.step_penalty
        assert not done

    def test_wind_push_clamped_at_bottom(self):
        params = hb.WindyGridParams()
        cell, _, _ = hb.windygrid_step((2, 0), 1, 3, params)
        assert cell == (3, 0)

    def test_goal_reached(self):
        params = hb.WindyGridParams()
        gx, gy = params.goal
        cell, reward, done = hb.windygrid_step((gx, gy + 1), 0, 1, params)  # down
        assert cell == params.goal
        assert reward == params.goal_reward
        assert done

    def test_wind_pushes_past_goal(self):
        params = hb.WindyGridParams()
        gx, gy = params.goal
        cell, reward, done = hb.windygrid_step((gx, gy + 1), 1, 1, params)
        assert cell == (gx, gy - 1)
        assert not done

    def test_out_of_bounds_rejected(self):
        with pytest.raises(EnvError):
            hb.windygrid_step((9, 0), 0, 0, hb.WindyGridParams())

    def test_transition_matrix_matches_enumeration(self):
        # independent implementation of the rule, enumerated exhaustively
        from hybench.oracle import windygrid_mdp

        params = hb.WindyGridParams()
        mdp = windygrid_mdp(params)
        moves = {0: (0, 1), 1: (0, -1), 2: (-1, 0), 3: (1, 0)}
        index = {lab: i for i, lab in enumerate(mdp.labels)}
        for (cell, wind), s in ((lab, i) for i, lab in enumerate(mdp.labels)
                                if lab != "terminal"):
            for a in range(4):
                dx, dy = moves[a]
                x2 = min(max(cell[0] + dx, 0), params.width - 1)
                y2 = min(max(cell[1] + dy, 0), params.height - 1)
                if wind:
                    y2 = max(y2 - 1, 0)
                expected = np.zeros(mdp.n_states)
                if (x2, y2) == params.goal:
                    expected[index["terminal"]] = 1.0
                    assert mdp.rewards[s, a] == params.goal_reward
                else:
                    expected[index[((x2, y2), 0)]] += 1 - params.wind_prob
                    expected[index[((x2, y2), 1)]] += params.wind_prob
                    assert mdp.rewards[s, a] == params.step_penalty
                assert np.allclose(mdp.transitions[s, a], expected)

    def test_kernel_rows_sum_to_one(self):
        from hybench.oracle import windygrid_mdp

        mdp = windygrid_mdp(hb.WindyGridParams())
        assert np.allclose(mdp.transitions.sum(axis=2), 1.0)

    def test_env_full_state_reveals_wind(self):
        env = hb.make_env("windygrid")
        obs = env.reset(seed=4)
        assert np.array_equal(obs, env.full_state())
        assert obs[2] in (0.0, 1.0)

    def test_env_trajectory_deterministic(self):
        actions = [0, 3, 3, 1, 2, 0, 3, 3, 3, 1] * 3
        o1, r1 = rollout(hb.make_env("windygrid"), actions, seed=9)
        o2, r2 = rollout(hb.make_env("windygrid"), actions, seed=9)
        assert np.array_equal(o1, o2)
        assert np.array_equal(r1, r2)


class TestWindyGridSimulateStep:
    """The simulator's reconstruction rule: coordinates round half to even
    and clamp to the grid, wind is on above 0.5, and the next wind is
    predicted by its mean."""

    @pytest.mark.parametrize("params", [
        hb.WindyGridParams(),
        # not square, so swapped axes would show
        hb.WindyGridParams(width=4, height=3, wind_prob=0.25, goal=(3, 0), start=(0, 2)),
    ])
    def test_equals_step_rule_for_every_input(self, params):
        rows = list(itertools.product(range(params.width), range(params.height),
                                      (0, 1), range(4)))
        O = np.array([(x, y, wind) for x, y, wind, _ in rows], dtype=float)
        A = np.array([a for *_, a in rows])
        pred = hb.WindyGridEnv(params).simulate_step(O, A)
        assert pred.shape == (len(rows), 3)
        for (x, y, wind, a), row in zip(rows, pred.tolist()):
            (x2, y2), _, _ = hb.windygrid_step((x, y), wind, a, params)
            assert row == [x2, y2, params.wind_prob]

    @pytest.mark.parametrize("value,cell", [
        (2.5, 2), (3.5, 4), (-0.4, 0), (0.5, 0), (1.5, 2), (2.49, 2), (-3.0, 0), (7.6, 4),
    ])
    def test_off_grid_rows_round_half_to_even_and_clamp(self, value, cell):
        params = hb.WindyGridParams()
        O = np.full((4, 3), [value, value, 0.0])
        pred = hb.WindyGridEnv(params).simulate_step(O, [0, 1, 2, 3])
        for a, row in enumerate(pred.tolist()):
            (x2, y2), _, _ = hb.windygrid_step((cell, cell), 0, a, params)
            assert row[:2] == [x2, y2]

    def test_wind_on_above_half(self):
        env = hb.make_env("windygrid", {"wind_prob": 0.7})
        winds = [-2.0, 0.0, 0.5, 0.5000001, 1.0, 3.0]
        O = np.array([(2.0, 2.0, w) for w in winds])
        pred = env.simulate_step(O, np.full(len(winds), 3))
        assert pred[:, 1].tolist() == [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
        assert (pred[:, 2] == 0.7).all()

    @pytest.mark.parametrize("action", [-1, 4])
    def test_action_outside_range_rejected(self, action):
        with pytest.raises(EnvError, match="action"):
            hb.make_env("windygrid").simulate_step(np.zeros((2, 3)), [0, action])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observation_rejected(self, bad):
        O = np.zeros((2, 3))
        O[1, 0] = bad
        with pytest.raises(EnvError, match="non-finite"):
            hb.make_env("windygrid").simulate_step(O, [0, 0])


class TestBandit:
    def test_paper_table_frequencies(self):
        spec = hb.BanditSpec()
        rng = np.random.default_rng(0)
        n = 1_000_000
        draws = np.array([hb.bandit_pull(1, 1, spec, rng) for _ in range(1000)])
        # vectorized equivalent for the big sample
        u = rng.random(n)
        assert abs((u < 0.5).mean() - 0.5) < 0.002  # sanity of the check itself
        mean_11 = (np.random.default_rng(1).random(n) < float(spec.reward_table[1][1])).mean()
        assert abs(mean_11 - 0.5) < 0.002
        mean_00 = (np.random.default_rng(2).random(n) < float(spec.reward_table[0][0])).mean()
        assert abs(mean_00 - 1 / 6) < 0.002
        assert set(draws) <= {0, 1}

    def test_empirical_frequencies_within_3_sigma(self):
        spec = hb.BanditSpec()
        n = 1_000_000
        rng = np.random.default_rng(5)
        for z in (0, 1):
            for a in (0, 1):
                p = float(spec.reward_table[z][a])
                mean = (rng.random(n) < p).mean()
                sigma = math.sqrt(p * (1 - p) / n)
                assert abs(mean - p) <= 3 * sigma

    def test_zero_table_never_rewards(self):
        spec = hb.BanditSpec(reward_table=((0, 0), (0, 0)))
        rng = np.random.default_rng(3)
        assert all(hb.bandit_pull(z, a, spec, rng) == 0
                   for z in (0, 1) for a in (0, 1) for _ in range(100))

    def test_env_single_decision(self):
        env = hb.make_env("bandit")
        obs = env.reset(seed=1)
        assert obs.shape == (0,)
        assert env.full_state().shape == (1,)
        res = env.step(1)
        assert res.done
        with pytest.raises(EnvError):
            env.step(0)


class TestConstruction:
    def test_make_env_overrides(self):
        env = hb.make_env("pendulum", {"gravity": 19.62, "horizon": 10})
        assert env.params.gravity == 19.62
        assert env.params.horizon == 10

    def test_unknown_env_and_param_rejected(self):
        with pytest.raises(EnvError):
            hb.make_env("acrobot")
        with pytest.raises(EnvError):
            hb.make_env("pendulum", {"mass_of_moon": 1.0})

    def test_invalid_param_value_rejected(self):
        with pytest.raises(EnvError):
            hb.make_env("pendulum", {"gravity": -1.0})
        with pytest.raises(EnvError):
            hb.make_env("windygrid", {"start": [4, 1]})  # equals goal

    @pytest.mark.parametrize("build,field", [
        # each of these used to construct and run (8- and 3-step episodes)
        (lambda: hb.WindyGridParams(width=5.5), "width"),
        (lambda: hb.WindyGridParams(horizon=7.5), "horizon"),
        (lambda: hb.PendulumParams(horizon=2.5), "horizon"),
        (lambda: DiscreteActions(2.5), "count"),
        (lambda: ContinuousActions(-1.0, 1.0, dim=1.5), "dim"),
        (lambda: hb.WindyGridParams(goal=(4.0, 1)), "goal"),
        (lambda: hb.BanditSpec(reward_table=((0.5, 0.5),)), "reward_table"),
        (lambda: hb.BanditSpec(reward_table=((0.5, 0.5), (0.5,))), "reward_table"),
    ], ids=["width", "windygrid_horizon", "pendulum_horizon", "count", "dim", "goal",
            "one_row", "short_row"])
    def test_param_record_checks_its_fields(self, build, field):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            build()

    def test_param_records_store_read_values(self):
        params = hb.WindyGridParams(goal=[4, np.int64(2)], start=[0, 4])
        assert params.goal == (4, 2) and type(params.goal[1]) is int
        assert params.start == (0, 4)
        spec = hb.BanditSpec(reward_table=[[Fraction(1, 5), 0.5], [0, 1]])
        assert spec.reward_table == ((Fraction(1, 5), 0.5), (0, 1))
        assert type(spec.reward_table[0][0]) is Fraction and type(spec.p_z0) is Fraction

    def test_wrap_angle_range(self):
        for x in np.linspace(-20, 20, 401):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
        assert wrap_angle(math.pi) == math.pi


class TestSeeds:
    """A seed is an integer >= 0 wherever it is given; 2.5 and True used to
    be truncated to the streams of seeds 2 and 1."""

    @pytest.mark.parametrize("use", [
        lambda seed: seeding.derived_rng(seed, seeding.DYNAMICS),
        lambda seed: seeding.derived_seed(seed, seeding.REFS),
        lambda seed: hb.make_env("windygrid").reset(seed=seed),
        lambda seed: hb.with_obs_noise(hb.make_env("pendulum"), 0.1).reset(seed=seed),
        lambda seed: hb.UniformPolicy((0, 1), seed=seed),
        lambda seed: hb.UniformPolicy((0, 1)).reseed(seed),
        lambda seed: hb.evaluate_policy(hb.make_env("windygrid"), hb.UniformPolicy((0, 1, 2, 3)),
                                        5, seed=seed),
    ], ids=["derived_rng", "derived_seed", "reset", "obs_noise_reset", "policy", "reseed",
            "evaluate_policy"])
    @pytest.mark.parametrize("seed", [2.5, 3.7, True, -1])
    def test_non_integer_seed_rejected(self, use, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            use(seed)

    def test_numpy_integer_seed_reads_as_int(self):
        a = seeding.derived_rng(np.uint64(7), seeding.DYNAMICS).random(3)
        assert np.array_equal(a, seeding.derived_rng(7, seeding.DYNAMICS).random(3))
