import numpy as np
import pytest

import hybench as hb
from hybench import agents, data
from hybench.bench import BenchConfig, config_hash
from hybench.data import SPEC_KINDS, DatasetRecipe, apply_specs, check_spec
from hybench.envs import EnvError
from hybench.records import read_record
from hybench.wrappers import clone_env, env_signature


def run_trajectory(env, actions, seed=0):
    obs = [env.reset(seed=seed)]
    rewards = []
    for a in actions:
        res = env.step(a)
        rewards.append(res.reward)
        obs.append(env.reset() if res.done else res.obs)
    return np.stack(obs), np.array(rewards)


PENDULUM_ACTIONS = list(np.linspace(-2, 2, 60))


class TestTransitionOverride:
    def test_paper_levels(self):
        env = hb.make_env("pendulum")
        doubled = hb.with_transition_error(env, {"gravity": 19.62})
        assert doubled.params.gravity == 19.62
        lowered = hb.with_transition_error(env, {"friction": 0.015})
        assert lowered.params.friction == 0.015

    def test_dynamics_actually_change(self):
        o_true, _ = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=2)
        wrong = hb.with_transition_error(hb.make_env("pendulum"), {"gravity": 19.62})
        o_sim, _ = run_trajectory(wrong, PENDULUM_ACTIONS, seed=2)
        assert not np.allclose(o_true, o_sim)

    def test_empty_override_identity(self):
        base, _ = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=5)
        same, _ = run_trajectory(
            hb.with_transition_error(hb.make_env("pendulum"), {}), PENDULUM_ACTIONS, seed=5
        )
        assert np.array_equal(base, same)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(EnvError):
            hb.with_transition_error(hb.make_env("pendulum"), {"wind": 1.0})

    def test_applies_through_wrapper_chain(self):
        env = hb.with_obs_noise(hb.make_env("pendulum"), 0.1)
        out = hb.with_transition_error(env, {"gravity": 19.62})
        assert out.params.gravity == 19.62
        assert type(out).__name__ == "ObsNoiseWrapper"


class TestObsNoise:
    def test_sigma_zero_bit_identical(self):
        base, rb = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=7)
        noisy, rn = run_trajectory(
            hb.with_obs_noise(hb.make_env("pendulum"), 0.0), PENDULUM_ACTIONS, seed=7
        )
        assert np.array_equal(base, noisy)
        assert np.array_equal(rb, rn)

    @pytest.mark.parametrize("sigma", [0.01, 0.05])
    def test_empirical_std(self, sigma):
        env = hb.with_obs_noise(hb.make_env("pendulum"), sigma)
        obs = env.reset(seed=1)
        diffs = []
        while len(diffs) * 3 < 100_000:
            res = env.step(0.0)
            theta, omega = env.full_state()
            clean = np.array([np.cos(theta), np.sin(theta), omega])
            diffs.append(res.obs - clean)
            if res.done:
                env.reset()
        std = np.asarray(diffs).ravel().std()
        assert abs(std - sigma) / sigma < 0.05

    def test_noise_does_not_touch_dynamics(self):
        # same master seed: the underlying trajectory matches the unwrapped
        # env's exactly, whatever the noise level
        env = hb.with_obs_noise(hb.make_env("pendulum"), 0.5)
        env.reset(seed=13)
        states = []
        for a in PENDULUM_ACTIONS[:30]:
            env.step(a)
            states.append(env.full_state())
        clean = hb.make_env("pendulum")
        clean.reset(seed=13)
        clean_states = []
        for a in PENDULUM_ACTIONS[:30]:
            clean.step(a)
            clean_states.append(clean.full_state())
        assert np.array_equal(np.stack(states), np.stack(clean_states))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            hb.with_obs_noise(hb.make_env("pendulum"), -0.1)


class TestHiddenDims:
    def test_hide_omega(self):
        env = hb.with_hidden_dims(hb.make_env("pendulum"), [2])
        obs = env.reset(seed=0)
        assert obs[2] == 0.0
        for _ in range(20):
            res = env.step(1.0)
            assert res.obs[2] == 0.0
            assert res.obs[0] != 0.0 or res.obs[1] != 0.0

    def test_empty_identity(self):
        base, _ = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=3)
        same, _ = run_trajectory(
            hb.with_hidden_dims(hb.make_env("pendulum"), []), PENDULUM_ACTIONS, seed=3
        )
        assert np.array_equal(base, same)

    def test_windygrid_hidden_wind(self):
        env = hb.with_hidden_dims(hb.make_env("windygrid"), [2])
        obs = env.reset(seed=2)
        assert obs[2] == 0.0
        assert env.full_state()[2] in (0.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hb.with_hidden_dims(hb.make_env("pendulum"), [3])

    def test_composition_zeroes_after_noise(self):
        env = hb.with_hidden_dims(hb.with_obs_noise(hb.make_env("pendulum"), 0.5), [1, 2])
        obs = env.reset(seed=9)
        assert obs[1] == 0.0 and obs[2] == 0.0
        for _ in range(10):
            res = env.step(0.5)
            assert res.obs[1] == 0.0 and res.obs[2] == 0.0
            assert res.obs[0] != 0.0


class TestActionNoise:
    def test_sigma_zero_identity(self):
        base, rb = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=4)
        same, rs = run_trajectory(
            hb.with_action_noise(hb.make_env("pendulum"), 0.0), PENDULUM_ACTIONS, seed=4
        )
        assert np.array_equal(base, same)
        assert np.array_equal(rb, rs)

    @pytest.mark.parametrize("sigma", [0.2, 0.5])
    def test_empirical_std(self, sigma):
        env = hb.with_action_noise(hb.make_env("pendulum"), sigma)
        env.reset(seed=6)
        diffs = []
        for _ in range(100_000):
            res = env.step(0.0)
            diffs.append(env.last_executed_action[0])
            if res.done:
                env.reset()
        std = np.asarray(diffs).std()
        assert abs(std - sigma) / sigma < 0.05

    def test_clamped_to_bounds(self):
        env = hb.with_action_noise(hb.make_env("pendulum"), 0.5)
        env.reset(seed=8)
        for _ in range(500):
            res = env.step(2.0)
            assert env.last_executed_action[0] <= 2.0
            if res.done:
                env.reset()

    def test_discrete_env_rejected(self):
        with pytest.raises(ValueError):
            hb.with_action_noise(hb.make_env("windygrid"), 0.2)


class TestActionDelay:
    def test_zero_delay_identity(self):
        base, rb = run_trajectory(hb.make_env("pendulum"), PENDULUM_ACTIONS, seed=1)
        same, rs = run_trajectory(
            hb.with_action_delay(hb.make_env("pendulum"), 0), PENDULUM_ACTIONS, seed=1
        )
        assert np.array_equal(base, same)
        assert np.array_equal(rb, rs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_replay_equivalence(self, d):
        # delayed trajectory equals the plain trajectory of the shifted action
        # sequence prefixed by d zero-actions
        actions = list(np.linspace(-2, 2, 50))
        delayed = hb.with_action_delay(hb.make_env("pendulum", {"horizon": 500}), d)
        obs_delayed = [delayed.reset(seed=14)]
        for a in actions:
            obs_delayed.append(delayed.step(a).obs)
        plain = hb.make_env("pendulum", {"horizon": 500})
        shifted = [0.0] * d + actions[: len(actions) - d]
        obs_plain = [plain.reset(seed=14)]
        for a in shifted:
            obs_plain.append(plain.step(a).obs)
        assert np.array_equal(np.stack(obs_delayed), np.stack(obs_plain))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            hb.with_action_delay(hb.make_env("pendulum"), -1)


class TestInvariants:
    def test_wrappers_preserve_interfaces(self):
        base = hb.make_env("pendulum")
        wrapped = hb.with_hidden_dims(
            hb.with_obs_noise(hb.with_action_delay(hb.with_action_noise(base, 0.2), 1), 0.05),
            [2],
        )
        assert wrapped.obs_dim == base.obs_dim
        assert wrapped.action_space == base.action_space
        assert wrapped.params.horizon == base.params.horizon
        assert wrapped.name == base.name

    def test_signature_ignores_runtime_state(self):
        env = hb.with_action_noise(hb.make_env("pendulum"), 0.1)
        before = env_signature(env)
        env.reset(seed=0)
        env.step(1.0)
        assert env_signature(env) == before
        assert env_signature(clone_env(env)) == before
        assert env_signature(hb.with_action_noise(hb.make_env("pendulum"), 0.2)) != before

    def test_full_state_bypasses_observation_wrappers(self):
        env = hb.with_hidden_dims(hb.with_obs_noise(hb.make_env("windygrid"), 1.0), [2])
        obs = env.reset(seed=5)
        state = env.full_state()
        assert obs[2] == 0.0
        assert state[2] in (0.0, 1.0)
        assert float(state[0]).is_integer() and float(state[1]).is_integer()


# one valid pendulum value for every field name that SPEC_KINDS declares
FIELD_VALUES = {"overrides": {"gravity": 19.62}, "sigma": 0.05, "indices": [2], "delay": 2,
                "seed": 3}


def kind_stages():
    for kind, stages in SPEC_KINDS.items():
        for stage, (_, required, optional) in stages.items():
            spec = {"kind": kind, **{name: FIELD_VALUES[name] for name in required}}
            yield kind, stage, spec, {**spec, **{name: FIELD_VALUES[name] for name in optional}}


def round_trip(spec, stage):
    """The spec as a config's sim2real or a recipe's corruption, after
    to_dict and reading it back."""
    if stage == "env":
        cfg = BenchConfig("x", "pendulum", {}, sim2real=(spec,), agent="online_q")
        return BenchConfig.from_dict(cfg.to_dict()).to_dict()["sim2real"][0]
    recipe = DatasetRecipe(corruption=(spec,))
    return read_record(DatasetRecipe, recipe.to_dict(), "recipe").to_dict()["corruption"][0]


@pytest.fixture(scope="module")
def pendulum_dataset():
    env = hb.make_env("pendulum")
    grid = agents.resolve_action_grid(env, agents.default_agent_config(env))
    return data.collect_dataset(env, agents.UniformPolicy(grid), 50, "observed", seed=0)


class TestPerturbSpecs:
    def test_round_trip(self):
        for _, stage, minimal, full in kind_stages():
            for spec in (minimal, full):
                assert round_trip(spec, stage) == spec == check_spec(spec, stage)

    def test_every_kind_applies(self, pendulum_dataset):
        for kind, stage, _, spec in kind_stages():
            if stage == "env":
                env = apply_specs(hb.make_env("pendulum"), [spec], "env")
                assert env.obs_dim == 3 and env.reset(seed=0).shape == (3,)
            else:
                ds = apply_specs(pendulum_dataset, [spec], "data")
                assert len(ds) == len(pendulum_dataset)
                assert ds.meta.corruption[-1]["kind"] == kind

    def test_unknown_kind_rejected(self):
        for stage in ("env", "data"):
            with pytest.raises(ValueError, match="unknown"):
                check_spec({"kind": "teleport", "sigma": 1.0}, stage)
        with pytest.raises(ValueError, match="unknown corruption kind"):
            check_spec({"kind": "action_delay", "delay": 1}, "data")
        for _, stage, minimal, full in kind_stages():
            with pytest.raises(ValueError, match="unknown keys"):
                round_trip({**full, "extra": 1}, stage)
            for name in set(minimal) - {"kind"}:
                with pytest.raises(ValueError, match="missing keys"):
                    round_trip({k: v for k, v in full.items() if k != name}, stage)

    def test_apply_in_order(self):
        env = apply_specs(
            hb.make_env("pendulum"),
            [{"kind": "transition_param_override", "overrides": {"gravity": 19.62}},
             {"kind": "obs_noise", "sigma": 0.1}, {"kind": "hidden_dims", "indices": [2]}],
            "env",
        )
        assert env.params.gravity == 19.62
        obs = env.reset(seed=0)
        assert obs[2] == 0.0

    def test_integer_and_float_values_hash_alike(self):
        def cfg(sigma):
            recipe = DatasetRecipe(corruption=({"kind": "obs_noise", "sigma": sigma},))
            return BenchConfig("x", "pendulum", {}, dataset_recipe=recipe)

        assert config_hash(cfg(1)) == config_hash(cfg(1.0))
        for bad in ("abc", "1.0", None, True, float("nan"), -0.5):
            with pytest.raises(ValueError, match="'sigma' must be a finite number >= 0"):
                cfg(bad)

    def test_indices_must_be_a_list(self):
        spec = {"kind": "hidden_dims", "indices": "12"}
        for stage in ("env", "data"):
            with pytest.raises(ValueError, match="'indices' must be a list of integers"):
                round_trip(spec, stage)
        for bad in ([1.0], [-1]):
            with pytest.raises(ValueError, match="'indices' must be an integer >= 0"):
                round_trip({"kind": "hidden_dims", "indices": bad}, "env")
