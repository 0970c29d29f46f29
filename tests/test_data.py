import json

import numpy as np
import pytest

import hybench as hb
from hybench import agents, bench, data, oracle
from hybench.data import (
    DatasetDimensionError,
    DatasetMeta,
    DatasetParseError,
    DatasetVersionError,
)
from hybench.seeding import COLLECT_ENV, COLLECT_POLICY, derived_seed
from hybench.wrappers import HistoryStack


def random_policy(env, seed=0):
    return agents.UniformPolicy(agents.resolve_action_grid(
        env, agents.default_agent_config(env)), seed=seed)


def same_columns(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


def chains_within_episodes(ds):
    """Each next_obs of a record not marked done equals the next record's obs."""
    live = ~ds.D[:-1]
    return np.array_equal(ds.O2[:-1][live], ds.O[1:][live])


@pytest.fixture(scope="module")
def grid_dataset():
    env = hb.make_env("windygrid")
    return data.collect_dataset(env, random_policy(env), 4000, "observed", seed=0)


class TestCollection:
    def test_exact_record_count(self):
        env = hb.make_env("pendulum", {"horizon": 30})
        ds = data.collect_dataset(env, random_policy(env), 1000, "observed", seed=1)
        assert len(ds) == 1000
        assert ds.meta.record_count == 1000

    def test_records_chain_within_episodes(self, grid_dataset):
        assert chains_within_episodes(grid_dataset)

    def test_deterministic(self):
        env = hb.make_env("windygrid")
        a = data.collect_dataset(env, random_policy(env), 500, "observed", seed=3)
        env2 = hb.make_env("windygrid")
        b = data.collect_dataset(env2, random_policy(env2), 500, "observed", seed=3)
        assert a == b

    def test_privileged_policy_sees_state_not_obs(self):
        # behind a hidden-wind wrapper, a privileged wind-conditioned policy
        # must still react to the wind even though the records never show it
        env = hb.with_hidden_dims(hb.make_env("windygrid"), [2])
        wind_seen = []

        def probe(state):
            wind_seen.append(state[2])
            return 0

        pol = agents.FunctionPolicy(probe, (0, 1, 2, 3))
        ds = data.collect_dataset(env, pol, 200, "privileged", seed=2)
        assert set(wind_seen) == {0.0, 1.0}
        assert np.all(ds.O[:, 2] == 0.0)
        assert ds.meta.behavior_mode == "privileged"

    def test_observed_mode_has_no_hidden_dependence(self):
        # actions of an observed-mode policy are conditionally independent of
        # the zeroed wind: compare frequencies at matched (x, y) cells
        env = hb.with_hidden_dims(hb.make_env("windygrid"), [2])
        pol = agents.UniformPolicy((0, 1, 2, 3), seed=5)
        obs = env.reset(seed=7)
        actions, winds = [], []
        for _ in range(8000):
            winds.append(env.full_state()[2])
            a = pol.act(obs)
            actions.append(a)
            res = env.step(a)
            obs = env.reset() if res.done else res.obs
        actions = np.array(actions)
        winds = np.array(winds)
        for w in (0.0, 1.0):
            freq = np.bincount(actions[winds == w], minlength=4) / (winds == w).sum()
            assert np.abs(freq - 0.25).max() < 0.05

    def test_privileged_vs_observed_conditional_frequencies_differ(self):
        # chi-squared: the wind-aware expert's actions at a given cell depend
        # on information missing from the recorded observation
        from scipy import stats

        params = hb.WindyGridParams()
        mdp = oracle.windygrid_mdp(params)
        _, pi_star = oracle.value_iteration(mdp, params.discount, 1e-10)
        index = {lab: i for i, lab in enumerate(mdp.labels)}

        def aware(state):
            key = ((int(round(state[0])), int(round(state[1]))), int(round(state[2])))
            return int(pi_star[index[key]])

        env = hb.make_env("windygrid")
        pol = agents.FunctionPolicy(aware, (0, 1, 2, 3), epsilon=0.2, seed=0)
        priv = data.collect_dataset(env, pol, 6000, "privileged", seed=1)
        priv = data.corrupt_hide_dims(priv, [2])

        blind_env = hb.with_hidden_dims(hb.make_env("windygrid"), [2])
        pol_b = agents.FunctionPolicy(aware, (0, 1, 2, 3), epsilon=0.2, seed=0)
        blind = data.collect_dataset(blind_env, pol_b, 6000, "observed", seed=1)

        def action_table(ds):
            table = {}
            for obs, action in zip(ds.O, ds.A):
                key = (obs[0], obs[1])
                table.setdefault(key, []).append(int(action))
            return table

        t_priv, t_blind = action_table(priv), action_table(blind)
        detected = 0
        for key in t_priv:
            if key not in t_blind:
                continue
            a, b = np.bincount(t_priv[key], minlength=4), np.bincount(
                t_blind[key], minlength=4
            )
            if a.sum() < 50 or b.sum() < 50:
                continue
            keep = (a + b) > 0
            table = np.stack([a[keep], b[keep]])
            if table.shape[1] < 2:
                continue
            _, p, _, _ = stats.chi2_contingency(table)
            detected += p < 0.001
        assert detected >= 1


def plain_action(action):
    if isinstance(action, np.ndarray):
        return float(action.reshape(-1)[0]) if action.size == 1 else action.copy()
    if isinstance(action, np.integer):
        return int(action)
    if isinstance(action, np.floating):
        return float(action)
    return action


def reference_collect(env, policy, n_records, behavior_mode, seed):
    """``collect_dataset``'s columns from a row-by-row loop: one ``env.step``
    per record and a reset after each done."""
    policy.reseed(derived_seed(seed, COLLECT_POLICY))
    obs = env.reset(seed=derived_seed(seed, COLLECT_ENV) % 2**31)
    rows = []
    while len(rows) < n_records:
        action = policy.act(env.full_state() if behavior_mode == "privileged" else obs)
        res = env.step(action)
        rows.append((obs, plain_action(action), res.reward, res.obs, res.done))
        obs = env.reset() if res.done else res.obs
    return data._stack_rows(rows)


def assert_same_bits(columns, reference):
    for got, want in zip(columns, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def wind_aware(state):
    return 0 if state[2] > 0.5 else 3


class TestCollectionMatchesTheRowLoop:
    @pytest.mark.parametrize("make,policy,n,mode", [
        # 1013 records: the last of 34 episodes is cut after 23 of its 30 steps
        (lambda: hb.make_env("pendulum", {"horizon": 30}),
         lambda: agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=1), 1013, "observed"),
        (lambda: hb.with_hidden_dims(hb.make_env("windygrid"), [2]),
         lambda: agents.FunctionPolicy(wind_aware, (0, 1, 2, 3), epsilon=0.3), 777,
         "privileged"),
        (lambda: hb.make_env("bandit"), lambda: agents.UniformPolicy((0, 1), seed=2), 301,
         "observed"),
        (lambda: hb.with_action_delay(hb.with_action_noise(
            hb.make_env("pendulum", {"horizon": 40}), 0.3), 2),
         lambda: agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=3), 555, "observed"),
    ], ids=["pendulum", "privileged-hidden", "bandit", "noise-delay"])
    def test_columns_equal_the_row_loop(self, make, policy, n, mode):
        ds = data.collect_dataset(make(), policy(), n, mode, seed=7)
        assert_same_bits(ds.arrays(), data.Dataset(ds.meta, *reference_collect(
            make(), policy(), n, mode, seed=7)).arrays())

    def test_history_confounded_columns_equal_the_row_loop(self):
        env = hb.make_env("windygrid")
        ds = data.collect_history_confounded(
            env, 3, agents.UniformPolicy((0, 1, 2, 3), seed=0), 301, seed=4)
        O, A, R, O2, D = reference_collect(
            HistoryStack(hb.make_env("windygrid"), 3), agents.UniformPolicy((0, 1, 2, 3), seed=0),
            301, "observed", seed=4)
        assert_same_bits(ds.arrays(), data.Dataset(ds.meta, O[:, -3:], A, R, O2[:, -3:],
                                                   D).arrays())


class TestHistoryCollection:
    def test_k1_equals_observed_collection(self):
        env = hb.make_env("windygrid")
        pol = agents.UniformPolicy((0, 1, 2, 3), seed=0)
        a = data.collect_history_confounded(env, 1, pol, 300, seed=4)
        env2 = hb.make_env("windygrid")
        pol2 = agents.UniformPolicy((0, 1, 2, 3), seed=0)
        b = data.collect_dataset(env2, pol2, 300, "observed", seed=4)
        assert same_columns(a, b)

    def test_window_zero_padded_at_episode_start(self):
        env = hb.make_env("windygrid")
        seen = []

        def probe(window):
            seen.append(window.copy())
            return 3

        pol = agents.FunctionPolicy(probe, (0, 1, 2, 3))
        data.collect_history_confounded(env, 3, pol, 60, seed=5)
        first = seen[0]
        assert first.shape == (9,)
        assert np.array_equal(first[:6], np.zeros(6))
        assert not np.array_equal(first[6:], np.zeros(3))

    def test_records_store_single_observation(self):
        env = hb.make_env("pendulum", {"horizon": 20})
        pol = agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=1)
        ds = data.collect_history_confounded(env, 3, pol, 100, seed=6)
        assert ds.O.shape == ds.O2.shape == (100, 3)
        assert ds.meta.corruption == ({"kind": "history_confounded", "k": 3},)
        assert ds.meta.behavior_mode == "privileged"


class TestObsNoiseCorruption:
    def test_sigma_zero_identity_with_meta_update(self, grid_dataset):
        out = data.corrupt_obs_noise(grid_dataset, 0.0, seed=1)
        assert same_columns(out, grid_dataset)
        assert out.meta.corruption[-1]["kind"] == "obs_noise"
        assert out.meta.behavior_mode == "observed"

    def test_empirical_std(self):
        env = hb.make_env("pendulum", {"horizon": 50})
        ds = data.collect_dataset(env, random_policy(env), 33_500, "observed", seed=2)
        out = data.corrupt_obs_noise(ds, 0.05, seed=3)
        diffs = (out.O - ds.O).ravel()
        assert abs(diffs.std() - 0.05) / 0.05 < 0.05

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [2.5, True])
    def test_non_integer_seed_rejected(self, grid_dataset, sigma, seed):
        # the tag used to record int(seed), and the noise stream to draw from it
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            data.corrupt_obs_noise(grid_dataset, sigma, seed=seed)

    def test_same_seed_identical(self, grid_dataset):
        a = data.corrupt_obs_noise(grid_dataset, 0.05, seed=9)
        b = data.corrupt_obs_noise(grid_dataset, 0.05, seed=9)
        assert a == b

    def test_within_episode_consistency(self, grid_dataset):
        out = data.corrupt_obs_noise(grid_dataset, 0.1, seed=4)
        assert chains_within_episodes(out)

    def test_corruption_is_per_index(self, grid_dataset):
        # corrupting a prefix equals the prefix of the corrupted dataset
        prefix = data.Dataset(
            DatasetMeta(
                env_name=grid_dataset.meta.env_name,
                env_params=grid_dataset.meta.env_params,
                tier=grid_dataset.meta.tier,
                behavior_mode=grid_dataset.meta.behavior_mode,
                seed=grid_dataset.meta.seed,
                record_count=1000,
            ),
            *(col[:1000] for col in grid_dataset.arrays()),
        )
        full = data.corrupt_obs_noise(grid_dataset, 0.05, seed=5)
        part = data.corrupt_obs_noise(prefix, 0.05, seed=5)
        assert all(np.array_equal(x, y[:1000])
                   for x, y in zip(part.arrays(), full.arrays()))

    def test_marks_privileged(self, grid_dataset):
        out = data.corrupt_obs_noise(grid_dataset, 0.05, seed=1)
        assert out.meta.behavior_mode == "privileged"

    def test_negative_sigma_rejected(self, grid_dataset):
        with pytest.raises(ValueError):
            data.corrupt_obs_noise(grid_dataset, -1.0, seed=0)


class TestHideDimsCorruption:
    def test_zeroes_columns(self, grid_dataset):
        out = data.corrupt_hide_dims(grid_dataset, [2])
        assert np.all(out.O[:, 2] == 0.0) and np.all(out.O2[:, 2] == 0.0)
        assert out.meta.corruption[-1] == {"kind": "hidden_dims", "indices": [2]}
        assert out.meta.behavior_mode == "privileged"

    def test_empty_identity(self, grid_dataset):
        out = data.corrupt_hide_dims(grid_dataset, [])
        assert same_columns(out, grid_dataset)
        assert out.meta.behavior_mode == "observed"

    def test_already_zero_column_stays_observed(self):
        env = hb.with_hidden_dims(hb.make_env("windygrid"), [2])
        ds = data.collect_dataset(env, random_policy(env), 300, "observed", seed=1)
        out = data.corrupt_hide_dims(ds, [2])
        assert same_columns(out, ds)
        assert out.meta.behavior_mode == "observed"

    def test_out_of_range_rejected(self, grid_dataset):
        with pytest.raises(ValueError):
            data.corrupt_hide_dims(grid_dataset, [7])


class TestSerialization:
    def test_round_trip_bit_exact(self, grid_dataset, tmp_path):
        path = tmp_path / "grid.ds"
        data.write_dataset(grid_dataset, path)
        back = data.read_dataset(path)
        assert back == grid_dataset

    def test_round_trip_continuous_actions(self, tmp_path):
        env = hb.make_env("pendulum", {"horizon": 25})
        ds = data.collect_dataset(env, random_policy(env), 500, "observed", seed=8)
        path = tmp_path / "pend.ds"
        data.write_dataset(ds, path)
        assert data.read_dataset(path) == ds

    def test_hand_written_fixture(self, tmp_path):
        meta = {
            "format_version": "b4mrl-ds/1",
            "env_name": "windygrid",
            "env_params": {},
            "tier": "random",
            "corruption": [],
            "behavior_mode": "observed",
            "seed": 0,
            "record_count": 2,
        }
        lines = [
            json.dumps(meta),
            '{"o": [0.0, 4.0, 1.0], "a": 3, "r": -1.0, "o2": [1.0, 3.0, 0.0], "d": false}',
            '{"o": [1.0, 3.0, 0.0], "a": 1, "r": -1.0, "o2": [1.0, 2.0, 1.0], "d": true}',
        ]
        path = tmp_path / "hand.ds"
        path.write_text("\n".join(lines) + "\n")
        ds = data.read_dataset(path)
        assert len(ds) == 2
        assert np.array_equal(ds.O[0], [0.0, 4.0, 1.0])
        assert ds.A[0] == 3 and ds.R[0] == -1.0 and not ds.D[0]
        assert np.array_equal(ds.O2[0], [1.0, 3.0, 0.0])
        assert ds.D[1]

    def test_truncated_file_names_line(self, grid_dataset, tmp_path):
        path = tmp_path / "trunc.ds"
        data.write_dataset(grid_dataset, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.ds").write_text("\n".join(lines[:100]) + "\n")
        with pytest.raises(DatasetParseError) as err:
            data.read_dataset(tmp_path / "cut.ds")
        assert err.value.line == 101

    def test_zero_record_count_names_the_header(self, tmp_path):
        # used to fail with a bare ValueError from stacking no rows
        meta = {"format_version": "b4mrl-ds/1", "env_name": "windygrid", "env_params": {},
                "tier": "random", "corruption": [], "behavior_mode": "observed", "seed": 0,
                "record_count": 0}
        path = tmp_path / "empty.ds"
        path.write_text(json.dumps(meta) + "\n")
        with pytest.raises(DatasetParseError, match="record_count must be >= 1, got 0") as err:
            data.read_dataset(path)
        assert err.value.line == 1

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.ds"
        path.write_text('{"format_version": "b4mrl-ds/2"}\n')
        with pytest.raises(DatasetVersionError):
            data.read_dataset(path)

    def test_malformed_record_names_line(self, grid_dataset, tmp_path):
        path = tmp_path / "bad.ds"
        data.write_dataset(grid_dataset, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError) as err:
            data.read_dataset(path)
        assert err.value.line == 4

    def test_dimension_mismatch_names_line(self, tmp_path):
        meta = {
            "format_version": "b4mrl-ds/1",
            "env_name": "windygrid",
            "env_params": {},
            "tier": "random",
            "corruption": [],
            "behavior_mode": "observed",
            "seed": 0,
            "record_count": 2,
        }
        lines = [
            json.dumps(meta),
            '{"o": [0.0, 4.0, 1.0], "a": 3, "r": -1.0, "o2": [1.0, 3.0, 0.0], "d": false}',
            '{"o": [1.0, 3.0], "a": 1, "r": -1.0, "o2": [1.0, 2.0, 1.0], "d": true}',
        ]
        path = tmp_path / "dim.ds"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetDimensionError) as err:
            data.read_dataset(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("key, value", [
        ("o", '["x", 4.0, 1.0]'), ("o", "[null, 4.0, 1.0]"), ("o", "[true, 4.0, 1.0]"),
        ("o", "[NaN, 4.0, 1.0]"), ("o2", '[1.0, "3", 0.0]'), ("o2", "null"),
        ("r", '"bad"'), ("r", "null"), ("r", "-Infinity"),
        ("a", '"x"'), ("a", "true"), ("a", "[[1.0]]"), ("d", '"no"'), ("d", "0"),
    ])
    def test_bad_record_value_names_line(self, key, value, tmp_path):
        meta = {"format_version": "b4mrl-ds/1", "env_name": "windygrid", "env_params": {},
                "tier": "random", "corruption": [], "behavior_mode": "observed", "seed": 0,
                "record_count": 2}
        record = {"o": "[0.0, 4.0, 1.0]", "a": "3", "r": "-1.0", "o2": "[1.0, 3.0, 0.0]",
                  "d": "false"}
        good = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
        record[key] = value
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
        path = tmp_path / "bad.ds"
        path.write_text("\n".join([json.dumps(meta), good, bad]) + "\n")
        with pytest.raises(DatasetParseError, match=f"'{key}' must be") as err:
            data.read_dataset(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("first, second", [
        ("-2.0", "[-2.0, 1.0]"), ("[-2.0, 1.0]", "-2.0"), ("[-2.0]", "[-2.0, 1.0]"),
    ])
    def test_mixed_action_forms_name_line(self, first, second, tmp_path):
        meta = {"format_version": "b4mrl-ds/1", "env_name": "pendulum", "env_params": {},
                "tier": "random", "corruption": [], "behavior_mode": "observed", "seed": 0,
                "record_count": 3}
        record = '{{"o": [1.0, 0.0, 0.0], "a": {}, "r": -1.0, "o2": [1.0, 0.0, 0.0], "d": false}}'
        path = tmp_path / "mixed.ds"
        path.write_text("\n".join(
            [json.dumps(meta), record.format(first), record.format(first),
             record.format(second)]) + "\n")
        with pytest.raises(DatasetParseError, match="differs in form") as err:
            data.read_dataset(path)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "column, label", [("O", "obs"), ("A", "action"), ("R", "reward"), ("O2", "next_obs")]
    )
    def test_non_finite_rejected_naming_record(self, column, label, tmp_path):
        env = hb.make_env("pendulum", {"horizon": 25})
        ds = data.collect_dataset(env, random_policy(env), 50, "observed", seed=8)
        cols = dict(zip(("O", "A", "R", "O2", "D"), (col.copy() for col in ds.arrays())))
        cols[column][7] = np.nan
        path = tmp_path / "bad.ds"
        with pytest.raises(ValueError, match=f"record 7: non-finite {label} "):
            data.write_dataset(data.Dataset(ds.meta, **cols), path)
        assert not path.exists()

    def test_meta_validation(self):
        with pytest.raises(ValueError):
            DatasetMeta(env_name="x", env_params={}, tier="gold")
        with pytest.raises(ValueError):
            DatasetMeta(env_name="x", env_params={}, tier="random",
                        behavior_mode="psychic")


def counting(calls, key, fn):
    def wrapped(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapped


class TestTierPolicies:
    # the random and expert tiers used to compute the reference pair, and the
    # random tier to evaluate the uniform policy, for scores that nothing read
    # medium_replay and medium_expert read one reference pair too; a replay
    # ends at the medium checkpoint, so it may hold fewer records than asked
    @pytest.mark.parametrize("tier,expected,length", [
        ("random", {"refs": 0, "training": 0, "evaluations": 0}, 300),
        ("expert", {"refs": 0, "training": 1}, 300),
        ("medium", {"refs": 1, "training": 1}, 300),
        ("medium_replay", {"refs": 1, "training": 1}, 220),
        ("medium_expert", {"refs": 1, "training": 2}, 300),
    ], ids=["random", "expert", "medium", "medium_replay", "medium_expert"])
    def test_only_the_medium_tier_asks_for_references(self, monkeypatch, tier, expected,
                                                      length):
        calls = dict.fromkeys(("refs", "training", "evaluations"), 0)
        for module, name, key in ((bench, "compute_reference_pair", "refs"),
                                  (data, "online_training_run", "training"),
                                  (agents, "evaluate_policy", "evaluations")):
            monkeypatch.setattr(module, name, counting(calls, key, getattr(module, name)))
        recipe = data.DatasetRecipe(tier=tier, n_records=300, seed=3)
        dataset = data.generate_dataset(hb.make_env("windygrid"), recipe)
        assert len(dataset) == length and dataset.meta.tier == tier
        assert {key: calls[key] for key in expected} == expected


    def test_privileged_windygrid_recipe_reuses_the_expert(self, monkeypatch):
        # windygrid observes its full state, so a privileged policy trains on
        # the plain env and shares its training run and reference pair; it
        # used to train a second, identical expert behind FullStateObservation
        monkeypatch.setattr(data, "_TRAIN_CACHE", {})
        monkeypatch.setattr(bench, "_REF_CACHE", {})
        bench.compute_reference_pair(hb.make_env("windygrid"))
        recipe = data.DatasetRecipe(tier="medium", n_records=500, seed=0,
                                    behavior_mode="privileged")
        dataset = data.generate_dataset(hb.make_env("windygrid"), recipe)
        assert (len(data._TRAIN_CACHE), len(bench._REF_CACHE)) == (1, 1)
        assert bench.dataset_hash(dataset) == "dec8123cc5251040"


class TestConcat:
    def test_concat_preserves_records(self, grid_dataset):
        half = len(grid_dataset) // 2
        m1 = DatasetMeta(
            env_name=grid_dataset.meta.env_name, env_params=grid_dataset.meta.env_params,
            tier="medium", record_count=half,
        )
        m2 = DatasetMeta(
            env_name=grid_dataset.meta.env_name, env_params=grid_dataset.meta.env_params,
            tier="expert", record_count=len(grid_dataset) - half,
        )
        d1 = data.Dataset(m1, *(col[:half] for col in grid_dataset.arrays()))
        d2 = data.Dataset(m2, *(col[half:] for col in grid_dataset.arrays()))
        both = data.concat_datasets([d1, d2], "medium_expert", seed=0)
        assert both.meta.tier == "medium_expert"
        assert same_columns(both, grid_dataset)


class TestColumns:
    def test_read_only_columns_with_fixed_dtypes(self, grid_dataset):
        env = hb.make_env("pendulum", {"horizon": 25})
        pend = data.collect_dataset(env, random_policy(env), 100, "observed", seed=3)
        for ds, action_dtype in ((grid_dataset, np.int64), (pend, np.float64)):
            cols = ds.arrays()
            assert [c.dtype for c in cols] == [
                np.float64, action_dtype, np.float64, np.float64, np.bool_
            ]
            assert all(not c.flags.writeable for c in cols)
            assert all(a is b for a, b in zip(cols, ds.arrays()))

    def test_mismatched_columns_rejected(self, grid_dataset):
        O, A, R, O2, D = grid_dataset.arrays()
        with pytest.raises(ValueError):
            data.Dataset(grid_dataset.meta, O, A[:-1], R, O2, D)
        with pytest.raises(ValueError):
            data.Dataset(grid_dataset.meta, O, A, R, O2[:, :2], D)

    def test_zero_width_observations(self, tmp_path):
        # bandit observations are empty: every operation keeps (n, 0) columns
        env = hb.make_env("bandit")
        ds = data.collect_dataset(env, random_policy(env), 300, "observed", seed=0)
        assert ds.O.shape == ds.O2.shape == (300, 0)
        path = tmp_path / "bandit.ds"
        data.write_dataset(ds, path)
        back = data.read_dataset(path)
        assert back == ds
        assert back.O.shape == back.O2.shape == (300, 0)
        assert back.A.dtype == ds.A.dtype
        assert bench.dataset_hash(back) == bench.dataset_hash(ds)
        both = data.concat_datasets([ds, back], "medium_expert", seed=0)
        assert both.O.shape == both.O2.shape == (600, 0)
        assert bench.dataset_hash(both) != bench.dataset_hash(ds)
        for out in (data.corrupt_obs_noise(ds, 0.1, seed=1), data.corrupt_hide_dims(ds, [])):
            assert out.O.shape == out.O2.shape == (300, 0)
            assert same_columns(out, ds)
            assert out.meta.behavior_mode == ds.meta.behavior_mode
            assert len(bench.dataset_hash(out)) == 16
