import dataclasses
import json
import os

import numpy as np
import pytest

import hybench as hb
from hybench import agents, bench, data
from hybench.bench import BenchAgent, BenchConfig, BenchEnv, DatasetFile, RunResult
from hybench.data import DatasetRecipe
from hybench.records import read_record, write_record
from hybench.seeding import REFS, derived_seed


def load(d: dict) -> BenchConfig:
    return read_record(BenchConfig, d, "config")


class TestNormalizeScore:
    def test_fixed_points(self):
        assert bench.normalize_score(-10.0, -10.0, 30.0) == 0.0
        assert bench.normalize_score(30.0, -10.0, 30.0) == 100.0
        assert bench.normalize_score(10.0, -10.0, 30.0) == 50.0

    def test_may_exceed_range(self):
        assert bench.normalize_score(50.0, -10.0, 30.0) == 150.0
        assert bench.normalize_score(-30.0, -10.0, 30.0) == -50.0

    def test_degenerate_references_rejected(self):
        with pytest.raises(ValueError):
            bench.normalize_score(0.0, 5.0, 5.0)
        with pytest.raises(ValueError):
            bench.normalize_score(0.0, 5.0, 1.0)


class TestReferencePair:
    def test_windygrid_refs_cross_checked(self, windygrid_refs):
        from hybench import oracle

        env = hb.make_env("windygrid")
        assert windygrid_refs.random_ref < windygrid_refs.expert_ref
        # the expert reference matches the trained policy's exact
        # finite-horizon value within Monte Carlo error
        from hybench.data import online_training_run

        run = online_training_run(env, 25_000, 0)
        mdp = oracle.windygrid_mdp(env.params)
        table = oracle.policy_table_from_agent(mdp, run.policy)
        exact = oracle.finite_horizon_policy_value(mdp, table, env.params.horizon)
        per_ep_std = 3.0  # conservative bound on episode-return std
        assert abs(windygrid_refs.expert_ref - exact) <= 3 * per_ep_std / np.sqrt(100)
        # and the trained policy is exactly optimal in the discounted sense
        V, _ = oracle.value_iteration(mdp, env.params.discount, 1e-10)
        v_pol = oracle.start_state_value(
            mdp, oracle.exact_policy_eval(mdp, table, env.params.discount, 1e-12)
        )
        assert abs(oracle.start_state_value(mdp, V) - v_pol) <= 1e-3
        # the random reference lies within 4 standard errors of the uniform
        # policy's exact finite-horizon value; the error is read off the
        # spread of the reference's own 100 episodes
        uniform = np.full((mdp.n_states, mdp.transitions.shape[1]), 0.25)
        exact_random = oracle.finite_horizon_policy_value(mdp, uniform, env.params.horizon)
        grid = agents.resolve_action_grid(env, agents.default_agent_config(env))
        mean, std = agents.evaluate_policy(hb.clone_env(env), agents.UniformPolicy(grid),
                                           100, derived_seed(0, REFS, 0))
        assert mean == windygrid_refs.random_ref
        assert abs(mean - exact_random) <= 4 * std / np.sqrt(100)

    def test_deterministic_and_cached(self):
        env = hb.make_env("windygrid")
        a = bench.compute_reference_pair(env, seed=0)
        b = bench.compute_reference_pair(env, seed=0)
        assert a == b

    def test_cache_keyed_on_config(self):
        # a non-default config must not answer a later default lookup
        env = hb.make_env("windygrid")
        myopic = dataclasses.replace(agents.default_agent_config(env), gamma=0.0)
        other = bench.compute_reference_pair(env, seed=7, budget=3000, config=myopic)
        default = bench.compute_reference_pair(env, seed=7, budget=3000)
        assert default.random_ref == other.random_ref
        assert default.expert_ref != other.expert_ref


class TestConfigParsing:
    BASE = {
        "benchmark_id": "wg-test",
        "env": {"name": "windygrid", "params": {"wind_prob": 0.3}},
        "sim2real": [{"kind": "transition_param_override", "overrides": {"wind_prob": 0.4}}],
        "dataset": {"tier": "medium", "n_records": 2000, "seed": 0},
        "agent": {"name": "hymopo", "config": {}},
        "seeds": [0],
        "eval_episodes": 5,
    }

    PATH = {"benchmark_id": "p", "env": {"name": "pendulum"}, "dataset": {"path": "x.jsonl"},
            "agent": {"name": "offline_bcq"}}

    def test_round_trip(self):
        cfg = load(self.BASE)
        assert load(write_record(cfg)) == cfg

    def test_round_trip_of_a_path_config(self):
        cfg = load(self.PATH)
        assert cfg.dataset == DatasetFile("x.jsonl")
        assert load(write_record(cfg)) == cfg

    def test_round_trip_without_agent_overrides(self):
        cfg = BenchConfig(benchmark_id="wg-online", env=BenchEnv("windygrid"),
                          agent=BenchAgent("online_q"))
        back = load(write_record(cfg))
        assert back == cfg
        assert bench.config_hash(back) == bench.config_hash(cfg)

    @pytest.mark.parametrize("d,digest", [
        ({"benchmark_id": "windygrid-windgap-medium-hymopo",
          "env": {"name": "windygrid", "params": {"wind_prob": 0.3}},
          "sim2real": [{"kind": "transition_param_override",
                        "overrides": {"wind_prob": 0.4}}],
          "dataset": {"tier": "medium", "n_records": 5000, "seed": 0},
          "agent": {"name": "hymopo", "config": {"epochs": 10}},
          "seeds": [0, 1], "eval_episodes": 50, "out": "results.csv"}, "128726e8a8353946"),
        (BASE, "09c66a29d749dad1"),
        (PATH, "a4d6d147de690750"),
    ], ids=["perfbench_windygrid", "base", "pendulum_path"])
    def test_config_hash_is_pinned(self, d, digest):
        # results files carry this hash: a change to the config's JSON shows here
        assert bench.config_hash(load(d)) == digest

    @pytest.mark.parametrize("params", [[1], "x", 3])
    def test_non_object_env_params_rejected(self, params):
        # both used to fail inside dict(params), naming nothing
        with pytest.raises(ValueError, match="'params' must be an object"):
            hb.make_env("windygrid", params)
        bad = dict(self.BASE, env={"name": "windygrid", "params": params})
        with pytest.raises(ValueError, match="env.params must be an object"):
            load(bad)

    def test_unknown_top_level_key_rejected(self):
        bad = dict(self.BASE, typo_key=1)
        with pytest.raises(ValueError):
            load(bad)

    def test_unknown_recipe_key_rejected(self):
        bad = dict(self.BASE, dataset={"tier": "medium", "n_rec": 10})
        with pytest.raises(ValueError):
            load(bad)

    def test_dataset_typo_is_named(self):
        # the message used to name the union's arms but not the stray key
        bad = dict(self.BASE, dataset={"tier": "medium", "n_rec": 10})
        with pytest.raises(ValueError, match=r"as DatasetRecipe, unknown keys \['n_rec'\]"):
            load(bad)

    @pytest.mark.parametrize("tag", [
        {"kind": "teleport"},
        {"kind": "obs_noise"},
        {"kind": "obs_noise", "sigma": 0.1, "typo": 1},
        {"kind": "hidden_dims", "sigma": 0.1},
    ])
    def test_bad_corruption_rejected_at_load(self, tag):
        bad = dict(self.BASE, dataset={"tier": "medium", "n_records": 10, "corruption": [tag]})
        with pytest.raises(ValueError, match="corruption kind"):
            load(bad)

    @pytest.mark.parametrize("recipe", [
        {"hidden_during_collection": [7]},
        {"corruption": [{"kind": "hidden_dims", "indices": [0, 7]}]},
    ], ids=["hidden_during_collection", "hidden_dims"])
    def test_hidden_index_out_of_range_rejected_at_load(self, recipe):
        # both used to load, and then to fail in every seed
        config = dict(self.BASE, agent={"name": "offline_bcq"}, sim2real=[],
                      dataset=dict(self.BASE["dataset"], **recipe))
        with pytest.raises(ValueError, match="hidden index 7 out of range for observation dim 3"):
            load(config)

    @pytest.mark.parametrize("field,value", [
        ("n_records", 0), ("n_records", -5), ("history_k", 0), ("train_budget", 0),
        ("train_budget", -1), ("collect_epsilon", 2.0), ("collect_epsilon", -0.1),
        ("seed", -1),
    ])
    def test_bad_recipe_value_rejected_at_load(self, field, value):
        # n_records 0 used to give the default size and -5 to drop records
        bad = dict(self.BASE, dataset=dict(self.BASE["dataset"], **{field: value}))
        with pytest.raises(ValueError, match=field):
            load(bad)

    @pytest.mark.parametrize("field,value", [
        ("seeds", "12"),  # used to give seeds (1, 2)
        ("seeds", [1.9, 2]),  # used to give (1, 2)
        ("seeds", [True]),  # used to give (1,)
        ("seeds", [-1]),  # used to fail in every seed
        ("eval_episodes", 2.7),  # used to run 2 episodes
        ("dataset.n_records", 2.5),  # these three used to be kept as given
        ("dataset.seed", 1.5),
        ("dataset.history_k", 2.0),
        ("dataset.train_budget", "100"),  # used to fail with a bare TypeError
        ("agent.epochs", 2.5),  # these four used to be kept as given
        ("agent.rollout_batch", 1.5),
        ("agent.sweeps", True),
        ("agent.model.n_members", 2.5),
    ])
    def test_non_integer_count_or_seed_rejected_at_load(self, field, value):
        bad = dict(self.BASE)
        if field.startswith("dataset."):
            field = field.removeprefix("dataset.")
            bad["dataset"] = dict(self.BASE["dataset"], **{field: value})
        elif field.startswith("agent."):
            *model, field = field.removeprefix("agent.").split(".")
            config = {"model": {field: value}} if model else {field: value}
            bad["agent"] = {"name": "hymopo", "config": config}
        else:
            bad[field] = value
        with pytest.raises(ValueError, match=f"{field} must be"):
            load(bad)

    @pytest.mark.parametrize("value", ["12", [1.9], [True], [-1]])
    def test_hidden_during_collection_takes_integers(self, value):
        # "12" used to give (1, 2) and [1.9] to give (1,)
        with pytest.raises(ValueError, match="hidden_during_collection must be"):
            DatasetRecipe(hidden_during_collection=value)
        bad = dict(self.BASE, dataset=dict(self.BASE["dataset"],
                                           hidden_during_collection=value))
        with pytest.raises(ValueError, match="hidden_during_collection must be"):
            load(bad)

    def test_list_values_of_tuple_fields_become_tuples(self):
        # q_poly_dim_degrees used to stay a list: the config was unhashable
        env = hb.make_env("windygrid")
        cfg = bench._agent_config(env, {
            "q_feature_kind": "polynomial", "q_poly_dim_degrees": [4, 4, 1],
            "model": {"poly_dim_degrees": [2, 2, 1, 1]}})
        assert cfg.q_poly_dim_degrees == (4, 4, 1)
        assert cfg.model.poly_dim_degrees == (2, 2, 1, 1)
        hash(cfg)
        pair = bench.compute_reference_pair(env, seed=3, episodes=5, budget=300, config=cfg)
        assert np.isfinite(pair.random_ref) and np.isfinite(pair.expert_ref)

    def test_negative_seed_override_rejected_at_load(self):
        # the CLI's --seed replaces the seeds; -1 used to fail in every seed
        cfg = load(self.BASE)
        with pytest.raises(ValueError, match="seeds must be"):
            dataclasses.replace(cfg, seeds=(-1,))

    @pytest.mark.parametrize("patch,name", [
        ({"env": {"name": "windygrid", "params": {"wind": 0.3}}}, "wind"),
        ({"agent": {"name": "hymopo", "config": {"epoch": 3}}}, "epoch"),
        ({"agent": {"name": "hymopo", "config": {"model": {"n_member": 3}}}}, "n_member"),
        ({"agent": {"name": "hymopo", "config": {"penalty_mode": "max"}}}, "penalty_mode"),
        # the next three used to load and then fail in every seed
        ({"sim2real": [{"kind": "transition_param_override", "overrides": {"wnd": 0.4}}]},
         "wnd"),
        ({"sim2real": [{"kind": "transition_param_override",
                        "overrides": {"wind_prob": "0.4"}}]}, "wind_prob"),
        ({"sim2real": [{"kind": "transition_param_override", "overrides": {"horizon": 2.5}}]},
         "horizon"),
        # the rest used to load wrongly, or fail with a bare TypeError or a
        # message that names nothing or the wrong thing
        ({"env": {"name": "windygrid", "params": {"width": 2.5}}}, "width"),
        ({"env": {"name": "pendulum", "params": {"horizon": 10.5}}}, "horizon"),
        ({"env": {"name": "windygrid", "params": {"horizon": "50"}}}, "horizon"),
        ({"env": {"name": "bandit", "params": {"p_z0": "1/3"}}}, "p_z0"),
        ({"agent": {"name": "hymopo", "config": {"gamma": "0.9"}}}, "gamma"),
        ({"dataset": {"tier": "medium", "collect_epsilon": "0.1"}}, "collect_epsilon"),
        ({"agent": {"name": "hymopo", "config": {"model": "x"}}}, "model"),
        ({"agent": {"name": "hymopo", "config": [1]}}, "config"),
        ({"env": ["windygrid"]}, "env"),
        ({"env": {"name": ["windygrid"]}}, "env.name"),
        ({"benchmark_id": 5}, "benchmark_id"),
        ({"sim2real": 5}, "sim2real"),
        ({"dataset": {"path": 5}}, "dataset.path"),
    ], ids=["env_param", "agent_key", "model_key", "agent_value", "sim2real_key",
            "sim2real_wind_prob", "sim2real_horizon", "width", "pendulum_horizon",
            "windygrid_horizon", "p_z0", "gamma", "collect_epsilon", "model",
            "agent_config", "env", "env_name", "benchmark_id", "sim2real",
            "dataset_path"])
    def test_bad_env_or_agent_setting_rejected_at_load(self, patch, name):
        # the first four used to fail in every seed, the agent ones after
        # dataset generation
        with pytest.raises((ValueError, hb.EnvError), match=name):
            load(dict(self.BASE, **patch))

    @pytest.mark.parametrize("agent,overrides,match", [
        # all of these used to load and then fail in every seed
        ("online_q", {"q_input_scale": [1.0]}, "Q features: .*scale"),
        ("hymopo", {"q_input_shift": [0.0, 0.0, 0.0, 0.0]}, "Q features: .*shift"),
        ("offline_bcq", {"q_poly_dim_degrees": [4]}, "Q features: .*dim_degrees"),
        ("hymopo", {"model": {"input_scale": [1.0, 1.0, 1.0]}}, "model features: .*scale"),
        ("mopo_lite", {"model": {"input_shift": [0.0]}}, "model features: .*shift"),
    ])
    def test_feature_setting_of_wrong_length_rejected_at_load(self, agent, overrides,
                                                              match):
        with pytest.raises(ValueError, match=match):
            load(self._for_agent(agent, overrides))

    @pytest.mark.parametrize("agent,overrides", [
        ("online_q", {}),
        ("online_q", {"model": {"input_scale": [1.0]}}),  # no model is fitted
        ("hymopo", {"rollout_horizon": 0, "model": {"input_scale": [1.0]}}),
        ("hymopo", {"q_feature_kind": "random_fourier", "q_poly_dim_degrees": [1]}),
        ("mopo_lite", {}),
    ])
    def test_unused_or_fitting_feature_setting_loads(self, agent, overrides):
        load(self._for_agent(agent, overrides))

    def _for_agent(self, agent, overrides) -> dict:
        d = dict(self.BASE, agent={"name": agent, "config": overrides})
        if agent == "online_q":
            del d["dataset"]
        if agent in ("online_q", "offline_bcq", "mopo_lite"):
            del d["sim2real"]
        return d

    @pytest.mark.parametrize("dataset,message", [
        ({"tier": "medium_replay", "history_k": 3}, "medium_replay"),
        # a privileged replay would record the full states its policy trained on
        ({"tier": "medium_replay", "behavior_mode": "privileged"}, "medium_replay"),
        # used to fail after training on the pendulum, and on windygrid to
        # collect with a policy fed stacked observations, not the full state
        ({"tier": "expert", "behavior_mode": "privileged", "history_k": 2}, "history_k > 1"),
    ], ids=["history", "privileged", "privileged_history"])
    def test_medium_replay_with_history_rejected_at_load(self, dataset, message):
        with pytest.raises(ValueError, match=message):
            load(dict(self.BASE, dataset=dataset))

    def test_corruption_keys_accepted(self):
        tags = [{"kind": "obs_noise", "sigma": 0.1}, {"kind": "obs_noise", "sigma": 0.1, "seed": 3},
                {"kind": "hidden_dims", "indices": [2]}]
        cfg = load(dict(self.BASE, dataset={"tier": "medium", "corruption": tags}))
        assert list(cfg.dataset.corruption) == tags

    def test_agent_dataset_coherence(self):
        missing = dict(self.BASE, agent={"name": "offline_bcq"})
        missing["dataset"] = None
        missing["sim2real"] = []
        with pytest.raises(ValueError, match="requires a dataset"):
            load(missing)

        online_with_data = dict(self.BASE, agent={"name": "online_q"})
        with pytest.raises(ValueError, match="does not use a dataset"):
            load(online_with_data)

        offline_with_sim = dict(self.BASE, agent={"name": "offline_bcq"})
        with pytest.raises(ValueError, match="does not use a simulator"):
            load(offline_with_sim)

    def test_unknown_agent_rejected(self):
        bad = dict(self.BASE, agent={"name": "sac"})
        with pytest.raises(ValueError):
            load(bad)

    def test_grid_expansion_counts(self):
        # 2 discrepancies x (4 dataset tiers) x 3 agents, online_q collapses
        # the dataset axis: 2 x 4 x 2 + 2 x 4 (online per discrepancy) = 24
        sim_options = [
            ("grav2x", [{"kind": "transition_param_override", "overrides": {"gravity": 19.62}}]),
            ("fric03", [{"kind": "transition_param_override", "overrides": {"friction": 0.015}}]),
        ]
        ds_options = [
            (tier, DatasetRecipe(tier=tier, n_records=1000))
            for tier in ("random", "medium", "medium_replay", "medium_expert")
        ]
        configs = bench.grid_configs(
            "pendulum", {}, sim_options, ds_options,
            ["online_q", "offline_bcq", "hymopo"],
        )
        assert len(configs) == 24
        ids = [c.benchmark_id for c in configs]
        assert len(set(ids)) == 24


@pytest.fixture(scope="module")
def small_run():
    cfg = BenchConfig(
        benchmark_id="wg-small",
        env=BenchEnv("windygrid"),
        agent=BenchAgent("offline_bcq"),
        dataset=DatasetRecipe(tier="random", n_records=3000, seed=0),
        seeds=(0, 1, 2),
        eval_episodes=40,
    )
    results, failures = bench.run_benchmark(cfg)
    assert not failures
    return cfg, results


class TestRunBenchmark:
    def test_produces_row_per_seed(self, small_run):
        cfg, results = small_run
        assert [r.seed for r in results] == [0, 1, 2]
        assert all(r.agent == "offline_bcq" for r in results)
        assert all(np.isfinite(r.normalized_score) for r in results)

    def test_rerun_reproduces_scores(self, small_run):
        cfg, results = small_run
        again, failures = bench.run_benchmark(cfg)
        assert not failures
        for a, b in zip(results, again):
            assert a.raw_return == b.raw_return
            assert a.normalized_score == b.normalized_score
            assert a.config_hash == b.config_hash
            assert a.dataset_hash == b.dataset_hash

    def test_jobs_2_matches_jobs_1(self, tmp_path, monkeypatch):
        # a 2-config x 2-seed grid sharing one random-tier recipe
        recipe = DatasetRecipe(tier="random", n_records=1000, seed=0)
        configs = [
            BenchConfig(benchmark_id=f"wg-jobs-{agent}", env=BenchEnv("windygrid"),
                        agent=BenchAgent(agent, {"epochs": 3}), dataset=recipe,
                        seeds=(0, 1), eval_episodes=10)
            for agent in ("offline_bcq", "mopo_lite")
        ]
        # pool workers fork from this process: the wrappers below reach them,
        # and every process starts with cold caches, as a CLI run does
        monkeypatch.setattr(bench, "_REF_CACHE", {})
        monkeypatch.setattr(data, "_TRAIN_CACHE", {})
        pid_file = tmp_path / "expert-pids"
        train = agents.train_online_q

        def train_and_log_pid(*args, **kwargs):
            with open(pid_file, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return train(*args, **kwargs)

        monkeypatch.setattr(agents, "train_online_q", train_and_log_pid)
        generated = []
        generate = bench.generate_dataset
        monkeypatch.setattr(bench, "generate_dataset",
                            lambda *a: generated.append(a) or generate(*a))
        pools = []

        class CountedPool(bench.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", CountedPool)

        rows = {}
        for jobs in (2, 1):  # the pool first, while the parent's caches are cold
            results, failures = bench.run_benchmarks(configs, jobs=jobs)
            assert not failures
            rows[jobs] = [dataclasses.replace(r, wall_time=0.0) for r in results]
            if jobs == 2:
                pids = pid_file.read_text().split()
                assert pools == [{"max_workers": 2}]
                assert len(pids) <= 2 and str(os.getpid()) not in pids
                generated.clear()
        assert rows[2] == rows[1]
        assert [(r.benchmark_id, r.seed) for r in rows[1]] == [
            (c.benchmark_id, s) for c in configs for s in c.seeds]
        assert len(generated) == 1  # at jobs=1, the shared recipe is generated once
        assert bench._DATASET_MEMO == {}

    def test_failures_are_isolated(self, tmp_path):
        cfg = BenchConfig(
            benchmark_id="wg-bad",
            env=BenchEnv("windygrid"),
            agent=BenchAgent("offline_bcq"),
            dataset=DatasetFile(str(tmp_path / "missing.ds")),
            seeds=(0, 1),
            eval_episodes=2,
        )
        for jobs in (1, 2):
            results, failures = bench.run_benchmark(cfg, jobs=jobs)
            assert results == []
            assert len(failures) == 2
            assert all(f.error for f in failures)
            assert all(f.error_type == "FileNotFoundError" for f in failures)

    @pytest.mark.parametrize("jobs,sizes", [(1, []), (2, [2]), (8, [3])],
                             ids=["jobs1", "jobs2", "jobs8"])
    def test_one_pool_sized_to_the_grid(self, jobs, sizes, tmp_path, monkeypatch):
        # no real pool: a stand-in records its size and maps in-process
        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        def fake_worker(task):
            config_dict, seed = task
            if config_dict["benchmark_id"] == "b":
                # the first config's rows are written before the second runs
                assert len(bench.read_results(tmp_path / "a.csv")) == 2
            return ("ok", RunResult(config_dict["benchmark_id"], "offline_bcq", seed,
                                    0.0, 0.0, 0.0, "c", "d"))

        created = []
        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(bench, "_worker", fake_worker)
        configs = [
            BenchConfig(benchmark_id=name, env=BenchEnv("windygrid"),
                        agent=BenchAgent("offline_bcq"), dataset=DatasetFile("unused.ds"),
                        seeds=seeds,
                        out=str(tmp_path / f"{name}.csv"))
            for name, seeds in (("a", (0, 1)), ("b", (5,)))
        ]
        results, failures = bench.run_benchmarks(configs, jobs=jobs)
        assert created == sizes
        assert not failures
        assert [(r.benchmark_id, r.seed) for r in results] == [("a", 0), ("a", 1), ("b", 5)]
        assert [r.seed for r in bench.read_results(tmp_path / "b.csv")] == [5]

    def test_dataset_memo_keeps_one_recipe(self, monkeypatch):
        generated = []
        generate = bench.generate_dataset
        monkeypatch.setattr(bench, "generate_dataset",
                            lambda *a: generated.append(a) or generate(*a))
        cfg = BenchConfig(benchmark_id="wg-memo", env=BenchEnv("windygrid"),
                          agent=BenchAgent("offline_bcq"),
                          dataset=DatasetRecipe(tier="random", n_records=200, seed=0))
        other = dataclasses.replace(
            cfg, dataset=DatasetRecipe(tier="random", n_records=200, seed=1))
        monkeypatch.setattr(bench, "_DATASET_MEMO", {})
        first = bench.obtain_dataset(cfg)
        # the agent is not part of the key; another recipe replaces the entry
        assert bench.obtain_dataset(dataclasses.replace(cfg, agent=BenchAgent("mopo_lite"))
                                    ) is first
        assert bench.obtain_dataset(other) is not first
        assert len(bench._DATASET_MEMO) == 1
        assert bench.obtain_dataset(cfg) == first
        assert len(generated) == 3

    def test_results_file_round_trip(self, small_run, tmp_path):
        _, results = small_run
        path = tmp_path / "results.csv"
        bench.append_results(path, results)
        back = bench.read_results(path)
        assert back == list(results)
        header = path.read_text().splitlines()[0]
        assert header == "benchmark_id,agent,seed,raw_return,normalized_score,wall_time,config_hash,dataset_hash"

    def test_append_to_a_file_without_the_header_fails(self, small_run, tmp_path):
        # the rows and a second header used to land below the file's own lines
        _, results = small_run
        path = tmp_path / "notes.csv"
        path.write_text("name,value\nx,1\n")
        with pytest.raises(ValueError, match="notes.csv"):
            bench.append_results(path, results)
        assert path.read_text() == "name,value\nx,1\n"
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        bench.append_results(empty, results)  # an empty file takes the header
        assert bench.read_results(empty) == list(results)


class TestReports:
    ROWS = [
        RunResult("b1", "offline_bcq", s, raw, score, 1.0, "c" * 16, "d" * 16)
        for s, raw, score in ((0, -20.0, 10.0), (1, -10.0, 20.0), (2, 0.0, 30.0))
    ]

    def test_aggregate_mean_and_sample_std(self):
        text = bench.emit_report(self.ROWS, fmt="markdown")
        # sample standard deviation (n-1) of {10, 20, 30} is 10.0
        assert "20.0 ± 10.0" in text

    def test_single_result_zero_std(self):
        text = bench.emit_report(self.ROWS[:1], fmt="markdown")
        assert "10.0 ± 0.0" in text

    def test_csv_round_trips(self, tmp_path):
        text = bench.emit_report(self.ROWS, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("benchmark_id,agent,seed")
        import csv as csvmod
        import io

        rows = list(csvmod.DictReader(io.StringIO(text)))
        per_seed = [r for r in rows if r["seed"] != "aggregate"]
        agg = [r for r in rows if r["seed"] == "aggregate"]
        assert len(per_seed) == 3 and len(agg) == 1
        assert float(agg[0]["normalized_score"]) == 20.0
        assert float(agg[0]["normalized_score_std"]) == 10.0
        for row, src in zip(per_seed, self.ROWS):
            assert float(row["raw_return"]) == src.raw_return
            assert float(row["normalized_score"]) == src.normalized_score

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            bench.emit_report([], fmt="csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            bench.emit_report(self.ROWS, fmt="yaml")
