"""Benchmark harness.

A benchmark config names one true environment, the simulator discrepancies a
training-time simulator suffers, the offline dataset (a file path or a
generation recipe), and the agent to train.  Execution trains the agent per
seed using only the perturbed simulator and/or the dataset, then evaluates
on the unperturbed true environment and reports scores normalized to 0
(uniform-random reference) .. 100 (trained expert reference).

Config files are JSON with exactly the documented keys; unknown keys are an
error so misconfigurations fail instead of silently running something else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from typing import Literal

import numpy as np

from . import agents
from .data import (
    DEFAULT_TIER_BUDGET,
    Dataset,
    DatasetRecipe,
    apply_specs,
    check_spec,
    generate_dataset,
    online_training_run,
    read_dataset,
)
from .envs import Environment, make_env
from .records import Count, check_fields, field_types, read_record, write_record
from .seeding import REFS, derived_seed
from .wrappers import clone_env, env_signature, hidden_indices


def normalize_score(raw: float, random_ref: float, expert_ref: float) -> float:
    """Scale a raw return to 0 (random reference) .. 100 (expert reference).

    Scores outside [0, 100] are allowed; the reference gap must be positive.
    """
    if expert_ref <= random_ref:
        raise ValueError(
            f"expert reference ({expert_ref}) must exceed random reference "
            f"({random_ref})"
        )
    return 100.0 * (raw - random_ref) / (expert_ref - random_ref)


@dataclass(frozen=True)
class ReferencePair:
    random_ref: float
    expert_ref: float


_REF_CACHE: dict = {}


def compute_reference_pair(
    env: Environment,
    seed: int = 0,
    episodes: int = 100,
    budget: int | None = None,
    config=None,
) -> ReferencePair:
    """Mean returns of the uniform policy and of a trained expert policy.

    Cached per (environment signature, seed, episodes, budget, agent config)
    so repeated normalization reuses one expert training run per process.
    """
    if budget is None:
        budget = DEFAULT_TIER_BUDGET.get(env.name, 20_000)
    cfg = config if config is not None else agents.default_agent_config(env)
    key = (env_signature(env), seed, episodes, budget, cfg)
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    uniform = agents.UniformPolicy(agents.resolve_action_grid(env, cfg), seed=seed)
    random_ref, _ = agents.evaluate_policy(
        clone_env(env), uniform, episodes, derived_seed(seed, REFS, 0)
    )
    run = online_training_run(env, budget, seed, cfg)
    expert_ref, _ = agents.evaluate_policy(
        clone_env(env), run.policy, episodes, derived_seed(seed, REFS, 1)
    )
    pair = ReferencePair(float(random_ref), float(expert_ref))
    _REF_CACHE[key] = pair
    return pair


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchEnv:
    """A config's ``env`` section: an environment name and its parameters."""

    name: str
    params: dict | None = None

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "params", self.params or {})  # null means {}


@dataclass(frozen=True)
class BenchAgent:
    """A config's ``agent`` section: an agent name and its config overrides."""

    name: Literal["online_q", "offline_bcq", "mopo_lite", "hymopo"]
    config: dict | None = None

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "config", self.config or {})  # null means {}


@dataclass(frozen=True)
class DatasetFile:
    """A config's ``dataset`` section naming a dataset file."""

    path: str

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark config, read from and written to JSON by ``records``:
    ``read_record(BenchConfig, d, "config")`` and ``write_record(config)``."""

    benchmark_id: str
    env: BenchEnv
    agent: BenchAgent
    sim2real: tuple[dict, ...] = ()
    dataset: DatasetFile | DatasetRecipe | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    eval_episodes: Count = 20
    out: str | None = None

    def __post_init__(self):
        check_fields(self)
        agent = self.agent.name
        if agent != "online_q" and self.dataset is None:
            raise ValueError(f"agent {agent!r} requires a dataset")
        if agent == "online_q" and self.dataset is not None:
            raise ValueError("agent 'online_q' does not use a dataset; remove it")
        if agent in ("offline_bcq", "mopo_lite") and self.sim2real:
            raise ValueError(f"agent {agent!r} does not use a simulator; remove sim2real")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        # bad env params, agent overrides, feature settings and sim2real specs
        # fail here, not in every seed
        env = make_env(self.env.name, self.env.params)
        agents.check_feature_maps(env, _agent_config(env, self.agent.config),
                                  agent in ("mopo_lite", "hymopo"))
        apply_specs(env, self.sim2real, "env")
        recipe = self.dataset
        if isinstance(recipe, DatasetRecipe):  # hidden indices name env dimensions
            hidden = [c["indices"] for c in recipe.corruption if c["kind"] == "hidden_dims"]
            for indices in (recipe.hidden_during_collection, *hidden):
                hidden_indices(indices, env.obs_dim)
        object.__setattr__(
            self, "sim2real", tuple(check_spec(s, "env") for s in self.sim2real)
        )


def load_configs(path) -> list[BenchConfig]:
    """Load one config object or a JSON array of them."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ValueError("config file must hold a JSON object or array of objects")
    return [read_record(BenchConfig, item, "config") for item in payload]


def config_hash(config: BenchConfig) -> str:
    canon = json.dumps(write_record(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def dataset_hash(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(write_record(dataset.meta), sort_keys=True).encode())
    O, A, R, O2, D = dataset.arrays()
    for arr in (O, np.asarray(A, dtype=float), R, O2, D.astype(np.uint8)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    benchmark_id: str
    agent: str
    seed: int
    raw_return: float
    normalized_score: float
    wall_time: float
    config_hash: str
    dataset_hash: str

    def row(self) -> list:
        return list(astuple(self))  # csv writes floats by repr: full precision


RESULTS_HEADER = tuple(f.name for f in fields(RunResult))


@dataclass(frozen=True)
class RunFailure:
    benchmark_id: str
    agent: str
    seed: int
    error: str
    error_type: str


def _agent_config(env: Environment, overrides: dict) -> agents.AgentConfig:
    """The environment's default agent config with a config's overrides."""
    return read_record(agents.AgentConfig, overrides, "agent config",
                       agents.default_agent_config(env))


_DATASET_MEMO: dict = {}  # the last dataset, by canonical env + dataset JSON


def obtain_dataset(config: BenchConfig) -> Dataset | None:
    key = json.dumps(write_record([config.env, config.dataset]), sort_keys=True)
    if config.dataset is not None and key not in _DATASET_MEMO:
        dataset = (read_dataset(config.dataset.path) if isinstance(config.dataset, DatasetFile)
                   else generate_dataset(make_env(config.env.name, config.env.params),
                                         config.dataset))
        _DATASET_MEMO.clear()  # one entry: consecutive tasks share a recipe
        _DATASET_MEMO[key] = dataset
    return _DATASET_MEMO.get(key)


def _run_single_seed(config: BenchConfig, seed: int, dataset: Dataset | None
                     ) -> RunResult:
    start = time.monotonic()
    true_env = make_env(config.env.name, config.env.params)
    cfg = _agent_config(true_env, config.agent.config)
    refs = compute_reference_pair(true_env)

    # the training simulator: the true environment with the sim2real gap
    sim = apply_specs(make_env(config.env.name, config.env.params), config.sim2real, "env")
    agent = config.agent.name
    if agent == "online_q":
        policy = agents.train_online_q(sim, cfg, seed).policy
    elif agent == "offline_bcq":
        policy = agents.train_offline_bcq(dataset, cfg, seed)
    elif agent == "mopo_lite":
        policy = agents.train_mopo_lite(dataset, cfg, seed).policy
    else:  # hymopo
        policy = agents.train_hymopo(dataset, sim, cfg, seed).policy

    raw, _ = agents.evaluate_policy(true_env, policy, config.eval_episodes, seed)
    score = normalize_score(raw, refs.random_ref, refs.expert_ref)
    ds_hash = dataset_hash(dataset) if dataset is not None else "-"
    return RunResult(
        benchmark_id=config.benchmark_id,
        agent=agent,
        seed=seed,
        raw_return=float(raw),
        normalized_score=float(score),
        wall_time=time.monotonic() - start,
        config_hash=config_hash(config),
        dataset_hash=ds_hash,
    )


def _worker(payload: tuple) -> tuple:
    config_dict, seed = payload
    config = read_record(BenchConfig, config_dict, "config")
    try:
        dataset = obtain_dataset(config)
        return ("ok", _run_single_seed(config, seed, dataset))
    except Exception as exc:  # per-seed isolation: other seeds continue
        return ("error", RunFailure(config.benchmark_id, config.agent.name, seed, str(exc),
                                    type(exc).__name__))


def run_benchmark(
    config: BenchConfig, jobs: int = 1
) -> tuple[list[RunResult], list[RunFailure]]:
    """Run every seed of one config: ``run_benchmarks`` on a grid of one."""
    return run_benchmarks([config], jobs)


def run_benchmarks(
    configs: list[BenchConfig], jobs: int = 1
) -> tuple[list[RunResult], list[RunFailure]]:
    """Run every (config, seed) pair of a grid.

    Training only ever touches the perturbed simulator and/or the dataset;
    evaluation always happens on the unperturbed true environment.  Failures
    are recorded per seed and do not stop the remaining seeds.  The pairs run
    in-process when one worker suffices, otherwise on one pool of up to
    ``jobs`` workers for the whole grid.  Each config's results are appended
    to its ``out`` as soon as its last seed finishes; both lists keep config
    then seed order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(write_record(config), seed) for config in configs for seed in config.seeds]
    workers = min(jobs, len(tasks))
    results: list[RunResult] = []
    failures: list[RunFailure] = []
    try:
        with (ProcessPoolExecutor(max_workers=workers) if workers > 1
              else nullcontext()) as pool:
            outcomes = pool.map(_worker, tasks) if pool else map(_worker, tasks)
            for config in configs:
                done = len(results)
                for _ in config.seeds:
                    status, value = next(outcomes)
                    (results if status == "ok" else failures).append(value)
                if config.out:
                    append_results(config.out, results[done:])
    finally:
        _DATASET_MEMO.clear()  # a path dataset may change before the next run
    return results, failures


# ---------------------------------------------------------------------------
# Results files and reports
# ---------------------------------------------------------------------------


def append_results(path, results: list[RunResult]) -> None:
    """Append rows to a results CSV, writing the header on first touch; a
    non-empty file that does not start with the header is left unchanged."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except FileNotFoundError:
        first = ""
    if first and first.strip() != ",".join(RESULTS_HEADER):
        raise ValueError(f"{path} is not a results file: its first line is "
                         f"{first.strip()[:80]!r}, not the header {list(RESULTS_HEADER)}")
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not first:
            writer.writerow(RESULTS_HEADER)
        for res in results:
            writer.writerow(res.row())


def read_results(path) -> list[RunResult]:
    types = field_types(RunResult)[0]  # each column parsed as str, int or float
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(RESULTS_HEADER):
            raise ValueError(
                f"unexpected results header {reader.fieldnames}; "
                f"expected {list(RESULTS_HEADER)}"
            )
        return [RunResult(**{name: tp(row[name]) for name, tp in types.items()})
                for row in reader]


def _aggregate(results: list[RunResult]) -> dict:
    groups: dict = {}
    for res in results:
        groups.setdefault((res.benchmark_id, res.agent), []).append(res)
    agg = {}
    for key, rows in groups.items():
        norm = np.array([r.normalized_score for r in rows])
        raw = np.array([r.raw_return for r in rows])
        # sample standard deviation (n-1); a single run reports 0
        nstd = float(np.std(norm, ddof=1)) if len(rows) > 1 else 0.0
        rstd = float(np.std(raw, ddof=1)) if len(rows) > 1 else 0.0
        agg[key] = {
            "rows": rows,
            "raw_mean": float(raw.mean()),
            "raw_std": rstd,
            "norm_mean": float(norm.mean()),
            "norm_std": nstd,
        }
    return agg


def emit_report(results: list[RunResult], fmt: str = "markdown", path=None) -> str:
    """Render per-seed rows plus aggregates.

    ``csv`` keeps full precision (one row per run, one aggregate row per
    benchmark/agent); ``markdown`` is a pivot table of "mean +- std" cells to
    one decimal, benchmarks as rows and agents as columns.
    """
    if not results:
        raise ValueError("cannot report on an empty result list")
    agg = _aggregate(results)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["benchmark_id", "agent", "seed", "raw_return", "normalized_score",
             "raw_return_std", "normalized_score_std"]
        )
        for (bench_id, agent), info in sorted(agg.items()):
            for res in info["rows"]:
                writer.writerow(
                    [bench_id, agent, res.seed, repr(res.raw_return),
                     repr(res.normalized_score), "", ""]
                )
            writer.writerow(
                [bench_id, agent, "aggregate", repr(info["raw_mean"]),
                 repr(info["norm_mean"]), repr(info["raw_std"]), repr(info["norm_std"])]
            )
        text = buf.getvalue()
    elif fmt == "markdown":
        bench_ids = sorted({k[0] for k in agg})
        agent_names = sorted({k[1] for k in agg})
        lines = ["| benchmark | " + " | ".join(agent_names) + " |",
                 "|---" * (len(agent_names) + 1) + "|"]
        for bench_id in bench_ids:
            cells = []
            for agent in agent_names:
                info = agg.get((bench_id, agent))
                if info is None:
                    cells.append("-")
                else:
                    cells.append(f"{info['norm_mean']:.1f} ± {info['norm_std']:.1f}")
            lines.append("| " + bench_id + " | " + " | ".join(cells) + " |")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}; use 'csv' or 'markdown'")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def grid_configs(
    env_name: str,
    env_params: dict,
    sim2real_options: list[tuple[str, list]],
    dataset_options: list[tuple[str, DatasetRecipe | None]],
    agent_names: list[str],
    seeds: tuple[int, ...] = (0, 1, 2),
    eval_episodes: int = 20,
) -> list[BenchConfig]:
    """Expand (discrepancy x dataset x agent) axes into benchmark configs,
    skipping combinations an agent cannot consume."""
    configs = []
    for sim_label, specs in sim2real_options:
        for ds_label, recipe in dataset_options:
            for agent in agent_names:
                uses_sim = agent in ("online_q", "hymopo")
                uses_data = agent != "online_q"
                if uses_data and recipe is None:
                    continue
                configs.append(
                    BenchConfig(
                        benchmark_id=f"{env_name}-{sim_label}-{ds_label}-{agent}",
                        env=BenchEnv(env_name, env_params),
                        agent=BenchAgent(agent),
                        sim2real=tuple(specs) if uses_sim else (),
                        dataset=recipe if uses_data else None,
                        seeds=seeds,
                        eval_episodes=eval_episodes,
                    )
                )
    return configs
