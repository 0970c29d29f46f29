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

import numpy as np

from . import agents
from .data import (
    DEFAULT_TIER_BUDGET,
    Dataset,
    DatasetRecipe,
    _int,
    _ints,
    apply_specs,
    check_field,
    check_spec,
    generate_dataset,
    online_training_run,
    read_dataset,
)
from .envs import Environment, make_env
from .records import check_keys, field_types, read_record, read_value
from .seeding import REFS, derived_seed
from .wrappers import clone_env, env_signature

AGENT_NAMES = ("online_q", "offline_bcq", "mopo_lite", "hymopo")


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
class BenchConfig:
    benchmark_id: str
    env_name: str
    env_params: dict
    sim2real: tuple[dict, ...] = ()
    dataset_path: str | None = None
    dataset_recipe: DatasetRecipe | None = None
    agent: str = "offline_bcq"
    agent_overrides: dict | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    eval_episodes: int = 20
    out: str | None = None

    def __post_init__(self):
        for name, tp in (("benchmark_id", str), ("env_name", str), ("agent", str),
                         ("sim2real", tuple[dict, ...]), ("dataset_path", str | None),
                         ("out", str | None)):
            object.__setattr__(self, name, read_value(tp, getattr(self, name), name))
        if self.agent not in AGENT_NAMES:
            raise ValueError(f"unknown agent {self.agent!r}; valid: {AGENT_NAMES}")
        uses_dataset = self.agent in ("offline_bcq", "mopo_lite", "hymopo")
        has_dataset = self.dataset_path is not None or self.dataset_recipe is not None
        if uses_dataset and not has_dataset:
            raise ValueError(f"agent {self.agent!r} requires a dataset")
        if self.agent == "online_q" and has_dataset:
            raise ValueError("agent 'online_q' does not use a dataset; remove it")
        if self.agent in ("offline_bcq", "mopo_lite") and self.sim2real:
            raise ValueError(
                f"agent {self.agent!r} does not use a simulator; remove sim2real"
            )
        if self.dataset_path is not None and self.dataset_recipe is not None:
            raise ValueError("give either a dataset path or a recipe, not both")
        object.__setattr__(self, "seeds", tuple(check_field("seeds", _ints, self.seeds)))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if check_field("eval_episodes", _int, self.eval_episodes) < 1:
            raise ValueError("eval_episodes must be >= 1")
        # bad env params, agent overrides and sim2real specs fail here, not in
        # every seed
        env = make_env(self.env_name, self.env_params)
        _agent_config(env, self.agent_overrides)
        apply_specs(env, self.sim2real, "env")
        object.__setattr__(
            self, "sim2real", tuple(check_spec(s, "env") for s in self.sim2real)
        )
        # None and {} mean the same; store {} so that from_dict(to_dict()) is equal
        object.__setattr__(self, "env_params", dict(self.env_params or {}))
        object.__setattr__(self, "agent_overrides", dict(self.agent_overrides or {}))

    def to_dict(self) -> dict:
        dataset: dict | str | None
        if self.dataset_path is not None:
            dataset = {"path": self.dataset_path}
        elif self.dataset_recipe is not None:
            dataset = self.dataset_recipe.to_dict()
        else:
            dataset = None
        return {
            "benchmark_id": self.benchmark_id,
            "env": {"name": self.env_name, "params": dict(self.env_params)},
            "sim2real": [dict(s) for s in self.sim2real],
            "dataset": dataset,
            "agent": {"name": self.agent, "config": dict(self.agent_overrides)},
            "seeds": list(self.seeds),
            "eval_episodes": self.eval_episodes,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        check_keys(d, "config", ("benchmark_id", "env", "agent"),
                   ("sim2real", "dataset", "seeds", "eval_episodes", "out"))
        env_d = check_keys(d["env"], "env", ("name",), ("params",))
        agent_d = check_keys(d["agent"], "agent", ("name",), ("config",))
        ds = d.get("dataset")
        dataset_path = recipe = None
        if isinstance(ds, dict) and set(ds) == {"path"}:
            dataset_path = ds["path"]
        elif ds is not None:
            recipe = read_record(DatasetRecipe, ds, "dataset recipe")
        return cls(
            benchmark_id=d["benchmark_id"],
            env_name=env_d["name"],
            env_params=env_d.get("params"),
            sim2real=d.get("sim2real", ()),
            dataset_path=dataset_path,
            dataset_recipe=recipe,
            agent=agent_d["name"],
            agent_overrides=agent_d.get("config"),
            seeds=d.get("seeds", (0, 1, 2)),
            eval_episodes=d.get("eval_episodes", 20),
            out=d.get("out"),
        )


def load_configs(path) -> list[BenchConfig]:
    """Load one config object or a JSON array of them."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ValueError("config file must hold a JSON object or array of objects")
    return [BenchConfig.from_dict(item) for item in payload]


def config_hash(config: BenchConfig) -> str:
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def dataset_hash(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(dataset.meta.to_dict(), sort_keys=True).encode())
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

    @classmethod
    def from_exception(cls, config: BenchConfig, seed: int, exc: Exception) -> RunFailure:
        return cls(config.benchmark_id, config.agent, seed, str(exc), type(exc).__name__)


def _agent_config(env: Environment, overrides: dict | None) -> agents.AgentConfig:
    """The environment's default agent config with a config's overrides."""
    return read_record(agents.AgentConfig, {} if overrides is None else overrides,
                       "agent config", agents.default_agent_config(env))


_DATASET_MEMO: dict = {}  # the last dataset, by canonical env + dataset JSON


def obtain_dataset(config: BenchConfig) -> Dataset | None:
    d = config.to_dict()
    key = json.dumps([d["env"], d["dataset"]], sort_keys=True)
    if d["dataset"] is not None and key not in _DATASET_MEMO:
        dataset = (read_dataset(config.dataset_path) if config.dataset_path is not None
                   else generate_dataset(make_env(config.env_name, config.env_params),
                                         config.dataset_recipe))
        _DATASET_MEMO.clear()  # one entry: consecutive tasks share a recipe
        _DATASET_MEMO[key] = dataset
    return _DATASET_MEMO.get(key)


def _run_single_seed(config: BenchConfig, seed: int, dataset: Dataset | None
                     ) -> RunResult:
    start = time.monotonic()
    true_env = make_env(config.env_name, config.env_params)
    cfg = _agent_config(true_env, config.agent_overrides)
    refs = compute_reference_pair(true_env)

    # the training simulator: the true environment with the sim2real gap
    sim = apply_specs(make_env(config.env_name, config.env_params), config.sim2real, "env")
    if config.agent == "online_q":
        policy = agents.train_online_q(sim, cfg, seed).policy
    elif config.agent == "offline_bcq":
        policy = agents.train_offline_bcq(dataset, cfg, seed).policy
    elif config.agent == "mopo_lite":
        policy = agents.train_mopo_lite(dataset, cfg, seed).policy
    else:  # hymopo
        policy = agents.train_hymopo(dataset, sim, cfg, seed).policy

    raw, _ = agents.evaluate_policy(true_env, policy, config.eval_episodes, seed)
    score = normalize_score(raw, refs.random_ref, refs.expert_ref)
    ds_hash = dataset_hash(dataset) if dataset is not None else "-"
    return RunResult(
        benchmark_id=config.benchmark_id,
        agent=config.agent,
        seed=seed,
        raw_return=float(raw),
        normalized_score=float(score),
        wall_time=time.monotonic() - start,
        config_hash=config_hash(config),
        dataset_hash=ds_hash,
    )


def _worker(payload: tuple) -> tuple:
    config_dict, seed = payload
    config = BenchConfig.from_dict(config_dict)
    try:
        dataset = obtain_dataset(config)
        return ("ok", _run_single_seed(config, seed, dataset))
    except Exception as exc:  # per-seed isolation: other seeds continue
        return ("error", RunFailure.from_exception(config, seed, exc))


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
    tasks = [(config.to_dict(), seed) for config in configs for seed in config.seeds]
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
    """Append rows to a results CSV, writing the header on first touch."""
    try:
        with open(path, encoding="utf-8") as fh:
            has_header = fh.readline().strip() == ",".join(RESULTS_HEADER)
    except FileNotFoundError:
        has_header = False
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not has_header:
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
                        env_name=env_name,
                        env_params=dict(env_params),
                        sim2real=tuple(specs) if uses_sim else (),
                        dataset_recipe=recipe if uses_data else None,
                        agent=agent,
                        seeds=seeds,
                        eval_episodes=eval_episodes,
                    )
                )
    return configs
