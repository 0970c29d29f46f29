"""Command-line harness.

Subcommands:

* ``gen-data`` -- materialize a dataset recipe into a dataset file;
* ``run``      -- execute benchmark config(s), appending a results CSV;
* ``report``   -- render a results CSV as csv/markdown aggregates;
* ``bandit``   -- print the exact latent-context bandit analysis;
* ``refs``     -- compute and cache an environment's reference score pair.

Exits 0 on success; on failure prints a structured JSON error summary to
stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import bench, oracle
from .data import DatasetRecipe, generate_dataset, write_dataset
from .envs import BanditSpec, make_env
from .records import check_keys, read_record


def _fmt_exact(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator} ({float(value):.6f})"
    return f"{float(value):.6f}"


def cmd_gen_data(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        payload = check_keys(json.load(fh), "gen-data config", ("env", "dataset"), ("out",))
    recipe = read_record(DatasetRecipe, payload["dataset"], "gen-data dataset")
    if args.seed is not None:
        recipe = dataclasses.replace(recipe, seed=args.seed)
    out = args.out or payload.get("out")
    if not out:
        raise ValueError("gen-data needs an output path (config 'out' or --out)")
    env = read_record(bench.BenchEnv, payload["env"], "env")
    dataset = generate_dataset(make_env(env.name, env.params), recipe)
    write_dataset(dataset, out)
    print(f"wrote {len(dataset)} records to {out}")
    return 0


def cmd_run(args) -> int:
    configs = bench.load_configs(args.config)
    if args.seed is not None:
        configs = [dataclasses.replace(c, seeds=(args.seed,)) for c in configs]
    if args.out is not None:
        configs = [dataclasses.replace(c, out=args.out) for c in configs]
    results, failures = bench.run_benchmarks(configs, jobs=args.jobs)
    for res in results:
        print(
            f"{res.benchmark_id} agent={res.agent} seed={res.seed} "
            f"raw={res.raw_return:.2f} score={res.normalized_score:.2f}"
        )
    if failures:
        summary = [dataclasses.asdict(f) for f in failures]
        print(json.dumps({"failures": summary}, indent=2), file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    results = bench.read_results(args.config)
    text = bench.emit_report(results, fmt=args.format, path=args.out)
    if args.out is None:
        print(text, end="")
    else:
        print(f"wrote report to {args.out}")
    return 0


def cmd_bandit(args) -> int:
    spec = BanditSpec()
    pi_b = oracle.confounding_behavior_policy()
    analysis = oracle.analyze_bandit(spec, pi_b)
    print("latent-context bandit analysis (exact)")
    for row in analysis.rows():
        print(
            f"  {row['action']}: true={_fmt_exact(row['true_value'])}  "
            f"logged-data estimate={_fmt_exact(row['confounded_estimate'])}  "
            f"gap={_fmt_exact(row['bias_gap'])}"
        )
    print(f"  best action by true value:      a{analysis.true_argmax}")
    print(f"  best action by logged estimate: a{analysis.confounded_argmax}")
    n = args.samples
    emp = oracle.bandit_empirical_check(spec, pi_b, n, args.seed or 0)
    print(f"  empirical check (n={n}, seed={args.seed or 0}):")
    for a in (0, 1):
        print(f"    a{a}: mean={emp.means[a]:.4f} (count {emp.counts[a]})")
    print(f"    empirical argmax: a{emp.argmax}")
    return 0


def cmd_refs(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        env_d = json.load(fh)
    if isinstance(env_d, dict) and "env" in env_d:  # {"env": {...}} or the env itself
        env_d = check_keys(env_d, "refs config", ("env",))["env"]
    env = read_record(bench.BenchEnv, env_d, "env")
    pair = bench.compute_reference_pair(make_env(env.name, env.params), seed=args.seed or 0)
    record = {
        "env": env_d,
        "seed": args.seed or 0,
        "random_ref": pair.random_ref,
        "expert_ref": pair.expert_ref,
    }
    print(json.dumps(record, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybench",
        description="Benchmarks mixing imperfect simulators with offline data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "config": {"required": True, "help": "path to a JSON config"},
        "seed": {"type": int, "default": None, "help": "seed override"},
        "out": {"default": None, "help": "output path override"},
        "jobs": {"type": int, "default": 1, "help": "parallel workers"},
    }

    def add(name, fn, help, *names):
        """A subcommand declaring only the shared flags its handler reads."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data, "materialize a dataset recipe into a file",
        "config", "seed", "out")
    add("run", cmd_run, "run benchmark config(s) and append results",
        "config", "seed", "out", "jobs")
    p = add("report", cmd_report, "render a results CSV (--config) as a report",
            "config", "out")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p = add("bandit", cmd_bandit, "print the exact confounded-bandit analysis", "seed")
    p.add_argument("--samples", type=int, default=1_000_000)
    add("refs", cmd_refs, "compute an environment's reference score pair",
        "config", "seed", "out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
