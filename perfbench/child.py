"""One cold run of one perfbench workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --size full|quick
        --tmp DIR [--trace-dir DIR] [--setup-only]

``run.py`` starts this script once per repetition, with ``PYTHONPATH``
pointing at the checkout's ``src`` and the BLAS thread count set.  Set-up
(interpreter start, imports, tracer installation, input construction) ends
at the ``ready`` timestamp; the workload runs after it.  The last line of
standard output is one JSON object: timestamps on the system-wide monotonic
clock, result rows for the determinism digest, correctness checks, peak RSS
and CPU time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time

# Sizes per workload.  ``full`` is what the benchmark measures; ``quick``
# only exercises every code path for the self-test.
SIZES = {
    "full": {
        "pendulum-refs": {"budget": 3000, "episodes": 100},
        "windygrid-run-jobs2": {"n_records": 5000, "tier": "medium", "epochs": 10,
                                "eval_episodes": 50, "jobs": 2},
    },
    "quick": {
        "pendulum-refs": {"budget": 600, "episodes": 5},
        "windygrid-run-jobs2": {"n_records": 300, "tier": "random", "epochs": 1,
                                "eval_episodes": 3, "jobs": 2},
    },
}
ROUNDTRIP_RECORDS = 2000


class PendulumRefs:
    """``compute_reference_pair`` on the pendulum at a reduced budget."""

    agent = "refs"

    def prepare(self, seed, size, tmp):
        import hybench as hb

        self.seed, self.size, self.tmp = seed, size, tmp
        self.env = hb.make_env("pendulum")

    def run(self):
        from hybench import bench

        self.pair = bench.compute_reference_pair(
            self.env, seed=self.seed, budget=self.size["budget"],
            episodes=self.size["episodes"])
        return [["pendulum", self.seed, repr(self.pair.random_ref),
                 repr(self.pair.expert_ref)]]

    def check(self):
        # No expert-beats-random check: at this budget (3000 of the default
        # 40000 steps) the expert loses to the uniform policy for some seeds
        # (9 and 106 of 21 tried).  The pool workload's CLI run enforces it on
        # windygrid at the default budget (normalize_score raises otherwise).
        pair = self.pair
        return {
            "refs_finite": math.isfinite(pair.random_ref) and math.isfinite(pair.expert_ref),
            "dataset_roundtrip_bit_exact": self._roundtrip(),
        }

    def _roundtrip(self) -> bool:
        """read_dataset(write_dataset(d)) == d, bit for bit, on a small
        noise-corrupted pendulum dataset (outside the timed region)."""
        import hybench as hb
        from hybench import agents, data

        env = hb.make_env("pendulum")
        grid = agents.resolve_action_grid(env, agents.default_agent_config(env))
        d = data.collect_dataset(env, agents.UniformPolicy(grid, seed=self.seed),
                                 ROUNDTRIP_RECORDS, "observed", self.seed)
        d = data.corrupt_obs_noise(d, 0.05, self.seed)
        path = os.path.join(self.tmp, f"roundtrip-{os.getpid()}.jsonl")
        data.write_dataset(d, path)
        back = data.read_dataset(path)
        return back == d and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                                 for x, y in zip(back.arrays(), d.arrays()))


class WindygridRunJobs2:
    """``hybench run --jobs 2`` on one windygrid hymopo config, two seeds."""

    agent = "hymopo"

    def prepare(self, seed, size, tmp):
        self.size = size
        self.seeds = [2 * seed, 2 * seed + 1]
        # relative paths: the config (and so config_hash in the result rows)
        # must not change between repetitions
        os.chdir(tempfile.mkdtemp(prefix="jobs2-", dir=tmp))
        config = {
            "benchmark_id": "windygrid-windgap-medium-hymopo",
            "env": {"name": "windygrid", "params": {"wind_prob": 0.3}},
            "sim2real": [{"kind": "transition_param_override",
                          "overrides": {"wind_prob": 0.4}}],
            "dataset": {"tier": size["tier"], "n_records": size["n_records"], "seed": 0},
            "agent": {"name": "hymopo", "config": {"epochs": size["epochs"]}},
            "seeds": self.seeds,
            "eval_episodes": size["eval_episodes"],
            "out": "results.csv",
        }
        with open("grid.json", "w", encoding="utf-8") as fh:
            json.dump([config], fh)

    def run(self):
        from hybench import bench, cli

        argv = ["run", "--config", "grid.json", "--jobs", str(self.size["jobs"])]
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = cli.main(argv)
        self.results = (bench.read_results("results.csv")
                        if os.path.exists("results.csv") else [])
        return [[r.benchmark_id, r.agent, r.seed, repr(r.raw_return),
                 repr(r.normalized_score), r.config_hash, r.dataset_hash]
                for r in sorted(self.results, key=lambda r: r.seed)]

    def check(self):
        return {
            # a failed seed, or an expert reference not above the random one
            # (normalize_score raises), makes the CLI exit nonzero
            "cli_exit_code_zero": self.exit_code == 0,
            "one_row_per_seed": sorted(r.seed for r in self.results) == self.seeds,
            "scores_finite": all(math.isfinite(r.normalized_score) for r in self.results),
        }


WORKLOADS = {
    "pendulum-refs": PendulumRefs,
    "windygrid-run-jobs2": WindygridRunJobs2,
}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--tmp", required=True)
    p.add_argument("--trace-dir", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import numpy as np

    import hybench
    from hybench import bench, data

    tracer = None
    if args.trace_dir:
        import tracer as tracing

        tracer = tracing.Tracer(args.trace_dir)
        tracing.install(tracer)
    # every run starts cold: users pay for reference and tier training on
    # each invocation, so nothing may be cached in the process yet
    if bench._REF_CACHE or data._TRAIN_CACHE:
        raise RuntimeError("hybench caches are not empty at start")
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, SIZES[args.size][args.workload], args.tmp)
    ready = time.monotonic()
    out = {"ready": ready, "hybench": hybench.__file__}
    if not args.setup_only:
        if tracer is not None:
            tracer.set_run(args.workload, workload.agent, args.seed)
        cpu0 = _cpu_s()
        rows = workload.run()
        end = time.monotonic()
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.flush()  # spans of the checks below are not part of the run
            out["span_cost_s"] = tracing.per_span_cost()
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.update(
            end=end,
            rows=rows,
            checks={k: bool(v) for k, v in workload.check().items()},
            peak_rss_kb=peak_kb,
            cpu_s=cpu,
            numpy=np.__version__,
            blas=_blas(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
