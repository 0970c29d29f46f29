"""A small benchmark grid end to end: configs, runs, results file, report.

Windy gridworld with a mildly wrong simulator (wind probability 0.4 instead
of 0.3): the online agent only sees the wrong simulator, the offline agent
only the medium dataset, and the hybrid agent both.  Evaluation always
happens on the true environment.
"""

import dataclasses
import tempfile
from pathlib import Path

from hybench import bench
from hybench.data import DatasetRecipe


def main():
    recipe = DatasetRecipe(tier="medium", n_records=20_000, seed=0)
    sim_gap = [{"kind": "transition_param_override", "overrides": {"wind_prob": 0.4}}]
    configs = bench.grid_configs(
        "windygrid",
        {"wind_prob": 0.3},
        sim2real_options=[("windgap", sim_gap)],
        dataset_options=[("medium", recipe)],
        agent_names=["online_q", "offline_bcq", "hymopo"],
        seeds=(0, 1, 2),
        eval_episodes=200,
    )
    print(f"running {len(configs)} benchmark configs x 3 seeds each...\n")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results.csv"
        # one call runs every (config, seed) pair; jobs=N spreads them over N
        # worker processes, and each config's rows land in `out` as it finishes
        configs = [dataclasses.replace(cfg, out=str(out)) for cfg in configs]
        results, failures = bench.run_benchmarks(configs)
        for f in failures:
            print(f"  FAILED {f.benchmark_id} seed {f.seed}: {f.error}")
        print(bench.emit_report(results, fmt="markdown"))
        print(f"per-run rows also appended to {out.name} "
              f"({len(out.read_text().splitlines()) - 1} rows)")


if __name__ == "__main__":
    main()
