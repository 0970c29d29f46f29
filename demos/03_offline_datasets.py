"""Offline datasets: tiers, post-hoc corruption, and the file format.

Builds a windy-gridworld dataset at each quality tier, corrupts one copy the
way recorded data goes bad (noise on stored observations, zeroed columns),
and round-trips everything through the line-delimited file format.
"""

import tempfile
from pathlib import Path

import numpy as np

import hybench as hb
from hybench import bench, data


def main():
    env = hb.make_env("windygrid")
    refs = bench.compute_reference_pair(env)
    print(f"score references: random {refs.random_ref:.2f}, expert {refs.expert_ref:.2f}\n")

    datasets = {}
    for tier in ("random", "medium", "medium_replay", "medium_expert"):
        recipe = data.DatasetRecipe(tier=tier, n_records=5_000, seed=0)
        datasets[tier] = data.generate_dataset(env, recipe)
        rewards = datasets[tier].R
        print(
            f"{tier:14s} {len(datasets[tier])} records, "
            f"goal hits {(rewards > 0).sum():4d}, mean reward {rewards.mean():+.3f}"
        )

    ds = datasets["medium"]
    noisy = data.corrupt_obs_noise(ds, 0.05, seed=1)
    hidden = data.corrupt_hide_dims(ds, [2])
    print("\ncorruption bookkeeping:")
    print(f"  noisy:  corruption={noisy.meta.corruption} mode={noisy.meta.behavior_mode}")
    print(f"  hidden: corruption={hidden.meta.corruption} mode={hidden.meta.behavior_mode}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "medium.ds"
        data.write_dataset(ds, path)
        back = data.read_dataset(path)
        print(f"\nround trip: {len(back)} records, identical={back == ds}")
        print("first two lines of the file:")
        for line in path.read_text().splitlines()[:2]:
            print(f"  {line[:110]}...")


if __name__ == "__main__":
    main()
