"""Print the exact-valued scores and verdict of acceptance criteria 4, 9(a)
and 9(b) on each of a fixed set of draws, then each criterion's pass count.

    PYTHONPATH=../old/src python tools/verdicts.py --save before.json
    PYTHONPATH=src python tools/verdicts.py --save after.json
    PYTHONPATH=src python tools/verdicts.py --compare before.json after.json

A directional gate checked on one draw can pass by luck; a change that moves
result bits re-draws it.  This tool runs each criterion's own construction
(imported from ``tests/test_acceptance.py``) on more draws than the gate
does, and values every windygrid policy exactly, so no Monte-Carlo noise
enters a verdict:

* criterion 4 on seeds 0-11: offline BCQ on the confounded dataset against
  its unconfounded twin, valued by ``exact_policy_eval`` as the gate does;
  it holds where the confounded value is at least 5% below the other;
* criterion 9(a) on medium datasets of seeds 0-13 (20,000 records, wind
  0.3), training seeds 0-2: ``online_q`` (trained once per training seed,
  since it reads no dataset), ``offline_bcq`` and ``hymopo``, each policy
  valued by ``finite_horizon_policy_value``; it holds where hymopo's mean is
  within 5 points of the better single-source mean;
* criterion 9(b) on seed triples 0-2, 3-5 and 6-8: hymopo on the confounded
  dataset against its twin, valued the same way; it holds where the
  confounded mean is lower.

Scores are normalized by each gate's own ``compute_reference_pair``.
``--save PATH`` writes every draw's scores and verdict as JSON;
``--compare OLD NEW`` prints, per criterion, both pass counts, then each
draw whose verdict or scores differ.  Set ``OPENBLAS_NUM_THREADS`` before
Python starts to fix the thread count; compare files of one setting only.
Takes about 3 minutes at one BLAS thread on a 2-CPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import hybench as hb
from hybench import agents, bench, data, oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import CONFOUND_PARAMS, _confounded_datasets  # noqa: E402

GAP_WIND = {"kind": "transition_param_override", "overrides": {"wind_prob": 0.4}}


def exact_score(policy, params: hb.WindyGridParams, refs: bench.ReferencePair) -> float:
    """The normalized finite-horizon value of a windygrid policy."""
    mdp = oracle.windygrid_mdp(params)
    table = oracle.policy_table_from_agent(mdp, policy)
    value = oracle.finite_horizon_policy_value(mdp, table, params.horizon)
    return bench.normalize_score(value, refs.random_ref, refs.expert_ref)


def criterion_4(seeds) -> list[dict]:
    params = CONFOUND_PARAMS
    cfg = agents.default_agent_config(hb.WindyGridEnv(params))
    rows = []
    for seed in seeds:
        mdp, ds_conf, ds_blind = _confounded_datasets(params, seed)
        values = {}
        for label, ds in (("conf", ds_conf), ("blind", ds_blind)):
            table = oracle.policy_table_from_agent(
                mdp, agents.train_offline_bcq(ds, cfg, seed=seed),
                obs_transform=lambda o: np.array([o[0], o[1], 0.0]))
            V = oracle.exact_policy_eval(mdp, table, params.discount, 1e-12)
            values[label] = [oracle.start_state_value(mdp, V)]
        holds = values["conf"][0] <= values["blind"][0] - 0.05 * abs(values["blind"][0])
        rows.append({"draw": seed, "scores": values, "pass": bool(holds)})
    return rows


def criterion_9a(draws, train_seeds=(0, 1, 2), n_records=20_000) -> list[dict]:
    env = hb.make_env("windygrid", {"wind_prob": 0.3})
    cfg = agents.default_agent_config(env)
    refs = bench.compute_reference_pair(env)
    sim = data.apply_specs(hb.make_env("windygrid", {"wind_prob": 0.3}), (GAP_WIND,), "env")
    online = [exact_score(agents.train_online_q(sim, cfg, s).policy, env.params, refs)
              for s in train_seeds]
    rows = []
    for draw in draws:
        ds = data.generate_dataset(env, data.DatasetRecipe(tier="medium",
                                                           n_records=n_records, seed=draw))
        scores = {"online_q": online, "offline_bcq": [], "hymopo": []}
        for s in train_seeds:
            scores["offline_bcq"].append(
                exact_score(agents.train_offline_bcq(ds, cfg, s), env.params, refs))
            scores["hymopo"].append(
                exact_score(agents.train_hymopo(ds, sim, cfg, s).policy, env.params, refs))
        floor = max(np.mean(online), np.mean(scores["offline_bcq"])) - 5.0
        rows.append({"draw": draw, "scores": scores,
                     "pass": bool(np.mean(scores["hymopo"]) >= floor)})
    return rows


def criterion_9b(triples) -> list[dict]:
    params = CONFOUND_PARAMS
    true_env = hb.WindyGridEnv(params)
    refs = bench.compute_reference_pair(true_env)
    cfg = dataclasses.replace(agents.default_agent_config(true_env), lam=0.3,
                              rollout_batch=256)
    rows = []
    for k, triple in enumerate(triples):
        scores = {"conf": [], "blind": []}
        for seed in triple:
            _, ds_conf, ds_blind = _confounded_datasets(params, seed)
            sim = hb.with_transition_error(hb.WindyGridEnv(params), {"wind_prob": 0.55})
            for label, ds in (("conf", ds_conf), ("blind", ds_blind)):
                policy = agents.train_hymopo(ds, sim, cfg, seed=seed).policy
                scores[label].append(exact_score(policy, params, refs))
        rows.append({"draw": k, "scores": scores,
                     "pass": bool(np.mean(scores["conf"]) < np.mean(scores["blind"]))})
    return rows


def show(name: str, rows: list[dict]) -> None:
    for row in rows:
        scores = "  ".join(f"{label} " + " ".join(f"{v:.4f}" for v in vals)
                           for label, vals in row["scores"].items())
        print(f"{name} draw {row['draw']}: {scores}  {'pass' if row['pass'] else 'FAIL'}",
              flush=True)
    print(f"{name} passes {count(rows)}", flush=True)


def count(rows: list[dict]) -> str:
    passed = [str(row["draw"]) for row in rows if row["pass"]]
    return f"{len(passed)}/{len(rows)} (draws {' '.join(passed) or '-'})"


def compare(old_path: str, new_path: str) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for name in [*old, *(name for name in new if name not in old)]:
        if name not in old or name not in new:
            print(name, "only in", new_path if name in new else old_path)
            continue
        print(f"{name}: {count(old[name])} -> {count(new[name])}")
        for a, b in zip(old[name], new[name]):
            if a == b:
                continue
            moves = "  ".join(f"{label}[{i}] {x:.4f}->{y:.4f}"
                              for label, vals in b["scores"].items()
                              for i, (x, y) in enumerate(zip(a["scores"][label], vals)) if x != y)
            verdict = f"{'pass' if a['pass'] else 'FAIL'}->{'pass' if b['pass'] else 'FAIL'}"
            print(f"  draw {b['draw']} {verdict}: {moves}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="PATH", help="also write the verdicts to PATH (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --save files instead of running the criteria")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    runs = {"4": lambda: criterion_4(range(12)),
            "9a": lambda: criterion_9a(range(14)),
            "9b": lambda: criterion_9b([(0, 1, 2), (3, 4, 5), (6, 7, 8)])}
    saved = {}
    for name, run in runs.items():
        saved[name] = run()
        show(name, saved[name])
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))


if __name__ == "__main__":
    main()
