"""Print one ``name digest`` line for each result a bit-identical change
must leave unchanged.

    PYTHONPATH=../old/src python tools/digests.py --save before.npz > before.txt
    PYTHONPATH=src python tools/digests.py --save after.npz > after.txt
    diff before.txt after.txt
    PYTHONPATH=src python tools/digests.py --compare before.npz after.npz

Run it on two versions of ``src/`` at the same BLAS thread count and
compare the outputs; the first line names the thread setting (set
``OPENBLAS_NUM_THREADS`` before Python starts to fix it).  A digest is the
first 16 hex digits of the SHA-256 of an array's bytes (with its shape and
dtype), of a rollout trace's column bytes, or of the ``repr`` of a return, a
curve or a dataset hash.  ``--save PATH`` also writes each digested value
to an ``.npz``, as one array (a rollout trace's columns side by side, a
nest of numbers flattened); ``--compare OLD NEW`` prints, per name in two
such files, ``equal`` or the largest absolute difference relative to the
largest entry of OLD's array.  Covered:

* the hash of a 5,000-record windygrid medium dataset;
* windygrid offline BCQ, mopo and hymopo: Q weights, rollout traces and
  evaluations, on that dataset and on a copy with observation noise 0.1,
  and the mopo and hymopo ensembles' member weights and ``noise_var``;
* the same three agents on a 3,000-record uniform pendulum dataset;
* the pendulum reference pair at budget 3000 and seed 3, with every
  online Q weight array and the training curve behind it;
* uniform-policy pendulum evaluations, with the state they leave.

Takes about 10 s on a 2-CPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os

import numpy as np

import hybench as hb
from hybench import agents, bench, data


def digest(value) -> str:
    if isinstance(value, bytes):
        raw = value
    elif isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value).tobytes() + repr((value.shape, value.dtype)).encode()
    else:
        raw = repr(value).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


SHOWN: dict[str, np.ndarray] = {}  # name -> the digested value, for --save


def as_array(value) -> np.ndarray:
    if isinstance(value, (tuple, list)):
        return np.concatenate([as_array(v) for v in value]) if value else np.empty(0)
    if dataclasses.is_dataclass(value):
        return as_array(dataclasses.astuple(value))
    return np.ravel(value) if isinstance(value, str) else np.ravel(np.asarray(value, float))


def show(name: str, value, saved=None) -> None:
    print(name, digest(value), flush=True)
    SHOWN[name] = as_array(value) if saved is None else saved


def show_trace(name: str, trace: agents.RolloutTrace) -> None:
    columns = [getattr(trace, f.name) for f in dataclasses.fields(trace)
               if getattr(trace, f.name) is not None]
    show(name, b"".join(np.ascontiguousarray(col).tobytes() for col in columns),
         saved=np.column_stack([col.reshape(len(col), -1) for col in columns]).astype(float))


def compare(old_path: str, new_path: str) -> None:
    old, new = np.load(old_path), np.load(new_path)
    for name in [*old.files, *(f for f in new.files if f not in old.files)]:
        if name not in old.files or name not in new.files:
            print(name, "only in", new_path if name in new.files else old_path)
            continue
        a, b = old[name], new[name]
        if a.shape == b.shape and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
            print(name, "equal")
        elif a.shape != b.shape or a.dtype.kind != "f":
            print(name, "differs", a.shape, b.shape)
        else:
            print(name, f"{np.abs(a - b).max() / max(np.abs(a).max(), 1e-300):.2e}")


def offline_agents(name: str, dataset, simulator, config, eval_env) -> None:
    """Q weights, traces and evaluations of BCQ, mopo and hymopo, and the
    two model-based runs' ensembles."""
    bcq = agents.train_offline_bcq(dataset, config, seed=0)
    mopo = agents.train_mopo_lite(dataset, config, seed=0)
    hymopo = agents.train_hymopo(dataset, simulator, config, seed=0)
    for agent, policy in (("bcq", bcq), ("mopo", mopo.policy), ("hymopo", hymopo.policy)):
        show(f"{name}.{agent}.q_weights", policy.q.weights)
        show(f"{name}.{agent}.eval",
             agents.evaluate_policy(hb.clone_env(eval_env), policy, 50, seed=7))
    show(f"{name}.bcq.behavior_weights", bcq.behavior.weights)
    for agent, result in (("mopo", mopo), ("hymopo", hymopo)):
        show_trace(f"{name}.{agent}.trace", result.trace)
        members = result.ensemble.members
        show(f"{name}.{agent}.ensemble_weights", np.stack([m.weights for m in members]))
        show(f"{name}.{agent}.ensemble_noise_var", np.stack([m.noise_var for m in members]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="PATH", help="also write the values to PATH (.npz)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --save files instead of computing digests")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    print("blas_threads", " ".join(f"{var}={os.environ.get(var, 'unset')}"
                                   for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))

    grid_env = hb.make_env("windygrid")
    medium = data.generate_dataset(grid_env, data.DatasetRecipe(tier="medium",
                                                                n_records=5_000, seed=0))
    show("windygrid.medium.dataset_hash", bench.dataset_hash(medium))
    grid_sim = hb.with_transition_error(grid_env, {"wind_prob": 0.4})
    grid_cfg = dataclasses.replace(agents.default_agent_config(grid_env), epochs=8,
                                   bc_threshold=0.2)
    offline_agents("windygrid", medium, grid_sim, grid_cfg, grid_env)
    offline_agents("windygrid.obs_noise", data.corrupt_obs_noise(medium, 0.1, seed=0),
                   grid_sim, grid_cfg, grid_env)

    pend = hb.make_env("pendulum")
    pend_cfg = agents.default_agent_config(pend)
    grid = agents.resolve_action_grid(pend, pend_cfg)
    uniform = data.collect_dataset(pend, agents.UniformPolicy(grid, seed=0), 3_000,
                                   "observed", seed=0)
    offline_agents("pendulum", uniform, hb.make_env("pendulum"),
                   dataclasses.replace(pend_cfg, epochs=4, bc_threshold=0.2), pend)

    show("pendulum.refs", bench.compute_reference_pair(pend, seed=3, budget=3_000))
    run = data.online_training_run(pend, 3_000, 3)
    show("pendulum.online.weights", np.stack(run.weights))
    show("pendulum.online.curve", run.curve)

    for horizon, episodes in ((200, 1), (200, 40), (60, 7), (1, 100)):
        env = hb.make_env("pendulum", {"horizon": horizon})
        policy = agents.UniformPolicy(grid, seed=horizon)
        show(f"pendulum.uniform_eval.h{horizon}.e{episodes}",
             (agents.evaluate_policy(env, policy, episodes, seed=episodes),
              env.full_state().tolist()))
    if args.save:
        np.savez(args.save, **SHOWN)


if __name__ == "__main__":
    main()
