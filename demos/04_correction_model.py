"""Anchoring a learned correction to a wrong simulator.

Collects pendulum data from the true dynamics, asks a doubled-gravity
simulator to predict every transition, and fits an ensemble for the additive
gap.  The corrected simulator is then compared against both the raw
simulator and a model that learns the dynamics with no anchor at all.
"""

import dataclasses

import numpy as np

import hybench as hb
from hybench import agents, data, models
from hybench.models import encode_model_input


def state_mse(pred_next, truth):
    return float(np.mean(np.sum((pred_next - truth) ** 2, axis=1)))


def main():
    env = hb.make_env("pendulum")
    policy = agents.UniformPolicy(tuple(np.linspace(-2, 2, 9)), seed=0)
    ds = data.collect_dataset(env, policy, 20_000, "observed", seed=0)
    train = data.Dataset(
        dataclasses.replace(ds.meta, record_count=18_000),
        *(col[:18_000] for col in ds.arrays()),
    )
    O, A, _, O2, _ = (col[18_000:] for col in ds.arrays())

    cfg = dataclasses.replace(agents.default_agent_config(env).model, seed=17)
    sim = hb.with_transition_error(hb.make_env("pendulum"), {"gravity": 19.62})

    sim_next = sim.simulate_step(O, A)
    print(f"raw doubled-gravity simulator MSE: {state_mse(sim_next, O2):.5f}")

    ens = models.fit_ensemble(train, cfg, sim.simulate_step(train.O, train.A))
    X = encode_model_input(O, A, ens.action_space)
    corr = np.stack([m.predict_mean(X) for m in ens.members]).mean(axis=0)[:, :3]
    print(f"simulator + learned correction MSE: {state_mse(sim_next + corr, O2):.2e}")

    direct = models.fit_ensemble(train, cfg)
    pred = np.stack([m.predict_mean(X) for m in direct.members]).mean(axis=0)[:, :3]
    print(f"unanchored direct model MSE:        {state_mse(pred, O2):.2e}")

    perfect = hb.make_env("pendulum")
    ens0 = models.fit_ensemble(train, cfg, perfect.simulate_step(train.O, train.A))
    zero = np.stack([m.predict_mean(X) for m in ens0.members]).mean(axis=0)[:, :3]
    print(
        "with a perfect simulator the correction learns ~zero: "
        f"mean |predicted delta| = {np.abs(zero).mean():.2e}"
    )


if __name__ == "__main__":
    main()
