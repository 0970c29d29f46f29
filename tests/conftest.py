import time

import pytest

import hybench as hb
from hybench import agents, bench, data

# Wall-time bookkeeping so acceptance tests can charge shared fixtures to the
# criterion that requires them.
FIXTURE_TIMES: dict[str, float] = {}


def _timed(name, fn):
    t0 = time.monotonic()
    out = fn()
    FIXTURE_TIMES[name] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def pendulum_refs():
    return _timed(
        "pendulum_refs",
        lambda: bench.compute_reference_pair(hb.make_env("pendulum"), seed=0),
    )


@pytest.fixture(scope="session")
def pendulum_medium(pendulum_refs):  # fills the reference cache the medium search reads
    env = hb.make_env("pendulum")
    return _timed(
        "pendulum_medium",
        lambda: data.train_tier_policy(env, "medium", seed=0),
    )


@pytest.fixture(scope="session")
def pendulum_medium_dataset(pendulum_medium):
    def build():
        env = hb.make_env("pendulum")
        policy = agents.with_epsilon(pendulum_medium, 0.05)
        return data.collect_dataset(env, policy, 20_000, "observed", seed=0,
                                    tier="medium")

    return _timed("pendulum_medium_dataset", build)


@pytest.fixture(scope="session")
def windygrid_refs():
    return _timed(
        "windygrid_refs",
        lambda: bench.compute_reference_pair(hb.make_env("windygrid"), seed=0),
    )
