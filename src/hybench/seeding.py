"""Deterministic RNG derivation shared across the package.

Every stochastic component (environment dynamics, injected noise, policy
exploration, dataset corruption, ...) owns a numpy ``Generator`` derived from
an integer master seed plus a fixed stream tag.  Distinct tags give
statistically independent streams, so e.g. observation noise can be varied
without disturbing the underlying trajectory.
"""

from __future__ import annotations

import numpy as np

from .records import read_value

# Stream tags.  Values are arbitrary but frozen: changing them changes every
# derived stream and therefore every persisted artifact.
DYNAMICS = 0x01
OBS_NOISE = 0x02
ACTION_NOISE = 0x03
POLICY = 0x04
COLLECT_ENV = 0x05
COLLECT_POLICY = 0x06
EVAL_ENV = 0x07
EVAL_POLICY = 0x08
Q_FEATURES = 0x09
MODEL_FIT = 0x0A
ROLLOUT = 0x0B
EXPLORE = 0x0C
DATA_NOISE = 0x0D
REFS = 0x0E
TRAIN_ENV = 0x0F


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *tags)``."""
    return np.random.default_rng(np.random.SeedSequence((read_value(int, seed, "seed"), *tags)))


def derived_seed(seed: int, *tags: int) -> int:
    """A plain integer sub-seed for components that take one."""
    return int(np.random.SeedSequence((read_value(int, seed, "seed"), *tags)).generate_state(1)[0])
