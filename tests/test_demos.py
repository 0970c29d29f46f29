"""Smoke test: the demos run to completion against the current API.

Demos 01-04 take about 14 s together on a 2-CPU machine.  Demo 05 (a
benchmark grid, about 56 s) is left out to keep Tier-1 short; its code
paths are covered by the bench and CLI tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybench as hb

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_bandit_confounding.py",
    "02_sim2real_wrappers.py",
    "03_offline_datasets.py",
    "04_correction_model.py",
])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hb.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
