"""Self-test of the benchmark.  It never checks timings.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload at minimal size (``--size quick``) in both modes and
checks that each metric named in ``BENCHMARK.json`` is reported with its
unit, that the correctness checks ran, and that the benchmark refuses to run
without the hybench sources.  Takes under a minute: the pool workload
trains the windygrid references at their default budget in each worker.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w["why"] for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(layers.PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    checks = [line.split()[1].rstrip(":") for line in lines if line.startswith("check ")]
    assert {"pipeline_completed", "rows_identical_across_repetitions",
            "rows_identical_across_runs"} <= set(checks)
    assert len(checks) > 3  # the workload's own output checks ran too
    provenance = json.loads(next(line for line in lines
                                 if line.startswith("provenance "))[len("provenance "):])
    for key in ("nproc", "cpu", "python", "numpy", "blas", "blas_threads",
                "git_commit", "seed", "repetitions", "setup_samples"):
        assert provenance[key] is not None, key
    assert lines[0].endswith(run.WORKLOADS[workload]["why"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "pendulum-refs", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
