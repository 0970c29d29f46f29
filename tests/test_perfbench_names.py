"""The hybench names the benchmark harness under ``perfbench/`` binds or
calls.  A rename fails here, in the test suite, rather than when the
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hybench import agents, bench, cli, data, models, wrappers

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.MODULES


@pytest.mark.parametrize("name", traced_modules())
def test_traced_module_imports(name):
    importlib.import_module(f"hybench.{name}")


def test_tracer_bindings_exist():
    assert callable(bench._worker)
    assert isinstance(bench._REF_CACHE, dict) and isinstance(data._TRAIN_CACHE, dict)
    assert isinstance(bench.ProcessPoolExecutor, type)
    assert callable(models.FeatureMap.transform)
    assert models.FeatureMap.polynomial(2, 1).kind == "polynomial"
    assert models.FeatureMap.random_fourier(2, 4, 1.0, seed=0).kind == "random_fourier"


@pytest.mark.parametrize("module,name", [
    (bench, "compute_reference_pair"), (bench, "read_results"), (cli, "main"),
    (agents, "resolve_action_grid"), (agents, "default_agent_config"),
    (agents, "UniformPolicy"), (data, "collect_dataset"), (data, "corrupt_obs_noise"),
    (data, "write_dataset"), (data, "read_dataset"), (wrappers, "env_signature"),
    (wrappers, "clone_env"),
])
def test_called_name_exists(module, name):
    assert callable(getattr(module, name))
