import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybench as hb
from hybench import bench, data
from hybench.cli import main


def test_bandit_command(capsys):
    assert main(["bandit", "--samples", "20000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "5/18" in out
    assert "5/12" in out
    assert "best action by true value:      a1" in out
    assert "best action by logged estimate: a0" in out
    assert "empirical argmax: a0" in out


def test_gen_data_run_report_pipeline(tmp_path, capsys):
    ds_path = tmp_path / "wg.ds"
    gen_cfg = {
        "env": {"name": "windygrid", "params": {}},
        "dataset": {"tier": "random", "n_records": 2000, "seed": 0},
        "out": str(ds_path),
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(gen_cfg))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    ds = data.read_dataset(ds_path)
    assert len(ds) == 2000

    results_path = tmp_path / "results.csv"
    run_cfg = {
        "benchmark_id": "wg-cli",
        "env": {"name": "windygrid", "params": {}},
        "dataset": {"path": str(ds_path)},
        "agent": {"name": "offline_bcq", "config": {}},
        "seeds": [0, 1],
        "eval_episodes": 20,
        "out": str(results_path),
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))
    assert main(["run", "--config", str(run_path)]) == 0
    rows = bench.read_results(results_path)
    assert [r.seed for r in rows] == [0, 1]

    report_path = tmp_path / "report.md"
    assert main(
        ["report", "--config", str(results_path), "--format", "markdown",
         "--out", str(report_path)]
    ) == 0
    assert "wg-cli" in report_path.read_text()

    capsys.readouterr()
    assert main(["report", "--config", str(results_path), "--format", "csv"]) == 0
    assert "aggregate" in capsys.readouterr().out


def test_seed_override_restricts_run(tmp_path):
    ds_path = tmp_path / "wg.ds"
    env = hb.make_env("windygrid")
    from hybench import agents

    pol = agents.UniformPolicy((0, 1, 2, 3), seed=0)
    data.write_dataset(
        data.collect_dataset(env, pol, 1500, "observed", seed=0), ds_path
    )
    results_path = tmp_path / "results.csv"
    run_cfg = {
        "benchmark_id": "wg-seeded",
        "env": {"name": "windygrid", "params": {}},
        "dataset": {"path": str(ds_path)},
        "agent": {"name": "offline_bcq", "config": {}},
        "seeds": [0, 1, 2],
        "eval_episodes": 5,
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))
    assert main(["run", "--config", str(run_path), "--seed", "7",
                 "--out", str(results_path)]) == 0
    rows = bench.read_results(results_path)
    assert [r.seed for r in rows] == [7]


def test_structured_error_on_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"benchmark_id": "x"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"]
    assert "detail" in payload


def test_failure_summary_names_exception_type(tmp_path, capsys):
    cfg_path = tmp_path / "missing.json"
    cfg_path.write_text(json.dumps({
        "benchmark_id": "wg-missing", "env": {"name": "windygrid"},
        "dataset": {"path": str(tmp_path / "missing.ds")},
        "agent": {"name": "offline_bcq"}, "seeds": [0]}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    (failure,) = json.loads(capsys.readouterr().err)["failures"]
    assert failure["seed"] == 0
    assert failure["error_type"] == "FileNotFoundError"
    assert "missing.ds" in failure["error"]


@pytest.mark.parametrize("argv", [
    ["report", "--config", "results.csv", "--jobs", "2"],
    ["report", "--config", "results.csv", "--seed", "1"],
    ["bandit", "--out", "x"],
    ["bandit", "--jobs", "2"],
    ["gen-data", "--config", "gen.json", "--jobs", "2"],
    ["refs", "--config", "env.json", "--jobs", "2"],
])
def test_unread_flags_are_usage_errors(argv, capsys):
    # each subcommand declares only the flags its handler reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy.linalg costs about 0.3 s and 22 MB per process (the CLI and every
    # pool worker); hybench needs numpy only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hb.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = "import hybench, hybench.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_refs_command(tmp_path, capsys):
    cfg_path = tmp_path / "env.json"
    cfg_path.write_text(json.dumps({"env": {"name": "windygrid", "params": {}}}))
    out_path = tmp_path / "refs.json"
    assert main(["refs", "--config", str(cfg_path), "--seed", "0",
                 "--out", str(out_path)]) == 0
    record = json.loads(out_path.read_text())
    assert record["expert_ref"] > record["random_ref"]


@pytest.mark.parametrize("argv,config,message", [
    (["gen-data"], {"dataset": {"tier": "random"}, "out": "x.ds"},
     "gen-data config is missing required keys ['env']"),
    (["gen-data"], [1, 2], "gen-data config must be a JSON object, got list"),
    (["gen-data"], {"env": {"name": "windygrid"}, "dataset": [1]},
     "gen-data dataset must be a JSON object"),
    (["gen-data"], {"env": {"params": {}}, "dataset": {}, "out": "x.ds"},
     "env is missing required keys ['name']"),
    (["refs"], {"name": "windygrid", "bogus": 1}, "unknown env keys ['bogus']"),
    (["refs"], {"env": {"name": "windygrid"}, "seeds": [0]},
     "unknown refs config keys ['seeds']"),
    (["refs"], [{"name": "windygrid"}], "env must be a JSON object, got list"),
], ids=["gen_data_missing_env", "gen_data_array", "gen_data_dataset_array",
        "gen_data_env_missing_name", "refs_unknown_env_key", "refs_unknown_key",
        "refs_array"])
def test_config_boundary_errors(argv, config, message, tmp_path, capsys):
    # each used to crash with a bare KeyError, mislabel the problem or ignore it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(argv + ["--config", str(cfg_path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError"
    assert message in payload["detail"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bad_jobs_is_an_error(jobs, tmp_path, capsys):
    # both used to run the seeds serially
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "benchmark_id": "wg-jobs", "env": {"name": "windygrid"},
        "dataset": {"path": str(tmp_path / "unused.ds")},
        "agent": {"name": "offline_bcq"}, "seeds": [0]}))
    assert main(["run", "--config", str(cfg_path), "--jobs", jobs]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "detail": f"jobs must be >= 1, got {jobs}"}
