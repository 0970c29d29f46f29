"""Smoke test of ``tools/verdicts.py`` on small draws: criterion 4 at one
seed, criterion 9(a) on one 2,000-record draw at one training seed (about
5 s together), and ``--compare`` on two saved files."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hybench as hb

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verdicts.py"
spec = importlib.util.spec_from_file_location("verdicts", TOOL)
verdicts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verdicts)


def test_small_draws_score_and_judge_each_draw(tmp_path):
    (c4,) = verdicts.criterion_4([0])
    assert c4["draw"] == 0 and c4["pass"]  # the gate's own seed 0
    assert c4["scores"]["conf"][0] < c4["scores"]["blind"][0]

    (c9a,) = verdicts.criterion_9a([0], train_seeds=(0,), n_records=2_000)
    scores = c9a["scores"]
    assert sorted(scores) == ["hymopo", "offline_bcq", "online_q"]
    assert all(len(v) == 1 and np.isfinite(v[0]) for v in scores.values())
    floor = max(scores["online_q"][0], scores["offline_bcq"][0]) - 5.0
    assert c9a["pass"] == (scores["hymopo"][0] >= floor)

    old = {"4": [c4], "9a": [c9a]}
    flipped = dict(c9a, scores=dict(scores, hymopo=[floor - 1.0]), **{"pass": False})
    new = {"4": [c4], "9a": [flipped]}
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, saved in zip(paths, (old, new)):
        path.write_text(json.dumps(saved))
    env = dict(os.environ, PYTHONPATH=str(Path(hb.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(TOOL), "--compare", *map(str, paths)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.splitlines()
    assert lines[0] == "4: 1/1 (draws 0) -> 1/1 (draws 0)"
    before = "1/1 (draws 0)" if c9a["pass"] else "0/1 (draws -)"
    assert lines[1] == f"9a: {before} -> 0/1 (draws -)"
    verdict = "pass" if c9a["pass"] else "FAIL"
    assert lines[2] == (f"  draw 0 {verdict}->FAIL: hymopo[0] "
                        f"{scores['hymopo'][0]:.4f}->{floor - 1.0:.4f}")
