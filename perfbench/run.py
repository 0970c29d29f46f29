"""hybench benchmark: cold-start pipeline workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/hybench``.  Each
repetition is a fresh interpreter (``child.py``), because users pay for
reference and tier training on every ``hybench`` invocation: nothing may be
cached in the process.  Repetitions run until the next one would overrun
``--seconds``; at least one always runs.  Every repetition gets the same
inputs, made from ``--seed``, so their result rows must agree bit for bit.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):

* ``run_s``       -- wall time of the workload's pipeline after set-up;
* ``setup_s``     -- interpreter start, imports and input construction,
                     median over at least seven cold starts;
* ``peak_rss_mb`` -- peak resident memory, largest of the process and its
                     pool workers.

``--trace 1`` wraps hybench's public functions from outside (``tracer.py``)
and reports the per-layer metrics of ``layers.py`` instead.

The last line of standard output is the result object; the lines before it
give the workload's rationale, provenance, every metric with its unit and
each correctness check.  Files go to a temporary
directory under ``.perfbench_tmp/`` that is removed at exit; result
digests persist in ``.perfbench_state/`` so that reruns of one source tree
are checked for identical rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402

# BLAS threads: pendulum's 1539-wide solves gain from every core.  The pool
# workload runs one worker per core with one thread each; its windygrid
# matrices are small enough that a second thread costs more in
# synchronisation than it saves (windygrid refs 12 s -> 16 s on 2 cores).
WORKLOADS = {
    "pendulum-refs": {
        "blas": "all",
        "why": "compute_reference_pair on pendulum, 3000 steps: stresses the fitted-Q "
               "core (quadratic gram, Bellman solve) and single-row RFF transforms; "
               "bypasses datasets, ensembles, CLI and pool.",
    },
    "windygrid-run-jobs2": {
        "blas": "one",
        "why": "hybench run --jobs 2, one windygrid hymopo config: stresses CLI, process "
               "pool (each worker retrains refs, regenerates the dataset), polynomial "
               "and ensemble transforms.",
    },
}
MIN_SETUPS = 7
DEADLINE_S = 170.0  # the whole run, children included


def _src_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # an exported checkout: src_sha256_16 names it
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Starts child interpreters and keeps what they report."""

    def __init__(self, args, root: Path, tmp: Path, blas_threads: int):
        self.args, self.root, self.tmp = args, root, tmp
        self.started = time.monotonic()
        self.env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "TMPDIR": str(tmp),
            **{k: str(blas_threads) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        }
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, setup_only: bool = False) -> dict:
        """One cold start; returns the child's report plus ``setup_s``."""
        self.count += 1
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--tmp", str(self.tmp)]
        trace_dir = None
        if self.args.trace and not setup_only:
            trace_dir = self.tmp / f"trace-{self.count}"
            cmd += ["--trace-dir", str(trace_dir)]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError("child run exceeded the time limit")
        finally:
            # pool workers are in the child's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads(lines[-1])
        expected = self.root / "src" / "hybench"
        if Path(report["hybench"]).resolve().parent != expected.resolve():
            raise RuntimeError(f"imported hybench from {report['hybench']}, not {expected}")
        report["setup_s"] = report["ready"] - spawned
        if trace_dir is not None:
            report["trace_files"] = sorted(str(p) for p in trace_dir.glob("spans-*.npz"))
        return report


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def _check_digest(state_dir: Path, key: str, digest: str) -> bool:
    """True unless an earlier run of the same source and inputs disagreed."""
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(scratch, path)
    return True


def _median(values) -> float:
    return float(statistics.median(values))


def measure(args, root: Path, tmp: Path) -> dict:
    nproc = _nproc()
    spec = WORKLOADS[args.workload]
    blas_threads = nproc if spec["blas"] == "all" else 1
    runner = Runner(args, root, tmp, blas_threads)
    budget = min(float(args.seconds), DEADLINE_S - 20.0)

    reps, setups, checks, errors = [], [], {}, []
    attempted = failed = 0

    def record(name: str, passed: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not passed
        checks.setdefault(name, []).append(bool(passed))

    longest = 0.0
    while not reps or (time.monotonic() - runner.started) + longest <= budget:
        t0 = time.monotonic()
        try:
            rep = runner.child()
        except RuntimeError as exc:
            errors.append(str(exc))
            record("pipeline_completed", False)
            break
        longest = max(longest, time.monotonic() - t0)
        record("pipeline_completed", True)
        for name, passed in rep["checks"].items():
            record(name, passed)
        reps.append(rep)
        setups.append(rep["setup_s"])
    while reps and len(setups) < MIN_SETUPS and runner.remaining() > 10:
        try:
            setups.append(runner.child(setup_only=True)["setup_s"])
        except RuntimeError as exc:
            errors.append(str(exc))
            record("setup_completed", False)
            break

    src_hash = _src_hash(root / "src")
    if reps:
        digests = {_digest(rep["rows"]) for rep in reps}
        record("rows_identical_across_repetitions", len(digests) == 1)
        key = f"{src_hash}:{args.workload}:{args.size}:{args.seed}"
        record("rows_identical_across_runs",
               _check_digest(root / ".perfbench_state", key, min(digests)))

    return {
        "reps": reps, "setups": setups, "checks": checks, "errors": errors,
        "attempted": attempted, "failed": failed, "src_hash": src_hash,
        "blas_threads": blas_threads, "nproc": nproc,
    }


def summarize(args, m: dict) -> dict:
    """Metric name -> value for the mode the run was in."""
    reps = m["reps"]
    if not reps:
        return {}
    if not args.trace:
        return {
            "run_s": _median([r["end"] - r["ready"] for r in reps]),
            "setup_s": _median(m["setups"]),
            "peak_rss_mb": _median([r["peak_rss_kb"] / 1024.0 for r in reps]),
        }
    per_rep = [layers.per_layer(tracing.aggregate(rep["trace_files"]),
                                rep["end"] - rep["ready"], rep["cpu_s"], rep["span_cost_s"])
               for rep in reps]
    return {name: _median([values[name] for values in per_rep])
            for name, _, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "quick"), default="full",
                   help="quick: minimal sizes, for the self-test only")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "hybench" / "__init__.py").is_file():
        print(f"perfbench: no src/hybench under {root}; run from a hybench checkout",
              file=sys.stderr)
        return 2

    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        m = measure(args, root, tmp)
        metrics = summarize(args, m)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    return report(args, root, m, metrics)


def report(args, root: Path, m: dict, metrics: dict) -> int:
    reps = m["reps"]
    first = reps[0] if reps else {}
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "repetitions": len(reps),
        "setup_samples": len(m["setups"]), "nproc": m["nproc"], "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": first.get("numpy"),
        "blas": first.get("blas"), "blas_threads": m["blas_threads"],
        "git_commit": _git_commit(root), "src_sha256_16": m["src_hash"],
    }
    print(f"perfbench {args.workload}: {WORKLOADS[args.workload]['why']}")
    print("provenance " + json.dumps(provenance))
    units = {name: unit for name, unit, _ in layers.END_TO_END + layers.PER_LAYER}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {m['failed'] / max(m['attempted'], 1):.6g} ratio "
          f"({m['failed']} of {m['attempted']} runs and checks)")
    for name, results in m["checks"].items():
        print(f"check {name}: {sum(results)}/{len(results)} passed")
    for error in m["errors"]:
        print(f"error {error}")
    if not reps:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
