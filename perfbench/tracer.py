"""Span tracing of hybench from outside the package.

``install`` wraps every public function and public method of the traced
modules, rebinds every module-level name that still points at an original
function (``bench`` imports ``generate_dataset`` and friends by name), and
adds two spans the public API cannot show: ``bench.worker`` around each
process-pool task and ``bench.pool`` around each pool's lifetime.

Each span records its id, its parent's id, a name, a run id
(benchmark_id, agent, seed), start and end times and two counts whose
meaning depends on the name (rows, episodes, cache misses, pool size).
Spans stay in flat in-memory arrays until ``flush`` writes them to one
``.npz`` file per process.  Forked pool workers inherit the patches; each
starts with empty buffers and writes its own file after every task.

``aggregate`` turns the span files of one run into per-name totals, with
self time = duration minus the part covered by child spans of the same
process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
import zlib
from array import array
from pathlib import Path

import numpy as np

MODULES = ("envs", "wrappers", "data", "models", "agents", "bench", "cli", "seeding")
NO_RUN = ("", "", -1)
_COLUMNS = (("id", "q"), ("parent", "q"), ("name", "q"), ("run", "q"),
            ("t0", "d"), ("t1", "d"), ("a", "q"), ("b", "q"))


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[tuple] = [NO_RUN]
        self._run_ids = {NO_RUN: 0}
        self.run = 0
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.stack = [-1]
        self.ids = itertools.count()
        self.forked = False
        self.fork_parent = -1
        self.files = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_run(self, benchmark_id: str, agent: str, seed: int) -> None:
        key = (str(benchmark_id), str(agent), int(seed))
        if key not in self._run_ids:
            self._run_ids[key] = len(self.runs)
            self.runs.append(key)
        self.run = self._run_ids[key]

    def _clear(self) -> None:
        for col in self.cols.values():
            del col[:]
        self.stack[:] = [-1]
        self.ids = itertools.count()

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's spans, keep the patches."""
        self.forked = True
        self.fork_parent = self.stack[-1]
        self._clear()

    def flush(self) -> Path:
        """Write the recorded spans to a new file and empty the buffers."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{self.files}.npz"
        self.files += 1
        meta = {"pid": os.getpid(), "forked": self.forked,
                "fork_parent": self.fork_parent, "names": self.names,
                "runs": self.runs}
        arrays = {key: np.frombuffer(col, dtype=np.float64 if code == "d" else np.int64).copy()
                  for (key, code), col in zip(_COLUMNS, self.cols.values())}
        np.savez(path, meta=np.array(json.dumps(meta)), **arrays)
        self._clear()
        return path

    def wrap(self, fn, name: str, count=None, before=None, name_of=None):
        """Span-recording wrapper of ``fn``.

        ``count(args, kwargs, result, state)`` returns the span's two counts,
        with ``state = before(args, kwargs)``; ``name_of(args)`` picks the
        span name per call.
        """
        nid = self.name_id(name)
        cols = self.cols
        app_id, app_parent, app_name, app_run = (cols[k].append for k in
                                                 ("id", "parent", "name", "run"))
        app_t0, app_t1, app_a, app_b = (cols[k].append for k in ("t0", "t1", "a", "b"))
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        if count is None and name_of is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = next(tracer.ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    app_id(sid)
                    app_parent(parent)
                    app_name(nid)
                    app_run(tracer.run)
                    app_t0(t0)
                    app_t1(t1)
                    app_a(0)
                    app_b(0)
            return traced

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            sid = next(tracer.ids)
            parent = stack[-1]
            stack.append(sid)
            state = before(args, kwargs) if before is not None else None
            out = failed = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                a, b = (0, 0) if failed is not None or count is None else \
                    count(args, kwargs, out, state)
                app_id(sid)
                app_parent(parent)
                app_name(nid if name_of is None else name_of(args))
                app_run(tracer.run)
                app_t0(t0)
                app_t1(t1)
                app_a(a)
                app_b(b)
        return traced_counted

    def span(self, name: str, a: int = 0):
        return _Span(self, self.name_id(name), a)


class _Span:
    """Explicit span for code that is not a single function call."""

    def __init__(self, tracer: Tracer, nid: int, a: int):
        self.tracer, self.nid, self.a = tracer, nid, a

    def __enter__(self):
        tr = self.tracer
        self.sid = next(tr.ids)
        self.parent = tr.stack[-1]
        tr.stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        for key, value in (("id", self.sid), ("parent", self.parent), ("name", self.nid),
                           ("run", tr.run), ("t0", self.t0), ("t1", t1),
                           ("a", self.a), ("b", 0)):
            tr.cols[key].append(value)
        return False


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _nrows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _rows_of(index):
    return lambda args, kwargs, out, state: (_nrows(args[index]), 0)


def _len_of_result(args, kwargs, out, state):
    return len(out), 0


def _episodes(args, kwargs, out, state):
    return int(args[2] if len(args) > 2 else kwargs["episodes"]), 0


def _cache_miss(cache: dict, env_hash):
    """Counts (1 if the call filled ``cache``, crc of the env signature)."""
    def before(args, kwargs):
        return len(cache)

    def count(args, kwargs, out, size_before):
        env = args[0] if args else kwargs["env"]
        return int(len(cache) > size_before), env_hash(env)

    return before, count


def _class_label(modname: str, cls) -> str:
    # environments are named by their registry name: envs.pendulum.step
    own_name = vars(cls).get("name")
    if modname == "envs" and isinstance(own_name, str) and cls.__name__ != "Environment":
        return f"envs.{own_name}"
    return f"{modname}.{cls.__name__}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every traced module."""
    mods = {name: importlib.import_module(f"hybench.{name}") for name in MODULES}
    bench, data, wrappers = mods["bench"], mods["data"], mods["wrappers"]
    orig_signature = wrappers.env_signature

    def env_hash(env) -> int:
        return zlib.crc32(repr(orig_signature(env)).encode())

    poly_id = tracer.name_id("models.transform.poly")
    rff_id = tracer.name_id("models.transform.rff")
    special = {
        "models.FeatureMap.transform": dict(
            count=_rows_of(1),
            name_of=lambda args: poly_id if args[0].kind == "polynomial" else rff_id),
        "models.CorrectionEnsemble.member_means": dict(count=_rows_of(1)),
        "models.CorrectionEnsemble.penalty_batch": dict(count=_rows_of(1)),
        "agents.BehaviorModel.probs_batch": dict(count=_rows_of(1)),
        "agents.evaluate_policy": dict(count=_episodes),
        "data.collect_dataset": dict(count=_len_of_result),
    }
    for name, cache in (("bench.compute_reference_pair", bench._REF_CACHE),
                        ("data.online_training_run", data._TRAIN_CACHE)):
        before, count = _cache_miss(cache, env_hash)
        special[name] = dict(before=before, count=count)

    replaced: dict[int, object] = {}

    def traced(fn, name):
        wrapper = tracer.wrap(fn, name, **special.get(name, {}))
        replaced[id(fn)] = wrapper
        return wrapper

    for modname, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, traced(obj, f"{modname}.{attr}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                label = _class_label(modname, obj)
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    key = f"{modname}.{obj.__name__}.{mname}"
                    span_name = f"{label}.{mname}" if key not in special else key
                    if isinstance(member, (staticmethod, classmethod)):
                        setattr(obj, mname, type(member)(traced(member.__func__, span_name)))
                    elif inspect.isfunction(member):
                        setattr(obj, mname, traced(member, span_name))

    # module bindings made by ``from .x import y`` still hold the originals
    for modname, mod in list(sys.modules.items()):
        if modname != "hybench" and not modname.startswith("hybench."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])

    # process-pool tasks and pool lifetimes
    worker_span = tracer.wrap(bench._worker, "bench.worker")

    @functools.wraps(bench._worker)
    def worker(payload):
        config_dict, seed = payload
        tracer.set_run(config_dict["benchmark_id"], config_dict["agent"]["name"], seed)
        try:
            return worker_span(payload)
        finally:
            if tracer.forked:
                tracer.flush()

    bench._worker = worker

    class TracedPool(bench.ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.span("bench.pool", a=self._max_workers).__enter__()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                self._span.__exit__(*exc)

    bench.ProcessPoolExecutor = TracedPool
    os.register_at_fork(after_in_child=tracer.after_fork)


def per_span_cost(calls: int = 200_000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    tracer = Tracer(".")

    def noop(x):
        return x

    traced = tracer.wrap(noop, "noop")
    best = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        best.append(time.perf_counter() - t0)
    return max(best[1] - best[0], 0.0) / calls


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(paths) -> dict:
    """Per span name: calls, dur_s, self_s, a, b and a x dur (summed) and the
    distinct nonzero values of b (env signatures of the cached functions)."""
    totals: dict[str, dict] = {}
    for path in paths:
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            ids, parent, name = z["id"], z["parent"], z["name"]
            dur = z["t1"] - z["t0"]
            a, b = z["a"], z["b"]
        n = len(ids)
        if n == 0:
            continue
        pos = np.full(int(ids.max()) + 1, -1)
        pos[ids] = np.arange(n)
        known = (parent >= 0) & (parent <= ids.max())
        pidx = np.full(n, -1)
        pidx[known] = pos[parent[known]]
        has = pidx >= 0
        covered = np.bincount(pidx[has], weights=dur[has], minlength=n)
        self_t = dur - covered
        k = len(meta["names"])
        sums = {
            "calls": np.bincount(name, minlength=k),
            "dur_s": np.bincount(name, weights=dur, minlength=k),
            "self_s": np.bincount(name, weights=self_t, minlength=k),
            "a": np.bincount(name, weights=a.astype(float), minlength=k),
            "b": np.bincount(name, weights=b.astype(float), minlength=k),
            "a_x_dur": np.bincount(name, weights=a * dur, minlength=k),
        }
        nonzero = b != 0
        nz_names, nz_b = name[nonzero], b[nonzero]
        for i, span_name in enumerate(meta["names"]):
            if sums["calls"][i] == 0:
                continue
            t = totals.setdefault(span_name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0,
                                              "a": 0, "b": 0, "a_x_dur": 0.0,
                                              "b_values": set()})
            for key, values in sums.items():
                t[key] += values[i].item() if isinstance(t[key], float) else int(values[i])
            t["b_values"].update(np.unique(nz_b[nz_names == i]).tolist())
    return totals
