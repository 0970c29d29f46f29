"""Metric names, units and how each is computed from one run.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the span totals of a traced run (see ``tracer.aggregate``), named
``<module>.<function>.<stat>``; a function a workload never calls reads 0.
"""

from __future__ import annotations

from tracer import MODULES

# name, unit, better
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

TRAINERS = ("train_online_q", "train_hymopo")

# span name, stat, unit; stats "rows", "episodes" and "misses" read the
# span's first count, the others the span totals
_SPAN_STATS = (
    [(f"models.transform.{kind}", s, u) for kind in ("poly", "rff")
     for s, u in (("calls", "count"), ("rows", "rows"), ("self_s", "s"))]
    + [(f"agents.{t}", "self_s", "s") for t in TRAINERS]
    + [("agents.evaluate_policy", s, u) for s, u in
       (("calls", "count"), ("episodes", "count"), ("self_s", "s"))]
    + [("agents.QPolicy.action_index", "calls", "count"),
       ("models.fit_gaussian_regressor", "calls", "count"),
       ("models.fit_gaussian_regressor", "self_s", "s"),
       ("models.augment_with_sim", "self_s", "s")]
    + [(f"models.CorrectionEnsemble.{m}", s, u)
       for m in ("member_means", "penalty_batch")
       for s, u in (("calls", "count"), ("rows", "rows"), ("self_s", "s"))]
    + [(f"envs.{name}", s, u)
       for name in ("pendulum.step", "windygrid.step", "windygrid.simulate_step")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("wrappers.env_signature", "calls", "count"),
       ("wrappers.env_signature", "self_s", "s"),
       ("wrappers.clone_env", "calls", "count"),
       ("data.Dataset.arrays", "calls", "count"),
       ("data.Dataset.arrays", "self_s", "s"),
       ("data.collect_dataset", "rows", "rows"),
       ("data.collect_dataset", "self_s", "s"),
       ("data.online_training_run", "calls", "count"),
       ("data.online_training_run", "misses", "count"),
       ("bench.compute_reference_pair", "calls", "count"),
       ("bench.compute_reference_pair", "misses", "count"),
       ("data.generate_dataset", "calls", "count"),
       ("bench.obtain_dataset", "calls", "count"),
       ("bench.dataset_hash", "self_s", "s"),
       ("cli.main", "self_s", "s"),
       ("seeding.derived_rng", "calls", "count")]
)
_FIRST_COUNT = ("rows", "episodes", "misses")

# name, unit, better (per-layer metrics have no bound)
PER_LAYER = tuple(
    [(f"{span}.{stat}", unit, "lower") for span, stat, unit in _SPAN_STATS]
    + [
        ("models.transform.rows_per_call", "rows/call", "higher"),
        ("models.transform.self_frac", "ratio", "lower"),
        ("agents.train.self_frac", "ratio", "lower"),
        ("data.online_training_run.misses_per_env", "ratio", "lower"),
        ("bench.compute_reference_pair.misses_per_env", "ratio", "lower"),
        ("bench.worker.busy_s", "s", "lower"),
        ("bench.pool.wait_s", "s", "lower"),
        ("bench.parallel_efficiency", "ratio", "higher"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.cpu_util", "ratio", "higher"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [(f"{m}.self_frac", "ratio", "lower") for m in MODULES]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def per_layer(totals: dict, wall: float, cpu_s: float, span_cost_s: float) -> dict:
    """Every per-layer metric of one traced run.  Shares of wall time can
    exceed 1 where pool workers run in parallel."""

    def total(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for span, stat, _ in _SPAN_STATS:
        out[f"{span}.{stat}"] = total(span, "a" if stat in _FIRST_COUNT else stat)
    transforms = ("models.transform.poly", "models.transform.rff")
    out["models.transform.rows_per_call"] = ratio(
        sum(total(t, "a") for t in transforms), sum(total(t, "calls") for t in transforms))
    out["models.transform.self_frac"] = ratio(
        sum(total(t, "self_s") for t in transforms), wall)
    out["agents.train.self_frac"] = ratio(
        sum(total(f"agents.{t}", "self_s") for t in TRAINERS), wall)
    # misses per distinct environment: above 1 means the same expert was
    # trained more than once
    for span in ("data.online_training_run", "bench.compute_reference_pair"):
        envs = len(totals.get(span, {}).get("b_values", ()))
        out[f"{span}.misses_per_env"] = ratio(total(span, "a"), envs)
    out["bench.worker.busy_s"] = total("bench.worker", "dur_s")
    out["bench.pool.wait_s"] = total("bench.pool", "dur_s")
    out["bench.parallel_efficiency"] = ratio(total("bench.worker", "dur_s"),
                                             total("bench.pool", "a_x_dur"))
    out["proc.cpu_s"] = cpu_s
    out["proc.cpu_util"] = ratio(cpu_s, wall)
    for mod in MODULES:
        # the pool span's self time is the parent waiting: bench.pool.wait_s
        own = sum(t["self_s"] for name, t in totals.items()
                  if name.split(".", 1)[0] == mod and name != "bench.pool")
        out[f"{mod}.self_s"] = own
        out[f"{mod}.self_frac"] = ratio(own, wall)
    spans = sum(t["calls"] for t in totals.values())
    overhead = spans * span_cost_s
    out["trace.wall_s"] = wall
    out["trace.spans"] = spans
    out["trace.overhead_s"] = overhead
    out["trace.overhead_frac"] = ratio(overhead, wall - overhead)
    return out
