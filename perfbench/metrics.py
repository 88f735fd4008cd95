"""Metric tables of the benchmark and the derivation of per-layer metrics.

``END_TO_END`` and ``PER_LAYER`` mirror BENCHMARK.json (the smoke test keeps
them equal).  Each per-layer metric carries its target: the end-to-end
metric and workload it should move.  The end-to-end names map onto the
kinds of each workload: "plain" is the gradient method with one
combination, "refined" the smooth method or, on scatter-5k, averaging over
16 combinations; on impute-csv both are rows/s of ``gradsurf impute``.
"""

from __future__ import annotations

# name, unit, better, bound.  Times are scaled to the probe loop's reference
# speed (see probe.py); what is left of the drift of a shared machine still
# moves them by up to a tenth between runs, hence the wide timing bounds.
END_TO_END = (
    ("plain_qps", "1/s", "higher", 0.25),
    ("refined_qps", "1/s", "higher", 0.25),
    ("plain_p50_us", "us", "lower", 0.25),
    ("refined_p50_us", "us", "lower", 0.25),
    ("plain_abs_err_p50", "outcome", "lower", 0.25),
    ("refined_abs_err_p50", "outcome", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

SELF_US = "us/query"
CALLS = "calls/query"

# name, unit, better, target
PER_LAYER = (
    ("neighbors.is_extrapolation.self_us_per_query", SELF_US, "lower",
     "plain_qps/refined_qps on mesh-s1-20; no move on cell-h1-n99"),
    ("neighbors.locate_reference.self_us_per_query", SELF_US, "lower",
     "plain_qps on scatter-5k"),
    ("neighbors.locate_reference.calls_per_query", CALLS, "lower",
     "plain_qps/refined_qps on impute-csv (3 today, 1 once layers are right-hand sides)"),
    ("neighbors.select_simplex.self_us_per_query", SELF_US, "lower",
     "plain_qps on scatter-5k"),
    ("neighbors.enumerate_combinations.self_us_per_query", SELF_US, "lower",
     "refined_qps on scatter-5k"),
    ("neighbors.axis_stencil.self_us_per_query", SELF_US, "lower",
     "refined_qps on cell-h1-n99"),
    ("neighbors.axis_stencil.calls_per_query", CALLS, "lower",
     "refined_qps on cell-h1-n99"),
    ("neighbors.combinations_used_ratio", "ratio", "higher",
     "refined_abs_err_p50 on scatter-5k"),
    ("model.MeshIndex.point_at.self_us_per_query", SELF_US, "lower",
     "refined_qps on cell-h1-n99"),
    ("model.MeshIndex.point_at.calls_per_query", CALLS, "lower",
     "refined_qps on cell-h1-n99"),
    ("model.MeshIndex.cell_of.calls_per_query", CALLS, "lower",
     "plain_qps on mesh-s1-20"),
    ("model.validate_training_set.self_s", "s", "lower",
     "setup_s, and plain_qps/refined_qps on impute-csv"),
    ("solvers.solve_linear_system.self_us_per_query", SELF_US, "lower",
     "plain_qps/plain_p50_us on cell-h1-n99; no move on mesh-s1-20"),
    ("solvers.solve_linear_system.calls_per_query", CALLS, "lower",
     "plain_qps/plain_p50_us on cell-h1-n99"),
    ("solvers.solve_linear_system.computed_flops_per_query", "flops/query", "lower",
     "plain_qps/plain_p50_us on cell-h1-n99 (2n^3/3 per system, computed)"),
    ("solvers.find_root.self_us_per_query", SELF_US, "lower",
     "refined_qps on mesh-s1-20"),
    ("gradient.estimate_gradients.self_us_per_query", SELF_US, "lower",
     "plain_qps on cell-h1-n99"),
    ("gradient.skipped_combinations", "count", "lower",
     "ok_frac and refined_abs_err_p50 on scatter-5k"),
    ("smooth.segment_angles.self_us_per_query", SELF_US, "lower",
     "refined_qps on mesh-s1-20 and cell-h1-n99"),
    ("smooth.build_intersection.self_us_per_query", SELF_US, "lower",
     "refined_qps on mesh-s1-20 and cell-h1-n99"),
    ("smooth.solve_intersection.self_us_per_query", SELF_US, "lower",
     "refined_qps on mesh-s1-20 and cell-h1-n99"),
    ("smooth.adjust_gradient.self_us_per_query", SELF_US, "lower",
     "refined_qps on mesh-s1-20 and cell-h1-n99"),
    ("smooth.newton_iterations.mean", "iterations", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.newton_iterations.max", "iterations", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
) + tuple(
    (f"smooth.newton_iterations.hist-{k}", "count", "higher" if k < 2 else "lower",
     "refined_abs_err_p50; unchanged by a pure speed change")
    for k in range(5)
) + (
    ("smooth.newton_iterations.hist-5plus", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.flag.corrected", "count", "higher",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.flag.chord-fallback", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.flag.newton-fallback", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.flag.boundary-fallback", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.flag.inflection", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("smooth.extrapolated_queries", "count", "lower",
     "refined_abs_err_p50; unchanged by a pure speed change"),
    ("layers.evaluate_layers.self_us_per_query", SELF_US, "lower",
     "plain_qps/refined_qps on impute-csv"),
    ("io.load_dataset.self_s", "s", "lower", "plain_qps/refined_qps on impute-csv"),
    ("io.load_queries.self_s", "s", "lower", "plain_qps/refined_qps on impute-csv"),
    ("io.write_imputed.self_s", "s", "lower", "plain_qps/refined_qps on impute-csv"),
    ("io.bytes_read", "bytes", "lower", "plain_qps/refined_qps on impute-csv"),
    ("io.bytes_written", "bytes", "lower", "plain_qps/refined_qps on impute-csv"),
    ("cli.fanout_overhead_s", "s", "lower",
     "plain_qps/refined_qps on impute-csv (pool spawn and pickling)"),
    ("bench.gen_local_cell_dataset.self_ms_per_dataset", "ms/dataset", "lower",
     "setup_s on cell-h1-n99"),
    ("bench.evaluate_batch.self_us_per_query", SELF_US, "lower",
     "plain_qps/refined_qps on mesh-s1-20"),
) + tuple(
    (f"{m}.self_us_per_query", SELF_US, "lower",
     f"all time spent in the {m} module, for the workloads that call it")
    for m in ("model", "solvers", "neighbors", "gradient", "smooth", "layers", "io", "cli", "bench")
) + (
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced pass time over untraced pass time, minus 1"),
)

# counters kept by the tracer, and the function whose wrapper keeps them
COUNTED_BY = {
    "neighbors.combinations_used_ratio": "gradient.evaluate_gradient",
    "gradient.skipped_combinations": "gradient.evaluate_gradient",
    "solvers.solve_linear_system.computed_flops_per_query": "solvers.solve_linear_system",
    "io.bytes_read": "io.load_dataset",
    "io.bytes_written": "io.write_imputed",
    "cli.fanout_overhead_s": "cli.impute_rows",
}

STATS = ("self_us_per_query", "calls_per_query", "self_s", "self_ms_per_dataset")


def span_of(metric: str):
    """(span name, statistic) for span metrics, or None for counters."""
    span, _, stat = metric.rpartition(".")
    return (span, stat) if stat in STATS else None


def source_of(metric: str):
    """The function a per-layer metric is measured on, or None for module totals."""
    if metric in COUNTED_BY:
        return COUNTED_BY[metric]
    s = span_of(metric)
    if s is not None:
        return s[0] if "." in s[0] else None
    return "smooth.evaluate_smooth" if metric.startswith("smooth.") else None


def expected_spans() -> set:
    """Function names the per-layer metrics need."""
    return {source_of(name) for name, *_ in PER_LAYER} - {None}


def _total(per_span: dict, span: str) -> float:
    """The value of one function, or the sum over a module when ``span`` has no dot."""
    if "." in span:
        return per_span.get(span, 0)
    return sum(v for name, v in per_span.items() if name.split(".", 1)[0] == span)


def layer_values(scope: dict, pass_: dict, counts: dict, extra: dict, absent) -> dict:
    """Per-layer metric values.

    ``scope`` summarizes the spans of one traced setup plus one traced pass,
    ``pass_`` those of the pass alone; ``counts`` holds the tracer's exact
    counters for the pass and ``extra`` the values computed by the runner.
    A metric whose function is absent reads 0.
    """
    nq = max(len(pass_["queries"]), 1)
    used = counts.get("gradient.combinations_used", 0)
    requested = counts.get("gradient.combinations_requested", 0)
    solves = counts.get("smooth.newton_iterations.solves", 0)
    special = {
        "neighbors.combinations_used_ratio": used / requested if requested else 0.0,
        "gradient.skipped_combinations": requested - used,
        "solvers.solve_linear_system.computed_flops_per_query":
            counts.get("solvers.solve_linear_system.computed_flops", 0) / nq,
        "smooth.newton_iterations.mean":
            counts.get("smooth.newton_iterations.total", 0) / solves if solves else 0.0,
        "smooth.newton_iterations.hist-5plus": counts.get("smooth.newton_iterations.hist-5", 0),
    }
    values = {}
    for name, *_ in PER_LAYER:
        span_stat = span_of(name)
        if name in special:
            value = special[name]
        elif name in extra:
            value = extra[name]
        elif span_stat is None:
            value = counts.get(name, 0)
        else:
            span, stat = span_stat
            if stat == "self_us_per_query":
                value = _total(pass_["self_s"], span) / nq * 1e6
            elif stat == "calls_per_query":
                value = _total(pass_["calls"], span) / nq
            elif stat == "self_s":
                value = _total(scope["self_s"], span)
            else:
                calls = _total(scope["calls"], span)
                value = _total(scope["self_s"], span) / calls * 1e3 if calls else 0.0
        values[name] = float(value)
    for name in values:
        if source_of(name) in absent:
            values[name] = 0.0
    return values
