"""Which ppskit functions the traced run wraps, and the per-layer metrics.

Each per-layer value is a per-operation figure: the median over the
operations of one kind, averaged over the workload's kinds (the same
weighting as ``op_s`` and ``op_norm``).  The fit times are medians per fit instead.  A
metric whose layer never ran in a workload reads 0, and ``absent``
says why.
"""

from __future__ import annotations

import statistics

from spans import Tracer, self_times

# (module, attribute, span name); several functions may share a span name.
TRACED = (
    ("ppskit.jsd", "gaussian_jsd", "jsd.gaussian_jsd"),
    ("ppskit.jsd", "segment", "jsd.segment"),
    ("ppskit.jsd", "schmidt_number_analytic", "jsd.overlap"),
    ("ppskit.jsd", "pair_overlap", "jsd.overlap"),
    ("ppskit.jsd", "complex_overlap", "jsd.overlap"),
    ("ppskit.jsd", "schmidt_number_svd", "jsd.schmidt_number_svd"),
    ("ppskit.jsd", "synthesize_pnd", "jsd.synthesize_pnd"),
    ("ppskit.estimate", "minimize", "estimate.lbfgs"),
    ("ppskit.metrics", "bootstrap", "metrics.bootstrap"),
    ("ppskit.simulate", "run_sweep", "simulate.run_sweep"),
    ("ppskit.simulate", "sample_counts", "simulate.sample_counts"),
    ("ppskit.simulate", "sample_single_counts", "simulate.sample_counts"),
    ("ppskit.simulate", "random_pps_pnd", "simulate.random_pnd"),
    ("ppskit.simulate", "random_single_pnd", "simulate.random_pnd"),
    ("ppskit.rng", "substream", "rng.substream"),
    ("ppskit.rng", "multinomial_counts", "rng.multinomial_counts"),
    ("ppskit.detection", "outcome_map", "detection.outcome_map"),
    ("ppskit.detection", "bipartite_probs", "detection.bipartite_probs"),
    ("ppskit.detection", "noise_correct", "detection.noise_correct"),
    ("ppskit.detection", "read_counts_csv", "detection.read_counts_csv"),
    ("ppskit.pnd", "characteristics", "pnd.characteristics"),
    ("ppskit.pnd", "write_pnd_csv", "pnd.write_pnd_csv"),
    ("ppskit.cli", "main", "cli.main"),
)

# metric -> (unit, how it is computed, span name or source)
#   total: per-op sum of span durations     count: per-op number of spans
#   self:  per-op sum of span self times    fit:   median duration per fit
PER_LAYER = {
    "jsd.gaussian_jsd_s": ("s", "total", "jsd.gaussian_jsd"),
    "jsd.segment_s": ("s", "total", "jsd.segment"),
    "jsd.segment_calls": ("count", "count", "jsd.segment"),
    "jsd.overlap_s": ("s", "total", "jsd.overlap"),
    "jsd.overlap_calls": ("count", "count", "jsd.overlap"),
    "jsd.schmidt_number_svd_s": ("s", "total", "jsd.schmidt_number_svd"),
    "jsd.synthesize_pnd_s": ("s", "self", "jsd.synthesize_pnd"),
    "jsd.grids_built": ("count", "count", "jsd.grid"),
    "jsd.blas_1thread_s": ("s", "child", "jsd.blas_1thread"),
    "estimate.ml_fit_s": ("s", "fit", "estimate.ml_fit"),
    "estimate.eml_fit_s": ("s", "fit", "estimate.eml_fit"),
    "estimate.single_fit_s": ("s", "fit", "estimate.single_fit"),
    "estimate.lbfgs_s": ("s", "total", "estimate.lbfgs"),
    "estimate.lbfgs_calls": ("count", "count", "estimate.lbfgs"),
    "estimate.lbfgs_iterations": ("count", "iterations", "fits"),
    "estimate.converged_ratio": ("ratio", "converged", "fits"),
    "metrics.bootstrap_s": ("s", "total", "metrics.bootstrap"),
    "metrics.bootstrap_stats_s": ("s", "self", "metrics.bootstrap_stats"),
    "metrics.bootstrap_fail_ratio": ("ratio", "bootstrap_fail", "metrics.bootstrap_stats"),
    "simulate.run_sweep_s": ("s", "self", "simulate.run_sweep"),
    "simulate.sample_counts_s": ("s", "total", "simulate.sample_counts"),
    "simulate.random_pnd_s": ("s", "total", "simulate.random_pnd"),
    "rng.substream_s": ("s", "total", "rng.substream"),
    "rng.substream_calls": ("count", "count", "rng.substream"),
    "rng.multinomial_counts_s": ("s", "total", "rng.multinomial_counts"),
    "detection.outcome_map_s": ("s", "total", "detection.outcome_map"),
    "detection.outcome_map_calls": ("count", "count", "detection.outcome_map"),
    "detection.bipartite_probs_s": ("s", "total", "detection.bipartite_probs"),
    "detection.noise_correct_s": ("s", "total", "detection.noise_correct"),
    "detection.read_counts_csv_s": ("s", "total", "detection.read_counts_csv"),
    "pnd.characteristics_s": ("s", "total", "pnd.characteristics"),
    "pnd.write_pnd_csv_s": ("s", "total", "pnd.write_pnd_csv"),
    "cli.main_self_s": ("s", "self", "cli.main"),
    "cli.bytes_written": ("bytes", "bytes", "cli.main"),
    "setup.scipy_special_s": ("s", "import", "scipy.special"),
    "setup.scipy_optimize_s": ("s", "import", "scipy.optimize"),
    "setup.ppskit_self_s": ("s", "import", "ppskit"),
    "trace.overhead_frac": ("ratio", "overhead", "op_norm"),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED``, the fits and ``JsdGrid``."""
    import ppskit.estimate as est
    import ppskit.jsd as jsd

    def fit_name(fn_kind):
        def name(args, kwargs):
            model = args[1] if len(args) > 1 else kwargs.get("model")
            kind = "single" if isinstance(model, est.SingleModeModel) else fn_kind
            return f"estimate.{kind}_fit"
        return name

    def fit_note(result, args, kwargs):
        return {
            "iterations": sum(start.iterations for start in result.starts),
            "converged": bool(result.converged),
        }

    def bootstrap_note(rows, args, kwargs):
        return {"n_fail": rows[0]["n_fail"] if rows else 0, "n": len(args[0])}

    for module, attr, name in TRACED:
        tracer.install(module, attr, name)
    tracer.install("ppskit.estimate", "ml_estimate", fit_name("ml"), fit_note)
    tracer.install("ppskit.estimate", "eml_estimate", fit_name("eml"), fit_note)
    tracer.install("ppskit.metrics", "bootstrap_stats", "metrics.bootstrap_stats", bootstrap_note)
    tracer.install_method(jsd.JsdGrid, "__post_init__", "jsd.grid")


def per_op(op_kinds: dict[int, int], values: dict[int, float]) -> float:
    """Median over the ops of each kind, averaged over kinds."""
    by_kind: dict[int, list[float]] = {}
    for op, kind in op_kinds.items():
        by_kind.setdefault(kind, []).append(values.get(op, 0.0))
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def per_layer(spans, op_kinds, extra, workload) -> tuple[dict, dict]:
    """Per-layer metrics from traced spans.

    ``op_kinds`` maps each traced op id to its kind; ``extra`` holds the
    values measured outside the spans (import shares, the 1-thread child,
    bytes written per op, the tracing overhead).  Returns the metrics and,
    for each metric that did not apply, the reason.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[int, float]] = {}
    counts: dict[str, dict[int, float]] = {}
    own: dict[str, dict[int, float]] = {}
    fits: dict[str, list[float]] = {}
    iterations: dict[int, float] = {}
    fit_total = fit_converged = boot_n = boot_fail = 0
    for span, self_s in zip(spans, selfs):
        if span.op not in op_kinds:
            continue
        for table, value in ((totals, span.duration), (counts, 1.0), (own, self_s)):
            per = table.setdefault(span.name, {})
            per[span.op] = per.get(span.op, 0.0) + value
        if span.name.endswith("_fit"):
            fits.setdefault(span.name, []).append(span.duration)
            iterations[span.op] = iterations.get(span.op, 0.0) + span.info["iterations"]
            fit_total += 1
            fit_converged += span.info["converged"]
        if span.name == "metrics.bootstrap_stats":
            boot_n += span.info["n"]
            boot_fail += span.info["n_fail"]

    metrics, absent = {}, {}
    for name, (_, how, source) in PER_LAYER.items():
        value, reason = 0.0, None
        if how in ("total", "count", "self"):
            table = {"total": totals, "count": counts, "self": own}[how]
            if source in table:
                value = per_op(op_kinds, table[source])
            else:
                reason = f"{workload} makes no {source} call"
        elif how == "fit":
            if source in fits:
                value = statistics.median(fits[source])
            else:
                reason = f"{workload} makes no {source.split('.')[1].replace('_', ' ')}"
        elif how == "iterations":
            if fit_total:
                value = per_op(op_kinds, iterations)
            else:
                reason = f"{workload} makes no estimator fit"
        elif how == "converged":
            if fit_total:
                value = fit_converged / fit_total
            else:
                reason = f"{workload} makes no estimator fit"
        elif how == "bootstrap_fail":
            if boot_n:
                value = boot_fail / boot_n
            else:
                reason = f"{workload} runs no bootstrap"
        elif name in extra:
            value = extra[name]
        else:
            reason = extra.get(f"{name}:absent", "not measured")
        metrics[name] = float(value)
        if reason:
            absent[name] = reason
    return metrics, absent
