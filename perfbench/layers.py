"""The traced layers: which library functions get spans, and the per-layer report.

The layers are the package modules gf, gflinalg, config, wcmtree, removal
and cli.  Every metric is reported per op of the workload (one object, one
optimize target or one enumerated subset), so runs that complete different
numbers of ops compare directly.
"""

from __future__ import annotations

from wcmopt import cli, config, gf, gflinalg, removal, wcmtree

from spans import Tracer, per_name

#: Spanned functions: (metric prefix, owner, attribute).
SPANNED = (
    ("gflinalg.rref", gflinalg, "rref"),
    ("gflinalg.null_space", gflinalg, "null_space"),
    ("gflinalg.full_support", gflinalg, "has_full_support_vector"),
    ("gflinalg.mat_vec", gflinalg, "mat_vec"),
    ("config.induce", config.CodeGraph, "induce"),
    ("config.codegraph_build", config.CodeGraph, "__init__"),
    ("config.codegraph_build", config.CodeGraph, "apply_changes"),
    ("config.with_weights", config.Configuration, "with_weights"),
    ("config.classify", config, "classify_unlabeled"),
    ("config.flippable", config, "cn_flippable_partners"),
    ("wcmtree.build_tree", wcmtree, "build_tree"),
    ("wcmtree.extract_wcms", wcmtree, "extract_wcms"),
    ("wcmtree.rebuilt", wcmtree.WcmSet, "rebuilt"),
    ("removal.oracle_is_gas", removal, "oracle_is_gas"),
    ("removal.oracle_in_family", removal, "oracle_in_family"),
    ("removal.compute_e_min", removal, "compute_e_min"),
    ("removal.evaluate_weight_conditions", removal, "evaluate_weight_conditions"),
    ("removal.remove_object", removal, "remove_object"),
    ("removal.optimize_code", removal, "optimize_code"),
    ("cli.parse_code", cli, "parse_code"),
    ("cli.serialize_code", cli, "serialize_code"),
    ("cli.main", cli, "main"),
)

#: Span names reported by self time only; the others report a call count too.
SELF_ONLY = {
    "removal.remove_object", "removal.optimize_code",
    "cli.parse_code", "cli.serialize_code", "cli.main",
}

#: Counters bumped from call results, reported per op.
COUNTERS = (
    "gf.mul.calls",
    "removal.oracle.assignments",
    "removal.oracle.refused",
    "removal.candidates_tried",
    "removal.protected_checks",
    "removal.protected_rejections",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    names = dict.fromkeys(prefix for prefix, _, _ in SPANNED)
    for name in names:
        if name not in SELF_ONLY:
            units[f"{name}.calls"] = "1/op"
        units[f"{name}.self_s"] = "s/op"
    for key in COUNTERS:
        units[key] = "1/op"
    units["gflinalg.full_support.hit_ratio"] = "ratio"
    units["removal.e_min_exact_ratio"] = "ratio"
    units["trace.overhead_s_per_op"] = "s/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


def install(tracer: Tracer) -> None:
    """Wrap every layer function of the library; ``tracer.uninstall`` undoes it."""

    def oracle_done(args, kwargs, result):
        c = args[0]
        tracer.bump("removal.oracle.assignments", (c.field.q - 1) ** c.num_vns)

    def oracle_failed(args, kwargs, exc):
        if isinstance(exc, removal.OracleTooLargeError):
            tracer.bump("removal.oracle.refused")

    def support_done(args, kwargs, result):
        tracer.bump("gflinalg.full_support.hits", 1 if result[0] else 0)

    def e_min_done(args, kwargs, result):
        tracer.bump("removal.e_min.exact", 1 if result[2] else 0)

    def plan_done(args, kwargs, plan):
        tracer.bump("removal.candidates_tried", plan.candidates_tried)
        tracer.bump("removal.protected_checks", plan.protected_checks)
        tracer.bump("removal.protected_rejections", plan.protected_rejections)

    hooks = {
        "removal.oracle_is_gas": (oracle_done, oracle_failed),
        "removal.oracle_in_family": (oracle_done, oracle_failed),
        "gflinalg.full_support": (support_done, None),
        "removal.compute_e_min": (e_min_done, None),
        "removal.remove_object": (plan_done, None),
    }
    for key in COUNTERS + ("gflinalg.full_support.hits", "removal.e_min.exact"):
        tracer.counters[key] = 0
    tracer.rebind(gf.FieldContext, "mul", tracer.counted("gf.mul.calls", gf.FieldContext.mul))
    for name, owner, attr in SPANNED:
        on_result, on_error = hooks.get(name, (None, None))
        fn = vars(owner)[attr]
        tracer.rebind(owner, attr, tracer.spanned(name, fn, on_result, on_error))


def report(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics per op from the spans and counters of ``ops`` traced ops."""
    spans = per_name(tracer)
    out: dict[str, float] = {}
    for name in dict.fromkeys(prefix for prefix, _, _ in SPANNED):
        calls, secs = spans.get(name, (0, 0.0))
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = secs / ops
    c = tracer.counters
    for key in COUNTERS:
        out[key] = c[key] / ops
    support_calls = spans.get("gflinalg.full_support", (0, 0.0))[0]
    e_min_calls = spans.get("removal.compute_e_min", (0, 0.0))[0]
    out["gflinalg.full_support.hit_ratio"] = (
        c["gflinalg.full_support.hits"] / support_calls if support_calls else 0.0
    )
    out["removal.e_min_exact_ratio"] = c["removal.e_min.exact"] / e_min_calls if e_min_calls else 0.0
    return out
