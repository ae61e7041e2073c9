"""What the traced run wraps in each kakeya module, and the per-layer metrics it yields.

The layers are the package modules.  Each entry of TRACED names a public
function (or method) by the module that defines it; `spans.Tracer`
installs the wrapper at every module attribute that holds it.  The
scalar layer is only counted, in its own pass (install_counter).
"""

from __future__ import annotations

import math
import os
import sys

from spans import Counter, Tracer

TRACED = [
    ("kakeya.cli", "main"),
    ("kakeya.construction", "assemble"),
    ("kakeya.construction", "Lifting.line"),
    ("kakeya.construction", "Lifting.direction"),
    ("kakeya.construction", "Lifting.intersection"),
    ("kakeya.construction", "save_kakeya"),
    ("kakeya.construction", "load_kakeya"),
    ("kakeya.seeds", "dual_conic_seed"),
    ("kakeya.seeds", "regular_ngon_seed"),
    ("kakeya.seeds", "line_walk_start"),
    ("kakeya.projgeom", "meet"),
    ("kakeya.projgeom", "span"),
    ("kakeya.projgeom", "Subspace.from_vectors"),
    ("kakeya.projgeom", "Subspace.contains"),
    ("kakeya.linalg", "rref"),
    ("kakeya.linalg", "nullspace"),
    ("kakeya.linalg", "reduce_vector"),
    ("kakeya.polymethod", "vanishing_space"),
    ("kakeya.polymethod", "certify"),
    ("kakeya.polymethod", "multiplicity_at"),
    ("kakeya.polymethod", "bound_best"),
    ("kakeya.verify", "verify_incidence"),
    ("kakeya.verify", "verify_directions"),
    ("kakeya.verify", "verify_size"),
    ("kakeya.verify", "verify_bound_consistency"),
    ("kakeya.verify", "verify_all"),
]

FIELD_CLASSES = ("Field", "PrimeField", "RationalField", "RealField")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div", "eq", "is_zero")

# (metric, unit, better) in the order they are reported; "calls" and
# "self_s" come from spans, the rest from post hooks or derived values.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("construction.assemble.calls", "count", "lower"),
    ("construction.assemble.self_s", "s", "lower"),
    ("construction.Lifting.line.calls", "count", "lower"),
    ("construction.Lifting.line.self_s", "s", "lower"),
    ("construction.Lifting.direction.calls", "count", "lower"),
    ("construction.Lifting.direction.self_s", "s", "lower"),
    ("construction.Lifting.intersection.calls", "count", "lower"),
    ("construction.Lifting.intersection.self_s", "s", "lower"),
    ("construction.save_kakeya.self_s", "s", "lower"),
    ("construction.save_kakeya.bytes", "B", "lower"),
    ("construction.load_kakeya.self_s", "s", "lower"),
    ("construction.load_kakeya.bytes", "B", "lower"),
    ("seeds.dual_conic_seed.self_s", "s", "lower"),
    ("seeds.regular_ngon_seed.self_s", "s", "lower"),
    ("seeds.line_walk_start.calls", "count", "lower"),
    ("projgeom.meet.calls", "count", "lower"),
    ("projgeom.meet.self_s", "s", "lower"),
    ("projgeom.span.calls", "count", "lower"),
    ("projgeom.span.self_s", "s", "lower"),
    ("projgeom.Subspace.from_vectors.calls", "count", "lower"),
    ("projgeom.Subspace.from_vectors.self_s", "s", "lower"),
    ("projgeom.Subspace.contains.calls", "count", "lower"),
    ("projgeom.Subspace.contains.self_s", "s", "lower"),
    ("projgeom.Subspace.contains.hit_ratio", "ratio", "higher"),
    ("projgeom.Subspace.contains.verify_share", "ratio", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.max_rows", "count", "lower"),
    ("linalg.rref.max_cols", "count", "lower"),
    ("linalg.rref.work", "computed_ops", "lower"),
    ("linalg.rref.certify_share", "ratio", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.reduce_vector.calls", "count", "lower"),
    ("linalg.reduce_vector.self_s", "s", "lower"),
    ("scalar.Scalar.created", "count", "lower"),
    ("scalar.field_ops", "count", "lower"),
    ("polymethod.vanishing_space.self_s", "s", "lower"),
    ("polymethod.vanishing_space.rows", "count", "lower"),
    ("polymethod.vanishing_space.cols", "count", "lower"),
    ("polymethod.vanishing_space.nullity", "count", "lower"),
    ("polymethod.certify.self_s", "s", "lower"),
    ("polymethod.multiplicity_at.calls", "count", "lower"),
    ("polymethod.bound_best.self_s", "s", "lower"),
    ("verify.verify_incidence.calls", "count", "lower"),
    ("verify.verify_incidence.self_s", "s", "lower"),
    ("verify.verify_directions.calls", "count", "lower"),
    ("verify.verify_directions.self_s", "s", "lower"),
    ("verify.verify_size.calls", "count", "lower"),
    ("verify.verify_size.self_s", "s", "lower"),
    ("verify.verify_bound_consistency.calls", "count", "lower"),
    ("verify.verify_bound_consistency.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("src_lines", "count", "lower"),
]


def _hooks(tracer: Tracer) -> dict:
    """Post hooks that record what a span alone cannot: sizes, shapes and outcomes."""

    def contains(args, hit):
        if hit:
            tracer.add_stat("projgeom.Subspace.contains.hits", 1)

    def rref(args, result):
        rows = args[0]
        nrows, ncols = len(rows), (len(rows[0]) if rows else 0)
        tracer.max_stat("linalg.rref.max_rows", nrows)
        tracer.max_stat("linalg.rref.max_cols", ncols)
        # computed, not measured: rows * cols * rank bounds the entry updates
        tracer.add_stat("linalg.rref.work", nrows * ncols * len(result[0]))

    def vanishing_space(args, basis):
        points, deg_bound, mult, nvars = args[0], args[1], args[2], args[3]
        tracer.add_stat("polymethod.vanishing_space.rows", len(points) * math.comb(nvars + mult - 1, nvars))
        tracer.add_stat("polymethod.vanishing_space.cols", math.comb(nvars + deg_bound, nvars))
        tracer.add_stat("polymethod.vanishing_space.nullity", len(basis))

    return {
        "Subspace.contains": contains,
        "rref": rref,
        "vanishing_space": vanishing_space,
        "save_kakeya": lambda args, _: tracer.add_stat("construction.save_kakeya.bytes", os.path.getsize(args[1])),
        "load_kakeya": lambda args, _: tracer.add_stat("construction.load_kakeya.bytes", os.path.getsize(args[0])),
    }


def install_tracer(tracer: Tracer):
    hooks = _hooks(tracer)
    for module, qualname in TRACED:
        if tracer.trace(module, qualname, post=hooks.get(qualname)) == 0:
            raise RuntimeError(f"{module}.{qualname} is bound nowhere")


def install_counter(counter: Counter):
    """Count Scalar creations and calls of the raw-value field operations."""
    counter.count("kakeya.scalar", "Scalar.__init__", "scalar.Scalar.created")
    scalar = sys.modules["kakeya.scalar"]
    for cls in FIELD_CLASSES:
        for op in FIELD_OPS:
            if op in vars(getattr(scalar, cls)):
                counter.count("kakeya.scalar", f"{cls}.{op}", "scalar.field_ops")


def per_layer(tracer: Tracer, counter: Counter, extra: dict) -> dict:
    """Every PER_LAYER metric; layers a workload does not reach report 0."""
    summary = tracer.summary()
    values = dict(extra)
    for name, entry in summary.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    values.update(tracer.stats)
    calls = values.get("projgeom.Subspace.contains.calls", 0)
    values["projgeom.Subspace.contains.hit_ratio"] = (
        values.get("projgeom.Subspace.contains.hits", 0) / calls if calls else 0.0
    )
    values["scalar.Scalar.created"] = counter.value("scalar.Scalar.created")
    values["scalar.field_ops"] = counter.value("scalar.field_ops")
    values["trace.spans"] = len(tracer)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
