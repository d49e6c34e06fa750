"""Which corrkit callables the traced run wraps, and the per-layer
metrics derived from the spans.

A layer is one module of `src/corrkit`.  Every public function and
public method a layer defines is wrapped, plus the few private or
operator methods named in `EXTRA`, minus the tiny hot helpers in `SKIP`:
those are called up to 1.5M times per run, so wrapping them would
measure the wrapper, and their time stays with their caller's span.
The callables in `COUNTED` take under 5 us a call, against 0.9-1.7 us
for a timing wrapper on a 2-vCPU Xeon VM, and each is called 5k-270k
times a run, so they are counted and not timed: their calls are exact
and their time stays with their caller's span.
`io` is deliberately unmeasured: file loading is on no workload's path,
and every file-driven subcommand on data/ costs about interpreter start-up.
"""
from __future__ import annotations

import importlib
import inspect
import sys

from tracing import CALLS, COUNT_ONLY, CPU, SELF, SIZE, SIZE_MAX, TOTAL

LAYERS = ("cli", "reports", "spheres", "correspondences", "algebra",
          "exactlinalg", "engine", "setexpr", "labelled", "smith", "ktheory",
          "obstruction", "graphs", "properties")

SKIP = frozenset({
    "exactlinalg.frac", "exactlinalg.vclean", "exactlinalg.vadd",
    "exactlinalg.vsub", "exactlinalg.vscale", "exactlinalg.vdot_keys",
    "exactlinalg.sort_key", "exactlinalg.vec_repr",
    "correspondences.Correspondence.gen",
    "engine.Engine.word_range", "engine.Engine.set_range",
    "setexpr.atoms", "setexpr.tail",
    "setexpr.SetExpr.is_empty", "setexpr.SetExpr.is_finite",
    "setexpr.SetExpr.tail_index", "setexpr.SetExpr.named_atoms",
    "setexpr.SetExpr.indexed_atoms", "setexpr.SetExpr.bases",
    "setexpr.SetExpr.max_index", "setexpr.SetExpr.sort_key",
})
COUNTED = frozenset({
    "setexpr.SetExpr.union", "setexpr.SetExpr.intersect",
    "setexpr.SetExpr.difference", "setexpr.SetExpr.is_subset",
    "setexpr.SetExpr.truncate", "setexpr.SetExpr.shift", "setexpr.union_all",
    "engine.Element.__add__", "engine.Element.__sub__", "engine.Element.__neg__",
    "engine.Element.__rmul__", "engine.Element.adj", "engine.Engine.zero",
    "algebra.CommAlgebra.mul", "algebra.CommAlgebra.basis_product",
    "correspondences.Correspondence.inner_product",
    "correspondences.Correspondence.right_action",
    "correspondences.Correspondence.left_action",
    "graphs.Graph.out_edges", "graphs.Graph.sinks", "graphs.Graph.regular_vertices",
    "ktheory.IntMatrix.as_lists",
})
EXTRA = ("engine.Engine._mul", "engine.Element.__add__", "engine.Element.__sub__",
         "engine.Element.__neg__", "engine.Element.__rmul__", "smith._verify")

SETEXPR_OPS = ("setexpr.SetExpr.union", "setexpr.SetExpr.intersect",
               "setexpr.SetExpr.difference", "setexpr.SetExpr.is_subset",
               "setexpr.SetExpr.truncate", "setexpr.SetExpr.shift",
               "setexpr.union_all")

# Top-level steps of spheres.verify_sphere_suite, grouped into tiers.
SUITE = "spheres.verify_sphere_suite"
SPHERE_SECTIONS = {
    "build": ("spheres.build_X_A", "spheres.build_Z_C", "spheres.build_Y_B",
              "spheres.build_psi", "spheres.build_omega"),
    "lemma_suite": ("spheres.lemma_suite",),
    "omega_factorization": ("spheres.check_omega_factorization",),
    "xy_isomorphism": ("spheres.verify_XY_isomorphism",),
    "mirror_span": ("correspondences.restricted_direct_sum",
                    "spheres.mirror_span_report"),
    "en_representation": ("spheres.verify_En_representation",),
}


def _cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# span name -> (size(args, kwargs, result), record thread CPU time)
SIZES = {name: (COUNT_ONLY, False) for name in COUNTED}
SIZES.update({
    "exactlinalg.solve": (lambda a, k, r: _cells(a[0]), False),
    "smith.smith_normal_form": (lambda a, k, r: _cells(a[0]), False),
    "engine.Engine._mul": (lambda a, k, r: len(r.terms), False),
    "ktheory.k0_class_membership": (lambda a, k, r: 1 if r[0] else 0, True),
    "obstruction.enumerate_candidates": (lambda a, k, r: len(r), False),
})


def targets():
    """(functions, methods, modules) for `Tracer.install`."""
    functions, methods = [], []
    for layer in LAYERS:
        mod = importlib.import_module(f"corrkit.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                if _wanted(name, attr):
                    functions.append((name, obj) + SIZES.get(name, (None, False)))
            elif inspect.isclass(obj):
                for mattr, meth in vars(obj).items():
                    name = f"{layer}.{attr}.{mattr}"
                    if inspect.isfunction(meth) and _wanted(name, mattr):
                        methods.append((name, obj, mattr) + SIZES.get(name, (None, False)))
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "corrkit" or n.startswith("corrkit."))]
    return functions, methods, modules


def _wanted(name: str, attr: str) -> bool:
    if name in EXTRA:
        return True
    return not attr.startswith("_") and name not in SKIP


def span_totals(edges: dict) -> dict:
    """Span name -> [calls, total, self, size, size max, cpu] over all callers."""
    out: dict = {}
    for (_, name), rec in edges.items():
        got = out.setdefault(name, [0, 0.0, 0.0, 0, 0, 0.0])
        for i in (CALLS, TOTAL, SELF, SIZE, CPU):
            got[i] += rec[i]
        got[SIZE_MAX] = max(got[SIZE_MAX], rec[SIZE_MAX])
    return out


def layer_metrics(edges: dict, jobs: int) -> dict:
    """Per-layer metrics of one traced run, every one always present."""
    spans = span_totals(edges)
    zero = [0, 0.0, 0.0, 0, 0, 0.0]

    def get(name, slot):
        return spans.get(name, zero)[slot]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(rec[SELF] for name, rec in spans.items()
                                   if name.split(".", 1)[0] == layer)
    m["exactlinalg.solve.calls"] = get("exactlinalg.solve", CALLS)
    m["exactlinalg.solve.cells"] = get("exactlinalg.solve", SIZE)
    m["exactlinalg.express.calls"] = get("exactlinalg.express", CALLS)
    m["exactlinalg.rref.self_s"] = get("exactlinalg.rref", SELF)
    m["exactlinalg.nullspace.calls"] = get("exactlinalg.nullspace", CALLS)
    m["exactlinalg.span_solver.calls"] = (get("exactlinalg.SpanSolver.add", CALLS)
                                          + get("exactlinalg.SpanSolver.contains", CALLS))
    m["exactlinalg.mat_mul.self_s"] = get("exactlinalg.mat_mul", SELF)
    m["exactlinalg.det.self_s"] = get("exactlinalg.det", SELF)
    m["correspondences.restricted_direct_sum.total_s"] = get(
        "correspondences.restricted_direct_sum", TOTAL)
    m["correspondences.kernel_and_jx.calls"] = get("correspondences.kernel_and_jx", CALLS)
    m["correspondences.compact_decomposition.calls"] = get(
        "correspondences.compact_decomposition", CALLS)
    m["correspondences.check_morphism.total_s"] = get("correspondences.check_morphism", TOTAL)
    m["correspondences.check_covariant_rep.total_s"] = get(
        "correspondences.check_covariant_rep", TOTAL)
    m["algebra.mul.calls"] = get("algebra.CommAlgebra.mul", CALLS)
    m["algebra.eval_at_atom.calls"] = get("algebra.CommAlgebra.eval_at_atom", CALLS)
    for section, names in SPHERE_SECTIONS.items():
        m[f"spheres.{section}.total_s"] = sum(
            rec[TOTAL] for (parent, name), rec in edges.items()
            if parent == SUITE and name in names)
    m["smith.reduce.self_s"] = get("smith.smith_normal_form", SELF)
    m["smith.verify.self_s"] = get("smith._verify", SELF)
    m["smith.verify.total_s"] = get("smith._verify", TOTAL)
    m["smith.calls"] = get("smith.smith_normal_form", CALLS)
    m["smith.cells"] = get("smith.smith_normal_form", SIZE)
    attempts = get("ktheory.k0_class_membership", CALLS)
    m["ktheory.membership.calls"] = attempts
    m["ktheory.member_ratio"] = ratio(get("ktheory.k0_class_membership", SIZE), attempts)
    m["obstruction.enumerate.total_s"] = get("obstruction.enumerate_candidates", TOTAL)
    m["obstruction.candidates"] = get("obstruction.enumerate_candidates", SIZE)
    m["graphs.canonical_encoding.calls"] = get("graphs.canonical_encoding", CALLS)
    m["obstruction.unique_ratio"] = ratio(m["obstruction.candidates"],
                                          m["graphs.canonical_encoding.calls"])
    m["obstruction.sweep.self_s"] = get("obstruction.sweep", SELF)
    m["parallel.busy_ratio"] = ratio(get("ktheory.k0_class_membership", CPU),
                                     get("obstruction.sweep", TOTAL) * jobs)
    m["engine.mul.calls"] = get("engine.Engine._mul", CALLS)
    m["engine.mul.terms_out"] = get("engine.Engine._mul", SIZE)
    m["engine.mul.peak_terms"] = get("engine.Engine._mul", SIZE_MAX)
    m["engine.equals.calls"] = get("engine.Engine.equals_detail", CALLS)
    m["setexpr.ops.calls"] = sum(get(name, CALLS) for name in SETEXPR_OPS)
    m["labelled.relative_range.calls"] = get("labelled.relative_range", CALLS)
    return m


COUNT_METRICS = tuple(
    name for name in layer_metrics({}, 1)
    if name.endswith((".calls", ".cells", ".candidates", ".terms_out", ".peak_terms")))
