"""Span recorder that wraps cycleforge's layer functions from outside.

`Tracer.install()` replaces each listed function by a wrapper in every
cycleforge module namespace that bound it by name (so `dynamics.resultant`
and each `from .poly import format_poly` are covered) and replaces the
listed methods on their class; `uninstall()` puts every original back.

A wrapper records one span per call: name, parent span, start and end,
kept in flat in-memory arrays.  A call made while the innermost span has
the same name is folded into that span, so `MultiPoly.__sub__` calling
`__add__` is one `poly.add` call and recursion counts its outermost call.
A layer's self time is its spans' duration minus the part their child
spans cover.  `MultiPoly.__init__` and `scalars.is_zero` are deliberately
not wrapped: they run up to ~1.5M times per pass and are not layer
boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter


def _terms(p) -> int:
    return len(getattr(p, "terms", ()) or ())


def _mul_sizes(c, args, out):
    a, b = args
    c["term_pairs"] += _terms(a) * (_terms(b) if hasattr(b, "terms") else 1)
    c["terms_out"] += _terms(out)


def _solve_ivp_sizes(c, args, out):
    c["nfev"] += int(out.nfev)
    dense = getattr(out, "sol", None)
    c["steps"] += (len(dense.ts) if dense is not None else len(out.t)) - 1
    c["failed"] += not out.success


def _return_map_sizes(c, args, out):
    c["radii"] += len(out)
    c["ok"] += sum(row["status"] == "ok" for row in out)


# (layer name, cycleforge module, qualified names, size recorder).  Sizes
# are summed over calls; ratios divide them by calls (or radii).
TARGETS = [
    ("cli.main", "cli", ("main",), None),
    ("fields.bind", "fields", ("VectorField.bind",), None),
    ("fields.apply_condition", "fields", ("apply_condition",), None),
    ("scalars.QuadExt.sign", "scalars", ("QuadExt.sign",), None),
    ("poly.mul", "poly", ("MultiPoly.__mul__",), _mul_sizes),
    ("poly.add", "poly",
     ("MultiPoly.__add__", "MultiPoly.__sub__", "MultiPoly.__rsub__"), None),
    ("poly.diff", "poly", ("MultiPoly.diff",), None),
    ("poly.evaluate", "poly", ("MultiPoly.evaluate", "MultiPoly.eval_scalar"), None),
    ("poly.exact_div", "poly", ("MultiPoly.exact_div",),
     lambda c, a, out: c.update(hits=out is not None)),
    ("poly.format", "poly", ("format_poly",), None),
    ("linalg.determinant", "linalg", ("determinant",),
     lambda c, a, out: c.update(dim_sum=a[0].rows)),
    ("linalg.solve_linear_exact", "linalg", ("solve_linear_exact",),
     lambda c, a, out: c.update(dim_sum=a[0].cols)),
    ("roots.real_roots", "roots", ("real_roots",),
     lambda c, a, out: c.update(roots_out=len(out))),
    ("roots.refine", "roots", ("refine",), None),
    ("roots.sign_at_root", "roots", ("sign_at_root",),
     lambda c, a, out: c.update(zeros=out == 0)),
    ("roots.isolate_real_roots", "roots", ("isolate_real_roots",), None),
    ("resultants.resultant", "resultants", ("resultant",),
     lambda c, a, out: c.update(terms_out=_terms(out))),
    ("resultants.multivariate_gcd", "resultants", ("multivariate_gcd",),
     lambda c, a, out: c.update(nontrivial=not out.is_constant())),
    ("resultants.cascade", "resultants", ("cascade",), None),
    ("resultants.extract_linear_factors", "resultants", ("extract_linear_factors",),
     lambda c, a, out: c.update(factors_out=len(out[0]))),
    ("resultants.first_subresultant", "resultants", ("first_subresultant",), None),
    ("lyapunov.lyapunov_quantities", "lyapunov", ("lyapunov_quantities",),
     lambda c, a, out: c.update(terms_out=sum(_terms(q) for q in out.quantities))),
    ("lyapunov.normalize_at", "lyapunov", ("normalize_at",), None),
    ("lyapunov.linear_parts_in", "lyapunov", ("linear_parts_in",), None),
    ("centers.certify", "centers", ("certify",),
     lambda c, a, out: c.update(certified=out.kind != "none")),
    ("centers.darboux_search", "centers", ("darboux_search",), None),
    ("bifurcation.ggt_analyze", "bifurcation", ("ggt_analyze",), None),
    ("bifurcation.hopf_order_one", "bifurcation", ("hopf_order_one",), None),
    ("dynamics.pair_report", "dynamics", ("pair_report",),
     lambda c, a, out: c.update(points_out=len(out.points))),
    ("dynamics.singularities_in_delta", "dynamics", ("singularities_in_delta",),
     lambda c, a, out: c.update(points_out=len(out.points))),
    ("dynamics.berlinskii_check", "dynamics", ("berlinskii_check",), None),
    ("integrate.return_map", "integrate", ("return_map",), _return_map_sizes),
    ("integrate.refine_cycle_bracket", "integrate", ("refine_cycle_bracket",), None),
    # scipy's solver as bound in cycleforge.integrate; its span holds the RHS
    ("integrate.solve_ivp", "integrate", ("solve_ivp",), _solve_ivp_sizes),
]

# ratio stat -> (numerator counter, denominator counter)
_RATIOS = {"hit_ratio": ("hits", "calls"), "zero_ratio": ("zeros", "calls"),
           "nontrivial_ratio": ("nontrivial", "calls"),
           "certified_ratio": ("certified", "calls"), "ok_ratio": ("ok", "radii")}

# the stats each layer reports besides calls and self_s
EXTRA_STATS = {
    "poly.mul": ("term_pairs", "terms_out"),
    "poly.exact_div": ("hit_ratio",),
    "linalg.determinant": ("dim_sum",),
    "linalg.solve_linear_exact": ("dim_sum",),
    "roots.real_roots": ("roots_out",),
    "roots.sign_at_root": ("zero_ratio",),
    "resultants.resultant": ("terms_out",),
    "resultants.multivariate_gcd": ("nontrivial_ratio",),
    "resultants.extract_linear_factors": ("factors_out",),
    "lyapunov.lyapunov_quantities": ("terms_out",),
    "centers.certify": ("certified_ratio",),
    "dynamics.pair_report": ("points_out",),
    "dynamics.singularities_in_delta": ("points_out",),
    "integrate.return_map": ("radii", "ok_ratio"),
    "integrate.refine_cycle_bracket": ("bisections",),
    "integrate.solve_ivp": ("nfev", "steps", "failed"),
}


def stat_unit(stat: str) -> str:
    if stat == "self_s":
        return "s"
    if stat.endswith("_ratio"):
        return "1"
    return "count"


def layer_metric_names() -> list:
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for layer, _, _, _ in TARGETS:
        for stat in ("calls", "self_s") + EXTRA_STATS.get(layer, ()):
            names.append(f"{layer}.{stat}")
    return names


class Tracer:
    def __init__(self):
        self.layers = [t[0] for t in TARGETS]
        self._patched = []
        self.reset()

    def reset(self):
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = [Counter() for _ in self.layers]
        # calls of layer b made directly inside a span of layer a
        self.edges = Counter()
        self._stack = []
        self._layer_stack = []

    # -- patching -------------------------------------------------------------

    def install(self):
        targets = [importlib.import_module("cycleforge." + t[1]) for t in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cycleforge" or n.startswith("cycleforge.")]
        for lid, (mod, (_, _, quals, sizes)) in enumerate(zip(targets, TARGETS)):
            for qual in quals:
                *owner_path, attr = qual.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapper = self._wrap(lid, orig, sizes)
                holders = [owner] if owner_path else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is orig:
                            self._patched.append((holder, name, orig))
                            setattr(holder, name, wrapper)

    def uninstall(self):
        while self._patched:
            holder, name, orig = self._patched.pop()
            setattr(holder, name, orig)

    def _wrap(self, lid: int, fn, sizes):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            stack = tracer._stack
            layers = tracer._layer_stack
            if layers and layers[-1] == lid:
                return fn(*args, **kw)
            idx = len(tracer.span_layer)
            parent = stack[-1] if stack else -1
            tracer.span_layer.append(lid)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            tracer.edges[(layers[-1] if layers else -1, lid)] += 1
            stack.append(idx)
            layers.append(lid)
            tracer.span_start.append(clock())
            try:
                out = fn(*args, **kw)
                if sizes is not None:
                    sizes(tracer.counters[lid], args, out)
                return out
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
                layers.pop()

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """calls, self time and sizes per layer for the spans recorded."""
        n = len(self.span_layer)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(n):
            lid = self.span_layer[i]
            calls[lid] += 1
            self_s[lid] += self.span_end[i] - self.span_start[i] - child[i]
        rm = self.layers.index("integrate.return_map")
        rcb = self.layers.index("integrate.refine_cycle_bracket")
        # each refinement evaluates both ends once, then once per bisection
        self.counters[rcb]["bisections"] = self.edges[(rcb, rm)] - 2 * calls[rcb]
        out = {}
        for lid, layer in enumerate(self.layers):
            c = dict(self.counters[lid], calls=calls[lid])
            out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_s"] = self_s[lid]
            for stat in EXTRA_STATS.get(layer, ()):
                if stat in _RATIOS:
                    num, den = _RATIOS[stat]
                    # an uncalled layer reports 0, not 0/0
                    ratio = c.get(num, 0) / c[den] if c.get(den) else 0.0
                    out[f"{layer}.{stat}"] = ratio
                else:
                    out[f"{layer}.{stat}"] = c.get(stat, 0)
        return out

    def write_spans(self, path: str):
        """One CSV line per span: layer, parent span index, start, end."""
        with open(path, "w") as fh:
            fh.write("layer,parent,start,end\n")
            for i in range(len(self.span_layer)):
                fh.write(f"{self.layers[self.span_layer[i]]},{self.span_parent[i]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r}\n")
