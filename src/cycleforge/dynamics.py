"""Singularity location and classification, index identities, four-point
configuration checks, and contact points on lines.

Common zeros of (f, g) are found by resultant elimination plus Sturm
isolation, then certified by exact back-substitution: no step relies on
floating point, so determinant and trace signs (which the classification
hinges on) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .centers import cofactor
from .fields import VectorField
from .poly import MultiPoly, format_poly, parse_poly
from .resultants import (
    first_subresultant,
    multivariate_gcd,
    resultant,
    substitute_ratio,
)
from .roots import (
    IsolatingInterval,
    RatInterval,
    RootLocation,
    coeffs_to_poly,
    gcd_univariate,
    poly_box_eval,
    poly_to_coeffs,
    real_roots,
    refine,
    sign_at_root,
    squarefree_part,
)
from .scalars import scalar_sign


class DegenerateElimination(ArithmeticError):
    """Valid input whose zeros no elimination order can back-substitute."""


def _iv_div(a: RatInterval, b: RatInterval) -> RatInterval:
    if b.contains_zero():
        raise ZeroDivisionError("interval denominator straddles zero")
    vals = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi]
    return RatInterval(min(vals), max(vals))


class CertifiedPoint:
    """One isolated common zero of (f, g), with exact sign queries.

    Two shapes: both coordinates rational; or the `base` coordinate an
    isolated real root of a univariate defining polynomial with the other
    coordinate -num/den evaluated there.  num and den are the first
    subresultant's coefficients, or the constants -value and 1 when the
    other coordinate is a rational value.
    """

    def __init__(self, kind: str, **data):
        self.kind = kind  # "rational" | "func"
        self.data = data

    # -- constructors -------------------------------------------------------

    @staticmethod
    def rational(x: Fraction, y: Fraction) -> "CertifiedPoint":
        return CertifiedPoint("rational", x=x, y=y)

    @staticmethod
    def on_curve(base_var: str, root: IsolatingInterval, defining: MultiPoly,
                 num: MultiPoly, den: MultiPoly) -> "CertifiedPoint":
        """The base_var coordinate is `root` of `defining`; the other is
        -num/den evaluated there."""
        return CertifiedPoint(
            "func", base_var=base_var, root=root, defining=defining,
            num=num, den=den,
        )

    # -- queries -------------------------------------------------------------

    def sign_of(self, p: MultiPoly) -> int:
        """Exact sign of a polynomial in (x, y) at the point."""
        d = self.data
        if self.kind == "rational":
            return scalar_sign(p.eval_scalar({"x": d["x"], "y": d["y"]}))
        base = d["base_var"]
        other = "y" if base == "x" else "x"
        m = p.degree_in(other)
        m = 0 if not isinstance(m, int) else m
        acc = substitute_ratio(p, other, d["num"], d["den"]).with_variables((base,))
        s_acc = sign_at_root(acc, d["defining"], d["root"], base)
        s_den = sign_at_root(d["den"], d["defining"], d["root"], base)
        return s_acc * (s_den ** m)

    def enclosure(self, width: Fraction = Fraction(1, 10**9)) -> tuple:
        """(RatInterval x, RatInterval y) boxes of at most the given width."""
        d = self.data
        if self.kind == "rational":
            return RatInterval.point(d["x"]), RatInterval.point(d["y"])
        iv = d["root"]
        sf = squarefree_part(poly_to_coeffs(d["defining"]))
        while True:
            base_box = RatInterval(iv.lo, iv.hi)
            den_box = poly_box_eval(d["den"], {d["base_var"]: base_box})
            if not den_box.contains_zero():
                num_box = poly_box_eval(d["num"], {d["base_var"]: base_box})
                other_box = -_iv_div(num_box, den_box)
                if base_box.width() <= width and other_box.width() <= width:
                    d["root"] = iv
                    if d["base_var"] == "x":
                        return base_box, other_box
                    return other_box, base_box
            iv = refine(sf, iv, iv.width() / 4)

    def midpoint(self) -> tuple:
        bx, by = self.enclosure()
        return bx.midpoint(), by.midpoint()


@dataclass
class SingularPoint:
    point: CertifiedPoint
    det_sign: int
    trace_sign: int
    kind: str  # saddle | antisaddle_node | antisaddle_focus | linear_center | degenerate
    index: Optional[int]

    def to_json(self) -> dict:
        bx, by = self.point.enclosure()

        def loc(b: RatInterval):
            if b.lo == b.hi:
                return str(b.lo)
            return [str(b.lo), str(b.hi)]

        return {
            "location": {"x": loc(bx), "y": loc(by)},
            "jacobian_det_sign": self.det_sign,
            "trace_sign": self.trace_sign,
            "type": self.kind,
            "index": self.index,
        }


@dataclass
class SingularityReport:
    points: list
    degenerate_family: bool = False
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {"points": [p.to_json() for p in self.points],
               "degenerate_family": self.degenerate_family}
        if self.reason:
            out["reason"] = self.reason
        return out


def _classify(pt: CertifiedPoint, det: MultiPoly, trace: MultiPoly,
              discr: MultiPoly) -> SingularPoint:
    ds = pt.sign_of(det)
    if ds < 0:
        return SingularPoint(pt, ds, pt.sign_of(trace), "saddle", -1)
    if ds == 0:
        return SingularPoint(pt, 0, pt.sign_of(trace), "degenerate", None)
    ts = pt.sign_of(trace)
    if ts == 0:
        return SingularPoint(pt, ds, 0, "linear_center", 1)
    kind = "antisaddle_focus" if pt.sign_of(discr) < 0 else "antisaddle_node"
    return SingularPoint(pt, ds, ts, kind, 1)


def _solve_pair(f: MultiPoly, g: MultiPoly) -> list:
    """All isolated common zeros of f and g as CertifiedPoints.

    Eliminates x first; roots of the resultant in y are back-substituted
    exactly.  Rational y-roots (including every case where a leading
    coefficient in x vanishes: substitution needs no degree assumption)
    go through a direct univariate gcd; irrational ones use the first
    subresultant, falling back to eliminating y instead when it vanishes
    at the root.
    """
    f, g = MultiPoly._align(f, g)
    f = f.with_variables(("x", "y"))
    g = g.with_variables(("x", "y"))
    if f.is_zero() or g.is_zero():
        raise ValueError("zero component has a non-isolated zero set")
    common = multivariate_gcd(f, g)
    if not common.is_constant():
        raise ValueError(
            f"components share the factor {format_poly(common)}; "
            "the solution set is not isolated"
        )
    points = _eliminate_once(f, g, "x")
    if points is None:
        points = _eliminate_once(f, g, "y")
        if points is None:
            raise DegenerateElimination(
                "back-substitution degenerated in both elimination orders"
            )
    return points


def _eliminate_once(f: MultiPoly, g: MultiPoly, var: str):
    """Solve by eliminating `var`; None when the first subresultant
    vanishes at an irrational base root (caller retries the other order).

    A component free of `var` needs no special case: the resultant is then
    a power of it, with the same roots, and the first subresultant is the
    other component's coefficients when that one is linear in `var`, else
    zero.
    """
    other = "y" if var == "x" else "x"
    R = resultant(f, g, var)
    if R.is_zero():
        raise ValueError("resultant vanished identically despite trivial gcd")
    if R.is_constant():
        return []
    Ru = R.with_variables((other,))
    s1 = s0 = None
    points = []
    for r in real_roots(poly_to_coeffs(Ru, other)):
        if isinstance(r, Fraction):
            fu = f.evaluate({other: r}).with_variables((var,))
            gu = g.evaluate({other: r}).with_variables((var,))
            points.extend(_pair_at_rational(fu, gu, var, other, r))
            continue
        if s1 is None:
            s1, s0 = first_subresultant(f, g, var)
            s1 = s1.with_variables((other,))
            s0 = s0.with_variables((other,))
        dy = Ru
        if sign_at_root(s1, dy, r, other) == 0:
            return None
        # verify both components vanish at (var = -s0/s1, other = r)
        ok = True
        for h in (f, g):
            comp = substitute_ratio(h, var, s0, s1).with_variables((other,))
            if sign_at_root(comp, dy, r, other) != 0:
                ok = False
                break
        if ok:
            points.append(CertifiedPoint.on_curve(other, r, dy, s0, s1))
    return points


def _pair_at_rational(fu: MultiPoly, gu: MultiPoly, var: str,
                      other: str, val: Fraction) -> list:
    """Common zeros of two univariate polynomials in `var`, with the
    `other` coordinate fixed at the rational `val`."""
    fc = poly_to_coeffs(fu, var)
    gc = poly_to_coeffs(gu, var)
    if not fc and not gc:
        raise ValueError("both components vanish identically on a line")
    if not fc or not gc:
        coeffs = gc or fc
    else:
        coeffs = gcd_univariate(fc, gc)
    if len(coeffs) <= 1:
        return []
    defining = coeffs_to_poly(coeffs, var)
    out = []
    for r in real_roots(coeffs):
        if isinstance(r, Fraction):
            x, y = (r, val) if var == "x" else (val, r)
            out.append(CertifiedPoint.rational(x, y))
        else:
            out.append(CertifiedPoint.on_curve(
                var, r, defining, MultiPoly.const(-val, (var,)),
                MultiPoly.const(1, (var,))))
    return out


def _jacobian_invariants(P: MultiPoly, Q: MultiPoly) -> tuple:
    """(det, trace, trace^2 - 4 det) of the Jacobian of (P, Q)."""
    det = P.diff("x") * Q.diff("y") - P.diff("y") * Q.diff("x")
    trace = P.diff("x") + Q.diff("y")
    return det, trace, trace * trace - 4 * det


def _in_delta(pt: CertifiedPoint, lx: MultiPoly, ly: MultiPoly) -> bool:
    return pt.sign_of(lx) < 0 and pt.sign_of(ly) < 0


def singularities_in_delta(
    field: VectorField,
    binding: Optional[Mapping] = None,
    region: str = "delta",
) -> SingularityReport:
    """Certified singular points of the field, classified by the Jacobian
    of the full components (P, Q).

    In the open square both line factors are nonzero, so singularities
    there are exactly the common zeros of (f, g).  region="all" skips the
    square filter (useful for raw polynomial pairs under test harnesses).
    """
    if region not in ("delta", "all"):
        raise ValueError("region must be 'delta' or 'all'")
    fb = field.bind(dict(binding or {}))
    try:
        pts = _solve_pair(fb.f, fb.g)
    except ValueError as e:
        return SingularityReport(points=[], degenerate_family=True,
                                 reason=str(e))
    invariants = _jacobian_invariants(fb.P, fb.Q)
    vs = fb.f.variables
    lx = parse_poly("4*x^2 - 1", vs)
    ly = parse_poly("4*y^2 - 1", vs)
    out = []
    for pt in pts:
        if region == "delta" and not _in_delta(pt, lx, ly):
            continue
        out.append(_classify(pt, *invariants))
    return SingularityReport(points=out)


def pair_report(f: MultiPoly, g: MultiPoly) -> SingularityReport:
    """Report for a bare polynomial pair: zeros of (f, g) classified by
    the Jacobian of (f, g) itself, no region filter."""
    f, g = MultiPoly._align(f, g)
    try:
        pts = _solve_pair(f, g)
    except ValueError as e:
        return SingularityReport(points=[], degenerate_family=True,
                                 reason=str(e))
    invariants = _jacobian_invariants(f, g)
    return SingularityReport(points=[_classify(p, *invariants) for p in pts])


# -- index identity -----------------------------------------------------------------


def index_lemma_check(f: MultiPoly, g: MultiPoly, u: MultiPoly, v: MultiPoly,
                      p: Sequence) -> dict:
    """det D(u*f, v*g)(p) = u(p)*v(p)*det D(f, g)(p) at a common zero p.

    Exact for rational points; raises when p is not a common zero.
    """
    x0, y0 = Fraction(p[0]), Fraction(p[1])
    at = {"x": x0, "y": y0}
    allvars = tuple(dict.fromkeys(
        ("x", "y") + tuple(s for q in (f, g, u, v) for s in q.variables)
    ))
    f, g, u, v = (q.with_variables(allvars) for q in (f, g, u, v))
    if f.eval_scalar(at) != 0 or g.eval_scalar(at) != 0:
        raise ValueError("point is not a common zero of f and g")
    F, G = u * f, v * g
    lhs = (F.diff("x") * G.diff("y") - F.diff("y") * G.diff("x")).eval_scalar(at)
    det = (f.diff("x") * g.diff("y") - f.diff("y") * g.diff("x")).eval_scalar(at)
    rhs = u.eval_scalar(at) * v.eval_scalar(at) * det
    return {"lhs": lhs, "rhs": rhs, "holds": lhs == rhs}


# -- four-point configurations --------------------------------------------------------


def _orient(a: tuple, b: tuple, c: tuple) -> int:
    return scalar_sign((b[0] - a[0]) * (c[1] - a[1])
                       - (b[1] - a[1]) * (c[0] - a[0]))


def _convex_hull(coords: list) -> list:
    """Indices of hull vertices in counterclockwise order (exact arithmetic)."""
    idx = sorted(range(len(coords)), key=lambda i: coords[i])
    if len(idx) <= 2:
        return idx

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and _orient(coords[out[-2]], coords[out[-1]],
                                            coords[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = half(idx)
    upper = half(reversed(idx))
    return lower[:-1] + upper[:-1]


@dataclass
class BerlinskiiResult:
    configuration: str  # convex_alternating | triangle_config | not_applicable | counterexample
    orientation: Optional[str] = None  # for triangles: which type is inside
    detail: Optional[str] = None

    def to_json(self) -> dict:
        out = {"configuration": self.configuration}
        if self.orientation:
            out["orientation"] = self.orientation
        if self.detail:
            out["detail"] = self.detail
        return out


def berlinskii_check(report: SingularityReport) -> BerlinskiiResult:
    """Saddle/antisaddle pattern of four simple singular points.

    Convex position: indices must alternate around the hull.  Triangle
    position: the three outer points must share one type with the inner
    point of the opposite type.  Any other pattern is flagged as a
    counterexample (impossible for the families under study, so it signals
    an input or implementation error).
    """
    if report.degenerate_family or len(report.points) != 4:
        return BerlinskiiResult("not_applicable",
                                detail="needs exactly four points")
    if any(p.kind == "degenerate" for p in report.points):
        return BerlinskiiResult("not_applicable",
                                detail="degenerate point present")
    coords = [p.point.midpoint() for p in report.points]
    indices = [p.index for p in report.points]
    hull = _convex_hull(coords)
    if len(hull) == 4:
        ring = [indices[i] for i in hull]
        if all(ring[i] != ring[(i + 1) % 4] for i in range(4)):
            return BerlinskiiResult("convex_alternating")
        return BerlinskiiResult("counterexample",
                                detail=f"hull indices {ring} do not alternate")
    if len(hull) == 3:
        inner = next(i for i in range(4) if i not in hull)
        outer = [indices[i] for i in hull]
        if len(set(outer)) == 1 and indices[inner] == -outer[0]:
            side = "saddle_inside" if indices[inner] == -1 else "antisaddle_inside"
            return BerlinskiiResult("triangle_config", orientation=side)
        return BerlinskiiResult(
            "counterexample",
            detail=f"triangle indices outer={outer} inner={indices[inner]}",
        )
    return BerlinskiiResult("not_applicable", detail="points are collinear")


def index_sum(report: SingularityReport) -> Optional[int]:
    if any(p.index is None for p in report.points):
        return None
    return sum(p.index for p in report.points)


# -- contact points ------------------------------------------------------------------


@dataclass
class ContactPoint:
    location: RootLocation  # along the line parameter
    x: object
    y: object
    simple: bool


def contact_points(field: VectorField, line: Sequence,
                   binding: Optional[Mapping] = None) -> list:
    """Certified tangency points of the flow with the line a*x + b*y + c = 0.

    The contact function is <X, (a, b)> restricted to the line; an
    invariant line is rejected (every point would be a contact point).
    """
    a, b, c = (Fraction(t) for t in line)
    if a == 0 and b == 0:
        raise ValueError("not a line")
    fb = field.bind(dict(binding or {}))
    vs = fb.f.variables
    xv = MultiPoly.var("x", vs)
    yv = MultiPoly.var("y", vs)
    if cofactor(fb, xv * a + yv * b + c) is not None:
        raise ValueError("line is invariant: infinitely many contact points")
    H = fb.P * a + fb.Q * b
    if b != 0:
        # parametrize by x: y = -(a*x + c)/b
        sub = {"y": xv * (-a / b) + Fraction(-c, 1) / b}
        Hu = H.substitute(sub).with_variables(("x",))
        var = "x"
    else:
        sub = {"x": MultiPoly.const(Fraction(-c, 1) / a, vs)}
        Hu = H.substitute(sub).with_variables(("y",))
        var = "y"
    coeffs = poly_to_coeffs(Hu, var)
    if not coeffs:
        raise ValueError("contact function vanishes identically on the line")
    if len(coeffs) == 1:
        return []
    dHu = Hu.diff(var)
    out = []
    for r in real_roots(coeffs):
        simple = sign_at_root(dHu, Hu, r, var) != 0
        t = r.midpoint() if isinstance(r, IsolatingInterval) else r
        if b != 0:
            x, y = t, -(a * t + c) / b
        else:
            x, y = -c / a, t
        out.append(ContactPoint(location=r, x=x, y=y, simple=simple))
    return out
