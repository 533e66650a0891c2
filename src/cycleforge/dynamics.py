"""Singularity location and classification, and four-point configuration
checks.

Common zeros of (f, g) come from one separating frame: integer
coordinates (x, y) = M·(u, t) in which f or g has a constant leading
coefficient in u.  There Res_u(f, g)(t) vanishes identically exactly when
f and g share a factor, and each of its real roots is the t of a common
zero; a rational root is solved by the exact gcd of its two fibres, an
irrational one by the k-th subresultant of least k not vanishing there (a
bivariate rational univariate representation: Rouillier 1999; González-Vega
& El Kahoui 1996; Bouzidi, Lazard, Pouget & Rouillier 2015).  Every point
is certified by exact back-substitution: no step relies on floating point,
so determinant and trace signs (which the classification hinges on) are
exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .fields import VectorField, in_plane, square_factors
from .poly import MultiPoly, format_poly
from .resultants import multivariate_gcd, resultant, subresultant, substitute_ratio
from .roots import (
    RatInterval,
    RootLocation,
    gcd_univariate,
    poly_box_eval,
    poly_to_coeffs,
    real_roots,
    refine,
    sign_at_root,
)
from .scalars import scalar_sign


# frame coordinates (u, t); t is named s, the variable of the root
_US = ("u", "s")
_U = MultiPoly.var("u", _US)
_S = MultiPoly.var("s", _US)
_MINUS_S, _ONE = -_S, MultiPoly.const(1, _US)  # num and den of u = s
_IDENTITY, _SWAP = (1, 0, 0, 1), (0, 1, 1, 0)


def _frames():
    """Integer frames (a, b, c, e), meaning x = a*u + b*t, y = c*u + e*t:
    the identity, the swap, then the shears y = t - c*x for c = 1, -1, 2,
    -2, ..."""
    yield _IDENTITY
    yield _SWAP
    for c in itertools.count(1):
        yield (1, 0, -c, 1)
        yield (1, 0, c, 1)


def _in_frame(p: MultiPoly, frame: tuple) -> MultiPoly:
    """p at (x, y) = M·(u, t), a polynomial in (u, s)."""
    p = p.with_variables(("x", "y"))
    if frame == _IDENTITY:
        return p.renamed(_US)
    if frame == _SWAP:
        return p.renamed(("s", "u")).with_variables(_US)
    a, b, c, e = frame
    return p.substitute({"x": _U * a + _S * b,
                         "y": _U * c + _S * e}).with_variables(_US)


class CertifiedPoint:
    """One isolated common zero of (f, g), with exact sign queries.

    s is a real root from `real_roots`: a rational, or an isolating
    interval that carries its square-free polynomial D(s).  The point is
    M·(u, t) with u = -num(s)/den(s).  Either t = s, D is the square-free
    part of the resultant, and num = S_k,k-1 and den = k*S_kk come from
    the k-th subresultant S_k in u, whose fibre at s is S_kk*(u - u0)^k;
    or t is the rational t0 and u = s is a root of the fibre gcd.  The
    point is rational exactly when the root is; then it keeps only its
    coordinates, `exact`.
    """

    __slots__ = ("frame", "root", "num", "den", "t0", "exact")

    def __init__(self, frame: tuple, root: RootLocation,
                 num: MultiPoly, den: MultiPoly, t0: Optional[Fraction] = None):
        if isinstance(root, Fraction):  # keep the coordinates alone
            at = {"s": root}
            u = -num.eval_scalar(at) / den.eval_scalar(at)
            t = root if t0 is None else t0
            a, b, c, e = frame
            self.exact = (a * u + b * t, c * u + e * t)
            return
        self.exact = None
        self.frame, self.root = frame, root
        self.num, self.den, self.t0 = num, den, t0

    def sign_of(self, p: MultiPoly) -> int:
        """Exact sign of a polynomial in (x, y) at the point."""
        if self.exact is not None:
            x, y = self.exact
            return scalar_sign(p.eval_scalar({"x": x, "y": y}))
        q = _in_frame(p, self.frame)
        if self.t0 is not None:  # fix t; the root variable is u
            q = q.evaluate({"s": self.t0})
        m = max(q.degree_in("u"), 0)  # the zero polynomial has degree -1
        acc = substitute_ratio(q, "u", self.num, self.den)
        s_acc = sign_at_root(acc, self.root, "s")
        s_den = sign_at_root(self.den, self.root, "s")
        return s_acc * (s_den ** m)

    def enclosure(self, width: Fraction = Fraction(1, 10**9)) -> tuple:
        """(RatInterval x, RatInterval y) boxes of at most the given
        positive width, refined from the isolating interval at each call."""
        if width <= 0:
            raise ValueError(f"enclosure width must be positive, got {width}")
        if self.exact is not None:
            return tuple(RatInterval.point(v) for v in self.exact)
        a, b, c, e = self.frame
        iv = self.root
        while True:
            box = {"s": RatInterval(iv.lo, iv.hi)}
            den_box = poly_box_eval(self.den, box)
            if not den_box.contains_zero():
                u = -(poly_box_eval(self.num, box) / den_box)
                t = box["s"] if self.t0 is None else RatInterval.point(self.t0)
                bx, by = a * u + b * t, c * u + e * t
                if bx.width() <= width and by.width() <= width:
                    return bx, by
            iv = refine(iv, iv.width() / 4)

    def midpoint(self) -> tuple:
        bx, by = self.enclosure()
        return bx.midpoint(), by.midpoint()


class SingularPoint:
    __slots__ = ("point", "det_sign", "trace_sign", "kind", "index")
    point: CertifiedPoint
    det_sign: int
    trace_sign: int
    kind: str  # saddle | antisaddle_node | antisaddle_focus | linear_center | degenerate
    index: Optional[int]

    def __init__(self, point, det_sign, trace_sign, kind, index):
        self.point, self.det_sign, self.trace_sign = point, det_sign, trace_sign
        self.kind, self.index = kind, index

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


class SingularityReport:
    __slots__ = ("points", "degenerate_family", "reason")
    points: list
    degenerate_family: bool
    reason: Optional[str]

    def __init__(self, points, degenerate_family=False, reason=None):
        self.points, self.degenerate_family, self.reason = points, degenerate_family, reason

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

    Tries the frames in turn and uses the first one in which f or g has a
    constant leading coefficient in u and the fibre gcd at every
    irrational root of R(t) = Res_u(f, g) has a single root.  A frame
    fails only on a fibre that holds two common zeros; those rule out at
    most C(B, 2) directions (B = deg f * deg g, Bezout) besides the at
    most max(deg) without a constant leading coefficient.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("zero component has a non-isolated zero set")
    bezout = f.degree() * g.degree()
    tries = bezout * (bezout - 1) // 2 + max(f.degree(), g.degree()) + 1
    for frame in itertools.islice(_frames(), tries):
        F, G = (_in_frame(h, frame) for h in (f, g))
        if not any(h.coeffs_in("u")[-1].is_constant() for h in (F, G)):
            continue
        R = resultant(F, G, "u")
        if R.is_zero():
            raise ValueError(
                f"components share the factor {format_poly(multivariate_gcd(f, g))}; "
                "the solution set is not isolated"
            )
        points = _points_in_frame(F, G, R, frame)
        if points is not None:
            break
    else:
        raise RuntimeError(f"no frame of {tries} separates the common zeros")
    for pt in points:
        if pt.sign_of(f) or pt.sign_of(g):
            raise RuntimeError("a back-substituted point is not a common zero")
    return points


def _points_in_frame(F: MultiPoly, G: MultiPoly, R: MultiPoly, frame: tuple):
    """Common zeros of F and G over the real roots of R(s) = Res_u(F, G);
    None when the fibre at an irrational root holds two distinct zeros.

    There the fibre gcd is S_k(r, u) for the least k with S_kk(r) != 0
    (S_k the k-th subresultant in u, S_kj its coefficient of u^j), and
    the fibre holds one zero exactly when S_k(r, u) = S_kk*(u + num/den)^k
    with num = S_k,k-1 and den = k*S_kk.
    """
    # when both have degree m, S_m is the first operand: put first one
    # whose leading coefficient is constant
    pair = (F, G) if F.coeffs_in("u")[-1].is_constant() else (G, F)
    subs = {}  # k -> coefficients of S_k in u, over ("s",)
    points = []
    for r in real_roots(poly_to_coeffs(R, "s")):
        if isinstance(r, Fraction):
            fibre = gcd_univariate(*(poly_to_coeffs(h.evaluate({"s": r}), "u")
                                     for h in (F, G)))
            points += [CertifiedPoint(frame, u, _MINUS_S, _ONE, r)
                       for u in real_roots(fibre)]
            continue
        for k in range(1, max(F.degree_in("u"), G.degree_in("u")) + 1):
            if k not in subs:
                S = subresultant(*pair, "u", k)
                subs[k] = [c.with_variables(("s",)) for c in S.coeffs_in("u")]
            c = subs[k]
            if len(c) == k + 1 and sign_at_root(c[k], r, "s"):
                break
        else:
            return None
        num, den = c[k - 1], c[k] * k
        if any(sign_at_root(c[j] * den ** (k - j) - c[k] * num ** (k - j)
                            * math.comb(k, j), r, "s") for j in range(k - 1)):
            return None
        points.append(CertifiedPoint(frame, r, num, den))
    return points


def _jacobian_invariants(P: MultiPoly, Q: MultiPoly) -> tuple:
    """(det, trace, trace^2 - 4 det) of the Jacobian of (P, Q)."""
    det = P.diff("x") * Q.diff("y") - P.diff("y") * Q.diff("x")
    trace = P.diff("x") + Q.diff("y")
    return det, trace, trace * trace - 4 * det


def _report(f: MultiPoly, g: MultiPoly, P: MultiPoly, Q: MultiPoly,
            keep=lambda pt: True) -> SingularityReport:
    """The common zeros of (f, g) that `keep` accepts, classified by the
    Jacobian of (P, Q); a solver ValueError marks the family degenerate."""
    try:
        pts = _solve_pair(f, g)
    except ValueError as e:
        return SingularityReport(points=[], degenerate_family=True,
                                 reason=str(e))
    invariants = _jacobian_invariants(P, Q)
    return SingularityReport(
        points=[_classify(pt, *invariants) for pt in pts if keep(pt)])


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
    lx, ly = square_factors(fb.variables)
    return _report(fb.f, fb.g, fb.P, fb.Q, lambda pt: region == "all" or (
        pt.sign_of(lx) < 0 and pt.sign_of(ly) < 0))


def pair_report(f: MultiPoly, g: MultiPoly) -> SingularityReport:
    """Report for a bare polynomial pair: zeros of (f, g) classified by
    the Jacobian of (f, g) itself, no region filter."""
    f, g = in_plane(f, g)
    return _report(f, g, f, g)


# -- four-point configurations --------------------------------------------------------


# boxes this narrow that still leave an orientation open give up on it
_ORIENT_FLOOR = Fraction(1, 10**72)


def _orientation(pts: Sequence[CertifiedPoint]) -> Optional[int]:
    """Sign of det(b - a, c - a) for points (a, b, c): exact on exact
    points, else on boxes narrowed until the interval determinant excludes
    0; None when boxes of width _ORIENT_FLOOR still do not decide it."""
    if all(p.exact is not None for p in pts):
        (ax, ay), (bx, by), (cx, cy) = (p.exact for p in pts)
        return scalar_sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    width = Fraction(1, 10**9)
    while True:
        (ax, ay), (bx, by), (cx, cy) = (p.enclosure(width) for p in pts)
        s = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)).sign()
        if s is not None or width <= _ORIENT_FLOOR:
            return s
        width = width**2


class BerlinskiiResult:
    __slots__ = ("configuration", "orientation", "detail")
    configuration: str  # convex_alternating | triangle_config | not_applicable | counterexample
    orientation: Optional[str]  # for triangles: which type is inside
    detail: Optional[str]

    def __init__(self, configuration, orientation=None, detail=None):
        self.configuration, self.orientation, self.detail = configuration, orientation, detail

    def to_json(self) -> dict:
        out = {"configuration": self.configuration}
        if self.orientation:
            out["orientation"] = self.orientation
        if self.detail:
            out["detail"] = self.detail
        return out


def berlinskii_check(report: SingularityReport) -> BerlinskiiResult:
    """Saddle/antisaddle pattern of four simple singular points.

    Convex position with alternating indices holds exactly when the
    saddle-saddle segment crosses the antisaddle-antisaddle segment.
    Triangle position holds exactly when the point of the lone type lies
    inside the triangle of the other three.  Each predicate reads the
    certified orientations of the four point triples; three collinear
    points, or an orientation that boxes of width _ORIENT_FLOOR leave
    open, make the check not applicable.  Any other pattern is flagged as
    a counterexample (impossible for the families under study, so it
    signals an input or implementation error).
    """
    if report.degenerate_family or len(report.points) != 4:
        return BerlinskiiResult("not_applicable",
                                detail="needs exactly four points")
    if any(p.kind == "degenerate" for p in report.points):
        return BerlinskiiResult("not_applicable",
                                detail="degenerate point present")
    indices = [p.index for p in report.points]
    saddles = [i for i in range(4) if indices[i] == -1]
    others = [i for i in range(4) if indices[i] != -1]
    if len(saddles) == 2:  # segments ab and cd cross
        (a, b), (c, d) = saddles, others
        triples = [(a, b, c), (a, b, d), (c, d, a), (c, d, b)]
    elif len(saddles) in (1, 3):  # the lone point l is inside abc
        (lone,), (a, b, c) = sorted((saddles, others), key=len)
        triples = [(a, b, c), (a, b, lone), (b, c, lone), (c, a, lone)]
    else:
        return BerlinskiiResult("counterexample",
                                detail=f"all four indices are {indices[0]}")
    pts = [p.point for p in report.points]
    signs = [_orientation([pts[i] for i in t]) for t in triples]
    if not all(signs):
        return BerlinskiiResult("not_applicable",
                                detail="three points are collinear or undecided")
    if len(saddles) == 2:
        if signs[0] != signs[1] and signs[2] != signs[3]:
            return BerlinskiiResult("convex_alternating")
        return BerlinskiiResult(
            "counterexample",
            detail=f"saddles {saddles} and antisaddles {others} are not "
                   "alternate vertices of a convex quadrilateral")
    if len(set(signs)) == 1:
        side = "saddle_inside" if indices[lone] == -1 else "antisaddle_inside"
        return BerlinskiiResult("triangle_config", orientation=side)
    return BerlinskiiResult(
        "counterexample",
        detail=f"point {lone} of index {indices[lone]} is not inside the "
               f"triangle of points {[a, b, c]}")
