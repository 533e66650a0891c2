"""Focus quantities of a nondegenerate monodromic singularity.

The solver normalizes the linear part to (-y, x), then builds a formal
series H = x^2 + y^2 + h_3 + h_4 + ... so that the derivative of H along
the field reduces to sum_k L_k x^(2k+2).  The coefficients L_k are
polynomials in the remaining symbolic parameters; the first nonzero one
decides the stability of the focus, and all of them vanishing is necessary
for a center.

Each form h_m is kept as {(i, j): coefficient of x^i y^j} only while a
later degree reads it.  Degree k solves (x d/dy - y d/dx) h_k + P = L x^k,
P the degree-k part of F H_x + G H_y with F, G the nonlinear terms of the
field, in two sweeps: with c_i the coefficient of x^i y^(k-i), the equation
there is (k-i+1) c_(i-1) - (i+1) c_(i+1) + P_i = L [i = k].  The odd c_i
run forward from c_(-1) = 0, and at even k the last equation gives L; the
even c_i run back from c_(k+1) = 0, or at even k from the pinned c_k = 0:
even degrees pin the x^k coefficient.
Each P_i is summed from the stored degrees when its sweep reaches it.
The last two quantities are linear forms {degree d: weights on P_d,0..d}.
The circle mean of (x d/dy - y d/dx) h is zero, so the mean of P_k, the sum
of (i-1)!! (j-1)!! / (k-1)!! P_ij over even i, j, is L_N at k = 2N+2 and
L_(N-1) at k = 2N.  At k = 2N+1, and at N >= 2 at k = 2N, the sweep is a
fixed rational map T of P, so P_k weighs T^t applied to the weights its
coefficients have in L_N.  Every coefficient of a degree that reaches a
degree of a form adds its products with those weights when solved:
degrees 2N and 2N+1 are never swept, and degree 2N-1 is never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .poly import MultiPoly, format_poly
from .scalars import QuadExt, as_fraction, inverse, is_zero, scalar_sign


XY = ("x", "y")


def normalize_at(p: MultiPoly, q: MultiPoly, point: Sequence) -> tuple:
    """Translate a linear-center singularity to the origin and bring the
    linear part to (-y, x); returns (p, q, scale).

    The Jacobian [[a, b], [c, -a]] at `point` must be trace-free with
    positive rational determinant (numeric, not symbolic).  When it is the
    rotation already, this is the plain shift.  Otherwise p and q are taken
    at the affine map back from (u, v) = (y - y0, (a*(y - y0) - c*(x - x0))/w),
    w = sqrt(det), possibly in Q(sqrt d), and time is rescaled by w.  The
    caller divides the k-th quantity by scale**k for a sqrt(2) dilation.
    """
    p, q = MultiPoly._align(p, q)
    variables = p.variables
    if "x" not in variables or "y" not in variables:
        raise ValueError("field must use variables x and y")
    x0, y0 = point
    at = {"x": x0, "y": y0}  # the value and gradient of p and q there
    values = [h.evaluate(at) for r in (p, q) for h in (r, r.diff("x"), r.diff("y"))]
    if not all(v.is_constant() for v in values):
        raise ValueError("linear part depends on symbolic parameters")
    p0, a, b, q0, c, mg = (v.constant_value() for v in values)
    if not is_zero(p0) or not is_zero(q0):
        raise ValueError("point is not a singularity")
    if a + mg != 0:
        raise ValueError("Jacobian is not trace-free")
    det = a * mg - b * c
    if scalar_sign(det) <= 0:
        raise ValueError("Jacobian determinant is not positive")
    xv = MultiPoly.var("x", variables)
    yv = MultiPoly.var("y", variables)
    if a == 0 and b == -1 and c == 1:
        shift = {"x": xv + x0, "y": yv + y0}
        return p.substitute(shift), q.substitute(shift), 1
    if isinstance(det, QuadExt) and det.b:
        raise ValueError(f"Jacobian determinant {det} is irrational")
    det = as_fraction(det)
    w = QuadExt(0, Fraction(1, det.denominator), det.numerator * det.denominator)
    w = w if w.b else w.a
    # trace-free with positive det forces b*c < -a^2 <= 0, so c != 0
    inv_c = inverse(c)
    back = {"x": xv * (a * inv_c) + yv * (-w * inv_c) + x0, "y": xv + y0}
    pb, qb = p.substitute(back), q.substitute(back)
    return qb / w, (qb * a - pb * c) / det, 2


class LyapunovReport:
    __slots__ = ("quantities", "parameters")
    quantities: list  # L_1 .. L_N as MultiPoly in the parameters
    parameters: tuple

    def __init__(self, quantities, parameters):
        self.quantities, self.parameters = quantities, parameters

    def to_json(self) -> dict:
        return {
            "quantities": [format_poly(L) for L in self.quantities],
            "pinned": "ck0",  # the x^k coefficient is zero at even degrees k
            "parameters": list(self.parameters),
        }


def _mean(d: int) -> dict:
    """The circle mean of P_d as the form {d: weights on P_d,0..d}: that of
    x^i y^(d-i) over that of x^d, zero at odd i (d even)."""
    return {d: [Fraction(prod(range(i - 1, 0, -2)) * prod(range(d - i - 1, 0, -2)),
                         prod(range(d - 1, 0, -2))) if i % 2 == 0 else 0
                for i in range(d + 1)]}


def _sweep(k: int, coeff, zero: MultiPoly):
    """Yield (i, c_i) of the h solving (x d/dy - y d/dx) h + P = L x^k, chain
    by chain; coeff(i) gives P_i and is asked for once, when its chain needs
    it.  At even k, (None, L) follows the first chain."""
    c = zero
    for i in range(0, k, 2):  # odd c_(i+1) forward from c_(-1) = 0
        c = (c * (k - i + 1) + coeff(i)) / (i + 1)
        yield i + 1, c
    if k % 2 == 0:
        yield None, c + coeff(k)
    c = zero  # even c_i back from c_(k+1) = 0, or from the pinned c_k = 0
    for i in range(k - 1 + k % 2, 0, -2):
        c = (c * (i + 1) - coeff(i)) / (k - i + 1)
        yield i - 1, c


def lyapunov_quantities(
    p: MultiPoly,
    q: MultiPoly,
    count: int,
    jet: Optional[tuple] = None,
) -> LyapunovReport:
    """First `count` focus quantities of a field with linear part (-y, x).

    p and q are polynomials in x, y and parameter symbols, with exact
    linear parts -y and x.  At each even degree k the x^k coefficient of
    the series is pinned to zero; another pin would shift later quantities
    by multiples of earlier ones but never change which are zero.

    `jet` = (symbols, order) truncates every intermediate product to total
    degree <= order in the given symbols.  With order 1 this computes the
    exact linearization of each quantity in those symbols, which is all a
    first-order bifurcation analysis needs.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    p, q = MultiPoly._align(p, q)
    variables = p.variables
    params = tuple(v for v in variables if v not in XY)
    ring = params or variables  # where the coefficients of x^i y^j live
    F = p + MultiPoly.var("y", variables)
    G = q - MultiPoly.var("x", variables)
    if any(d <= 1 for h in (F, G) for d in h.graded(XY)):
        raise ValueError("linear part is not exactly (-y, x)")

    def trunc(r: MultiPoly) -> MultiPoly:
        return r if jet is None else r.truncated(*jet)

    Fc, Gc = ({e: c.with_variables(ring) for e, c in trunc(h).collect(XY).items()}
              for h in (F, G))
    zero, one = MultiPoly.zero(ring), MultiPoly.const(1, ring)
    top = max((sum(e) for e in (*Fc, *Gc)), default=2)
    # x^i y^j of h_(k+1-s) meets F_s and G_s at x^(i+u) y^(j+v), u + v = s - 1
    # and u, v >= -1, with factor i F_(u+1,v) + j G_(u,v+1) in F*H_x + G*H_y
    offsets = {s: [((u, s - 1 - u), Fc.get((u + 1, s - 1 - u)), Gc.get((u, s - u)))
                   for u in range(-1, s + 1)] for s in range(2, top + 1)}
    series = {2: {(2, 0): one, (0, 2): one}}  # h_m as {(i, j): coefficient}

    def factor(f, g, i: int, j: int) -> MultiPoly:
        return (f * i if f and i else zero) + (g * j if g and j else zero)

    def coeff(k: int, i: int) -> MultiPoly:
        """P_i of degree k, summed from the few sources that `offsets` names."""
        j = k - i
        terms = (trunc(c * w) for s, offs in offsets.items() for (u, v), f, g in offs
                 if (c := series.get(k + 1 - s, {}).get((i - u, j - v)))
                 and (w := factor(f, g, i - u, j - v)))
        return sum(terms, next(terms, zero))

    K = 2 * count + 1  # never swept: L_N is a fixed linear form in P_K

    def through(form: dict, m: int, i: int, j: int) -> MultiPoly:
        """Weight of c x^i y^j (degree m) in the quantity of `form`: the sum of
        w * form[d][i + u] over the products w of c x^i y^j that land in P_d."""
        return trunc(sum((w * vec[i + u] for d, vec in form.items()
                          for (u, v), f, g in offsets.get(d + 1 - m, ())
                          if (w := factor(f, g, i, j)) and vec[i + u]), zero))

    # c_d = T P_d, so P_d,j weighs psi_j = sum_i T_ij omega_i in L_N, with
    # omega_i the weight of c_d,i; at N >= 2 degree 2N folds too
    L_N = _mean(K + 1)
    for d in (K, K - 1) if count >= 2 else (K,):
        omega = [through(L_N, d, i, d - i) for i in range(d + 1)]
        cols = [dict(_sweep(d, lambda i: Fraction(i == j), Fraction(0)))
                for j in range(d + 1)]
        L_N[d] = [sum((omega[i] * t for i, t in col.items() if i is not None and t), zero)
                  for col in cols]
    first = min(L_N)  # the first degree not swept
    forms = [_mean(K - 1), L_N] if count >= 2 else [L_N][:count]
    quantities: list = []
    folded = [zero] * len(forms)  # L_(N-1) and L_N as they accumulate

    def solved(k: int, i: int, c: MultiPoly) -> None:
        """Add c x^i y^(k-i) to the folded quantities through their forms."""
        for n, form in enumerate(forms):
            folded[n] += trunc(c * through(form, k, i, k - i))

    # h_2 = x^2 + y^2 and each coefficient of degree > first - top reach a
    # degree of a form
    if count and first - top < 2:
        for i in (0, 2):
            solved(2, i, one)
    for k in range(3, first):
        series[k] = h = {}  # stays empty at first - 1, which only the forms read
        for i, c in _sweep(k, lambda i: coeff(k, i), zero):
            if i is None:
                quantities.append(c)
            elif c:
                if k > first - top:
                    solved(k, i, c)
                if k < first - 1:
                    h[i, k - i] = c
        series.pop(k + 1 - top, None)  # no later degree reads it
    return LyapunovReport(quantities=quantities + folded, parameters=params)


def linear_parts_in(report: LyapunovReport, symbols: Sequence[str]) -> list:
    """Gradient rows of the quantities in the chosen symbols.

    Row j holds the coefficients of each symbol in L_{j+1}, as polynomials
    in the remaining parameters; terms of degree >= 2 in the symbols are
    dropped.  Raises when some quantity has a nonzero symbol-free part,
    since a first-order analysis needs the quantities to vanish at
    symbols = 0.
    """
    symbols = tuple(symbols)
    rows = []
    for n, L in enumerate(report.quantities, start=1):
        present = [s for s in symbols if s in L.variables]
        rest = tuple(v for v in L.variables if v not in symbols)
        parts = L.graded(present)
        if 0 in parts:
            raise ValueError(f"quantity {n} does not vanish at {symbols} = 0")
        linear = parts.get(1, MultiPoly.zero(L.variables))
        rows.append([
            linear.coeff_of(s, 1).with_variables(rest) if s in present
            else MultiPoly.zero(rest)
            for s in symbols
        ])
    return rows

