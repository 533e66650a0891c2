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
even c_i run from the pinned one at even k, else back from c_(k+1) = 0.
Each P_i is summed from the stored degrees when its sweep reaches it.
The circle mean of (x d/dy - y d/dx) h is zero, so L_N = sum of
(i-1)!! (j-1)!! / (k-1)!! P_ij over even i, j at k = 2N+2.  At odd
k = 2N+1 the sweep is a fixed rational map T of P, so its share of L_N is
T^t applied to those circle weights: every coefficient of a degree that
reaches 2N+1 or 2N+2 adds its product with a small fixed weight to L_N
when solved, and degree 2N+1 is never swept nor degree 2N stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .poly import MultiPoly, format_poly
from .scalars import QuadExt, inverse, is_zero, scalar_sign, squarefree_decompose


XY = ("x", "y")


def _linear_data(p: MultiPoly):
    """Constant term and the two linear coefficients of p in (x, y).

    Raises if any of them involves other symbols: the linear part must be
    numeric for the normalization to make sense.
    """
    parts = p.collect(XY)
    zero = MultiPoly.zero(p.variables)
    low = [parts.get(m, zero) for m in ((0, 0), (1, 0), (0, 1))]
    if not all(c.is_constant() for c in low):
        raise ValueError("linear part depends on symbolic parameters")
    return tuple(c.constant_value() for c in low)


def sqrt_scalar(q: Fraction):
    """Exact square root of a positive rational, as Fraction or QuadExt."""
    if q <= 0:
        raise ValueError("square root of a nonpositive value")
    s, k = squarefree_decompose(q.numerator * q.denominator)
    if s == 1:
        return Fraction(k, q.denominator)
    return QuadExt(0, Fraction(k, q.denominator), s)


@dataclass
class NormalizedField:
    """A field with linear part (-y, x) at the origin, in shifted and
    linearly transformed coordinates.

    `quantity_scale` records a residual coordinate dilation s with rational
    s^2: the solver divides the k-th quantity by quantity_scale**k, which is
    exactly the effect the dilation would have.  Materializing s itself
    could need a second radical, so it is applied to the output instead.
    """

    p: MultiPoly
    q: MultiPoly
    point: tuple
    omega: object  # time rescale factor, sqrt(det DX)
    radicand: int  # 1 when the normalization stays rational
    quantity_scale: Fraction = Fraction(1)


def normalize_at(p: MultiPoly, q: MultiPoly, point: Sequence) -> NormalizedField:
    """Translate a linear-center singularity to the origin and bring the
    linear part to (-y, x).

    The Jacobian [[a, b], [c, -a]] at `point` must be trace-free with
    positive determinant (numeric, not symbolic).  When it is already the
    standard rotation the normalization is the identity.  Otherwise the
    change of variables is the phase-plane form of the second coordinate,
    (u, v) = sqrt(2) * (y, -(c*x - a*y)/w) with w = sqrt(det), followed by
    a time rescale by w; the sqrt(2) dilation is deferred to
    `quantity_scale`.  The result may live over a quadratic extension when
    det is not a perfect square.
    """
    p, q = MultiPoly._align(p, q)
    variables = p.variables
    if "x" not in variables or "y" not in variables:
        raise ValueError("field must use variables x and y")
    x0, y0 = point
    xv = MultiPoly.var("x", variables)
    yv = MultiPoly.var("y", variables)
    shift = {"x": xv + x0, "y": yv + y0}
    pt = p.substitute(shift)
    qt = q.substitute(shift)
    p0, a, b = _linear_data(pt)
    q0, c, mg = _linear_data(qt)
    if not is_zero(p0) or not is_zero(q0):
        raise ValueError("point is not a singularity")
    if a + mg != 0:
        raise ValueError("Jacobian is not trace-free")
    det = a * mg - b * c
    if scalar_sign(det) <= 0:
        raise ValueError("Jacobian determinant is not positive")
    if a == 0 and b == -1 and c == 1:
        return NormalizedField(
            p=pt, q=qt, point=tuple(point), omega=Fraction(1), radicand=1
        )
    # trace-free with positive det forces b*c < -a^2 <= 0, so b, c != 0
    omega = sqrt_scalar(Fraction(det))
    # (u, v) = (y, -(c*x - a*y)/w); inverse: y = u, x = (a*u - w*v)/c
    back = {"x": xv * (a / c) + yv * (-omega / c), "y": xv}
    fh = pt - (xv * a + yv * b)  # nonlinear remainder of p
    gh = qt - (xv * c + yv * (-a))
    fs = fh.substitute(back)
    gs = gh.substitute(back)
    inv_w = inverse(omega)
    pn = -yv + gs * inv_w
    qn = xv - (fs * c - gs * a) * (inv_w * inv_w)
    d = omega.d if isinstance(omega, QuadExt) else 1
    return NormalizedField(
        p=pn,
        q=qn,
        point=tuple(point),
        omega=omega,
        radicand=d,
        quantity_scale=Fraction(2),
    )


@dataclass
class LyapunovReport:
    quantities: list  # L_1 .. L_N as MultiPoly in the parameters
    pinned: str  # which series coefficient is set to zero at even degrees
    parameters: tuple

    def to_json(self) -> dict:
        return {
            "quantities": [format_poly(L) for L in self.quantities],
            "pinned": self.pinned,
            "parameters": list(self.parameters),
        }


def _circle_weight(i: int, j: int) -> Fraction:
    """Circle mean of x^i y^j over that of x^(i+j), i and j even."""
    return Fraction(prod(range(i - 1, 0, -2)) * prod(range(j - 1, 0, -2)),
                    prod(range(i + j - 1, 0, -2)))


def _sweep(k: int, coeff, pin: str, zero: MultiPoly):
    """Yield (i, c_i) of the h solving (x d/dy - y d/dx) h + P = L x^k, chain
    by chain; coeff(i) gives P_i and is asked for once, when its chain needs
    it.  At even k, (None, L) follows the first chain."""
    c = zero
    for i in range(0, k, 2):  # odd c_(i+1) forward from c_(-1) = 0
        c = (c * (k - i + 1) + coeff(i)) / (i + 1)
        yield i + 1, c
    if k % 2 == 0:
        yield None, c + coeff(k)
    c = zero  # even c_i: on from a pinned c_0, or back from c_(k+1) or c_k = 0
    if k % 2 == 0 and pin == "c0k":
        for i in range(1, k, 2):
            c = (c * (k - i + 1) + coeff(i)) / (i + 1)
            yield i + 1, c
    else:
        for i in range(k - 1 + k % 2, 0, -2):
            c = (c * (i + 1) - coeff(i)) / (k - i + 1)
            yield i - 1, c


def lyapunov_quantities(
    p: MultiPoly,
    q: MultiPoly,
    count: int,
    pin: str = "ck0",
    jet: Optional[tuple] = None,
    quantity_scale: Fraction = Fraction(1),
) -> LyapunovReport:
    """First `count` focus quantities of a field with linear part (-y, x).

    p and q are polynomials in x, y and parameter symbols, with exact
    linear parts -y and x.  `pin` selects which series coefficient is set
    to zero at each even degree k ("c0k" pins the y^k coefficient, "ck0"
    the x^k one); the choice shifts later quantities by multiples of
    earlier ones but never changes which are zero.

    `jet` = (symbols, order) truncates every intermediate product to total
    degree <= order in the given symbols.  With order 1 this computes the
    exact linearization of each quantity in those symbols, which is all a
    first-order bifurcation analysis needs.

    `quantity_scale` divides L_k by scale**k (see NormalizedField).
    """
    if pin not in ("c0k", "ck0"):
        raise ValueError("pin must be 'c0k' or 'ck0'")
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

    def weight(m: int, i: int, j: int) -> MultiPoly:
        """Weight of c x^i y^j of degree m in L_N: through P_K and psi, and
        through the circle mean of its products at degree K + 1."""
        s = K + 1 - m
        ws = [w * psi[i + u] for (u, v), f, g in offsets.get(s, ())
              if (w := factor(f, g, i, j))]
        ws += [w * _circle_weight(i + u, j + v) for (u, v), f, g in offsets.get(s + 1, ())
               if (i + u) % 2 == 0 and (w := factor(f, g, i, j))]
        return trunc(sum(ws, zero))

    # c_K = T P_K, so P_K,j weighs psi_j = sum_i T_ij omega_i with omega_i the
    # weight of c_K,i, which reaches L_N through degree K + 1 only (psi unread)
    omega = [weight(K, i, K - i) for i in range(K + 1)]
    psi = [sum((omega[i] * t for i, t in _sweep(K, lambda i: Fraction(i == j), pin,
                                                Fraction(0)) if t), zero)
           for j in range(K + 1)]

    quantities: list = []
    # L_N: h_2 = x^2 + y^2 and each coefficient of degree > K - top add to it
    L_top = sum((weight(2, i, 2 - i) for i in (0, 2) if count and K - top < 2), zero)
    for k in range(3, K):
        series[k] = h = {}  # stays empty at 2N, which only L_N reads
        for i, c in _sweep(k, lambda i: coeff(k, i), pin, zero):
            if i is None:
                quantities.append(c)
            elif c:
                if k > K - top:
                    L_top += trunc(c * weight(k, i, k - i))
                if k < K - 1:
                    h[i, k - i] = c
        series.pop(k + 1 - top, None)  # no later degree reads it
    if count:
        quantities.append(L_top)
    if quantity_scale != 1:
        quantities = [L * (Fraction(1) / quantity_scale ** n)
                      for n, L in enumerate(quantities, start=1)]
    return LyapunovReport(quantities=quantities, pinned=pin, parameters=params)


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


def focus_stability(report: LyapunovReport, bindings: Optional[dict] = None):
    """Sign of the first nonzero quantity at the given parameter values.

    Returns (index, sign) or (None, 0) when all evaluated quantities
    vanish; negative sign means a stable focus.
    """
    for i, L in enumerate(report.quantities, start=1):
        val = L.eval_scalar(bindings or {})
        s = scalar_sign(val)
        if s:
            return i, s
    return None, 0
