"""Focus quantities of a nondegenerate monodromic singularity.

The solver normalizes the linear part to (-y, x), then builds a formal
series H = x^2 + y^2 + higher terms so that the derivative of H along the
field reduces to sum_k L_k x^(2k+2).  The coefficients L_k are polynomials
in the remaining symbolic parameters; the first nonzero one decides the
stability of the focus, and all of them vanishing is necessary for a
center.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import ExactMatrix, solve_linear_exact
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
    p, q = MultiPoly._align(p, q)
    variables = p.variables
    params = tuple(v for v in variables if v not in XY)
    xv = MultiPoly.var("x", variables)
    yv = MultiPoly.var("y", variables)
    F = p + yv
    G = q - xv
    if any(d <= 1 for h in (F, G) for d in h.graded(XY)):
        raise ValueError("linear part is not exactly (-y, x)")
    if jet is not None:
        jet_syms, jet_order = jet

        def trunc(r: MultiPoly) -> MultiPoly:
            return r.truncated(jet_syms, jet_order)

    else:

        def trunc(r: MultiPoly) -> MultiPoly:
            return r

    Fp = trunc(F).graded(XY)
    Gp = trunc(G).graded(XY)
    max_degree = 2 * count + 2
    # pending[k] = degree-k part (in x, y) of F*H_x + G*H_y accumulated so far
    pending: dict = {}

    def accumulate(hm: MultiPoly, m: int):
        hx = hm.diff("x")
        hy = hm.diff("y")
        for s, fpart in Fp.items():
            d = m - 1 + s
            if d <= max_degree:
                t = trunc(fpart * hx)
                pending[d] = pending.get(d, MultiPoly.zero(variables)) + t
        for s, gpart in Gp.items():
            d = m - 1 + s
            if d <= max_degree:
                t = trunc(gpart * hy)
                pending[d] = pending.get(d, MultiPoly.zero(variables)) + t

    accumulate(xv * xv + yv * yv, 2)
    quantities: list = []
    param_zero = MultiPoly.zero(variables)
    for k in range(3, max_degree + 1):
        mons = [(k - i, i) for i in range(k + 1)]  # (x-exp, y-exp), x first
        row_of = {mon: r for r, mon in enumerate(mons)}
        ncols = len(mons) + (1 if k % 2 == 0 else 0)
        A = [[Fraction(0)] * ncols for _ in mons]
        # rotation operator: x*d/dy - y*d/dx on each basis monomial
        for col, (i, j) in enumerate(mons):
            if i:
                A[row_of[(i - 1, j + 1)]][col] += -i
            if j:
                A[row_of[(i + 1, j - 1)]][col] += j
        if k % 2 == 0:
            A[row_of[(k, 0)]][len(mons)] = Fraction(-1)
        # degree k is solved here and never read again
        parts = pending.pop(k, param_zero).collect(XY)
        b = [-parts.get(mon, param_zero) for mon in mons]
        order = list(range(ncols))
        if k % 2 == 0:
            pin_col = row_of[(0, k)] if pin == "c0k" else row_of[(k, 0)]
            order.remove(pin_col)
            order.append(pin_col)
        sol = solve_linear_exact(ExactMatrix(A), b, column_order=order)
        if sol.kind == "inconsistent":
            raise ArithmeticError(f"series solve failed at degree {k}")
        hk = MultiPoly.from_collected(
            XY, {mon: sol.solution[col] for col, mon in enumerate(mons)}, variables
        )
        if k % 2 == 0:
            Lk = sol.solution[len(mons)]
            if not isinstance(Lk, MultiPoly):
                Lk = MultiPoly.const(Lk, variables)
            if quantity_scale != 1:
                Lk = Lk * (Fraction(1) / quantity_scale ** (k // 2 - 1))
            # quantities live in the parameters only; x, y exponents are zero
            quantities.append(Lk.with_variables(params) if params else Lk)
        if k < max_degree:
            accumulate(hk, k)
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
