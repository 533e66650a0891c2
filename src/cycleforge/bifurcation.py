"""Small-amplitude limit-cycle counts from first-order Lyapunov analysis.

Given a center family with parameters mu and a perturbation with small
parameters Lambda (plus a trace-breaking parameter alpha), the pipeline
computes the linear parts of the Lyapunov quantities in Lambda, finds the
rank k of that matrix over the rational functions in mu, reparametrizes so
the first k-1 quantities become coordinates, and extracts the functions
f_0, f_1, ... whose simple zeros certify k + l small-amplitude limit
cycles around the analyzed singularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .fields import VectorField, square_factors
from .linalg import ExactMatrix, echelon
from .lyapunov import linear_parts_in, lyapunov_quantities, normalize_at
from .poly import MultiPoly, format_poly, parse_poly
from .resultants import multivariate_gcd
from .roots import (
    IsolatingInterval,
    RootLocation,
    poly_to_coeffs,
    real_roots,
    sign_at_root,
)
from .scalars import inverse


# -- rational functions of the center parameters ---------------------------------


@dataclass(frozen=True)
class RatFunc:
    """num/den with MultiPoly parts, kept in lowest terms with a
    canonical (primitive, positive-leading) denominator."""

    num: MultiPoly
    den: MultiPoly

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __str__(self) -> str:
        if self.den == MultiPoly.const(1, self.den.variables):
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"


def ratfunc(num: MultiPoly, den: Optional[MultiPoly] = None) -> RatFunc:
    if den is None:
        den = MultiPoly.const(1, num.variables)
    num, den = MultiPoly._align(num, den)
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    one = MultiPoly.const(1, num.variables)
    if num.is_zero():
        return RatFunc(num, one)
    if not den.is_constant():
        g = multivariate_gcd(num, den)
        if not g.is_constant():
            num = num.exact_div(g)
            den = den.exact_div(g)
    nd = den.primitive()
    c = den.leading()[1] / nd.leading()[1]
    if c != 1:
        num = num * inverse(c)
    return RatFunc(num, nd)


# -- perturbation setup ------------------------------------------------------------


@dataclass
class PerturbationSetup:
    """A center family plus an invariance-preserving perturbation.

    `field` carries all symbols; setting alpha and every Lambda symbol to
    zero recovers `base` exactly.  `point` is the singularity around which
    cycles are counted.
    """

    base: VectorField
    field: VectorField
    mu_symbols: tuple
    lambda_symbols: tuple
    alpha_symbol: str = "alpha"
    point: tuple = (Fraction(0), Fraction(0))


def build_perturbation(
    base: VectorField,
    terms: Sequence[tuple],
    alpha_symbol: str = "alpha",
    point: Sequence = (Fraction(0), Fraction(0)),
) -> PerturbationSetup:
    """Attach perturbation terms to a center family.

    Each term is (target, symbol, expression): `symbol * expression` is
    added to component P or Q.  The expression must be divisible by the
    line factor of its target (4x^2-1 for P, 4y^2-1 for Q) so the invariant
    lines survive the perturbation; offending terms are rejected by name.
    Symbols other than `alpha_symbol`, which must be the symbol of a term,
    become the small parameters Lambda, in order of first appearance.
    """
    mu_symbols = base.parameters
    new_syms: list = []
    for target, sym, expr in terms:
        if target not in ("P", "Q"):
            raise ValueError(f"unknown target {target!r}")
        if sym not in new_syms and sym not in mu_symbols:
            new_syms.append(sym)
    variables = ("x", "y") + mu_symbols + tuple(new_syms)
    df = MultiPoly.zero(variables)
    dg = MultiPoly.zero(variables)
    lines = dict(zip("PQ", square_factors(variables)))
    for target, sym, expr in terms:
        p = parse_poly(expr, variables) if isinstance(expr, str) else expr.with_variables(variables)
        inner = p.exact_div(lines[target])
        if inner is None:
            raise ValueError(
                f"perturbation term {sym}*({expr}) does not keep "
                f"{format_poly(lines[target])} invariant"
            )
        addition = MultiPoly.var(sym, variables) * inner
        if target == "P":
            df = df + addition
        else:
            dg = dg + addition
    symbols = [sym for _, sym, _ in terms]
    if alpha_symbol not in symbols:
        raise ValueError(f"alpha {alpha_symbol!r} names no symbol of terms {symbols}")
    fld = VectorField(base.f.with_variables(variables) + df,
                      base.g.with_variables(variables) + dg)
    zero_bind = {s: Fraction(0) for s in new_syms}
    if zero_bind:
        back_f = fld.f.evaluate(zero_bind).with_variables(base.variables)
        back_g = fld.g.evaluate(zero_bind).with_variables(base.variables)
        if back_f != base.f or back_g != base.g:
            raise AssertionError("perturbed field does not reduce to the base")
    lam = tuple(s for s in new_syms if s != alpha_symbol)
    return PerturbationSetup(
        base=base,
        field=fld,
        mu_symbols=mu_symbols,
        lambda_symbols=lam,
        alpha_symbol=alpha_symbol,
        point=tuple(Fraction(c) for c in point),
    )


# -- canned perturbation setups ------------------------------------------------------


def p7_setup() -> PerturbationSetup:
    from .fields import p7_base

    return build_perturbation(
        p7_base(),
        [
            ("P", "alpha", "-(4*x^2 - 1)*y"),
            ("P", "a", "(4*x^2 - 1)*y^2"),
            ("Q", "alpha", "(4*y^2 - 1)*x"),
            ("Q", "b", "(4*y^2 - 1)*x*y"),
        ],
    )


def p8_setup() -> PerturbationSetup:
    from .fields import p8_base

    return build_perturbation(
        p8_base(),
        [
            ("P", "alpha", "-(4*x^2 - 1)*y"),
            ("P", "a1", "(4*x^2 - 1)*x*y"),
            ("P", "a2", "(4*x^2 - 1)*y^2"),
            ("Q", "alpha", "(4*y^2 - 1)*x"),
            ("Q", "b1", "(4*y^2 - 1)*x^2"),
            ("Q", "b2", "(4*y^2 - 1)*x*y"),
        ],
    )


def p9_setup() -> PerturbationSetup:
    vs = ("x", "y", "mu")
    base = VectorField(
        parse_poly("x*y", vs),
        parse_poly("1 - 16*x^2 + mu*y^2", vs),
    )
    return build_perturbation(
        base,
        [
            ("P", "lam", "(4*x^2 - 1)*y^2"),
            ("Q", "alpha", "-4*(4*y^2 - 1)*x*y"),
        ],
        point=(Fraction(1, 4), Fraction(0)),
    )


CANNED_SETUPS = {"P7": p7_setup, "P8": p8_setup, "P9b": p9_setup, "T1c": p9_setup}


# -- analysis -----------------------------------------------------------------------


@dataclass
class GGTReport:
    """Certificate of a first-order cycle-bifurcation count.

    verdict is ("k_plus_ell_cycles", count) when every hypothesis checked
    out, else ("conditions_fail", reason).
    """

    k: int
    l: Optional[int]
    M: list  # p x k matrix of RatFunc (reparametrization of Lambda)
    g_coeffs: list  # rows k.. of the transformed matrix, columns < k
    f_funcs: list  # RatFunc f_0, f_1, ...
    mu0: Optional[RootLocation]
    candidates: list
    verdict: tuple
    point: tuple
    symmetric: bool
    mu_symbol: Optional[str]
    linear_matrix: list = field(default_factory=list)
    quantities: list = field(default_factory=list)

    def to_json(self) -> dict:
        def loc(r):
            if r is None:
                return None
            if isinstance(r, IsolatingInterval):
                return {"interval": [str(r.lo), str(r.hi)]}
            return {"exact": str(r)}

        out = {
            "k": self.k,
            "l": self.l,
            "mu0": loc(self.mu0),
            "f": [str(f) for f in self.f_funcs],
            "M": [[[format_poly(e.num), format_poly(e.den)] for e in row]
                  for row in self.M],
            "g": [[str(e) for e in row] for row in self.g_coeffs],
            "candidates": [
                {"mu0": loc(c["mu0"]), "l": c["l"], "valid": c["valid"],
                 "reason": c.get("reason")}
                for c in self.candidates
            ],
            "point": [str(c) for c in self.point],
            "symmetric": self.symmetric,
        }
        if self.verdict[0] == "k_plus_ell_cycles":
            out["verdict"] = {"kind": self.verdict[0], "count": self.verdict[1]}
        else:
            out["verdict"] = {"kind": self.verdict[0], "reason": self.verdict[1]}
        return out


def _fail(k, point, symmetric, reason, *, M=(), g=(), f=(), A=(), quantities=(),
          candidates=(), mu_symbol=None) -> GGTReport:
    return GGTReport(
        k=k, l=None, M=list(M), g_coeffs=list(g), f_funcs=list(f), mu0=None,
        candidates=list(candidates), verdict=("conditions_fail", reason),
        point=point, symmetric=symmetric, mu_symbol=mu_symbol,
        linear_matrix=list(A), quantities=list(quantities),
    )


def ggt_analyze(setup: PerturbationSetup, N: Optional[int] = None) -> GGTReport:
    """Run the first-order bifurcation pipeline around `setup.point`.

    With alpha = 0, computes N Lyapunov quantities linearized in Lambda,
    the rank k of their gradient matrix over the rational functions of mu,
    the reparametrization M, the functions f_i, and the admissible simple
    zeros mu0 of f_0 with f_1(mu0) != 0, certifying k + 1 cycles there.
    """
    p = len(setup.lambda_symbols)
    symmetric = setup.field.is_even_symmetric()
    point = setup.point
    if p == 0:
        return _fail(0, point, symmetric, "no perturbation parameters")
    if N is None:
        N = max(p + 1, 3)
    vs = tuple(v for v in setup.field.variables if v != setup.alpha_symbol)
    P0 = setup.field.P.evaluate({setup.alpha_symbol: Fraction(0)}).with_variables(vs)
    Q0 = setup.field.Q.evaluate({setup.alpha_symbol: Fraction(0)}).with_variables(vs)
    nf = normalize_at(P0, Q0, point)
    rep = lyapunov_quantities(
        nf.p, nf.q, N,
        jet=(setup.lambda_symbols, 1),
        quantity_scale=nf.quantity_scale,
    )
    A = linear_parts_in(rep, setup.lambda_symbols)
    rest_vars = A[0][0].variables if A else ()
    k = len(echelon(ExactMatrix(A))[2])
    common = dict(A=A, quantities=rep.quantities)
    if k == 0:
        return _fail(0, point, symmetric, "all linear parts vanish identically", **common)
    if N < k + 1:
        return _fail(k, point, symmetric,
                     f"need at least {k + 1} quantities, computed {N}", **common)
    if p != k:
        return _fail(k, point, symmetric,
                     f"kernel dimension {p - k + 1} of the leading rows is not 1",
                     **common)

    # One reduction of [B | I], B the leading k-1 rows, gives R = d·B_P⁻¹·[B | I]:
    # the kernel direction of B from the one non-pivot column n, and the
    # inverse of the pivot block from the I block.
    zero, one = MultiPoly.zero(rest_vars), MultiPoly.const(1, rest_vars)
    B = A[: k - 1]
    _, d, pivots, R = echelon(ExactMatrix(
        [row + [one if j == i else zero for j in range(k - 1)]
         for i, row in enumerate(B)]))
    if any(c >= p for c in pivots):
        return _fail(k, point, symmetric,
                     "leading rows of the linear-part matrix are dependent", **common)
    d = one * d  # Fraction(1) when B is empty (k = 1)
    n = next(c for c in range(p) if c not in pivots)
    m_polys = [zero] * p
    m_polys[n] = d
    for row, c in zip(R, pivots):
        m_polys[c] = -row[n]
    for row in B:
        if not sum((a * m for a, m in zip(row, m_polys)), zero).is_zero():
            raise AssertionError("kernel vector verification failed")
    last = max(c for c in range(p) if not m_polys[c].is_zero())

    # reparametrization matrix M = Mnum / col_den, column by column: columns
    # 0..k-2 invert the pivot submatrix, the last column is the kernel direction
    Mnum = [[zero] * (k - 1) + [m] for m in m_polys]
    for row, c in zip(R, pivots):
        Mnum[c][: k - 1] = row[p:]
    col_den = [d] * (k - 1) + [m_polys[last]]
    M = [[ratfunc(e, den) for e, den in zip(row, col_den)] for row in Mnum]

    # transformed matrix T = A * M; rows below the identity block carry g and f
    T = [
        [ratfunc(sum((A[r][c] * Mnum[c][j] for c in range(p)), zero), col_den[j])
         for j in range(k)]
        for r in range(len(A))
    ]
    for j in range(k - 1):
        for i in range(k):
            want_one = i == j
            ok = T[j][i].is_one() if want_one else T[j][i].is_zero()
            if not ok:
                return _fail(k, point, symmetric,
                             f"post-reparametrization row {j + 1} is not the "
                             f"{j + 1}-th coordinate projection",
                             M=M, **common)
    f_funcs = [T[k - 1 + i][k - 1] for i in range(len(A) - k + 1)]
    g_coeffs = [[T[k - 1 + i][j] for j in range(k - 1)] for i in range(len(A) - k + 1)]
    common.update(M=M, f=f_funcs, g=g_coeffs)

    if len(rest_vars) != 1:
        return _fail(k, point, symmetric,
                     "zero location needs exactly one center parameter", **common)
    mu = rest_vars[0]
    f0 = f_funcs[0]
    if f0.is_zero():
        return _fail(k, point, symmetric, "f_0 vanishes identically", **common)
    coeffs = poly_to_coeffs(f0.num, mu)
    roots = real_roots(coeffs) if len(coeffs) > 1 else []
    f0d = f0.num.diff(mu)
    dens = [e.den for row in M for e in row if not e.den.is_constant()]
    dens.extend(f.den for f in f_funcs if not f.den.is_constant())

    candidates = []
    chosen = None
    for r in roots:
        cand = {"mu0": r, "l": None, "valid": False}
        bad_den = next((d for d in dens if sign_at_root(d, r, mu) == 0), None)
        if bad_den is not None:
            cand["reason"] = (
                f"denominator {format_poly(bad_den)} vanishes at the candidate"
            )
            candidates.append(cand)
            continue
        if sign_at_root(f0d, r, mu) == 0:
            cand["reason"] = "zero of f_0 is not simple"
            candidates.append(cand)
            continue
        ell = None
        for i in range(1, len(f_funcs)):
            s = sign_at_root(f_funcs[i].num, r, mu)
            if s != 0:
                ell = i
                break
        if ell is None:
            cand["reason"] = "no later f is nonzero at the candidate"
        elif ell > 1:
            cand["reason"] = (
                f"f_1..f_{ell - 1} also vanish; rank-{ell} transversality "
                "is impossible with one center parameter"
            )
            cand["l"] = ell
        else:
            cand["l"] = 1
            cand["valid"] = True
            if chosen is None:
                chosen = cand
        candidates.append(cand)

    if chosen is None:
        reason = (candidates[0]["reason"] if candidates
                  else "no admissible simple zero of f_0 found")
        return _fail(k, point, symmetric, reason, candidates=candidates,
                     mu_symbol=mu, **common)
    ell = chosen["l"]
    return GGTReport(
        k=k, l=ell, M=M, g_coeffs=g_coeffs, f_funcs=f_funcs,
        mu0=chosen["mu0"], candidates=candidates,
        verdict=("k_plus_ell_cycles", k + ell),
        point=point, symmetric=symmetric, mu_symbol=mu,
        linear_matrix=A, quantities=rep.quantities,
    )


def hopf_order_one(setup: PerturbationSetup, mu_binding: Optional[dict] = None) -> str:
    """Classical one-cycle criterion: nonvanishing first quantity.

    Binds the given parameters (alpha forced to 0) and evaluates L_1 at
    setup.point; "one_cycle" when it is nonzero as a polynomial in
    whatever symbols remain, else "none".
    """
    binding = dict(mu_binding or {})
    fld = setup.field
    binding.setdefault(setup.alpha_symbol, Fraction(0))
    binding = {k: v for k, v in binding.items() if k in fld.variables}
    vs = tuple(v for v in fld.variables if v not in binding)
    P0 = fld.P.evaluate(binding).with_variables(vs)
    Q0 = fld.Q.evaluate(binding).with_variables(vs)
    nf = normalize_at(P0, Q0, setup.point)
    rep = lyapunov_quantities(nf.p, nf.q, 1, quantity_scale=nf.quantity_scale)
    return "none" if rep.quantities[0].is_zero() else "one_cycle"


def mirror_count(report: GGTReport) -> int:
    """Total cycle count across symmetric nests.

    Under the symmetry (x, y, t) -> (-x, -y, -t) a nest away from the
    origin has a mirror image, doubling the certified count; a nest at the
    origin is its own image.
    """
    if report.verdict[0] != "k_plus_ell_cycles":
        raise ValueError("report carries no certified cycle count")
    count = report.verdict[1]
    if not report.symmetric:
        raise ValueError("the analyzed family is not symmetric under "
                         "(x, y, t) -> (-x, -y, -t)")
    if all(c == 0 for c in report.point):
        return count
    return 2 * count
