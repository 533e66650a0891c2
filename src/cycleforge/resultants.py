"""Sylvester resultants, elimination cascades, multivariate GCD and bounded
linear-factor extraction.

The cascade mirrors the iterated-resultant method for polynomial systems:
eliminate one variable at a time, split off factors shared by the stage's
resultants, and keep the stripped remainders as the next stage's system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from .linalg import ExactMatrix, determinant
from .poly import MINUS_INF, MultiPoly, format_poly
from .scalars import QuadExt, inverse, is_zero


# -- normalization -------------------------------------------------------------


def normalize_unit(p: MultiPoly) -> MultiPoly:
    """Scale by a unit so output is canonical: integer coprime coefficients
    and positive graded-lex leading coefficient (monic over Q(sqrt d))."""
    if p.is_zero():
        return p
    coeffs = [c.constant_value() for c in p.collect(p.variables).values()]
    if any(isinstance(c, QuadExt) and c.b != 0 for c in coeffs):
        _, lead = p.leading()
        return p * inverse(lead)
    import math

    fracs = [c.a if isinstance(c, QuadExt) else Fraction(c) for c in coeffs]
    den = 1
    for c in fracs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    num = 0
    for c in fracs:
        num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
    scale = Fraction(den, num)
    _, lead = p.leading()
    lead = lead.a if isinstance(lead, QuadExt) else lead
    if lead < 0:
        scale = -scale
    return p * scale


def unit_multiple_of(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p and q differ by a nonzero scalar factor."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return normalize_unit(p) == normalize_unit(q)


# -- Sylvester matrix and resultants --------------------------------------------


def sylvester(f: MultiPoly, g: MultiPoly, var: str) -> ExactMatrix:
    """The (l+m) x (l+m) Sylvester matrix of f and g in `var`.

    Coefficients are polynomials in the remaining variables.  Degenerate
    degrees (l = 0 or m = 0) give a 0 x 0 matrix; the resultant convention
    for those cases lives in resultant().
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("sylvester matrix of a zero polynomial")
    l = f.degree_in(var)
    m = g.degree_in(var)
    l = 0 if l is MINUS_INF else l
    m = 0 if m is MINUS_INF else m
    if l == 0 or m == 0:
        return ExactMatrix([[]] * 0)
    fc = f.coeffs_in(var)  # ascending
    gc = g.coeffs_in(var)
    n = l + m
    zero = MultiPoly.zero(f.variables)
    rows = [[zero] * n for _ in range(n)]
    for j in range(m):  # f-coefficient columns
        for i in range(l + 1):
            rows[j + i][j] = fc[l - i]
    for j in range(l):  # g-coefficient columns
        for i in range(m + 1):
            rows[j + i][m + j] = gc[m - i]
    return ExactMatrix(rows)


def _drop_var(p: MultiPoly, var: str) -> MultiPoly:
    keep = tuple(v for v in p.variables if v != var)
    return p.with_variables(keep)


def substitute_ratio(h: MultiPoly, var: str, num: MultiPoly,
                     den: MultiPoly) -> MultiPoly:
    """den^m * h(var -> -num/den) with m = deg_var h.

    num and den must not involve var; the result is then a polynomial in
    the other variables of h, num and den (var drops out).
    """
    coeffs = h.coeffs_in(var)
    m = max(len(coeffs) - 1, 0)
    acc = MultiPoly.zero(h.variables)
    neg_num_pow = MultiPoly.const(1, h.variables)
    den_pows = [MultiPoly.const(1, h.variables)]
    for _ in range(m):
        den_pows.append(den_pows[-1] * den)
    for k, c in enumerate(coeffs):
        acc = acc + c * neg_num_pow * den_pows[m - k]
        neg_num_pow = neg_num_pow * (-num)
    return acc


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Res(f, g, var): a polynomial in the remaining variables."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    f, g = MultiPoly._align(f, g)
    l = f.degree_in(var)
    m = g.degree_in(var)
    l = 0 if l is MINUS_INF else l
    m = 0 if m is MINUS_INF else m
    if l == 0 and m == 0:
        return MultiPoly.const(1, tuple(v for v in f.variables if v != var))
    if l == 0:
        return _drop_var(f.coeff_of(var, 0) ** m, var)
    if m == 0:
        return _drop_var(g.coeff_of(var, 0) ** l, var)
    if l == 1 or m == 1:
        # Res(c0 x + c1, g) = c0^m g(-c1/c0); swapping the order costs (-1)^(l m)
        lin, other = (f, g) if l == 1 else (g, f)
        sign = -1 if l != 1 and (l * m) % 2 else 1
        acc = substitute_ratio(other, var, lin.coeff_of(var, 0), lin.coeff_of(var, 1))
        return _drop_var(acc, var) * sign
    return _drop_var(determinant(sylvester(f, g, var)), var)


def first_subresultant(f: MultiPoly, g: MultiPoly, var: str) -> tuple:
    """(s1, s0) with S_1 = s1*var + s0 the first subresultant polynomial.

    At any specialization of the other variables where the gcd of f and g
    in `var` has degree exactly one (and the leading coefficients do not
    both vanish), the common root is -s0/s1.  Degree-1 inputs return their
    own coefficients.
    """
    f, g = MultiPoly._align(f, g)
    m = f.degree_in(var)
    n = g.degree_in(var)
    m = 0 if m is MINUS_INF else m
    n = 0 if n is MINUS_INF else n
    if m == 0 or n == 0:
        raise ValueError("both polynomials must involve the variable")
    if m == 1:
        fc = f.coeffs_in(var)
        return _drop_var(fc[1], var), _drop_var(fc[0], var)
    if n == 1:
        gc = g.coeffs_in(var)
        return _drop_var(gc[1], var), _drop_var(gc[0], var)
    fdesc = list(reversed(f.coeffs_in(var)))
    gdesc = list(reversed(g.coeffs_in(var)))
    width = m + n - 1  # exponents m+n-2 .. 0, descending
    zero = MultiPoly.zero(f.variables)
    rows = []
    for i in range(n - 1):
        rows.append([zero] * i + fdesc + [zero] * (width - i - m - 1))
    for i in range(m - 1):
        rows.append([zero] * i + gdesc + [zero] * (width - i - n - 1))
    prefix = list(range(m + n - 3))

    def minor(extra: int):
        cols = prefix + [extra]
        return _drop_var(determinant(ExactMatrix([[r[c] for c in cols] for r in rows])), var)

    return minor(m + n - 3), minor(m + n - 2)


@dataclass
class SpecializeReport:
    status: str  # "consistent" | "degree_dropped" | "g_vanishes"
    identity_holds: Optional[bool]
    degree_drop: int
    symbolic_value: Optional[MultiPoly] = None
    specialized_value: Optional[MultiPoly] = None


def specialize_check(f: MultiPoly, g: MultiPoly, var: str, point: dict) -> SpecializeReport:
    """Check the specialization identity R(y0) = c0(y0)^(m-p) * R_{y0}.

    `point` binds the non-eliminated variables; g must specialize to a
    nonzero polynomial of some degree p <= m while f keeps full degree.
    """
    f, g = MultiPoly._align(f, g)
    m = g.degree_in(var)
    m = 0 if m is MINUS_INF else m
    R = resultant(f, g, var)
    R_at = R.eval_scalar(point)
    f0 = f.evaluate(point)
    g0 = g.evaluate(point)
    if g0.is_zero():
        return SpecializeReport(status="g_vanishes", identity_holds=None, degree_drop=m)
    lf = f.degree_in(var)
    if f0.degree_in(var) != lf:
        return SpecializeReport(status="degree_dropped", identity_holds=None,
                                degree_drop=0)
    p = g0.degree_in(var)
    p = 0 if p is MINUS_INF else p
    R0 = resultant(f0, g0, var).constant_value()
    c0 = f.coeff_of(var, lf).eval_scalar(point)
    holds = R_at == c0 ** (m - p) * R0
    status = "consistent" if p == m else "degree_dropped"
    return SpecializeReport(status=status, identity_holds=holds, degree_drop=m - p)


# -- multivariate gcd (primitive PRS) --------------------------------------------


def _prem(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Pseudo-remainder of p by q with respect to var."""
    dq = q.degree_in(var)
    lcq = q.coeff_of(var, dq)
    r = p
    while True:
        dr = r.degree_in(var)
        if dr is MINUS_INF or dr < dq:
            return r
        lcr = r.coeff_of(var, dr)
        r = lcq * r - lcr * MultiPoly.var(var, r.variables) ** (dr - dq) * q


def _content(p: MultiPoly, var: str) -> MultiPoly:
    coeffs = [c for c in p.coeffs_in(var) if not c.is_zero()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = multivariate_gcd(g, c)
        if g.is_constant():
            break
    return normalize_unit(g)


def multivariate_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD up to a unit, by recursive primitive pseudo-remainder sequences."""
    p, q = MultiPoly._align(p, q)
    if p.is_zero():
        return normalize_unit(q)
    if q.is_zero():
        return normalize_unit(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1, p.variables)
    used = [v for v in p.variables if v in set(p.used_variables()) | set(q.used_variables())]
    var = next((v for v in used
                if p.degree_in(v) not in (MINUS_INF, 0) or q.degree_in(v) not in (MINUS_INF, 0)), None)
    if var is None:
        return MultiPoly.const(1, p.variables)
    cp, cq = _content(p, var), _content(q, var)
    pp = p.exact_div(cp)
    qq = q.exact_div(cq)
    if pp.degree_in(var) < qq.degree_in(var):
        pp, qq = qq, pp
    while True:
        dq = qq.degree_in(var)
        if dq is MINUS_INF:
            g = pp
            break
        if dq == 0:
            g = MultiPoly.const(1, p.variables)
            break
        r = _prem(pp, qq, var)
        if r.is_zero():
            g = qq
            break
        r = r.exact_div(_content(r, var))
        pp, qq = qq, r
    g = g.exact_div(_content(g, var)) if not g.is_constant() else g
    cg = multivariate_gcd(cp, cq)
    return normalize_unit(cg * g)


def gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return MultiPoly.zero()
    g = polys[0]
    for p in polys[1:]:
        g = multivariate_gcd(g, p)
        if g.is_constant():
            break
    return normalize_unit(g)


# -- bounded linear-factor extraction ----------------------------------------------


def _linear_candidates(variables: tuple, bound: int):
    """Primitive integer linear forms c0 + sum ci vi, deduplicated up to sign."""
    import math

    span = range(-bound, bound + 1)
    for coeffs in itertools.product(span, repeat=len(variables) + 1):
        c0, cv = coeffs[0], coeffs[1:]
        if all(c == 0 for c in cv):
            continue
        first = next(c for c in cv if c != 0)
        if first < 0:
            continue  # sign-normalized duplicate
        g = 0
        for c in coeffs:
            g = math.gcd(g, abs(c))
        if g != 1:
            continue
        yield coeffs


def _candidate_filter_point(p: MultiPoly, cand: tuple, variables: tuple, salt: int) -> bool:
    """Cheap necessary test: p must vanish at a point on the candidate's zero set."""
    c0, cv = cand[0], cand[1:]
    pivot = max(range(len(cv)), key=lambda i: abs(cv[i]))
    # deterministic pseudo-random rational assignments for the other variables
    point = {}
    acc = Fraction(c0)
    state = salt
    for i, v in enumerate(variables):
        if i == pivot:
            continue
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        val = Fraction((state % 19) - 9, (state // 19) % 7 + 2)
        point[v] = val
        acc += cv[i] * val
    point[variables[pivot]] = -acc / cv[pivot]
    return is_zero(p.eval_scalar(point))


def extract_linear_factors(p: MultiPoly, coeff_bound: int = 4):
    """All integer linear-form factors with |coefficients| <= coeff_bound.

    Returns (factors, remainder) with factors a list of (MultiPoly, mult)
    and p == remainder * prod(factor**mult) exactly.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if p.is_zero():
        return [], p
    variables = p.used_variables()
    if not variables:
        return [], p
    factors = []
    rem = p
    for cand in _linear_candidates(variables, coeff_bound):
        if rem.is_constant():
            break
        if not _candidate_filter_point(rem, cand, variables, salt=12345):
            continue
        if not _candidate_filter_point(rem, cand, variables, salt=98765):
            continue
        form = MultiPoly.const(Fraction(cand[0]), variables)
        for c, v in zip(cand[1:], variables):
            if c:
                form = form + MultiPoly.var(v, variables) * Fraction(c)
        mult = 0
        while True:
            q = rem.exact_div(form)
            if q is None:
                break
            mult += 1
            rem = q
        if mult:
            factors.append((form, mult))
    return factors, rem


# -- elimination cascade --------------------------------------------------------


@dataclass
class EliminationTrace:
    """Record of one elimination stage.

    Each resultant satisfies resultant[i] == prod(factors[i]) * remainders[i]
    exactly; common_factors is the sub-multiset shared by every resultant.
    branch_condition is the leading coefficient of the pivot equation, whose
    vanishing defines the side system not explored by the cascade.
    """

    stage: int
    eliminated_variable: str
    inputs: List[MultiPoly]
    resultants: List[MultiPoly]
    common_factors: List[tuple]  # (MultiPoly, multiplicity)
    factors: List[List[tuple]]  # per resultant
    remainders: List[MultiPoly]
    branch_condition: Optional[MultiPoly] = None
    identically_zero: List[int] = field(default_factory=list)

    def verify(self) -> bool:
        for r, fs, rem in zip(self.resultants, self.factors, self.remainders):
            prod = rem
            for f, m in fs:
                prod = prod * f**m
            if not unit_multiple_of(prod, r):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "eliminated_variable": self.eliminated_variable,
            "inputs": [format_poly(q) for q in self.inputs],
            "resultants": [format_poly(q) for q in self.resultants],
            "common_factors": [
                {"poly": format_poly(f), "multiplicity": m} for f, m in self.common_factors
            ],
            "factors": [
                [{"poly": format_poly(f), "multiplicity": m} for f, m in fs]
                for fs in self.factors
            ],
            "cofactor_remainders": [format_poly(q) for q in self.remainders],
            "branch_condition": (
                format_poly(self.branch_condition) if self.branch_condition is not None else None
            ),
            "identically_zero": self.identically_zero,
        }


def _factor_stage_poly(r: MultiPoly, shared: MultiPoly, bound: int):
    """Split r into (factor list, remainder) pulling out `shared` and bounded
    linear factors."""
    factors = []
    rem = r
    if not shared.is_constant():
        lin_shared, core = extract_linear_factors(shared, bound)
        for f, m in lin_shared:
            total = 0
            while True:
                q = rem.exact_div(f)
                if q is None:
                    break
                rem = q
                total += 1
            if total:
                factors.append((f, total))
        if not core.is_constant():
            total = 0
            while True:
                q = rem.exact_div(core)
                if q is None:
                    break
                rem = q
                total += 1
            if total:
                factors.append((normalize_unit(core), total))
    extra, rem = extract_linear_factors(rem, bound)
    for f, m in extra:
        merged = False
        for i, (f0, m0) in enumerate(factors):
            if unit_multiple_of(f0, f):
                factors[i] = (f0, m0 + m)
                merged = True
                break
        if not merged:
            factors.append((f, m))
    return factors, normalize_unit(rem)


def cascade(system: Sequence[MultiPoly], elimination_order: Sequence[str],
            coeff_bound: int = 4) -> List[EliminationTrace]:
    """Iterated-resultant elimination with shared-factor splitting.

    Stage t eliminates elimination_order[t] by taking Res(first, other_i);
    the GCD of the stage's resultants plus bounded linear factors are split
    off, and the stripped remainders feed the next stage.
    """
    if len(system) < 2:
        raise ValueError("cascade needs at least two equations")
    inputs = list(system)
    traces: List[EliminationTrace] = []
    for stage, var in enumerate(elimination_order, start=1):
        if len(inputs) < 2:
            break
        first = inputs[0]
        others = inputs[1:]
        resultants = [resultant(first, g, var) for g in others]
        zero_idx = [i for i, r in enumerate(resultants) if r.is_zero()]
        nonzero = [r for r in resultants if not r.is_zero()]
        shared = gcd_many(nonzero) if nonzero else MultiPoly.zero()
        factors_per = []
        remainders = []
        for r in resultants:
            if r.is_zero():
                factors_per.append([])
                remainders.append(r)
                continue
            fs, rem = _factor_stage_poly(r, shared, coeff_bound)
            factors_per.append(fs)
            remainders.append(rem)
        common: List[tuple] = []
        if nonzero:
            per_nonzero = [fs for r, fs in zip(resultants, factors_per) if not r.is_zero()]
            for f, m in per_nonzero[0]:
                mmin = m
                for fs in per_nonzero[1:]:
                    match = next((mm for ff, mm in fs if unit_multiple_of(ff, f)), 0)
                    mmin = min(mmin, match)
                if mmin:
                    common.append((f, mmin))
        lead = first.coeff_of(var, first.degree_in(var)) if first.degree_in(var) not in (MINUS_INF,) else None
        branch = None
        if lead is not None and not lead.is_constant():
            branch = _drop_var(lead, var)
        trace = EliminationTrace(
            stage=stage,
            eliminated_variable=var,
            inputs=list(inputs),
            resultants=resultants,
            common_factors=common,
            factors=factors_per,
            remainders=remainders,
            branch_condition=branch,
            identically_zero=zero_idx,
        )
        traces.append(trace)
        next_inputs = []
        for rem in remainders:
            if rem.is_zero() or rem.is_constant():
                continue
            if not any(rem == q for q in next_inputs):
                next_inputs.append(rem)
        if not next_inputs:
            break
        inputs = next_inputs
    return traces
