"""Resultants, first subresultants and multivariate GCDs from one
subresultant PRS, elimination cascades and bounded linear-factor
extraction.

The cascade mirrors the iterated-resultant method for polynomial systems:
eliminate one variable at a time, split off factors shared by the stage's
resultants, and keep the stripped remainders as the next stage's system.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

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


# -- subresultant PRS and resultants -------------------------------------------


def _deg(p: MultiPoly, var: str) -> int:
    d = p.degree_in(var)
    return 0 if d is MINUS_INF else d


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


def _prem(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """The pseudo-remainder lc(q)^(deg p - deg q + 1) * p mod q in var."""
    dq = q.degree_in(var)
    lcq = q.coeff_of(var, dq)
    r = p
    unused = p.degree_in(var) - dq + 1  # factors lc(q) not yet applied
    while True:
        dr = r.degree_in(var)
        if dr is MINUS_INF or dr < dq:
            return r * lcq ** unused if unused else r
        lcr = r.coeff_of(var, dr)
        r = lcq * r - lcr * MultiPoly.var(var, r.variables) ** (dr - dq) * q
        unused -= 1


def _subresultants(f: MultiPoly, g: MultiPoly, var: str) -> list:
    """The subresultant PRS of f and g in var, deg f >= deg g, as [(F_i, s_i)].

    It starts f, g and ends at a member of degree 0 or at the last member
    before a zero pseudo-remainder.  Each F_(i+1) with i >= 2 equals the
    subresultant S_(d-1), d = deg F_i, and s_i (i >= 2; s_1 = 1) is the
    principal subresultant coefficient of degree e = deg F_i, so that
    S_e = s_i * F_i / lc(F_i) (Collins 1967; Brown & Traub 1971).  The
    divisions by beta are exact, so no member needs a content gcd.
    """
    d0, d = _deg(f, var), _deg(g, var)
    seq = [(f, 1), (g, g.coeff_of(var, d) ** (d0 - d))]
    beta = (-1) ** (d0 - d + 1)
    while d > 0:
        (p, _), (q, s) = seq[-2:]
        r = _prem(p, q, var).exact_div(beta)
        if r.is_zero():
            break
        e = _deg(r, var)
        beta = -q.coeff_of(var, d) * (-s) ** (d - e)
        seq.append((r, (r.coeff_of(var, e) ** (d - e)).exact_div(s ** (d - e - 1))))
        d = e
    return seq


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Res(f, g, var): a polynomial in the remaining variables.

    It is s_0, the last principal subresultant coefficient, or zero when the
    subresultant PRS ends at a member that still involves var.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    f, g = MultiPoly._align(f, g)
    l, m = _deg(f, var), _deg(g, var)
    sign = 1
    if l < m:  # Res(g, f) = (-1)^(l m) Res(f, g)
        f, g, sign = g, f, (-1) ** (l * m)
    last, s = _subresultants(f, g, var)[-1]
    if _deg(last, var) > 0:
        return _drop_var(MultiPoly.zero(f.variables), var)
    return _drop_var(s * sign, var)


def first_subresultant(f: MultiPoly, g: MultiPoly, var: str) -> tuple:
    """(s1, s0) with S_1 = s1*var + s0 the first subresultant polynomial.

    At any specialization of the other variables where the gcd of f and g
    in `var` has degree exactly one (and the leading coefficients do not
    both vanish), the common root is -s0/s1.  Degree-1 inputs return their
    own coefficients.  When one input is free of var and the other has
    degree two or more, no degree-one subresultant exists and both are zero.
    """
    f, g = MultiPoly._align(f, g)
    m, n = _deg(f, var), _deg(g, var)
    if m == 0 and n == 0:
        raise ValueError("at least one polynomial must involve the variable")
    if m == 1 or n == 1:
        lin = f if m == 1 else g
        return _drop_var(lin.coeff_of(var, 1), var), _drop_var(lin.coeff_of(var, 0), var)
    if m == 0 or n == 0:
        zero = _drop_var(MultiPoly.zero(f.variables), var)
        return zero, zero
    sign = 1
    if m < n:  # S_1(g, f) = (-1)^((m-1)(n-1)) S_1(f, g)
        f, g, sign = g, f, (-1) ** ((m - 1) * (n - 1))
    sub = MultiPoly.zero(f.variables)  # S_1 = 0 unless a member says otherwise
    seq = _subresultants(f, g, var)
    for (p, _), (q, s) in zip(seq[1:], seq[2:]):
        if _deg(p, var) == 2:  # S_1 = S_(2-1) is the next member
            sub = q
        elif _deg(q, var) == 1:  # S_1 is the last subresultant of q's block
            sub = (s * q).exact_div(q.coeff_of(var, 1))
    sub = sub * sign
    return _drop_var(sub.coeff_of(var, 1), var), _drop_var(sub.coeff_of(var, 0), var)


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
    m = _deg(g, var)
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
    p = _deg(g0, var)
    R0 = resultant(f0, g0, var).constant_value()
    c0 = f.coeff_of(var, lf).eval_scalar(point)
    holds = R_at == c0 ** (m - p) * R0
    status = "consistent" if p == m else "degree_dropped"
    return SpecializeReport(status=status, identity_holds=holds, degree_drop=m - p)


# -- multivariate gcd ------------------------------------------------------------


def _content(p: MultiPoly, var: str) -> MultiPoly:
    # lowest degree first: a constant coefficient ends the loop at once
    coeffs = sorted((c for c in p.coeffs_in(var) if not c.is_zero()),
                    key=MultiPoly.degree)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = multivariate_gcd(g, c)
        if g.is_constant():
            break
    return normalize_unit(g)


def multivariate_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD up to a unit.

    In the first variable v that p or q involves, it is the gcd of the
    contents in v times the primitive part of the last member of the
    subresultant PRS of the primitive parts.
    """
    p, q = MultiPoly._align(p, q)
    if p.is_zero():
        return normalize_unit(q)
    if q.is_zero():
        return normalize_unit(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1, p.variables)
    var = next((v for v in p.variables if _deg(p, v) or _deg(q, v)), None)
    if var is None:
        return MultiPoly.const(1, p.variables)
    cp, cq = _content(p, var), _content(q, var)
    pp, qq = p.exact_div(cp), q.exact_div(cq)
    if _deg(pp, var) < _deg(qq, var):
        pp, qq = qq, pp
    g = _subresultants(pp, qq, var)[-1][0]
    g = g.exact_div(_content(g, var)) if _deg(g, var) else MultiPoly.const(1, p.variables)
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


def _divide_out(p: MultiPoly, f: MultiPoly) -> tuple:
    """(quotient, multiplicity): divide p by f as often as f divides exactly."""
    mult = 0
    while True:
        q = p.exact_div(f)
        if q is None:
            return p, mult
        p, mult = q, mult + 1


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
        rem, mult = _divide_out(rem, form)
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
            rem, total = _divide_out(rem, f)
            if total:
                factors.append((f, total))
        if not core.is_constant():
            rem, total = _divide_out(rem, core)
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
        lead = first.coeff_of(var, _deg(first, var))
        branch = None if lead.is_constant() else _drop_var(lead, var)
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
