"""Subresultants (the resultant among them) and multivariate GCDs from one
subresultant PRS, elimination cascades and linear-factor extraction by
specialization.

The cascade mirrors the iterated-resultant method for polynomial systems:
eliminate one variable at a time, split off factors shared by the stage's
resultants, and keep the stripped remainders as the next stage's system.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence

from .poly import MultiPoly, format_poly
from .roots import poly_to_coeffs, rational_roots
from .scalars import is_zero


# -- unit multiples -----------------------------------------------------------


def unit_multiple_of(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p and q differ by a nonzero scalar factor."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p.primitive() == q.primitive()


# -- subresultant PRS and resultants -------------------------------------------


def _deg(p: MultiPoly, var: str) -> int:
    return max(p.degree_in(var), 0)


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
        if dr < dq:
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


def subresultant(f: MultiPoly, g: MultiPoly, var: str, k: int) -> MultiPoly:
    """S_k(f, g), the k-th subresultant polynomial in var, for k >= 0.

    With m = deg f >= n = deg g, S_k (k < n) is the member of the PRS after
    one of degree k + 1, or s * F / lc(F) for a member F of degree k, and
    zero otherwise; S_n = lc(g)^(m-n-1) * g when m > n, and S_m = f by
    convention (a degree-1 f is its own first subresultant).  At a value
    of the other variables where lc(f), or lc(g) if n < m, does not
    vanish, the gcd of f and g in var is S_k for the least k whose
    coefficient of var^k does not vanish there.  S_0 is the resultant.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("subresultant of a zero polynomial")
    f, g = MultiPoly._align(f, g)
    m, n = _deg(f, var), _deg(g, var)
    if not 0 <= k <= max(m, n):
        raise ValueError(f"no subresultant of index {k} for degrees {m} and {n} in {var}")
    sign = 1
    if m < n:  # S_k(g, f) = (-1)^((m-k)(n-k)) S_k(f, g)
        f, g, m, n, sign = g, f, n, m, (-1) ** ((m - k) * (n - k))
    if k == m:
        return f
    seq = _subresultants(f, g, var)
    for i, (q, s) in enumerate(seq[1:], 1):
        if i >= 2 and _deg(seq[i - 1][0], var) == k + 1:
            return q * sign
        if _deg(q, var) == k:
            return s * sign if k == 0 else (s * q).exact_div(q.coeff_of(var, k)) * sign
    return MultiPoly.zero(f.variables)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Res(f, g, var) = S_0: a polynomial in the remaining variables."""
    return _drop_var(subresultant(f, g, var, 0), var)


def first_subresultant(f: MultiPoly, g: MultiPoly, var: str) -> tuple:
    """(s1, s0) with S_1 = s1*var + s0 the first subresultant polynomial."""
    sub = subresultant(f, g, var, 1)
    return _drop_var(sub.coeff_of(var, 1), var), _drop_var(sub.coeff_of(var, 0), var)


# -- multivariate gcd ------------------------------------------------------------


def _content(p: MultiPoly, var: str) -> MultiPoly:
    # lowest degree first: a constant coefficient ends the loop at once
    return gcd_many(sorted(p.coeffs_in(var), key=MultiPoly.degree))


def multivariate_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD up to a unit.

    In the first variable v that p or q involves, it is the gcd of the
    contents in v times the primitive part of the last member of the
    subresultant PRS of the primitive parts.
    """
    p, q = MultiPoly._align(p, q)
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
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
    return (cg * g).primitive()


def gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return MultiPoly.zero()
    g = polys[0]
    for p in polys[1:]:
        g = multivariate_gcd(g, p)
        if g.is_constant():
            break
    return g.primitive()


# -- linear factors by specialization ---------------------------------------------


def _divide_out(p: MultiPoly, f: MultiPoly) -> tuple:
    """(quotient, multiplicity): divide p by f as often as f divides exactly."""
    mult = 0
    while True:
        q = p.exact_div(f)
        if q is None:
            return p, mult
        p, mult = q, mult + 1


def _points(k: int):
    """The points of {1..n}^k for n = 1, 2, ..., each once: a nonzero
    polynomial of degree below n in each variable is nonzero at one of them."""
    for n in itertools.count(1):
        for r in itertools.product(range(1, n + 1), repeat=k):
            if max(r, default=n) == n:
                yield r


def extract_linear_factors(p: MultiPoly, coeff_bound: int = 4):
    """All integer linear-form factors with |coefficients| <= coeff_bound.

    Returns (factors, remainder) with factors a list of (MultiPoly, mult)
    and p == remainder * prod(factor**mult) exactly.  Each factor is the
    primitive form c0 + sum ci vi over p.used_variables() with its first
    nonzero ci positive, in lexicographic order of (c0, c1, ...).

    Every linear factor is found by specialization; the bound then filters
    them.  A factor a*v + B(w), a != 0, free of the variables before v
    (their factors are gone) vanishes at v = -B(w)/a.  At an integer point r
    where lc_v(p) vanishes at none of r, r + e_j, r + 2e_j, that root is a
    rational root of p(v, r) and moves by -b_j/a per step in w_j; candidates
    read off these roots are confirmed by exact division.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    variables = p.used_variables()
    found = {}  # coefficient tuple -> (form, multiplicity)
    rem = p
    for i, v in enumerate(variables):
        if not _deg(rem, v):
            continue
        lead = rem.coeffs_in(v)[-1]
        others = [w for w in rem.used_variables() if w != v]
        later = [w for w in variables[i + 1:] if w in others]
        for r in _points(len(others)):
            base = dict(zip(others, r))
            pts = [base] + [{**base, w: base[w] + t} for w in later for t in (1, 2)]
            if not any(is_zero(lead.eval_scalar(pt)) for pt in pts):
                break
        roots = [rational_roots(poly_to_coeffs(rem.evaluate(pts[0]), v))]
        if roots[0]:
            roots += [rational_roots(poly_to_coeffs(rem.evaluate(pt), v)) for pt in pts[1:]]
        for rho in roots[0]:
            slopes = [[x - rho for x in roots[j] if 2 * x - rho in roots[j + 1]]
                      for j in range(1, len(pts), 2)]
            for s in itertools.product(*slopes):
                # v = rho + sum s_j (w_j - r_j), in coprime integers
                shift = dict(zip(later, s))
                coeffs = [sum(shift[w] * base[w] for w in later) - rho]
                coeffs += [1 if u == v else -shift.get(u, 0) for u in variables]
                den = math.lcm(*(c.denominator for c in coeffs))
                ints = [int(c * den) for c in coeffs]
                key = tuple(c // math.gcd(*ints) for c in ints)
                form = sum((MultiPoly.var(u, variables) * c for u, c in zip(variables, key[1:])),
                           MultiPoly.const(key[0], variables))
                rem, m = _divide_out(rem, form)
                if m:
                    found[key] = (form, m)
    factors = []
    for key, (form, m) in sorted(found.items()):
        if max(map(abs, key)) <= coeff_bound:
            factors.append((form, m))
        else:
            rem = rem * form**m
    return factors, rem


# -- elimination cascade --------------------------------------------------------


class EliminationTrace:
    """Record of one elimination stage.

    Each resultant satisfies resultant[i] == prod(factors[i]) * remainders[i]
    exactly; common_factors is the sub-multiset shared by every resultant.
    branch_condition is the leading coefficient of the pivot equation, whose
    vanishing defines the side system not explored by the cascade.
    """

    __slots__ = ("stage", "eliminated_variable", "inputs", "resultants", "common_factors",
                 "factors", "remainders", "branch_condition", "identically_zero")
    stage: int
    eliminated_variable: str
    inputs: List[MultiPoly]
    resultants: List[MultiPoly]
    common_factors: List[tuple]  # (MultiPoly, multiplicity)
    factors: List[List[tuple]]  # per resultant
    remainders: List[MultiPoly]
    branch_condition: Optional[MultiPoly]
    identically_zero: List[int]

    def __init__(self, stage, eliminated_variable, inputs, resultants, common_factors,
                 factors, remainders, branch_condition, identically_zero):
        self.stage, self.eliminated_variable, self.inputs = stage, eliminated_variable, inputs
        self.resultants, self.common_factors, self.factors = resultants, common_factors, factors
        self.remainders, self.branch_condition = remainders, branch_condition
        self.identically_zero = identically_zero

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


def cascade(system: Sequence[MultiPoly], elimination_order: Sequence[str],
            coeff_bound: int = 4) -> List[EliminationTrace]:
    """Iterated-resultant elimination with shared-factor splitting.

    Identically zero equations hold everywhere and are dropped first.
    Stage t eliminates elimination_order[t] by taking Res(first, other_i).
    The gcd of the stage's nonzero resultants is split once into its
    bounded linear factors and the rest; each resultant's factor list is
    those shared factors at their multiplicity in it, then its own bounded
    linear factors, and the stripped remainders feed the next stage.
    """
    inputs = [p for p in system if not p.is_zero()]
    if len(inputs) < 2:
        raise ValueError("cascade needs at least two nonzero equations")
    traces: List[EliminationTrace] = []
    for stage, var in enumerate(elimination_order, start=1):
        if len(inputs) < 2:
            break
        first = inputs[0]
        resultants = [resultant(first, g, var) for g in inputs[1:]]
        zero_idx = [i for i, r in enumerate(resultants) if r.is_zero()]
        nonzero = [r for r in resultants if not r.is_zero()]
        stage_gcd = gcd_many(nonzero)
        linear, core = (([], stage_gcd) if stage_gcd.is_constant()
                        else extract_linear_factors(stage_gcd, coeff_bound))
        shared = [f for f, _ in linear] + ([] if core.is_constant() else [core.primitive()])
        factors_per = []
        remainders = []
        for r in resultants:
            fs, rem = [], r
            if not r.is_zero():
                for f in shared:
                    rem, m = _divide_out(rem, f)
                    fs.append((f, m))
                extra, rem = extract_linear_factors(rem, coeff_bound)
                fs += extra
                rem = rem.primitive()
            factors_per.append(fs)
            remainders.append(rem)
        per_nonzero = [fs for r, fs in zip(resultants, factors_per) if not r.is_zero()]
        common = [(f, min(fs[i][1] for fs in per_nonzero)) for i, f in enumerate(shared)]
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
