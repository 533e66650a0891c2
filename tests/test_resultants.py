"""Resultants, shared-factor extraction, and the elimination cascade."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from cycleforge.poly import MultiPoly, parse_poly, format_poly
from cycleforge.scalars import is_zero
from cycleforge.resultants import (
    _divide_out,
    _prem,
    cascade,
    extract_linear_factors,
    first_subresultant,
    gcd_many,
    multivariate_gcd,
    resultant,
    specialize_check,
    subresultant,
    substitute_ratio,
    unit_multiple_of,
)


def test_substitute_ratio_matches_direct_evaluation():
    rng = random.Random(31)
    vs = ("x", "y", "a")

    def rand_poly(names, degree):
        terms = {}
        for _ in range(4):
            exp = tuple(rng.randint(0, degree) if v in names else 0 for v in vs)
            terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiPoly(vs, terms)

    for _ in range(25):
        h = rand_poly(("x", "y", "a"), 3)
        num, den = rand_poly(("y", "a"), 2), rand_poly(("y", "a"), 2)
        out = substitute_ratio(h, "x", num, den)
        assert "x" not in out.used_variables()
        m = max(len(h.coeffs_in("x")) - 1, 0)
        for _ in range(3):
            at = {"y": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  "a": Fraction(rng.randint(-9, 9), rng.randint(1, 5))}
            d = den.eval_scalar(at)
            if d == 0:
                continue
            x = -num.eval_scalar(at) / d
            assert out.eval_scalar(at) == d ** m * h.eval_scalar({"x": x, **at})


def test_resultant_detects_shared_root():
    f = parse_poly("(x - 3)*(x + 1)")
    g = parse_poly("(x - 3)*(x^2 + 1)")
    assert resultant(f, g, "x").is_zero()
    h = parse_poly("(x - 4)*(x^2 + 1)")
    assert not resultant(f, h, "x").is_zero()


def test_resultant_bivariate_projects_intersections():
    # circle and parabola: Res_x vanishes exactly at the y of intersections
    f = parse_poly("x^2 + y^2 - 1")
    g = parse_poly("y - x^2")
    r = resultant(f, g, "x")
    # intersections satisfy y^2 + y - 1 = 0
    target = parse_poly("y^2 + y - 1", r.variables)
    assert r.exact_div(target) is not None


def test_specialize_check_identity():
    f = parse_poly("x^2 + y*x + 1")
    g = parse_poly("x - y")
    rep = specialize_check(f, g, "x", {"y": Fraction(3)})
    assert rep.status == "consistent" and rep.identity_holds


def test_multivariate_gcd_of_constructed_product():
    a = parse_poly("x + y")
    b = parse_poly("x - 2*y + 1")
    c = parse_poly("x*y + 3")
    g = multivariate_gcd(a * b, a * c)
    assert unit_multiple_of(g, a)


def test_gcd_many_and_coprime():
    a = parse_poly("x + y")
    polys = [a * parse_poly("x"), a * parse_poly("y + 1"), a * parse_poly("x - y")]
    assert unit_multiple_of(gcd_many(polys), a)
    assert multivariate_gcd(parse_poly("x + 1"), parse_poly("y + 1")).is_constant()


def test_extract_linear_factors():
    p = parse_poly("(x + y)^2*(x - 2*y)*(x^2 + y^2 + 1)")
    factors, rest = extract_linear_factors(p, coeff_bound=2)
    found = {format_poly(f): m for f, m in factors}
    assert found == {"x+y": 2, "x-2*y": 1}
    assert unit_multiple_of(rest, parse_poly("x^2 + y^2 + 1", rest.variables))


# the bounded coefficient search that extract_linear_factors replaced, kept
# as a reference: every primitive form c0 + sum ci vi with |ci| <= bound,
# first nonzero ci positive, in lexicographic order of (c0, c1, ...), each
# filtered by p vanishing at two points of its zero set, then divided out


def _reference_candidates(variables, bound):
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(variables) + 1):
        cv = coeffs[1:]
        if any(cv) and next(c for c in cv if c) > 0 and math.gcd(*coeffs) == 1:
            yield coeffs


def _reference_filter_point(p, cand, variables, salt):
    c0, cv = cand[0], cand[1:]
    pivot = max(range(len(cv)), key=lambda i: abs(cv[i]))
    point, acc, state = {}, Fraction(c0), salt
    for i, v in enumerate(variables):
        if i == pivot:
            continue
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        point[v] = Fraction((state % 19) - 9, (state // 19) % 7 + 2)
        acc += cv[i] * point[v]
    point[variables[pivot]] = -acc / cv[pivot]
    return is_zero(p.eval_scalar(point))


def _reference_linear_factors(p, bound):
    variables = p.used_variables()
    factors, rem = [], p
    for cand in _reference_candidates(variables, bound) if variables else ():
        if rem.is_constant():
            break
        if not all(_reference_filter_point(rem, cand, variables, s) for s in (12345, 98765)):
            continue
        form = MultiPoly.const(Fraction(cand[0]), variables)
        for c, v in zip(cand[1:], variables):
            if c:
                form = form + MultiPoly.var(v, variables) * Fraction(c)
        rem, mult = _divide_out(rem, form)
        if mult:
            factors.append((form, mult))
    return factors, rem


def _exact(out):
    """Factors and remainder of extract_linear_factors, representation included."""
    factors, rem = out
    return ([(format_poly(f), f.variables, m) for f, m in factors],
            format_poly(rem), rem.variables, rem)


def test_extract_linear_factors_matches_the_bounded_search():
    rng = random.Random(23)
    vs = ("x", "y", "z")

    def linear(names, top):
        form = MultiPoly.const(rng.randint(-top, top), vs)
        for v in names:
            form = form + MultiPoly.var(v, vs) * rng.choice([-top, -1, 1, top])
        return form

    cofactors = [parse_poly(t, vs) for t in
                 ("1", "3", "x^2 + y*z + 1", "sqrt(2)*x + y^2 - 3", "sqrt(2)")]
    start = time.perf_counter()
    for case in range(24):
        # repeated factors, and factors free of x, the first variable
        names = vs if case % 3 else ("y", "z")
        p = cofactors[case % len(cofactors)]
        for _ in range(rng.randint(1, 3)):
            form = linear(rng.sample(names, rng.randint(1, len(names))), rng.randint(1, 3))
            p = p * form ** rng.randint(1, 2)
        bound = 1 + case % 3
        assert _exact(extract_linear_factors(p, bound)) == \
            _exact(_reference_linear_factors(p, bound)), (format_poly(p), bound)
    assert time.perf_counter() - start < 10.0


def test_extract_linear_factors_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    vs = ("a11", "b20", "c")
    syms = [sympy.Symbol(v) for v in vs]
    nonlinear = ["a11^2 + b20*c + 1", "a11*b20 - 7*c^3 + 2", "1"]
    for case in range(20):
        p = parse_poly(nonlinear[case % 3], vs) * rng.randint(1, 9)
        for _ in range(rng.randint(1, 3)):
            form = MultiPoly.const(rng.randint(-9, 9), vs)
            for v in rng.sample(vs, rng.randint(1, 3)):
                form = form + MultiPoly.var(v, vs) * rng.choice([-9, -5, -1, 2, 6, 8])
            p = p * form ** rng.randint(1, 2)
        expr = _to_sympy(sympy, p)
        want = {}
        for f, m in sympy.factor_list(expr)[1]:
            poly = sympy.Poly(f, *syms)
            if poly.total_degree() == 1:
                c = [poly.coeff_monomial(1)] + [poly.coeff_monomial(s) for s in syms]
                lead = next(x for x in c[1:] if x)
                want[tuple(int(x * (1 if lead > 0 else -1)) for x in c)] = m
        for bound in (4, 9):
            factors, rem = extract_linear_factors(p, bound)
            used = p.used_variables()
            got = {}
            for f, m in factors:
                c = [f.eval_scalar({v: 0 for v in used})]
                c += [f.coeff_of(v, 1).constant_value() if v in used else 0 for v in vs]
                got[tuple(int(x) for x in c)] = m
            assert got == {k: m for k, m in want.items() if max(map(abs, k)) <= bound}
            prod = rem
            for f, m in factors:
                prod = prod * f**m
            assert prod == p


def test_a_planted_factor_is_found_when_the_bound_admits_it():
    vs = ("a11", "b20", "b11")
    planted = parse_poly("7*a11 - 3*b20 + 5", vs)
    p = planted * parse_poly("a11 + b11", vs) * parse_poly("a11^2 + b20*b11 - 2", vs)
    for bound, want in ((4, ["a11+b11"]), (7, ["a11+b11", "7*a11-3*b20+5"])):
        factors, rem = extract_linear_factors(p, bound)
        assert sorted(format_poly(f) for f, _ in factors) == sorted(want)
        assert (planted in [f for f, _ in factors]) == (bound == 7)
        assert unit_multiple_of(rem * math.prod((f for f, _ in factors), start=1), p)


def test_linear_factors_where_the_leading_coefficient_vanishes_at_the_first_points():
    # the leading coefficient in x, (y - 1)(y - 3)(y - z), vanishes at the
    # first points tried, y = z = 1, then at y = 3 and on y = z
    vs = ("x", "y", "z")
    for text, bound in (("(x - 2*y + 1)*((y - 1)*(y - 3)*x^2 + 2)", 2),
                        ("(2*x + y - z)^2*((y - z)*x + y + 1)*(y - 1)", 2),
                        ("((y - 1)*(y - 3)*(y - z)*x - 1)*(x + 3*z)", 3)):
        p = parse_poly(text, vs)
        assert _exact(extract_linear_factors(p, bound)) == \
            _exact(_reference_linear_factors(p, bound)), text


def test_linear_factor_work_does_not_grow_with_the_bound(monkeypatch):
    from cycleforge import fields, lyapunov

    fam = fields.p4_family()
    quantities = [q for q in lyapunov.lyapunov_quantities(fam.P, fam.Q, 5).quantities
                  if not q.is_zero()]
    stage_gcd = gcd_many([resultant(quantities[0], g, "a11") for g in quantities[1:]])

    def work(bound):
        calls = []
        for name in ("evaluate", "exact_div", "coeffs_in"):
            method = getattr(MultiPoly, name)

            def counted(self, *args, _method=method, _name=name):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(MultiPoly, name, counted)
        out = extract_linear_factors(stage_gcd, bound)
        monkeypatch.undo()
        return sorted(calls), _exact(out)

    (calls2, out2), (calls4, out4) = work(2), work(4)
    assert calls2 == calls4 and out2 == out4
    assert [f for f, _, _ in out2[0]] == ["b11", "b20", "a02-b20", "a02", "a02+b11", "a02+b20"]


def test_primitive_idempotent_and_monic_like():
    p = parse_poly("-4*x^2 + 8*y")
    n = p.primitive()
    assert n.primitive() == n and format_poly(n) == "x^2-2*y"
    assert unit_multiple_of(n, p)
    q = parse_poly("sqrt(2)*x^2 - 4*y")
    m = q.primitive()
    assert m.primitive() == m and format_poly(m) == "x^2-2*sqrt(2)*y"
    assert unit_multiple_of(m, q)


def test_first_subresultant_recovers_shared_root():
    rng = random.Random(21)
    for _ in range(25):
        r = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        f = parse_poly("x^2 + 1") * (parse_poly("x") - r)
        g = parse_poly("x^2 + x + 2") * (parse_poly("x") - r)
        s1, s0 = first_subresultant(f, g, "x")
        s1v = s1.constant_value() if s1.is_constant() else None
        assert s1v is not None and s1v != 0
        assert -s0.constant_value() / s1v == r


def test_first_subresultant_with_parameter():
    # shared root x = t at every specialization of t
    f = parse_poly("(x - t)*(x + 1)")
    g = parse_poly("(x - t)*(x + 2)")
    s1, s0 = first_subresultant(f, g, "x")
    # -s0/s1 == t as rational functions: s0 + t*s1 == 0
    t = parse_poly("t", s1.variables)
    assert (s0 + t * s1).is_zero()


def test_first_subresultant_with_an_operand_free_of_the_variable():
    c = parse_poly("y^2 + 1", ("x", "y"))  # degree 0 in x
    lin = parse_poly("y*x - 2", ("x", "y"))
    quad = parse_poly("x^2 + y", ("x", "y"))
    for f, g in ((c, lin), (lin, c)):
        s1, s0 = first_subresultant(f, g, "x")
        assert s1 == parse_poly("y", ("y",)) and s0 == parse_poly("-2", ("y",))
    for f, g in ((c, quad), (quad, c)):
        s1, s0 = first_subresultant(f, g, "x")
        assert s1.is_zero() and s0.is_zero()
    with pytest.raises(ValueError):
        first_subresultant(c, parse_poly("y - 3", ("x", "y")), "x")


def test_cascade_on_simple_system():
    # x + y - 3 = 0, x - y - 1 = 0 -> x = 2, y = 1
    f = parse_poly("x + y - 3")
    g = parse_poly("x - y - 1")
    traces = cascade([f, g], ["x", "y"])
    assert traces[0].eliminated_variable == "x"
    r = traces[0].resultants[0]
    assert unit_multiple_of(r, parse_poly("y - 1", r.variables))
    assert all(t.verify() for t in traces)


def test_cascade_needs_two_equations():
    with pytest.raises(ValueError):
        cascade([parse_poly("x")], ["x"])
    zero = MultiPoly.zero(("x",))
    with pytest.raises(ValueError, match="at least two nonzero equations"):
        cascade([zero, parse_poly("x"), zero], ["x"])


def test_cascade_drops_identically_zero_equations():
    f, g = parse_poly("x + y - 3"), parse_poly("x^2 - y")
    zero = MultiPoly.zero(f.variables)
    with_zero = cascade([zero, f, zero, g], ["x"])
    assert [t.to_json() for t in with_zero] == [t.to_json() for t in cascade([f, g], ["x"])]


def _reference_stage(resultants, bound):
    """Factor lists, remainders and common factors of one stage by the
    earlier splitting: the stage gcd split again for every resultant, own
    factors merged into it by unit multiples, and the common factors found
    by matching unit multiples across the lists."""
    nonzero = [r for r in resultants if not r.is_zero()]
    shared = gcd_many(nonzero) if nonzero else MultiPoly.zero()
    factors_per, remainders = [], []
    for r in resultants:
        if r.is_zero():
            factors_per.append([])
            remainders.append(r)
            continue
        factors, rem = [], r
        if not shared.is_constant():
            lin_shared, core = extract_linear_factors(shared, bound)
            for f, _ in lin_shared:
                rem, total = _divide_out(rem, f)
                if total:
                    factors.append((f, total))
            if not core.is_constant():
                rem, total = _divide_out(rem, core)
                if total:
                    factors.append((core.primitive(), total))
        extra, rem = extract_linear_factors(rem, bound)
        for f, m in extra:
            for i, (f0, m0) in enumerate(factors):
                if unit_multiple_of(f0, f):
                    factors[i] = (f0, m0 + m)
                    break
            else:
                factors.append((f, m))
        factors_per.append(factors)
        remainders.append(rem.primitive())
    common = []
    per_nonzero = [fs for r, fs in zip(resultants, factors_per) if not r.is_zero()]
    if per_nonzero:
        for f, m in per_nonzero[0]:
            mmin = m
            for fs in per_nonzero[1:]:
                mmin = min(mmin, next((mm for ff, mm in fs if unit_multiple_of(ff, f)), 0))
            if mmin:
                common.append((f, mmin))
    return factors_per, remainders, common


def _listed(factors):
    return [(format_poly(f), m) for f, m in factors]


def test_cascade_matches_pairwise_matching_on_planted_factors():
    rng = random.Random(19)
    vs = ("x", "y", "a")

    def linear(names, top=2):
        form = MultiPoly.const(rng.randint(-top, top), vs)
        for v in names:
            form = form + MultiPoly.var(v, vs) * rng.randint(-top, top)
        return form

    start = time.perf_counter()
    for _ in range(60):
        # f linear in x, so Res_x(f, h*k) = Res_x(f, h) * Res_x(f, k) shares
        # Res_x(f, h) across the stage; k may repeat h's linear factor
        f = MultiPoly.var("x", vs) * rng.randint(1, 2) - linear(("y", "a"))
        base = linear(("x", "y", "a"))
        h = base ** rng.randint(1, 2)
        if rng.random() < 0.5:
            h = h * (MultiPoly.var("x", vs) ** 2 - linear(("y", "a")))
        system = [f]
        for _ in range(rng.randint(2, 3)):
            k = base ** rng.randint(0, 1) * linear(("x", "a"), 3)
            system.append(h * k * linear(("y",)) if rng.random() < 0.3 else h * k)
        traces = cascade(system, ["x", "y"], coeff_bound=2)
        for t in traces:
            assert t.verify()
            factors, remainders, common = _reference_stage(t.resultants, 2)
            assert [_listed(fs) for fs in t.factors] == [_listed(fs) for fs in factors]
            assert [format_poly(r) for r in t.remainders] == [format_poly(r) for r in remainders]
            assert _listed(t.common_factors) == _listed(common)
    assert time.perf_counter() - start < 5.0



# -- oracles against sympy ------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _in_x(draw, top=3, low=1):
    """A polynomial in (x, y, a) of degree low..top in x, rational coefficients.

    At most five terms, so x-degree gaps (an abnormal PRS) are common.
    """
    exps = st.tuples(st.integers(0, top), st.integers(0, 2), st.integers(0, 1))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, max_size=4))
    terms[(draw(st.integers(low, top)), 0, 0)] = draw(coeffs)
    return MultiPoly(("x", "y", "a"), terms)


def _to_sympy(sympy, p):
    syms = [sympy.Symbol(v) for v in p.variables]
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s**e for s, e in zip(syms, exp)])
                       for exp, c in p.terms.items()])


def _sympy_det(sympy, rows):
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix.from_Matrix(sympy.Matrix(rows))
    return dm.domain.to_sympy(dm.det())


@settings(max_examples=40, deadline=None)  # the first example pays the sympy import
@given(_in_x(), _in_x())
def test_resultant_matches_sympy_sylvester_determinant(f, g):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester as sympy_sylvester

    # sympy's resultant() has the wrong sign for some degree pairs (1
    # against 3), so the oracle is the determinant of its Sylvester matrix
    x = sympy.Symbol("x")
    theirs = _sympy_det(sympy, sympy_sylvester(_to_sympy(sympy, f), _to_sympy(sympy, g), x))
    ours = resultant(f, g, "x")
    assert "x" not in ours.variables
    assert sympy.expand(_to_sympy(sympy, ours) - theirs) == 0


@settings(max_examples=40, deadline=None)
@given(_in_x(), _in_x(), _in_x())
def test_multivariate_gcd_matches_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    p, q = a * c, b * c  # a planted common factor
    ours = _to_sympy(sympy, multivariate_gcd(p, q))
    theirs = sympy.gcd(_to_sympy(sympy, p), _to_sympy(sympy, q))
    ratio = sympy.cancel(ours / theirs)
    assert ratio != 0 and ratio.free_symbols == set()


def _subresultant_by_minors(sympy, f, g, k):
    """S_k(f, g) in x by its determinant definition.

    With m = deg f and n = deg g: the rows are x^(n-k-1) f, ..., f, then
    x^(m-k-1) g, ..., g; the columns are the coefficients of x^(m+n-k-1)
    down to x^(k+1), then sum_(j <= k) (coefficient of x^j) * x^j, which by
    linearity in that column sums the minors of the coefficients of S_k.
    f and g are first scaled to integer coefficients, so that the
    determinant is taken over ZZ[x, y, a].
    """
    x = sympy.Symbol("x")
    cf, cg = (math.lcm(*(c.denominator for c in p.terms.values())) for p in (f, g))
    fd = sympy.Poly(_to_sympy(sympy, f * cf), x).all_coeffs()
    gd = sympy.Poly(_to_sympy(sympy, g * cg), x).all_coeffs()
    m, n = len(fd) - 1, len(gd) - 1
    width = m + n - k  # exponents m+n-k-1 .. 0
    rows = ([[0] * i + fd + [0] * (width - i - m - 1) for i in range(n - k)]
            + [[0] * i + gd + [0] * (width - i - n - 1) for i in range(m - k)])
    lead = width - k - 1
    det = _sympy_det(sympy, [r[:lead] + [sum(c * x**(width - 1 - i)
                                             for i, c in enumerate(r[lead:], lead))]
                             for r in rows])
    return det / (cf ** (n - k) * cg ** (m - k))


@st.composite
def _subresultant_pairs(draw):
    """(f, g) of x-degree 2..5; half of them share a planted factor, which
    ends the PRS early."""
    if draw(st.booleans()):
        return draw(_in_x(top=5, low=2)), draw(_in_x(top=5, low=2))
    c = draw(_in_x(top=2))
    return draw(_in_x(top=3)) * c, draw(_in_x(top=3)) * c


@settings(max_examples=60, deadline=None)
@given(_subresultant_pairs())
def test_first_subresultant_matches_sympy_minors(pair):
    # every S_k below the smaller degree, and the (s1, s0) view of S_1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f, g = pair
    for a, b in ((f, g), (g, f)):
        theirs = [_subresultant_by_minors(sympy, a, b, k)
                  for k in range(min(a.degree_in("x"), b.degree_in("x")))]
        for k, t in enumerate(theirs):
            assert sympy.expand(_to_sympy(sympy, subresultant(a, b, "x", k)) - t) == 0, k
        s1, s0 = (_to_sympy(sympy, s) for s in first_subresultant(a, b, "x"))
        assert sympy.expand(s1 * x + s0 - theirs[1]) == 0


@settings(max_examples=40, deadline=None)
@given(_in_x(top=5), _in_x(top=5))
def test_prem_matches_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    if p.degree_in("x") < q.degree_in("x"):
        p, q = q, p
    x = sympy.Symbol("x")
    theirs = sympy.prem(_to_sympy(sympy, p), _to_sympy(sympy, q), x)
    assert sympy.expand(_to_sympy(sympy, _prem(p, q, "x")) - theirs) == 0


def test_gcd_of_cubics_with_a_planted_cubic_factor():
    # a primitive PRS, which takes a content gcd in (y, a) at every step,
    # needs about a minute here
    vs = ("x", "y", "a")
    f = parse_poly("-1/2*x^2*y*a-4/5*x*y^2*a+4*x^2-5/3*y^2+2/3", vs)
    g = parse_poly("4/3*x^3*a-14/3*x*y^2*a+9*x^3-3*x*y*a-19/2*y", vs)
    h = parse_poly("5/6*x^2*y^2*a+13/4*x*y^2-17/6*x^2+5/3*x-17/3*a", vs)
    start = time.perf_counter()
    common = multivariate_gcd(f * h, g * h)
    assert time.perf_counter() - start < 5.0
    assert format_poly(common) == "10*x^2*y^2*a+39*x*y^2-34*x^2+20*x-68*a"
