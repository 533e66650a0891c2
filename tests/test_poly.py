"""Sparse multivariate polynomial arithmetic."""

import ast
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cycleforge import polytext
from cycleforge.poly import MultiPoly, PolyParseError, format_poly, parse_poly
from cycleforge.scalars import QuadExt

import pytest

VARS = ("x", "y")

coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
).filter(lambda c: c != 0)

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, coeffs, max_size=5))
    return MultiPoly(VARS, {e: c for e, c in terms.items()})


@given(polys(), polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_associativity_and_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_additive_inverse_and_units(p):
    zero = MultiPoly.zero(VARS)
    one = MultiPoly.const(Fraction(1), VARS)
    assert p + (-p) == zero
    assert p * one == p
    assert p * zero == zero


@given(polys())
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), VARS) == p


@given(polys(), polys())
def test_exact_division_round_trip(p, q):
    prod = p * q
    if q.is_zero():
        return
    quotient = prod.exact_div(q)
    assert quotient is not None and quotient == p


@pytest.mark.parametrize("num, den, quotient", [
    ("x + 1", "2*x + 1", None),  # exponents divide, the coefficient does not
    ("x*y + 1", "x", None),
    ("x^2 - 1", "2*x + 2", "x/2 - 1/2"),
    ("3*x + 3", "2*x + 2", "3/2"),
    ("(x + sqrt(6))*(x - y)", "x + sqrt(6)", "x - y"),
])
def test_exact_division_cases(num, den, quotient):
    out = parse_poly(num, VARS).exact_div(parse_poly(den, VARS))
    assert out == (None if quotient is None else parse_poly(quotient, VARS))


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    lhs = (p * q).diff("x")
    rhs = p.diff("x") * q + p * q.diff("x")
    assert lhs == rhs


@given(polys())
def test_coeffs_in_reassemble(p):
    xv = MultiPoly.var("x", VARS)
    total = MultiPoly.zero(VARS)
    for k, c in enumerate(p.coeffs_in("x")):
        total = total + c * xv**k
    assert total == p


def test_parser_rejects_garbage():
    for bad in ("x +", "2 **", "(x", "x^-1", "", "0^-1", "(x - x)^-2"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


@pytest.mark.parametrize("text", [
    "(x+y+1)^400", "(x+1)^5000", "(2*x - 3*y + 5/7)^300", "(x+y+z+w+1)^60",
    "(sqrt(3)*x + y + 1)^100", "3^100000000", "(2^65535)^65535", "(2^65535)^-65535",
])
def test_power_past_the_work_bound_is_refused_before_it_expands(text):
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=r"power \^-?\d+ would expand past MAX_POWER_WORK"):
        parse_poly(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text, degree", [
    ("x^2000", 2000), ("x^65535", 65535), ("(x+y+1)^60", 60), ("(x+1)^500", 500),
    ("(x^2 - 2)^2", 4), ("2^-3", 0), ("(sqrt(2) + 1)^200", 0), ("0^7", -1),
])
def test_powers_under_the_work_bound_expand(text, degree):
    assert parse_poly(text).degree() == degree
    base, e = text.rsplit("^", 1)
    assert polytext._power_work(parse_poly(base), abs(int(e))) <= polytext.MAX_POWER_WORK


@pytest.mark.parametrize("text", [
    "(x+y+1)^100*(x+y+1)^100", "x*(x+y+1)^60*(x+y+1)^60", "-(x+y+1)^60*-(x+y+1)^60",
    "(x+y+z+w+1)^12*(x+y+z+w+1)^12", "(sqrt(3)*x+y+1)^20*(x+y+1)^20",
])
def test_product_past_the_work_bound_is_refused_before_it_multiplies(text):
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match=r"product would expand past MAX_POWER_WORK"):
        parse_poly(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text, degree", [
    ("(x+y+1)^40*(x+y+1)^40", 80), ("(x+1)^500*(x-1)^500", 1000), ("x*3^1000000", 1),
    ("(x^2 - 2)*(x^2 + 2)", 4), ("0*(x+y+1)^60", -1),
])
def test_products_under_the_work_bound_expand(text, degree):
    assert parse_poly(text).degree() == degree


def test_parser_precedence_and_fractions():
    p = parse_poly("1/2*x^2 - (x - y)*(x + y)/2")
    q = parse_poly("1/2*y^2")
    assert p.with_variables(q.variables) == q


def test_substitute_composition():
    p = parse_poly("x^2 + y")
    sub = {"x": parse_poly("x + 1", ("x", "y")), "y": parse_poly("2*y", ("x", "y"))}
    q = p.substitute(sub)
    assert q == parse_poly("x^2 + 2*x + 1 + 2*y", ("x", "y"))


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), polys())
def test_substitute_is_simultaneous_and_matches_evaluation(p, q, r):
    # the result keeps p's variables, then each binding's new ones in order;
    # a key that is not a variable of p is ignored
    q, r = q.renamed(("x", "t")), r.renamed(("s", "y"))
    out = p.substitute({"y": q, "z": r, "x": r})
    assert out.variables == ("x", "y", "t", "s")
    for pt in ({"x": Fraction(1, 3), "y": Fraction(-2), "t": Fraction(3, 2), "s": Fraction(5)},
               {"x": Fraction(-1), "y": Fraction(1, 2), "t": Fraction(0), "s": Fraction(-3, 4)}):
        xv = r.eval_scalar({"s": pt["s"], "y": pt["y"]})
        yv = q.eval_scalar({"x": pt["x"], "t": pt["t"]})
        assert out.eval_scalar(pt) == p.eval_scalar({"x": xv, "y": yv})


@settings(max_examples=30, deadline=None)
@given(polys())
def test_renamed_equals_substitution(p):
    names = ("u", "t")
    sub = {"x": MultiPoly.var("u", names), "y": MultiPoly.var("t", names)}
    assert p.renamed(names) == p.substitute(sub).with_variables(names)
    with pytest.raises(ValueError):
        p.renamed(("u",))


def test_eval_scalar_matches_substitution():
    p = parse_poly("3*x^2*y - y + 7")
    v = p.eval_scalar({"x": Fraction(2, 3), "y": Fraction(-1, 2)})
    assert v == Fraction(3 * 4, 9) * Fraction(-1, 2) + Fraction(1, 2) + 7


# -- grouping by named variables ------------------------------------------------

ALL_VARS = ("x", "y", "a", "b")


@st.composite
def grouped(draw):
    """(p, names): p in 3 or 4 variables, names a nonempty ordered subset."""
    n = draw(st.integers(3, 4))
    vs = ALL_VARS[:n]
    exps = st.tuples(*[st.integers(0, 3)] * n)
    p = MultiPoly(vs, draw(st.dictionaries(exps, coeffs, max_size=6)))
    names = tuple(draw(st.permutations(vs))[:draw(st.integers(1, n))])
    return p, names


def _to_sympy(sympy, p):
    syms = sympy.symbols(p.variables)
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**e for s, e in zip(syms, exp)])
        for exp, c in p.terms.items()
    ])


def _sympy_collect(sympy, p, names):
    """{exponents in names: coefficient} as sympy computes it."""
    return sympy.Poly(_to_sympy(sympy, p), *sympy.symbols(names)).as_dict()


@settings(deadline=None)  # the first example pays the sympy import
@given(grouped())
def test_collect_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, names = case
    ours = p.collect(names)
    theirs = _sympy_collect(sympy, p, names)
    assert set(ours) == set(theirs)
    for key, c in ours.items():
        assert c.variables == p.variables
        assert all(c.degree_in(v) == 0 for v in names)
        assert sympy.expand(_to_sympy(sympy, c) - theirs[key]) == 0


@settings(deadline=None)  # the first example pays the sympy import
@given(grouped())
def test_graded_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, names = case
    gens = sympy.symbols(names)
    theirs: dict = {}
    for key, c in _sympy_collect(sympy, p, names).items():
        mono = sympy.Mul(*[g**e for g, e in zip(gens, key)])
        theirs[sum(key)] = theirs.get(sum(key), 0) + c * mono
    ours = p.graded(names)
    assert set(ours) == set(theirs)
    for d, part in ours.items():
        assert part.variables == p.variables
        assert sympy.expand(_to_sympy(sympy, part) - theirs[d]) == 0


def _reassemble(names, groups, variables):
    """sum of coefficient * names**exponents over what collect returned"""
    total = MultiPoly.zero(variables)
    for exps, coeff in groups.items():
        for v, e in zip(names, exps):
            coeff = coeff * MultiPoly.var(v, variables) ** e
        total = total + coeff
    return total


@given(grouped())
def test_from_collected_inverts_collect(case):
    # collect loses nothing: its groups multiply and add back to p
    p, names = case
    back = _reassemble(names, p.collect(names), p.variables)
    assert back.variables == p.variables and back == p


@given(grouped())
def test_truncated_is_sum_of_low_graded_parts(case):
    p, names = case
    parts = p.graded(names)
    for order in range(-1, max(parts, default=0) + 1):
        low = MultiPoly.zero(p.variables)
        for d, part in parts.items():
            if d <= order:
                low = low + part
        assert p.truncated(names, order) == low


@given(grouped())
def test_coeffs_in_matches_term_scan(case):
    p, _ = case
    for i, v in enumerate(p.variables):
        top = max((e[i] for e in p.terms), default=-1)
        expected = [
            MultiPoly(p.variables, {e[:i] + (0,) + e[i + 1:]: c
                                    for e, c in p.terms.items() if e[i] == k})
            for k in range(top + 1)
        ]
        got = p.coeffs_in(v)
        assert got == expected
        assert all(c.variables == p.variables for c in got)
        assert [p.coeff_of(v, k) for k in range(top + 1)] == expected


def test_term_layout_stays_inside_poly():
    """Only poly.py reads MultiPoly.terms or builds from exponent tuples."""
    src = Path(__file__).resolve().parent.parent / "src" / "cycleforge"
    paths = sorted(p for p in src.glob("*.py") if p.name != "poly.py")
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                offenders.append(f"{path.name}:{node.lineno}: .terms")
            elif isinstance(node, ast.Call) and "MultiPoly" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                offenders.append(f"{path.name}:{node.lineno}: MultiPoly(...)")
    assert offenders == []


@pytest.mark.parametrize("e", range(10))
def test_power_of_variable_is_the_monomial(e, monkeypatch):
    x = MultiPoly.var("x", VARS)
    muls = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        muls.append(1)
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert x**e == MultiPoly(VARS, {(e, 0): 1})
    # square-and-multiply from the lowest set bit: no product with 1
    assert len(muls) == max(e.bit_length() + bin(e).count("1") - 2, 0)


@given(polys(), st.integers(0, 5))
def test_power_is_repeated_product(p, n):
    expected = MultiPoly.const(1, VARS)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected
    assert p**0 == 1


# -- packed kernel against sympy ----------------------------------------------

POOL = ("x", "y", "a", "b", "c", "d", "e", "f")

# numerators up to 60 bits over mixed denominators
rationals = st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(1, 2**30))


@st.composite
def kernel_polys(draw, variables=None, quad=None, d=6):
    """A polynomial in 1-8 variables; some coefficients may lie in Q(sqrt d)."""
    if variables is None:
        variables = tuple(draw(st.permutations(POOL))[:draw(st.integers(1, 8))])
    if quad is None:
        quad = draw(st.booleans())
    scalar = rationals
    if quad:
        surds = st.builds(QuadExt, rationals, rationals, st.just(d))
        scalar = st.one_of(rationals, surds)
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    terms = draw(st.dictionaries(exps, scalar.filter(lambda c: c != 0), max_size=5))
    return MultiPoly(variables, terms)


def _sym_scalar(sympy, c):
    if isinstance(c, QuadExt):
        return _sym_scalar(sympy, c.a) + _sym_scalar(sympy, c.b) * sympy.sqrt(c.d)
    return sympy.Rational(c.numerator, c.denominator)


def _sym(sympy, p):
    syms = [sympy.Symbol(v) for v in p.variables]
    return sympy.Add(*[_sym_scalar(sympy, c) * sympy.Mul(*[s**e for s, e in zip(syms, exp)])
                       for exp, c in p.terms.items()])


def _same(sympy, ours, theirs):
    return sympy.expand(_sym(sympy, ours) - theirs) == 0


ORACLE = settings(max_examples=40, deadline=None)  # sympy is slow to import


@ORACLE
@given(kernel_polys(), kernel_polys())
def test_ring_operations_match_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    P, Q = _sym(sympy, p), _sym(sympy, q)
    assert _same(sympy, p * q, sympy.expand(P * Q))
    assert _same(sympy, p + q, P + Q)
    assert _same(sympy, p - q, P - Q)
    assert _same(sympy, -p, -P)
    assert _same(sympy, p * Fraction(3, 2**40), P * sympy.Rational(3, 2**40))


@ORACLE
@given(kernel_polys(), st.data())
def test_diff_and_evaluate_match_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    P = _sym(sympy, p)
    for v in p.variables:
        assert _same(sympy, p.diff(v), sympy.diff(P, sympy.Symbol(v)))
    names = data.draw(st.sets(st.sampled_from(p.variables)))
    # binding values in Q(sqrt 6), the radicand of kernel_polys, too
    surds = st.builds(QuadExt, rationals, rationals, st.just(6))
    values = {v: data.draw(st.one_of(rationals, surds)) for v in names}
    out = p.evaluate(values)
    assert out.variables == p.variables
    subs = {sympy.Symbol(v): _sym_scalar(sympy, c) for v, c in values.items()}
    assert _same(sympy, out, P.subs(subs))


@ORACLE
@given(kernel_polys(), kernel_polys(), kernel_polys())
def test_exact_div_matches_sympy(p, q, r):
    sympy = pytest.importorskip("sympy")
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p
    # p*q + r is a multiple of q exactly when q divides r
    s = p * q + r
    gens = sorted(set(s.variables) | set(q.variables))
    quotient, rest = sympy.div(_sym(sympy, s), _sym(sympy, q),
                               *map(sympy.Symbol, gens), extension=True)
    out = s.exact_div(q)
    if sympy.expand(rest) == 0:
        assert out is not None and _same(sympy, out, quotient)
    else:
        assert out is None


@ORACLE
@given(kernel_polys(), st.data())
def test_collect_round_trip_and_term_order_match_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    count = data.draw(st.integers(1, len(p.variables)))
    names = tuple(data.draw(st.permutations(p.variables))[:count])
    groups = p.collect(names)
    assert _reassemble(names, groups, p.variables) == p
    gens = [sympy.Symbol(v) for v in names]
    theirs = sympy.Poly(_sym(sympy, p), *gens, extension=True).as_dict() if p else {}
    assert set(groups) == set(theirs)
    for key, c in groups.items():
        assert _same(sympy, c, theirs[key])
    ours = [exp for exp, _ in p.sorted_terms()]
    assert ours == sorted(ours, key=lambda e: (sum(e), e), reverse=True)
    if p:
        gens = [sympy.Symbol(v) for v in p.variables]
        grlex = sympy.Poly(_sym(sympy, p), *gens, extension=True).terms(order="grlex")
        assert ours == [m for m, _ in grlex]


@ORACLE
@given(st.booleans().flatmap(lambda quad: kernel_polys(quad=quad, d=2)))
def test_primitive_matches_sympy(p):
    # over Q: sympy's primitive part, signed so the graded-lex leading
    # coefficient is positive; with an irrational coefficient: monic in
    # graded-lex order over Q(sqrt 2)
    sympy = pytest.importorskip("sympy")
    ours = p.primitive()
    assert ours.primitive() == ours
    if p.is_zero():
        assert ours.is_zero()
        return
    gens = [sympy.Symbol(v) for v in p.variables]
    P = sympy.Poly(_sym(sympy, p), *gens, extension=True)
    if P.domain.is_AlgebraicField:
        theirs = P.quo_ground(P.LC(order="grlex"))
    else:
        theirs = P.primitive()[1]
        if theirs.LC(order="grlex") < 0:
            theirs = -theirs
        assert all(c.denominator == 1 for c in ours.terms.values())
    assert (sympy.Poly(_sym(sympy, ours), *gens, extension=True) - theirs).is_zero


def test_exponent_overflow_raises_and_never_carries():
    top = 2**16 - 1
    vs = ("x", "y")
    y = MultiPoly.var("y", vs)
    high = MultiPoly(vs, {(0, top - 1): 1}) * y
    assert high.degree_in("x") == 0 and high.degree_in("y") == top
    with pytest.raises(OverflowError):
        high * y
    with pytest.raises(OverflowError):
        y ** (top + 1)
    with pytest.raises(OverflowError):
        MultiPoly(vs, {(top + 1, 0): 1})
    with pytest.raises(OverflowError):
        parse_poly(f"x*y^{top + 1}")
    # each exponent fits although the total degree exceeds one field
    big = MultiPoly(vs, {(top, 0): 1}) * MultiPoly(vs, {(0, top): 1})
    assert big.leading() == ((top, top), 1) and big.degree() == 2 * top
