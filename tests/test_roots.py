"""Exact real-root isolation, Sturm machinery, and algebraic signs."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycleforge.poly import MultiPoly, parse_poly
from cycleforge.roots import (
    IsolatingInterval,
    cauchy_bound,
    gcd_univariate,
    horner,
    isolate_real_roots,
    poly_to_coeffs,
    rational_roots,
    real_roots,
    refine,
    root_count_interval,
    sign_at_root,
    squarefree_part,
    sturm_chain,
)
from cycleforge.scalars import QuadExt


def _poly_from_roots(roots):
    """Coefficient list of prod (x - r) with rational roots r."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


small_roots = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    min_size=1, max_size=4,
)


@given(small_roots)
@settings(max_examples=60)
def test_rational_roots_recovers_constructed_roots(roots):
    coeffs = _poly_from_roots(roots)
    assert rational_roots(coeffs) == sorted(set(roots))


def test_rational_roots_of_large_coefficients_need_no_divisors():
    # (s - e)(s^2 - 2) with e = 141421356237/10^11, whose denominator has
    # 144 divisors, and (3s - 7)^2 (s^2 - 2q) with the prime q = 10^14 + 31,
    # where listing the divisors of the constant term takes 10^8 trial
    # divisions
    e = Fraction(141421356237, 10**11)
    assert rational_roots([2 * e, Fraction(-2), -e, Fraction(1)]) == [e]
    start = time.perf_counter()
    p = parse_poly(f"(3*s - 7)^2*(s^2 - {2 * (10**14 + 31)})")
    assert rational_roots(poly_to_coeffs(p)) == [Fraction(7, 3)]
    assert real_roots(poly_to_coeffs(p))[1] == Fraction(7, 3)
    assert time.perf_counter() - start < 1.0


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    s = sympy.Symbol("s")
    for _ in range(40):
        # rational roots with large numerators and denominators, some
        # repeated, times a cofactor with large coefficients
        coeffs = [Fraction(rng.randint(-10**12, 10**12)) for _ in range(rng.randint(1, 4))]
        roots = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                 for _ in range(rng.randint(0, 3))]
        for r in roots + roots[:rng.randint(0, 1)]:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        expr = sum(sympy.Rational(c.numerator, c.denominator) * s**i
                   for i, c in enumerate(coeffs))
        want = sorted({Fraction(int(-f.coeff(s, 0).p * f.coeff(s, 1).q),
                                int(f.coeff(s, 0).q * f.coeff(s, 1).p))
                       for f, _ in sympy.factor_list(expr)[1]
                       if sympy.degree(f, s) == 1})
        assert rational_roots(coeffs) == want


@given(small_roots)
@settings(max_examples=40)
def test_real_roots_sorted_and_complete(roots):
    coeffs = _poly_from_roots(roots)
    out = real_roots(coeffs)
    assert out == sorted(set(roots))


def test_real_roots_mixed_rational_irrational():
    # (x + 2)(x^2 - 2): isolating intervals must exclude the rational root
    p = parse_poly("(x + 2)*(x^2 - 2)")
    coeffs = poly_to_coeffs(p, "x")
    out = real_roots(coeffs)
    assert len(out) == 3
    rational = [r for r in out if isinstance(r, Fraction)]
    intervals = [r for r in out if isinstance(r, IsolatingInterval)]
    assert rational == [Fraction(-2)]
    assert len(intervals) == 2
    for iv in intervals:
        assert not (iv.lo <= Fraction(-2) <= iv.hi)
        # the endpoint certificate is stated against the full polynomial
        lo_sign = 1 if horner(coeffs, iv.lo) > 0 else -1
        hi_sign = 1 if horner(coeffs, iv.hi) > 0 else -1
        assert iv.sign_change_certificate == (lo_sign, hi_sign)


def test_sturm_root_count():
    p = parse_poly("(x - 1)*(x - 3)*(x^2 + 1)")
    chain = sturm_chain(poly_to_coeffs(p, "x"))
    assert root_count_interval(chain, Fraction(0), Fraction(2)) == 1
    assert root_count_interval(chain, Fraction(0), Fraction(4)) == 2
    assert root_count_interval(chain, Fraction(-10), Fraction(0)) == 0


def test_cauchy_bound_contains_roots():
    coeffs = _poly_from_roots([Fraction(5), Fraction(-7, 2)])
    b = cauchy_bound(coeffs)
    assert b >= 7


def test_refine_narrows_with_certificate():
    coeffs = poly_to_coeffs(parse_poly("x^2 - 2"), "x")
    iv = real_roots(coeffs)[1]
    narrow = refine(iv, Fraction(1, 10**9))
    assert narrow.width() <= Fraction(1, 10**9)
    assert narrow.lo <= Fraction(1414213562, 10**9) <= narrow.hi
    assert narrow.poly == iv.poly == tuple(squarefree_part(coeffs))


def test_refine_shrinks_a_rational_hit_to_the_width():
    # the first bisection midpoint of the middle box is the root 0 itself
    iv = isolate_real_roots(parse_poly("x^3-x"))[1]
    narrow = refine(iv, Fraction(1, 10**9))
    assert narrow.width() <= Fraction(1, 10**9)
    assert narrow.lo < 0 < narrow.hi
    assert narrow.sign_change_certificate == iv.sign_change_certificate
    assert narrow.poly == iv.poly


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 3)])
def test_refine_rejects_a_width_that_is_not_positive(width):
    iv = real_roots(poly_to_coeffs(parse_poly("x^2 - 2"), "x"))[1]
    with pytest.raises(ValueError, match="positive"):
        refine(iv, width)


def test_isolate_real_roots_multipoly():
    p = parse_poly("x^3 - x")
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    # roots -1/2, 1 and the irrational cube root of 2
    p = parse_poly("(x - 1)*(2*x + 1)*(x^3 - 2)")
    coeffs = poly_to_coeffs(p, "x")
    chain = sturm_chain(squarefree_part(coeffs))
    ivs = isolate_real_roots(p)
    assert [(iv.lo, iv.hi) for iv in ivs] == [
        (Fraction(-3, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(5, 4)),
        (Fraction(9, 8), Fraction(3, 2)),
    ]
    for iv, root in zip(ivs, (-0.5, 1.0, 2 ** (1 / 3))):
        assert iv.lo < root < iv.hi
        assert root_count_interval(chain, iv.lo, iv.hi) == 1
    assert ivs[2] == real_roots(coeffs)[2]


def test_sign_at_root_exact():
    defining = parse_poly("x^2 - 2")
    root = real_roots(poly_to_coeffs(defining, "x"))[1]  # sqrt(2)
    assert sign_at_root(parse_poly("x - 1"), root, "x") == 1
    assert sign_at_root(parse_poly("x - 2"), root, "x") == -1
    # shares the root exactly: certified zero, not a tiny nonzero sign
    assert sign_at_root(parse_poly("x^4 - 4"), root, "x") == 0


# floor(alpha * 10^150) for alpha = sqrt(2), sqrt(3/2) and 2^(1/4)
_SQRT2_DIGITS = math.isqrt(2 * 10**300)
_SQRT3_2_DIGITS = math.isqrt(3 * 10**300 // 2)
_ROOT4_2_DIGITS = math.isqrt(math.isqrt(2 * 10**600))


@pytest.mark.parametrize("defining, f, sign", [
    # x - r at sqrt(2), r its 150-digit truncation and one unit above;
    # the defining 2 - x^2 falls through the root
    ([2, 0, -1], [Fraction(-_SQRT2_DIGITS, 10**150), 1], 1),
    ([2, 0, -1], [Fraction(-_SQRT2_DIGITS - 1, 10**150), 1], -1),
    # x - q*sqrt(2) at sqrt(3), q the truncation of sqrt(3/2): a Q(sqrt 2)
    # coefficient
    ([-3, 0, 1], [QuadExt(0, Fraction(-_SQRT3_2_DIGITS, 10**150), 2), 1], 1),
    ([-3, 0, 1], [QuadExt(0, Fraction(-_SQRT3_2_DIGITS - 1, 10**150), 2), 1], -1),
    # x - r at 2^(1/4), a root of x^2 - sqrt(2)
    ([QuadExt(0, -1, 2), 0, 1], [Fraction(-_ROOT4_2_DIGITS, 10**150), 1], 1),
    ([QuadExt(0, -1, 2), 0, 1], [Fraction(-_ROOT4_2_DIGITS - 1, 10**150), 1], -1),
], ids=["sqrt2-below", "sqrt2-above", "sqrt3-vs-q-sqrt2-below",
        "sqrt3-vs-q-sqrt2-above", "root4-2-below", "root4-2-above"])
def test_sign_at_root_decides_near_misses(defining, f, sign):
    root = real_roots([Fraction(c) if isinstance(c, int) else c for c in defining])[-1]
    fp = MultiPoly.from_collected(("x",), {(i,): c for i, c in enumerate(f)})
    assert sign_at_root(fp, root, "x") == sign


def _sqrt2_coeff(a: int, b: int):
    return QuadExt(a, b, 2) if b else Fraction(a)


@st.composite
def _sign_cases(draw):
    """(f, defining) coefficient pairs (index = power) over Q or Q(sqrt 2):
    defining = h*m and f = h*k, so a root of h is shared."""
    b_range = (-2, 2) if draw(st.booleans()) else (0, 0)

    def poly(lo: int, hi: int) -> list:
        n = draw(st.integers(lo, hi))
        pairs = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(*b_range)),
                              min_size=n + 1, max_size=n + 1))
        if pairs[-1] == (0, 0):
            pairs[-1] = (1, 0)
        return pairs

    h = poly(0, 2)
    m = poly(1, 5 - len(h))
    k = poly(0, 5 - len(h))
    return h, m, k


@given(_sign_cases())
@settings(max_examples=40, deadline=None)  # the first example pays the sympy import
def test_sign_at_root_matches_sympy(case):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    domain = sp.QQ.algebraic_field(sp.sqrt(2))

    def both(pairs):
        mp = MultiPoly.from_collected(
            ("x",), {(i,): _sqrt2_coeff(a, b) for i, (a, b) in enumerate(pairs)})
        # domain([b, a]) is a + b*sqrt(2)
        return mp, sp.Poly.from_list([domain([b, a]) for a, b in reversed(pairs)],
                                     x, domain=domain)

    (h, hs), (m, ms), (k, ks) = (both(p) for p in case)
    f, fs = h * k, hs * ks
    defining, ds = h * m, hs * ms
    shared = fs.gcd(ds)
    for root in real_roots(poly_to_coeffs(defining, "x")):
        s = sign_at_root(f, root, "x")
        if isinstance(root, Fraction):
            r = sp.Rational(root.numerator, root.denominator)
            assert (s == 0) == (shared.eval(r) == 0)
            assert s == sp.sign(fs.eval(r))
            continue
        lo, hi = (sp.Rational(v.numerator, v.denominator) for v in (root.lo, root.hi))
        assert (s == 0) == (shared.degree() > 0 and shared.count_roots(lo, hi) > 0)
        if s != 0:
            z = _bisect(sp.lambdify(x, ds.sqf_part().as_expr(), "mpmath"), root)
            value = fs.as_expr().evalf(50, subs={x: sp.Float(z, 80)})
            assert s == (1 if value > 0 else -1)


def _bisect(fn, root: IsolatingInterval):
    """The point in (root.lo, root.hi) where fn changes sign, to 80 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        lo, hi = (mpmath.mpf(v.numerator) / v.denominator for v in (root.lo, root.hi))
        at_lo = fn(lo) > 0
        for _ in range(280):
            mid = (lo + hi) / 2
            if (fn(mid) > 0) == at_lo:
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("call", [
    lambda: isolate_real_roots(parse_poly("x^2-2"), "y"),
    lambda: poly_to_coeffs(parse_poly("x^2-2", ("x", "y")), "y"),
    lambda: sign_at_root(parse_poly("x^2-2"),
                         real_roots([Fraction(-2), Fraction(0), Fraction(1)])[1], "y"),
], ids=["isolate", "poly_to_coeffs", "sign_at_root"])
def test_polynomial_in_another_variable_is_rejected(call):
    with pytest.raises(ValueError, match=r"x\^2-2 is not a polynomial in y"):
        call()


def _euclid(a, b):
    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(p, q):
        p = p[:]
        while len(p) >= len(q):
            if p[-1] == 0:
                p.pop()
                continue
            f = p[-1] / q[-1]
            s = len(p) - len(q)
            for i, c in enumerate(q):
                p[s + i] -= f * c
            while p and p[-1] == 0:
                p.pop()
        return p

    a, b = strip(a), strip(b)
    while b:
        a, b = b, strip(rem(a, b))
    return a


def test_gcd_univariate_against_euclid_oracle():
    rng = random.Random(3)
    for _ in range(100):
        a = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))]
        b = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 6))]
        if not any(a) or not any(b):
            continue
        g = gcd_univariate(a[:], b[:])
        o = _euclid(a[:], b[:])
        assert len(g) == len(o)
        if len(o) > 1:  # same polynomial up to a unit
            ratios = {gc / oc for gc, oc in zip(g, o) if oc != 0}
            assert len(ratios) == 1


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_roots([Fraction(0)])


@pytest.mark.parametrize("text, variables", [
    ("7", None), ("7", ("x",)), ("-3/4", ("x", "y")), ("0*x + 5", ("x",)),
])
def test_constant_has_no_roots(text, variables):
    p = parse_poly(text, variables)
    coeffs = poly_to_coeffs(p)
    assert coeffs == [p.constant_value()]
    assert real_roots(coeffs) == []
    assert isolate_real_roots(p) == []
    assert isolate_real_roots(p, "x") == []


def test_zero_polynomial_has_no_isolation():
    assert poly_to_coeffs(parse_poly("0")) == []
    with pytest.raises(ValueError):
        isolate_real_roots(parse_poly("0", ("x",)))
