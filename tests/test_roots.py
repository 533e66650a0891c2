"""Exact real-root isolation, Sturm machinery, and algebraic signs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycleforge.poly import parse_poly
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
    found = dict(rational_roots(coeffs))
    expected = {}
    for r in roots:
        expected[r] = expected.get(r, 0) + 1
    assert found == expected


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
    narrow = refine(squarefree_part(coeffs), iv, Fraction(1, 10**9))
    assert narrow.width() <= Fraction(1, 10**9)
    assert narrow.lo <= Fraction(1414213562, 10**9) <= narrow.hi


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
    assert sign_at_root(parse_poly("x - 1"), defining, root, "x") == 1
    assert sign_at_root(parse_poly("x - 2"), defining, root, "x") == -1
    # shares the root exactly: certified zero, not a tiny nonzero sign
    assert sign_at_root(parse_poly("x^4 - 4"), defining, root, "x") == 0


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
