"""Exact arithmetic in quadratic number fields Q(sqrt(d))."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycleforge.scalars import (
    QuadExt,
    RadicandMismatch,
    as_fraction,
    is_zero,
    scalar_sign,
    squarefree_decompose,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def elements(draw, d=6):
    return QuadExt(draw(rationals), draw(rationals), d)


@given(elements(), elements())
def test_field_operations_match_floats(a, b):
    fa, fb = float(a), float(b)
    assert math.isclose(float(a + b), fa + fb, abs_tol=1e-9)
    assert math.isclose(float(a - b), fa - fb, abs_tol=1e-9)
    assert math.isclose(float(a * b), fa * fb, rel_tol=1e-9, abs_tol=1e-9)


@given(elements())
def test_inverse(a):
    if is_zero(a):
        return
    assert a * a.inverse() == QuadExt(Fraction(1), Fraction(0), 6)


@given(elements())
def test_sign_is_exact(a):
    s = scalar_sign(a)
    f = float(a)
    if s == 0:
        assert is_zero(a)
    else:
        # float may round a tiny nonzero value toward zero, never across it
        assert f == 0 or (f > 0) == (s > 0)


@given(elements())
def test_conjugate_norm(a):
    n = a * a.conjugate()
    assert n.b == 0 and n.to_fraction() == a.norm()


def test_squarefree_decompose():
    # n = s * k^2 with s square-free
    assert squarefree_decompose(24) == (6, 2)
    assert squarefree_decompose(49) == (1, 7)
    assert squarefree_decompose(6) == (6, 1)
    assert squarefree_decompose(1) == (1, 1)


def test_mixed_radicands_rejected():
    with pytest.raises(RadicandMismatch):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


def test_rational_coercion():
    a = QuadExt(Fraction(3, 4), Fraction(0), 5)
    assert a.b == 0
    assert as_fraction(a) == Fraction(3, 4)
    assert a + Fraction(1, 4) == QuadExt(1, 0, 5)


def test_sign_of_close_competitors():
    # 12/5 < sqrt(6) < 49/20, all within 2% of each other
    assert scalar_sign(QuadExt(Fraction(-12, 5), 1, 6)) == 1
    assert scalar_sign(QuadExt(Fraction(-49, 20), 1, 6)) == -1
    assert scalar_sign(QuadExt(Fraction(49, 20), -1, 6)) == 1
    assert scalar_sign(QuadExt(0, 0, 6)) == 0
