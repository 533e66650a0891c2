"""Certified singular points, configurations, and contact points."""

from fractions import Fraction

import pytest

from cycleforge import dynamics
from cycleforge.fields import VectorField
from cycleforge.poly import parse_poly


def _pair(fs, gs):
    f = parse_poly(fs, ("x", "y"))
    g = parse_poly(gs, ("x", "y"))
    return f, g


def test_rational_intersections_classified():
    # x^2 - y^2 = 0, x^2 + y^2 - 2 = 0: zeros at (+-1, +-1)
    f, g = _pair("x^2 - y^2", "x^2 + y^2 - 2")
    rep = dynamics.pair_report(f, g)
    assert not rep.degenerate_family and len(rep.points) == 4
    locs = {p.point.midpoint() for p in rep.points}
    assert locs == {(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)),
                    (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(-1))}
    # Jacobian det = 8xy: saddles in quadrants 2 and 4
    for p in rep.points:
        x, y = p.point.midpoint()
        assert p.index == (1 if x * y > 0 else -1)


def test_irrational_intersections_certified():
    # x^2 - x - 1 = 0 (golden ratio), y - x = 0
    f, g = _pair("x^2 - x - 1", "y - x")
    rep = dynamics.pair_report(f, g)
    assert len(rep.points) == 2
    for p in rep.points:
        bx, by = p.point.enclosure(Fraction(1, 10**6))
        assert bx.width() <= Fraction(2, 10**6)
        # y == x at both points
        assert not (bx.hi < by.lo or by.hi < bx.lo)
    golden = parse_poly("x^2 - x - 1", ("x", "y"))
    assert all(p.point.sign_of(golden) == 0 for p in rep.points)


def test_mixed_rational_irrational_point():
    # x^2 - 2 = 0 with y = 1: one rational coordinate, one algebraic
    f, g = _pair("x^2 - 2", "y - 1")
    rep = dynamics.pair_report(f, g)
    assert len(rep.points) == 2
    ys = {p.point.midpoint()[1] for p in rep.points}
    assert ys == {Fraction(1)}


def test_degenerate_shared_factor_detected():
    f, g = _pair("(x + y)*(x - 1)", "(x + y)*(y + 2)")
    rep = dynamics.pair_report(f, g)
    assert rep.degenerate_family and rep.reason


def test_sign_of_is_exact_at_algebraic_points():
    f, g = _pair("x^2 - 2", "y")
    rep = dynamics.pair_report(f, g)
    pos = next(p for p in rep.points if p.point.midpoint()[0] > 0)
    # sqrt(2) comparisons at close rational thresholds
    assert pos.point.sign_of(parse_poly("5*x - 7", ("x", "y"))) == 1
    assert pos.point.sign_of(parse_poly("12*x - 17", ("x", "y"))) == -1
    assert pos.point.sign_of(parse_poly("x^4 - 4", ("x", "y"))) == 0


def test_delta_filter():
    # zeros at (+-1/4, 0) and (+-1, 0): only the first pair is inside
    fld = VectorField(parse_poly("y + 0*x", ("x", "y")),
                      parse_poly("(16*x^2 - 1)*(x^2 - 1)", ("x", "y")))
    all_pts = dynamics.singularities_in_delta(fld, region="all")
    inside = dynamics.singularities_in_delta(fld, region="delta")
    assert len(all_pts.points) == 4
    assert {p.point.midpoint()[0] for p in inside.points} == {
        Fraction(1, 4), Fraction(-1, 4)}


def test_index_lemma():
    f, g = _pair("x^2 - y^2", "x^2 + y^2 - 2")
    u, v = _pair("4*x^2 - 1", "4*y^2 - 1")
    out = dynamics.index_lemma_check(f, g, u, v, (Fraction(1), Fraction(1)))
    assert out["holds"] and out["lhs"] == out["rhs"]


def test_berlinskii_four_point_configurations():
    f, g = _pair("x^2 - y^2", "x^2 + y^2 - 2")
    rep = dynamics.pair_report(f, g)
    res = dynamics.berlinskii_check(rep)
    assert res.configuration == "convex_alternating"
    assert dynamics.index_sum(rep) == 0


def test_berlinskii_not_applicable():
    f, g = _pair("x^2 - 2", "y - 1")
    rep = dynamics.pair_report(f, g)
    res = dynamics.berlinskii_check(rep)
    assert res.configuration == "not_applicable"


def test_contact_points_on_transversal_line():
    # symmetric center family at the slice y = 0
    fld = VectorField(parse_poly("x*y", ("x", "y")),
                      parse_poly("1 - 16*x^2", ("x", "y")))
    pts = dynamics.contact_points(fld, (0, 1, 0))  # the line y = 0
    xs = sorted(p.x for p in pts)
    assert xs == [Fraction(-1, 4), Fraction(1, 4)]
    assert all(p.simple for p in pts)


def test_contact_points_reject_invariant_line():
    fld = VectorField(parse_poly("y", ("x", "y")),
                      parse_poly("x", ("x", "y")))
    # x = 1/2 is a branch of the invariant square
    with pytest.raises(ValueError):
        dynamics.contact_points(fld, (2, 0, -1))


def test_contact_points_reject_degenerate_line():
    fld = VectorField(parse_poly("y", ("x", "y")),
                      parse_poly("x", ("x", "y")))
    with pytest.raises(ValueError):
        dynamics.contact_points(fld, (0, 0, 1))
