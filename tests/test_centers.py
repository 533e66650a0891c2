"""Center certificates: invariant curves, cofactors, integrating factors."""

import pytest

from cycleforge import centers, fields
from cycleforge.fields import VectorField
from cycleforge.poly import MultiPoly, parse_poly


def test_boundary_lines_are_invariant():
    fam = fields.p4_family()
    for curve in centers.DEFAULT_CURVES:
        F = parse_poly(curve, fam.variables)
        K = centers.cofactor(fam, F)
        assert K is not None
        # Lie derivative identity holds exactly
        lie = fam.P * F.diff("x") + fam.Q * F.diff("y")
        assert lie == K * F


def test_cofactor_none_for_generic_curve():
    fam = fields.p4_family()
    F = parse_poly("x + y + 1", fam.variables)
    assert centers.cofactor(fam, F) is None


def test_cofactor_rejects_zero_curve():
    fam = fields.p4_family()
    with pytest.raises(ValueError):
        centers.cofactor(fam, MultiPoly.zero(fam.variables))


def test_darboux_witness_identity():
    # for a darboux certificate, div(X) + sum(lambda_i * K_i) == 0 exactly
    fam = fields.apply_condition(fields.p4_family(),
                                 fields.P4_CONDITIONS["C2"])
    cert = centers.certify(fam)
    assert cert.kind == "darboux"
    acc = centers.divergence(fam)
    for F, lam in cert.factors:
        K = centers.cofactor(fam, F)
        assert K is not None
        acc = acc + K * lam
    assert acc.is_zero()


def test_reversibility_detects_each_axis():
    # x' = (4x^2-1)*y is odd in y, y' = (4y^2-1)*x even in y: y=0 works
    fam = VectorField(parse_poly("y", ("x", "y")), parse_poly("x", ("x", "y")))
    lines = centers.reversibility(fam)
    assert set(lines) >= {"y=0", "x=0"}


def test_reversibility_absent():
    fam = VectorField(parse_poly("y + x*y + y^2", ("x", "y")),
                      parse_poly("-x + x^2 + 3*x*y", ("x", "y")))
    assert centers.reversibility(fam) == []


def test_separable_detection():
    fam = fields.apply_condition(fields.p4_family(),
                                 fields.P4_CONDITIONS["C3"])
    assert centers.separable_check(fam)
    assert not centers.separable_check(
        VectorField(parse_poly("y + x*y + y^2", ("x", "y")),
                    parse_poly("-x + x^2", ("x", "y"))))


def test_certify_none_for_generic_family():
    fam = fields.p4_family()  # generic parameters: no certificate expected
    cert = centers.certify(fam)
    assert cert.kind == "none"
