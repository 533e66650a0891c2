"""Center certificates: invariant curves, cofactors, integrating factors."""

import random
from itertools import combinations

import pytest

from cycleforge import centers, fields
from cycleforge.fields import VectorField
from cycleforge.poly import MultiPoly, parse_poly


def test_boundary_lines_are_invariant():
    fam = fields.p4_family()
    for F in fields.square_factors(fam.variables):
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


def _minors_vanish(p: MultiPoly) -> bool:
    """Every 2x2 minor of the (x, y) coefficient matrix of p is zero."""
    cells = p.collect(("x", "y"))
    zero = MultiPoly.zero(p.variables)
    rows, cols = {i for i, _ in cells}, {j for _, j in cells}
    return all((cells.get((r1, c1), zero) * cells.get((r2, c2), zero)
                - cells.get((r1, c2), zero) * cells.get((r2, c1), zero)).is_zero()
               for r1, r2 in combinations(rows, 2) for c1, c2 in combinations(cols, 2))


def test_separable_check_matches_the_minor_definition():
    # u(x)*v(y) with parameter coefficients separates; a sum of two such
    # products separates only when its coefficient matrix keeps rank one
    rng = random.Random(5)
    vs = ("x", "y", "a", "b")
    pieces = ["0", "1", "-2", "a", "b", "a - b", "a*b", "3*a + 1"]

    def factor(var):
        return parse_poly(" + ".join(f"({rng.choice(pieces)})*{var}^{k}" for k in range(3)), vs)

    seen = set()
    for _ in range(30):
        prod = factor("x") * factor("y")
        total = prod + factor("x") * factor("y")
        for f, g in ((prod, prod), (prod, total), (total, prod), (total, total)):
            fld = VectorField(f, g)
            expected = _minors_vanish(fld.P) and _minors_vanish(fld.Q)
            assert centers.separable_check(fld) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_certify_none_for_generic_family():
    fam = fields.p4_family()  # generic parameters: no certificate expected
    cert = centers.certify(fam)
    assert cert.kind == "none"
