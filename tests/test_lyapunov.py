"""Focus quantities: oracles, pinning independence, and normalization."""

from fractions import Fraction

import pytest

from cycleforge import fields
from cycleforge.lyapunov import (
    focus_stability,
    linear_parts_in,
    lyapunov_quantities,
    normalize_at,
)
from cycleforge.poly import parse_poly


def test_reversible_field_has_zero_quantities():
    # x' = -y, y' = x + x^2 is reversible about y=0: all quantities vanish
    p = parse_poly("-y + 0*x^2", ("x", "y"))
    q = parse_poly("x + x^2", ("x", "y"))
    rep = lyapunov_quantities(p, q, 3)
    assert all(L.is_zero() for L in rep.quantities)


def test_hamiltonian_quadratic_is_center():
    # Hamiltonian H = (x^2+y^2)/2 + x^2*y: divergence-free, hence a center
    p = parse_poly("-y - x^2", ("x", "y"))
    q = parse_poly("x + 2*x*y", ("x", "y"))
    rep = lyapunov_quantities(p, q, 3)
    assert all(L.is_zero() for L in rep.quantities)


def test_known_quadratic_oracle():
    # the general quadratic with a20 = b02 = 0 has
    # L1 = 2/3*(a11*a02 - b20*b11): check at numeric parameter points
    fam = fields.p4_family()
    rep = lyapunov_quantities(fam.P, fam.Q, 1)
    for a11, a02, b20, b11 in [(1, 2, 3, 4), (0, 5, -1, 2), (-3, 1, 1, -3)]:
        v = rep.quantities[0].eval_scalar({
            "a11": Fraction(a11), "a02": Fraction(a02),
            "b20": Fraction(b20), "b11": Fraction(b11)})
        assert v == Fraction(2, 3) * (a11 * a02 - b20 * b11)


def test_pinning_choice_does_not_move_zero_set():
    fam = fields.p4_family()
    rep_a = lyapunov_quantities(fam.P, fam.Q, 3, pin="ck0")
    rep_b = lyapunov_quantities(fam.P, fam.Q, 3, pin="c0k")
    # the first quantity is pinning-independent
    assert rep_a.quantities[0] == rep_b.quantities[0]
    # later quantities may differ, but the first nonzero index agrees
    # at concrete parameter points
    for b in ({"a11": 1, "a02": 1, "b20": 0, "b11": 0},
              {"a11": 1, "a02": 0, "b20": 0, "b11": 1},
              {"a11": 2, "a02": 1, "b20": 1, "b11": 2}):
        bb = {k: Fraction(v) for k, v in b.items()}
        ia, sa = focus_stability(rep_a, bb)
        ib, sb = focus_stability(rep_b, bb)
        assert (ia, sa) == (ib, sb)


def test_rejects_wrong_linear_part():
    p = parse_poly("-2*y", ("x", "y"))
    q = parse_poly("x", ("x", "y"))
    with pytest.raises(ValueError):
        lyapunov_quantities(p, q, 1)


def test_normalize_at_shifted_center():
    # center of x' = y - x^2... use the symmetric two-center family at
    # (1/4, 0); normalization defers a sqrt(2) dilation to quantity_scale
    fam = fields.p9_family().bind({"mu": Fraction(0), "alpha": Fraction(0),
                                   "lam": Fraction(0)})
    nf = normalize_at(fam.P, fam.Q, (Fraction(1, 4), Fraction(0)))
    assert nf.quantity_scale == Fraction(2)
    # normalized linear part is exactly (-y, x)
    rep = lyapunov_quantities(nf.p, nf.q, 1, quantity_scale=nf.quantity_scale)
    assert rep.quantities[0].is_zero()  # unperturbed family is a center


def test_normalize_rejects_non_singularity():
    fam = fields.p9_family().bind({"mu": Fraction(0), "alpha": Fraction(0),
                                   "lam": Fraction(0)})
    with pytest.raises(ValueError):
        normalize_at(fam.P, fam.Q, (Fraction(1, 8), Fraction(0)))


def test_linear_parts_in():
    fam = fields.p4_family()
    rep = lyapunov_quantities(fam.P, fam.Q, 2)
    # quantities vanish at (a11, b11) = 0, linearly in those symbols? no:
    # L1 = 2/3*a11*a02 - 2/3*b20*b11 vanishes at a11 = b11 = 0
    rows = linear_parts_in(rep, ("a11", "b11"))
    assert len(rows) == 2 and len(rows[0]) == 2
    expected = parse_poly("2/3*a02", ("a02", "b20"))
    assert rows[0][0].with_variables(expected.variables) == expected
    expected2 = parse_poly("-2/3*b20", ("a02", "b20"))
    assert rows[0][1].with_variables(expected2.variables) == expected2


def test_linear_parts_requires_vanishing_base():
    fam = fields.p4_family()
    rep = lyapunov_quantities(fam.P, fam.Q, 1)
    with pytest.raises(ValueError):
        linear_parts_in(rep, ("a11",))  # L1 has a b20*b11 offset
