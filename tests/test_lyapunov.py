"""Focus quantities: oracles, the top-degree path, and normalization."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from cycleforge import fields
from cycleforge.lyapunov import (
    linear_parts_in,
    lyapunov_quantities,
    normalize_at,
)
from cycleforge.poly import MultiPoly, format_poly, parse_poly
from cycleforge.scalars import QuadExt


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


def test_rejects_wrong_linear_part():
    p = parse_poly("-2*y", ("x", "y"))
    q = parse_poly("x", ("x", "y"))
    with pytest.raises(ValueError):
        lyapunov_quantities(p, q, 1)


def test_normalize_at_shifted_center():
    # center of x' = y - x^2... use the symmetric two-center family at
    # (1/4, 0); normalization leaves a sqrt(2) dilation to the returned scale
    fam = fields.p9_family().bind({"mu": Fraction(0), "alpha": Fraction(0),
                                   "lam": Fraction(0)})
    p, q, scale = normalize_at(fam.P, fam.Q, (Fraction(1, 4), Fraction(0)))
    assert scale == 2
    # normalized linear part is exactly (-y, x)
    rep = lyapunov_quantities(p, q, 1)
    assert rep.quantities[0].is_zero()  # unperturbed family is a center


def test_normalize_rejects_non_singularity():
    fam = fields.p9_family().bind({"mu": Fraction(0), "alpha": Fraction(0),
                                   "lam": Fraction(0)})
    with pytest.raises(ValueError):
        normalize_at(fam.P, fam.Q, (Fraction(1, 8), Fraction(0)))


@pytest.mark.parametrize("f, g, message", [
    ("-y + a*x", "x", "linear part depends on symbolic parameters"),
    ("-y + 1", "x", "point is not a singularity"),
    ("-y + x", "x", "Jacobian is not trace-free"),
    ("y", "x", "Jacobian determinant is not positive"),
])
def test_normalize_at_names_what_is_wrong(f, g, message):
    vs = ("x", "y", "a")
    with pytest.raises(ValueError, match=f"^{message}$"):
        normalize_at(parse_poly(f, vs), parse_poly(g, vs), (0, 0))


def test_normalize_at_an_off_origin_point_with_a_non_square_determinant():
    # at (1, 2) the Jacobian is [[1, -2], [3, -1]], det 5: w = sqrt(5)
    vs = ("x", "y")
    f = parse_poly("(x - 1) - 2*(y - 2) + (x - 1)^2", vs)
    g = parse_poly("3*(x - 1) - (y - 2) + (x - 1)*(y - 2)", vs)
    p, q, scale = normalize_at(f, g, (1, 2))
    assert scale == 2
    assert p.graded(vs)[1] == -MultiPoly.var("y", vs)
    assert q.graded(vs)[1] == MultiPoly.var("x", vs)
    assert 0 not in p.graded(vs) and 0 not in q.graded(vs)
    assert any(isinstance(c, QuadExt) and c.b and c.d == 5
               for h in (p, q) for c in h.terms.values())


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


def test_negative_count_is_rejected():
    fam = fields.p4_family()
    with pytest.raises(ValueError):
        lyapunov_quantities(fam.P, fam.Q, -1)
    assert lyapunov_quantities(fam.P, fam.Q, 0).quantities == []


# each id names the pin, the x^k coefficient at even degrees k
@pytest.mark.parametrize("family", [fields.p4_family, fields.p5_family],
                         ids=["ck0-p4_family", "ck0-p5_family"])
def test_top_degree_matches_interior_path(family):
    # L_N comes from its linear form when N is the last quantity and from
    # the rotation sweep when a later one is asked for
    fam = family()
    for N in (1, 2, 3, 4):
        last = lyapunov_quantities(fam.P, fam.Q, N).quantities
        inner = lyapunov_quantities(fam.P, fam.Q, N + 1).quantities
        assert last == inner[:N]


def test_top_degree_matches_interior_path_in_a_jet():
    fam = fields.p5_family()
    jet = (fam.parameters, 1)
    for N in (1, 2, 3):
        last = lyapunov_quantities(fam.P, fam.Q, N, jet=jet).quantities
        inner = lyapunov_quantities(fam.P, fam.Q, N + 1, jet=jet).quantities
        assert last == inner[:N]


def test_top_degree_matches_interior_path_over_quadratic_extension():
    # det = 3 at the origin: the normalization lives over Q(sqrt(3)), exact
    # and in the first-order jet that P9b and T1c take through both folds
    vs = ("x", "y", "l1", "l2")
    p = parse_poly("-y + x^2 - x*y + l1*x*y + l2*y^2", vs)
    q = parse_poly("3*x + x*y - 2*y^2 + l1*x^2", vs)
    pn, qn, _ = normalize_at(p, q, (0, 0))
    assert any(isinstance(c, QuadExt) and c.b and c.d == 3
               for h in (pn, qn) for c in h.terms.values())
    for jet in (None, (("l1", "l2"), 1)):
        for N in (1, 2, 3):
            last, inner = (lyapunov_quantities(pn, qn, n, jet=jet) for n in (N, N + 1))
            assert last.quantities == inner.quantities[:N]
        assert any("sqrt(3)" in L for L in last.to_json()["quantities"])


def _sympy_quantities(sympy, f, g, count):
    """L_1..L_count by undetermined coefficients, pinning the x^k
    coefficient at even k and normalizing dH/dt = sum L_n x^(2n+2)."""
    x, y, L = sympy.symbols("x y L")
    P, Q = sympy.Poly(-y + f, x, y), sympy.Poly(x + g, x, y)
    H = sympy.Poly(x**2 + y**2, x, y)
    out = []
    for k in range(3, 2 * count + 3):
        even = k % 2 == 0
        cs = sympy.symbols(f"c0:{k + 1}")  # c_i multiplies x^i y^(k-i)
        free = cs[:k] if even else cs  # the pin sets c_k = 0 at even k
        hk = sympy.Poly(sum(c * x**i * y**(k - i) for i, c in enumerate(free)), x, y)
        Hk = H + hk
        dH = P * Hk.diff(x) + Q * Hk.diff(y)
        eqs = [dH.coeff_monomial(x**i * y**(k - i)) for i in range(k + 1)]
        if even:
            eqs[k] -= L
        unknowns = [*free, L] if even else list(free)
        (sol,) = sympy.linsolve(eqs, unknowns)  # one solution, no free symbol
        sol = dict(zip(unknowns, sol))
        H = sympy.Poly(Hk.as_expr().subs(sol), x, y)
        if even:
            out.append(sol[L])
    return out


def _random_field(sympy, rng, mons):
    """(p, q, f, g): x' = -y + f, y' = x + g with random rational f, g over
    the monomials `mons`, as MultiPoly and as sympy expressions."""
    x, y = sympy.symbols("x y")
    a, b = ({m: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in mons}
            for _ in range(2))
    p = MultiPoly(("x", "y"), {(0, 1): Fraction(-1), **a})
    q = MultiPoly(("x", "y"), {(1, 0): Fraction(1), **b})
    f, g = (sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                for (i, j), c in h.items()) for h in (a, b))
    return p, q, f, g


def test_quantities_match_sympy_undetermined_coefficients():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(3):
        p, q, f, g = _random_field(sympy, rng, [(2, 0), (1, 1), (0, 2)])
        ours = [L.constant_value() for L in lyapunov_quantities(p, q, 3).quantities]
        theirs = _sympy_quantities(sympy, f, g, 3)
        assert ours == [Fraction(int(v.p), int(v.q)) for v in theirs]


def test_quantities_match_sympy_with_cubic_and_quartic_terms():
    # degree-3 and -4 terms reach L_N through its linear form on P_2N,
    # P_2N+1 and the circle mean of P_2N+2, and L_(N-1) through the circle
    # mean of P_2N; at N = 1 only x^2 + y^2 is folded
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2025)
    mons = [(i, d - i) for d in (2, 3, 4) for i in range(d + 1)]
    for _ in range(2):
        p, q, f, g = _random_field(sympy, rng, mons)
        theirs = [Fraction(int(v.p), int(v.q)) for v in _sympy_quantities(sympy, f, g, 3)]
        for N in (1, 2, 3):
            ours = lyapunov_quantities(p, q, N).quantities
            assert [L.constant_value() for L in ours] == theirs[:N]


@pytest.mark.parametrize("degrees", [(2, 5), (2, 5, 6)])
def test_quantities_match_sympy_with_quintic_and_sextic_terms(degrees):
    # with terms up to degree top the forms on P_2N reach down to degree
    # 2N + 1 - top, and take x^2 + y^2 in when top >= 2N - 1, for L_N and
    # L_(N-1) (the circle mean of P_2N) alike; with quintic terms at N = 3
    # only the forms on P_2N reach x^2 + y^2, not the one on P_2N+1
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    mons = [(i, d - i) for d in degrees for i in range(d + 1)]
    p, q, f, g = _random_field(sympy, rng, mons)
    theirs = [Fraction(int(v.p), int(v.q)) for v in _sympy_quantities(sympy, f, g, 3)]
    for N in (1, 2, 3):
        ours = lyapunov_quantities(p, q, N).quantities
        assert [L.constant_value() for L in ours] == theirs[:N]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quantities_peak(count: int) -> int:
    fam = fields.p5_family()
    return _traced_peak(lambda: lyapunov_quantities(fam.P, fam.Q, count))


def test_memory_of_four_quantities_stays_small():
    # degrees 3..6 are stored while a later degree reads them, degree 7 is
    # never stored and degrees 8 and 9 are never swept: each coefficient of
    # degree 7 adds to L_3 (the circle mean of P_8) and L_4 (a form on P_8,
    # P_9 and P_10) as it is solved.  The traced heap peak is 444 KiB, and
    # the bound fails a recursion that sweeps degree 8 and stores 7 (501 KiB)
    assert _quantities_peak(4) < 0.46 * 2**20


def test_memory_of_five_quantities_stays_small():
    # degrees 10 and 11 are never swept and degree 9 never stored: the traced
    # heap peak is 1.21 MiB, and the bound fails a recursion that sweeps 10
    # (8,418 terms) and stores 9 (1.54 MiB)
    assert _quantities_peak(5) < 1.4 * 2**20


def test_printing_a_quantity_builds_no_term_list():
    # L_5 of P5 has 2,378 terms and prints as 92,234 characters; the printer
    # writes each term as it walks the sorted keys, at a traced peak of about
    # 110 KiB, where building every (exponent, Fraction) pair first took
    # 556 KiB
    fam = fields.p5_family()
    L5 = lyapunov_quantities(fam.P, fam.Q, 5).quantities[4]
    assert _traced_peak(lambda: format_poly(L5)) < 300 * 2**10
