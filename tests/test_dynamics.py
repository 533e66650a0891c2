"""Certified singular points, configurations, and contact points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycleforge import dynamics, roots
from cycleforge.fields import VectorField, p9_family
from cycleforge.poly import MultiPoly, parse_poly


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


def test_enclosure_does_not_depend_on_earlier_calls():
    f, g = _pair("x^2 - x - 1", "y - x")
    points = [p.point for p in dynamics.pair_report(f, g).points]
    first = [p.enclosure() for p in points]
    for p in points:
        p.enclosure(Fraction(1, 10**30))
    assert [p.enclosure() for p in points] == first


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1)])
def test_enclosure_rejects_a_width_that_is_not_positive(width):
    f, g = _pair("x^2 - x - 1", "y - x")
    for p in dynamics.pair_report(f, g).points:
        with pytest.raises(ValueError, match="positive"):
            p.point.enclosure(width)


def test_mixed_rational_irrational_point():
    # x^2 - 2 = 0 with y = 1: one rational coordinate, one algebraic
    f, g = _pair("x^2 - 2", "y - 1")
    rep = dynamics.pair_report(f, g)
    assert len(rep.points) == 2
    ys = {p.point.midpoint()[1] for p in rep.points}
    assert ys == {Fraction(1)}


def test_component_free_of_x_with_irrational_roots():
    # y = +-sqrt(2); x^2*y + x - 1 has two real roots only at y = sqrt(2)
    f, g = _pair("y^2 - 2", "x^2*y + x - 1")
    rep = dynamics.pair_report(f, g)
    assert not rep.degenerate_family and len(rep.points) == 2
    for p in rep.points:
        assert p.point.sign_of(f) == p.point.sign_of(g) == 0
        assert p.point.sign_of(parse_poly("y", ("x", "y"))) == 1


def test_component_free_of_x_without_real_points():
    # y^2 = 2 turns the second component into 2*x^2 + x + 2 > 0
    f, g = _pair("2 - y^2", "2*y^2 + 2*x^2 + x - 2")
    rep = dynamics.pair_report(f, g)
    assert not rep.degenerate_family and rep.points == []


def _sympy_real_solutions(sympy, f, g):
    """sympy's distinct real common zeros of f and g, as exact (x, y).

    Each coordinate is a real root of the eliminant that a lex Groebner
    basis gives for it; a candidate pair is kept when f and g vanish there
    to 40 digits (distinct algebraic points are far apart at that scale).
    """
    x, y = sympy.symbols("x y")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                   for (i, j), c in p.terms.items())

    F, G = expr(f), expr(g)

    def coords(v, w):
        last = sympy.groebner([F, G], w, v, order="lex").exprs[-1]
        roots = [] if last.is_number else sympy.Poly(last, v).real_roots()
        return [(r, sympy.N(r, 60)) for r in dict.fromkeys(roots)]

    xs, ys = coords(x, y), coords(y, x)
    return [(x0, y0) for x0, xn in xs for y0, yn in ys
            if all(abs(h.subs({x: xn, y: yn})) < 1e-40 for h in (F, G))]


def _assert_matches_sympy(sympy, rep, f, g):
    """Same count as sympy's distinct real solutions, each of which lies in
    exactly one enclosure (exactly, when a coordinate is rational)."""
    sols = _sympy_real_solutions(sympy, f, g)
    assert len(rep.points) == len(sols)
    boxes = [p.point.enclosure() for p in rep.points]

    def inside(c, box):
        if c.is_Rational:
            return box.lo <= Fraction(int(c.p), int(c.q)) <= box.hi
        v = sympy.re(sympy.N(c, 60))
        return box.lo < v < box.hi

    for sol in sols:
        hits = [b for b in boxes if all(inside(c, bc) for c, bc in zip(sol, b))]
        assert len(hits) == 1, (sol, boxes)


def test_irrational_grid_is_solved():
    # every zero (+-sqrt2, +-sqrt3) has two irrational coordinates that are
    # not rational functions of each other: the identity and the swap
    # leave each fibre with two zeros, a shear separates them
    sympy = pytest.importorskip("sympy")
    f, g = _pair("y^2 - 3", "x^2 - 2")
    rep = dynamics.pair_report(f, g)
    assert not rep.degenerate_family and len(rep.points) == 4
    x, y = _pair("x", "y")
    assert {(p.point.sign_of(x), p.point.sign_of(y)) for p in rep.points} == {
        (1, 1), (1, -1), (-1, 1), (-1, -1)}
    for p in rep.points:
        bx, by = p.point.enclosure()
        assert bx.width() <= Fraction(1, 10**9) and by.width() <= Fraction(1, 10**9)
    _assert_matches_sympy(sympy, rep, f, g)
    assert dynamics.berlinskii_check(rep).configuration == "convex_alternating"


def test_unbound_symbols_are_input_errors():
    # a free symbol must not turn into a "degenerate family" report
    f = parse_poly("x + a", ("x", "a"))
    with pytest.raises(ValueError, match="unbound symbols a"):
        dynamics.pair_report(f, parse_poly("y", ("y",)))
    with pytest.raises(ValueError, match="unbound symbols alpha, lam"):
        dynamics.singularities_in_delta(p9_family(), {"mu": 0})


def test_square_free_parts_come_only_from_real_roots(monkeypatch):
    # each isolating interval carries its square-free polynomial, so sign
    # queries and enclosures never recompute it
    calls = {"squarefree_part": 0, "real_roots": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        return wrapper

    monkeypatch.setattr(roots, "squarefree_part", counted(roots, "squarefree_part"))
    wrapped = counted(roots, "real_roots")
    monkeypatch.setattr(roots, "real_roots", wrapped)
    monkeypatch.setattr(dynamics, "real_roots", wrapped)
    binding = {"mu": Fraction(-3, 16), "alpha": Fraction(7, 1000), "lam": Fraction(3, 100)}
    for _ in range(3):
        rep = dynamics.singularities_in_delta(p9_family(), binding)
        assert [p.kind for p in rep.points] == ["antisaddle_focus"] * 2
    assert 0 < calls["squarefree_part"] <= calls["real_roots"]


_MON = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@st.composite
def _small_pair(draw):
    """Quadratic pair with small integer coefficients; either component may
    be restricted to monomials free of x or free of y."""
    def comp():
        free = draw(st.sampled_from([None, 0, 1]))  # index of the absent variable
        mons = [m for m in _MON if free is None or m[free] == 0]
        terms = draw(st.dictionaries(st.sampled_from(mons),
                                     st.integers(-3, 3).filter(bool), min_size=1))
        return MultiPoly(("x", "y"), terms)
    return comp(), comp()


@settings(max_examples=60, deadline=None)
@given(_small_pair())
def test_every_reported_point_is_a_common_zero(pair):
    # every isolated common zero is solved, a doubly singular one too, and
    # certified by exact back-substitution
    f, g = pair
    rep = dynamics.pair_report(f, g)
    for p in rep.points:
        assert p.point.sign_of(f) == p.point.sign_of(g) == 0


def _random_poly(rng, frees=(None, 0, 1)):
    """Seeded counterpart of a _small_pair component: free of the variable
    of index rng.choice(frees), or of neither for None."""
    free = rng.choice(frees)
    mons = [m for m in _MON if free is None or m[free] == 0]
    picked = rng.sample(mons, rng.randint(1, len(mons)))
    return MultiPoly(("x", "y"), {m: rng.choice([-3, -2, -1, 1, 2, 3])
                                  for m in picked})


def _quadratic_in(rng, i):
    """a*v^2 + b*v - c with a, c > 0 in the variable of index i: two real
    roots, irrational unless the discriminant is a square."""
    def mon(e):
        return (e, 0) if i == 0 else (0, e)
    return MultiPoly(("x", "y"), {mon(2): rng.randint(1, 3), mon(1): rng.randint(-3, 3),
                                  mon(0): -rng.randint(1, 3)})


def _doubly_singular_grid(rng, i):
    """A(x)*B(y) with A^2 + B^2, 2A^2 - 3B^2 + AB or A^2 + L*B^2 (L a
    linear form): every common zero with A = B = 0 is singular on both
    components."""
    a, b = _quadratic_in(rng, 0), _quadratic_in(rng, 1)
    line = MultiPoly(("x", "y"), {(1, 0): rng.choice([-2, -1, 1, 2]),
                                  (0, 1): rng.choice([-2, -1, 1, 2]),
                                  (0, 0): rng.randint(-2, 2)})
    g = (a * a + b * b, a * a * 2 - b * b * 3 + a * b, a * a + line * b * b)[i % 3]
    return a * b, g


def test_point_sets_match_sympy():
    # random pairs, then grids (f free of x, g free of y): a grid needs a
    # shear when both components have irrational roots; then doubly
    # singular grids, whose fibres hold double zeros
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    pairs = [(_random_poly(rng), _random_poly(rng)) for _ in range(80)]
    pairs += [(_quadratic_in(rng, 1), _quadratic_in(rng, 0)) for _ in range(12)]
    pairs += [_doubly_singular_grid(rng, i) for i in range(12)]
    solved = 0
    for f, g in pairs:
        rep = dynamics.pair_report(f, g)
        if rep.degenerate_family:
            continue
        _assert_matches_sympy(sympy, rep, f, g)
        solved += 1
    assert solved >= 97


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


def _exact_report(points):
    """A report of exact points [(x, y, index)], each classified by its index."""
    one = MultiPoly.const(1, ("u", "s"))
    return dynamics.SingularityReport(points=[
        dynamics.SingularPoint(
            dynamics.CertifiedPoint((1, 0, 0, 1), Fraction(y), one * Fraction(-x), one),
            -index, 1, "saddle" if index < 0 else "antisaddle_node", index)
        for x, y, index in points])


@pytest.mark.parametrize("points, configuration, orientation", [
    ([(0, 0, 1), (1, 0, -1), (1, 1, 1), (0, 1, -1)], "convex_alternating", None),
    ([(0, 0, 1), (1, 0, 1), (1, 1, -1), (0, 1, -1)], "counterexample", None),
    ([(0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, -1)], "triangle_config", "saddle_inside"),
    ([(1, 1, 1), (0, 0, -1), (4, 0, -1), (0, 4, -1)], "triangle_config",
     "antisaddle_inside"),
    ([(0, 0, 1), (4, 0, 1), (0, 4, -1), (1, 1, -1)], "counterexample", None),
    ([(0, 0, 1), (4, 0, 1), (0, 4, -1), (1, 1, 1)], "counterexample", None),
    ([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, -1)], "counterexample", None),
    ([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], "counterexample", None),
    ([(0, 0, 1), (1, 1, -1), (2, 2, 1), (0, 1, -1)], "not_applicable", None),
])
def test_berlinskii_predicates_on_exact_points(points, configuration, orientation):
    res = dynamics.berlinskii_check(_exact_report(points))
    assert (res.configuration, res.orientation) == (configuration, orientation)


def test_berlinskii_gives_up_on_collinear_irrational_points():
    # four zeros on y = x, two of them irrational: no box decides a triple
    f, g = _pair("y - x", "(x^2 - 2)*(x - 1)*(x - 3)")
    rep = dynamics.pair_report(f, g)
    assert len(rep.points) == 4
    res = dynamics.berlinskii_check(rep)
    assert res.configuration == "not_applicable" and "collinear" in res.detail


def test_berlinskii_leaves_the_report_enclosures_alone():
    f, g = _pair("x^2 - 2", "(y - x)*(y - 141421356237/100000000000)")
    fresh = dynamics.pair_report(f, g).to_json()
    rep = dynamics.pair_report(f, g)
    assert dynamics.berlinskii_check(rep).configuration == "convex_alternating"
    assert rep.to_json() == fresh


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
