"""Cross-module invariants: square invariance, index sums, and the
Jacobian determinant identity of the induced field."""

import itertools
import random
from fractions import Fraction

from cycleforge import dynamics, integrate
from cycleforge.fields import VectorField
from cycleforge.poly import MultiPoly

MON = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _random_quadratic(rng, lo=-3, hi=3):
    return MultiPoly(("x", "y"),
                     {m: Fraction(rng.randint(lo, hi)) for m in MON})


def test_square_is_invariant_under_the_flow():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(50):
        fld = VectorField(_random_quadratic(rng), _random_quadratic(rng))
        x0 = (rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        traj = integrate.integrate(fld, None, x0, tmax=100.0, samples=500,
                                   rtol=1e-9, atol=1e-11)
        assert traj.status == "ok"
        worst = max(worst, max(max(abs(x), abs(y)) for x, y in traj.xy) - 0.5)
    assert worst <= 1e-8


def _four_point_pair(rng):
    """Quadratic pair through 4 rational points in general position."""

    def collinear(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])

    while True:
        pts = []
        while len(pts) < 4:
            p = (Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-7, 7), 16))
            if p in pts or any(collinear(a, b, p)
                               for a, b in itertools.combinations(pts, 2)):
                continue
            pts.append(p)
        rows = [[Fraction(1), x, y, x * x, x * y, y * y] for x, y in pts]
        basis = _nullspace(rows)
        if len(basis) != 2:
            continue
        c1 = [rng.randint(-3, 3) for _ in range(2)]
        c2 = [rng.randint(-3, 3) for _ in range(2)]
        if c1[0] * c2[1] - c1[1] * c2[0] == 0:
            continue
        f = MultiPoly(("x", "y"), {m: c for m, c in zip(
            MON, (c1[0] * a + c1[1] * b for a, b in zip(*basis))) if c})
        g = MultiPoly(("x", "y"), {m: c for m, c in zip(
            MON, (c2[0] * a + c2[1] * b for a, b in zip(*basis))) if c})
        return f, g


def _nullspace(rows):
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def test_index_sum_matches_configuration():
    rng = random.Random(17)
    done = 0
    while done < 30:
        f, g = _four_point_pair(rng)
        rep = dynamics.singularities_in_delta(VectorField(f, g))
        if rep.degenerate_family or len(rep.points) != 4:
            continue
        if any(p.det_sign == 0 for p in rep.points):
            continue
        total = sum(p.index for p in rep.points)
        res = dynamics.berlinskii_check(rep)
        if res.configuration == "convex_alternating":
            assert total == 0
        elif res.configuration == "triangle_config":
            assert total in (-2, 2)
        else:
            raise AssertionError(res.configuration)
        done += 1


def test_index_lemma_at_boxed_irrational_points():
    # both sides of the determinant identity agree at algebraic points
    from cycleforge.poly import parse_poly
    f = parse_poly("x^2 - 2", ("x", "y"))
    g = parse_poly("y - x", ("x", "y"))
    u = parse_poly("4*x^2 - 1", ("x", "y"))
    v = parse_poly("4*y^2 - 1", ("x", "y"))
    rep = dynamics.pair_report(f, g)
    det_fg = f.diff("x") * g.diff("y") - f.diff("y") * g.diff("x")
    P, Q = u * f, v * g
    det_PQ = P.diff("x") * Q.diff("y") - P.diff("y") * Q.diff("x")
    for p in rep.points:
        lhs = p.point.sign_of(det_PQ)
        s_u, s_v = p.point.sign_of(u), p.point.sign_of(v)
        rhs = s_u * s_v * p.point.sign_of(det_fg)
        assert lhs == rhs != 0
