"""Fraction-free Gauss–Jordan reduction, determinants and exact linear solving."""

import random
from fractions import Fraction

import pytest

from cycleforge.linalg import ExactMatrix, determinant, echelon, solve_linear_exact
from cycleforge.poly import MultiPoly, parse_poly


def _laplace(rows):
    """Independent cofactor-expansion oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _laplace(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        assert determinant(ExactMatrix(rows)) == _laplace(rows)


def test_determinant_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        C = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        assert determinant(ExactMatrix(C)) == (
            determinant(ExactMatrix(A)) * determinant(ExactMatrix(B)))


def test_polynomial_entries_stay_exact():
    t = parse_poly("t", ("t",))
    one = MultiPoly.const(Fraction(1), ("t",))
    A = ExactMatrix([[t, one], [one, t]])
    assert determinant(A) == parse_poly("t^2 - 1", ("t",))


def test_singular_polynomial_determinant_is_ring_zero():
    t = parse_poly("t", ("t",))
    zero = MultiPoly.zero(("t",))
    one = MultiPoly.const(Fraction(1), ("t",))
    for rows in ([[zero, t], [zero, one]],
                 [[t, one, t], [t * t, t, t], [t, one, one]]):
        d = determinant(ExactMatrix(rows))
        assert isinstance(d, MultiPoly) and d.is_zero() and d.variables == ("t",)


def _random_rank_deficient(rng, entry):
    """Random rows with a zero column and one row a combination of others."""
    nrows, ncols = rng.randint(2, 4), rng.randint(2, 5)
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows - 1)]
    a, b = entry(), entry()
    rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    z = rng.randrange(ncols)
    for row in rows:
        row[z] = row[z] * 0
    rng.shuffle(rows)
    return rows


def test_rank_and_pivots_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(40):
        rows = _random_rank_deficient(
            rng, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        _, d, pivots, reduced = echelon(ExactMatrix(rows))
        rref, sym_pivots = sympy.Matrix(rows).rref()
        assert len(pivots) == sympy.Matrix(rows).rank() == len(sym_pivots)
        assert pivots == list(sym_pivots)
        # the pivot rows are d times the reduced row echelon form
        assert [[sympy.Rational(e.numerator, e.denominator) for e in row]
                for row in reduced] == [
            [sympy.Rational(d.numerator, d.denominator) * e for e in rref.row(i)]
            for i in range(len(pivots))]


def _random_poly_entry(rng, vs):
    monomials = [parse_poly(m, vs) for m in ("1", "s", "t", "s*t", "t^2")]
    return lambda: sum((m * Fraction(rng.randint(-2, 2)) for m in monomials),
                       MultiPoly.zero(vs))


def test_polynomial_rank_matches_specializations():
    rng = random.Random(23)
    vs = ("s", "t")
    entry = _random_poly_entry(rng, vs)
    for _ in range(15):
        rows = _random_rank_deficient(rng, entry)
        pivots = echelon(ExactMatrix(rows))[2]
        for _ in range(3):
            at = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for v in vs}
            spec = [[e.eval_scalar(at) for e in row] for row in rows]
            assert echelon(ExactMatrix(spec))[2] == pivots


def _at(e, at):
    return e.eval_scalar(at) if isinstance(e, MultiPoly) else e


def test_polynomial_echelon_specializes_to_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    vs = ("s", "t")
    entry = _random_poly_entry(rng, vs)
    checked = 0
    for _ in range(15):
        rows = _random_rank_deficient(rng, entry)
        _, d, pivots, reduced = echelon(ExactMatrix(rows))
        for _ in range(3):
            at = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for v in vs}
            d_at = _at(d, at)
            if d_at == 0:
                continue
            rref, sym_pivots = sympy.Matrix(
                [[e.eval_scalar(at) for e in row] for row in rows]).rref()
            # d(at) != 0 keeps the generic pivot block independent at the point
            assert list(sym_pivots) == pivots
            want = [[d_at * Fraction(int(x.p), int(x.q)) for x in rref.row(i)]
                    for i in range(len(pivots))]
            assert [[_at(e, at) for e in row] for row in reduced] == want
            checked += 1
    assert checked >= 40


def test_rank_skips_zero_column():
    A = ExactMatrix([[Fraction(0), Fraction(1), Fraction(2)],
                     [Fraction(0), Fraction(2), Fraction(4)],
                     [Fraction(0), Fraction(0), Fraction(1)]])
    assert echelon(A)[2] == [1, 2]
    assert determinant(A) == 0


def test_solve_unique_by_substitution():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            A = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                 for _ in range(n)]
            if determinant(ExactMatrix(A)) != 0:
                break
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert solve_linear_exact(ExactMatrix(A), b) == x


def test_solve_inconsistent_has_no_solution():
    A = ExactMatrix([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    assert solve_linear_exact(A, [Fraction(1), Fraction(3)]) is None


def test_column_order_controls_free_unknowns():
    # one equation, two unknowns: pivots are taken left to right, so the
    # later column stays free and is pinned to zero
    A = ExactMatrix([[Fraction(1), Fraction(1)]])
    assert solve_linear_exact(A, [Fraction(5)]) == [Fraction(5), Fraction(0)]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear_exact(ExactMatrix([[Fraction(1)]]), [Fraction(1), Fraction(2)])
