"""Exact dense linear algebra over scalars and polynomial entries.

Determinants and ranks share one fraction-free (Bareiss) elimination, so
polynomial entries never leave the ring.  ``solve_linear_exact`` solves a
constant scalar matrix against a scalar or polynomial right-hand side (the
Darboux cofactor systems of ``centers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .poly import MultiPoly
from .scalars import QuadExt, inverse, is_zero

Entry = Union[Fraction, QuadExt, MultiPoly]


def _entry_zero(x) -> bool:
    if isinstance(x, MultiPoly):
        return x.is_zero()
    return is_zero(x)


def _exact_div(num, den):
    """num / den, exact in the entry ring; raises if the division fails."""
    if isinstance(num, MultiPoly):
        if isinstance(den, MultiPoly):
            q = num.exact_div(den)
        else:
            q = num * inverse(den)
        if q is None:
            raise ArithmeticError("inexact division in Bareiss elimination")
        return q
    if isinstance(den, MultiPoly):
        if _entry_zero(num):
            return Fraction(0)
        q = MultiPoly.const(num).exact_div(den)
        if q is None:
            raise ArithmeticError("inexact division in Bareiss elimination")
        return q
    return num * inverse(den)


class ExactMatrix:
    """Rectangular matrix with exact scalar or polynomial entries."""

    def __init__(self, entries: Sequence[Sequence[Entry]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"ExactMatrix({self.entries!r})"


def _echelon(A: ExactMatrix) -> tuple:
    """Fraction-free (Bareiss) forward elimination on a copy of A.

    Each column pivots on its first nonzero entry at or below the current
    row and is skipped when it has none.  After r pivots every remaining
    entry is an (r+1)-minor of A, so the division by the previous pivot (an
    r-minor) is exact by Sylvester's identity and entries stay in the ring
    of A's entries.  Returns (sign of the row permutation, last pivot,
    pivot columns left to right).
    """
    m = [row[:] for row in A.entries]
    sign, prev, pivots = 1, Fraction(1), []
    for c in range(A.cols):
        r = len(pivots)
        if r == A.rows:
            break
        pr = next((i for i in range(r, A.rows) if not _entry_zero(m[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        for i in range(r + 1, A.rows):
            for j in range(c + 1, A.cols):
                m[i][j] = _exact_div(m[i][j] * m[r][c] - m[i][c] * m[r][j], prev)
        prev = m[r][c]
        pivots.append(c)
    return sign, prev, pivots


def determinant(A: ExactMatrix) -> Entry:
    """Exact determinant via Bareiss fraction-free elimination.

    Works for scalar entries and for polynomial entries.  A singular matrix
    gives the zero of its entry ring (a MultiPoly zero when any entry is a
    polynomial).
    """
    if not A.is_square():
        raise ValueError("determinant of a non-square matrix")
    if A.rows == 0:
        return Fraction(1)
    sign, det, pivots = _echelon(A)
    if len(pivots) < A.rows:
        return next((MultiPoly.zero(x.variables) for row in A.entries
                     for x in row if isinstance(x, MultiPoly)), Fraction(0))
    return -det if sign < 0 else det


def rank(A: ExactMatrix, pivots: Optional[list] = None) -> int:
    """Rank over the fraction field of the entry ring; any shape.

    When ``pivots`` is a list, the pivot columns are appended to it left to
    right: column c is a pivot exactly when it is not in the span of the
    columns before it.
    """
    found = _echelon(A)[2]
    if pivots is not None:
        pivots.extend(found)
    return len(found)


@dataclass
class LinearSolution:
    """Outcome of solve_linear_exact.

    kind is "unique", "parametrized" or "inconsistent".  For solvable
    systems ``solution`` holds one solution with every free variable pinned
    to zero; ``free_indices`` lists the pinned unknowns.  For inconsistent
    systems ``failing_rows`` lists the original equation indices that
    reduce to 0 = nonzero.
    """

    kind: str
    solution: Optional[list] = None
    free_indices: list = field(default_factory=list)
    failing_rows: list = field(default_factory=list)


def solve_linear_exact(A: ExactMatrix, b: Sequence[Entry]) -> LinearSolution:
    """Solve A x = b with constant scalar A and scalar/polynomial b.

    Gaussian elimination over the coefficient field; the right-hand side may
    contain polynomials in parameters.  Columns are searched for pivots left
    to right, so an unknown is free when its column lies in the span of the
    columns before it.
    """
    if A.rows != len(b):
        raise ValueError("dimension mismatch between matrix and rhs")
    n, m = A.rows, A.cols
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in A.entries]
    rhs = list(b)
    pivot_of_col: dict = {}
    used_rows: list = []
    row_origin = list(range(n))
    r = 0
    for col in range(m):
        pr = next((i for i in range(r, n) if not _entry_zero(rows[i][col])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rhs[r], rhs[pr] = rhs[pr], rhs[r]
        row_origin[r], row_origin[pr] = row_origin[pr], row_origin[r]
        inv = inverse(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] = rhs[r] * inv
        for i in range(n):
            if i != r and not _entry_zero(rows[i][col]):
                factor = rows[i][col]
                rows[i] = [a - factor * p for a, p in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - factor * rhs[r]
        pivot_of_col[col] = r
        used_rows.append(r)
        r += 1
        if r == n:
            break
    failing = [row_origin[i] for i in range(r, n) if not _entry_zero(rhs[i])]
    if failing:
        return LinearSolution(kind="inconsistent", failing_rows=failing)
    free = [c for c in range(m) if c not in pivot_of_col]
    x: list = [Fraction(0)] * m
    for col, prow in pivot_of_col.items():
        x[col] = rhs[prow]
    kind = "unique" if not free else "parametrized"
    return LinearSolution(kind=kind, solution=x, free_indices=free)
