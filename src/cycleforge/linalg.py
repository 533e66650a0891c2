"""Exact dense linear algebra over scalars and polynomial entries.

One fraction-free Gauss–Jordan (Bareiss) reduction, ``echelon``, serves
every caller, so polynomial entries never leave the ring: its pivot count is
the rank, its last pivot gives the determinant, and reducing [A | b] solves
A x = b.  ``solve_linear_exact`` solves a constant scalar matrix against a
scalar or polynomial right-hand side (the Darboux cofactor systems of
``centers``); ``bifurcation`` reduces [B | I] for a kernel vector and the
inverse of the pivot block.
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
    """num / den, exact in the entry ring; raises if the division fails.
    A matrix's entries are all scalars or all polynomials."""
    if isinstance(num, MultiPoly):
        if isinstance(den, MultiPoly):
            q = num.exact_div(den)
        else:
            q = num * inverse(den)
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


def echelon(A: ExactMatrix) -> tuple:
    """Fraction-free Gauss–Jordan (Bareiss) reduction of a copy of A.

    Pivots are taken left to right, each on the first nonzero entry at or
    below the current row; a column with none is skipped, so column c is a
    pivot exactly when it is not in the span of the columns before it.  For
    a pivot p at (r, c) every other row i becomes (p·m[i] − m[i][c]·m[r]) /
    prev, prev the previous pivot (1 at first).  Every entry is then a minor
    of A up to sign, so the division is exact and entries stay in the ring
    of A's entries.

    Returns (sign, d, pivots, rows): the sign of the row permutation, the
    last pivot d (± the minor of the pivot block, 1 when there is none), the
    pivot columns left to right, and the first len(pivots) reduced rows,
    which equal d·A_P⁻¹·A for the pivot block A_P.
    """
    m = [row[:] for row in A.entries]
    sign, d, pivots = 1, Fraction(1), []
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
        p, top = m[r][c], m[r]
        for i in range(A.rows):
            if i != r:
                f = m[i][c]
                m[i] = [_exact_div(p * x - f * y, d) for x, y in zip(m[i], top)]
        d = p
        pivots.append(c)
    return sign, d, pivots, m[:len(pivots)]


def determinant(A: ExactMatrix) -> Entry:
    """Exact determinant: the signed last pivot of ``echelon``.

    Works for scalar entries and for polynomial entries.  A singular matrix
    gives the zero of its entry ring (a MultiPoly zero when any entry is a
    polynomial).
    """
    if not A.is_square():
        raise ValueError("determinant of a non-square matrix")
    sign, d, pivots, _ = echelon(A)
    if len(pivots) < A.rows:
        return next((MultiPoly.zero(x.variables) for row in A.entries
                     for x in row if isinstance(x, MultiPoly)), Fraction(0))
    return -d if sign < 0 else d


@dataclass
class LinearSolution:
    """Outcome of solve_linear_exact.

    kind is "unique", "parametrized" or "inconsistent".  For solvable
    systems ``solution`` holds one solution with every free variable pinned
    to zero; ``free_indices`` lists the pinned unknowns.  An inconsistent
    system has no ``solution``.
    """

    kind: str
    solution: Optional[list] = None
    free_indices: list = field(default_factory=list)


def solve_linear_exact(A: ExactMatrix, b: Sequence[Entry]) -> LinearSolution:
    """Solve A x = b with constant scalar A and scalar/polynomial b.

    Reduces [A | b] with ``echelon``: the system is inconsistent exactly when
    the b column gets a pivot.  Otherwise each pivot unknown is its row's
    last entry over the last pivot, and an unknown is free (pinned to zero)
    when its column lies in the span of the columns before it.
    """
    if A.rows != len(b):
        raise ValueError("dimension mismatch between matrix and rhs")
    n = A.cols
    _, d, pivots, rows = echelon(
        ExactMatrix([row + [rhs] for row, rhs in zip(A.entries, b)]))
    if n in pivots:
        return LinearSolution(kind="inconsistent")
    x: list = [Fraction(0)] * n
    for c, row in zip(pivots, rows):
        x[c] = _exact_div(row[n], d)
    free = [c for c in range(n) if c not in pivots]
    kind = "unique" if not free else "parametrized"
    return LinearSolution(kind=kind, solution=x, free_indices=free)
