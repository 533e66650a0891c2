"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

Rationals are plain ``fractions.Fraction``.  ``QuadExt`` represents
``a + b*sqrt(d)`` with rational a, b and a fixed square-free radicand d.
Only one radicand per computation context is supported; mixing radicands
raises ``RadicandMismatch``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, "QuadExt"]


class RadicandMismatch(ValueError):
    """Two QuadExt values with different radicands were combined."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, k) with n = s * k**2 and s square-free.  Requires n > 0."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, k = n, 1
    p = 2
    while p * p <= s:
        while s % (p * p) == 0:
            s //= p * p
            k *= p
        p += 1
    return s, k


class QuadExt:
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: ScalarLike, b: ScalarLike = 0, d: int = 1):
        if isinstance(a, QuadExt) or isinstance(b, QuadExt):
            raise TypeError("components must be rational")
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if b != 0 and d > 1:
            s, k = squarefree_decompose(d)
            if s == 1:
                a, b, d = a + b * k, Fraction(0), 1
            else:
                b, d = b * k, s
        elif b == 0:
            d = 1
        elif d == 1:
            a, b = a + b, Fraction(0)
        else:
            raise ValueError("radicand must be a positive integer")
        self.a, self.b, self.d = a, b, d

    # -- helpers ---------------------------------------------------------

    def _common_d(self, other: "QuadExt") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise RadicandMismatch(f"sqrt({self.d}) vs sqrt({other.d})")
        return self.d

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2."""
        return self.a * self.a - self.d * self.b * self.b

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        elif not isinstance(other, QuadExt):
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        elif not isinstance(other, QuadExt):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.d)
        if not isinstance(other, QuadExt):
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return QuadExt(self.a / other, self.b / other, self.d)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadExt(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d*b^2
        lhs, rhs = a * a, self.d * b * b
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def scalar_sign(x: ScalarLike) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def is_zero(x: ScalarLike) -> bool:
    if isinstance(x, QuadExt):
        return not bool(x)
    return x == 0


def inverse(x: ScalarLike) -> Union[Fraction, QuadExt]:
    """Exact multiplicative inverse of a rational or Q(sqrt(d)) scalar."""
    if isinstance(x, QuadExt):
        return x.inverse()
    return 1 / Fraction(x)


def as_fraction(x: ScalarLike) -> Fraction:
    """Convert a rational-valued scalar to Fraction; raises if irrational."""
    if isinstance(x, QuadExt):
        return x.to_fraction()
    return Fraction(x)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x: ScalarLike) -> str:
    """Render a scalar in the polynomial-literal syntax ("n/m", "a+b*sqrt(d)")."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return _frac_str(x.a)
        bs = "" if abs(x.b) == 1 else f"{_frac_str(abs(x.b))}*"
        root = f"{bs}sqrt({x.d})"
        if x.a == 0:
            return root if x.b > 0 else f"-{root}"
        op = "+" if x.b > 0 else "-"
        return f"{_frac_str(x.a)}{op}{root}"
    return _frac_str(Fraction(x))
