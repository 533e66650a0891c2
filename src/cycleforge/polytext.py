"""The polynomial text format: the canonical printer and the parser of the
literal syntax, e.g. "2/3*a02*a11 - x^2" or "(1+sqrt(3))*x*y^2".

`poly` re-exports `format_poly`, `parse_poly` and `PolyParseError`, so
callers import them from there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable, Optional

from .poly import MultiPoly
from .scalars import QuadExt, format_scalar, inverse


# -- canonical printer --------------------------------------------------------


def _term_str(variables, exp, coeff) -> str:
    factors = []
    for v, e in zip(variables, exp):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append(f"{v}^{e}")
    cs = format_scalar(coeff)
    if not factors:
        return cs if ("+" not in cs[1:] and "-" not in cs[1:]) else f"({cs})"
    if cs == "1":
        return "*".join(factors)
    if cs == "-1":
        return "-" + "*".join(factors)
    if "+" in cs[1:] or "-" in cs[1:]:
        cs = f"({cs})"
    return cs + "*" + "*".join(factors)


def format_poly(p: MultiPoly) -> str:
    """The canonical text of p, each term written as `sorted_terms` yields it."""
    out = ""
    for exp, c in p.sorted_terms():
        s = _term_str(p.variables, exp, c)
        out += s if not out or s.startswith("-") else "+" + s
    return out or "0"


# -- parser ---------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


# Largest estimated work of one `^` expansion (`_power_work`) or one product
# (`_product_work`); a unit costs about 0.1-0.2 ns, so the costliest power or
# product it admits takes about 1 s.
MAX_POWER_WORK = 5 * 10**9


def _size(p: MultiPoly, e: int = 1) -> tuple:
    """Bounds on the terms of p ** e (the fewer of the multisets of p's terms
    and the monomials of degree <= e * deg p) and on its coefficient bits,
    read off p alone, and whether p is over Q(sqrt d)."""
    cs = [c for _, c in p.sorted_terms()]
    t, d, n = len(cs), max(p.degree(), 0), len(p.used_variables())
    parts = [v for c in cs for v in ((c.a, c.b, c.d) if isinstance(c, QuadExt) else (c,))]
    bits = e * (max((max(abs(v.numerator), v.denominator).bit_length() for v in parts),
                    default=1) + t.bit_length())
    terms = min(comb(max(t + e - 1, 0), e), comb(e * d + n, n))
    return terms, bits, any(isinstance(c, QuadExt) for c in cs)


def _power_work(p: MultiPoly, e: int) -> int:
    """Estimated work of p ** e: the term pairs of its last products, bounds
    on the terms of p^e times those of p^(e/2), times the coefficient bits of
    p^e (squared past 2^14 bits); 100 times that over Q(sqrt d)."""
    terms, bits, quad = _size(p, e)
    pairs = terms * _size(p, (e + 1) // 2)[0]
    return (100 if quad else 1) * pairs * bits * (1 + (bits >> 14))


def _product_work(p: MultiPoly, q: MultiPoly, e: int) -> int:
    """Estimated work of p * q ** e before q ** e expands: 8 units per term
    pair (whose count has no slack here) and bit of both coefficients, plus
    128 bits for the fixed cost of a pair; 100 times that over Q(sqrt d)."""
    (tp, bp, quad), (tq, bq, qq) = _size(p), _size(q, e)
    return (100 if quad or qq else 1) * 8 * tp * tq * (128 + bp + bq + (bp * bq >> 14))


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise PolyParseError(f"bad character {text[pos]!r}", pos)
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
            pos = m.end()
        self.i = 0
        self.variables = list(variables) if variables is not None else None
        self.seen = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise PolyParseError(f"expected {value!r}, got {val!r}", pos)

    def _var(self, name, pos):
        if self.variables is not None and name not in self.variables:
            raise PolyParseError(f"unknown variable {name!r}", pos)
        if name not in self.seen:
            self.seen.append(name)
        return name

    def parse(self) -> MultiPoly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise PolyParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self):
        kind, val, _ = self.peek()
        sign = 1
        while val in ("+", "-"):
            self.next()
            if val == "-":
                sign = -sign
            kind, val, _ = self.peek()
        p = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if val not in ("+", "-"):
                return p
            self.next()
            q = self.term()
            p = p + q if val == "+" else p - q

    def term(self):
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                p = p * self.factor(p, pos)
            elif val == "/":
                self.next()
                q = self.factor()
                if not (isinstance(q, MultiPoly) and q.is_constant()):
                    raise PolyParseError("can only divide by a constant", self.peek()[2])
                if q.is_zero():
                    raise PolyParseError("division by zero", pos)
                p = p / q.constant_value()
            else:
                return p

    def factor(self, left=None, at=0):
        """A factor, checked as the right operand of left * factor, if any."""
        kind, val, pos = self.next()
        if val == "-":
            return -self.factor(left, at)
        if val == "(":
            p = self.expr()
            self.expect(")")
        elif kind == "num":
            p = MultiPoly.const(Fraction(int(val)))
        elif kind == "name" and val == "sqrt":
            self.expect("(")
            k2, v2, p2 = self.next()
            if k2 != "num":
                raise PolyParseError("sqrt() needs an integer radicand", p2)
            self.expect(")")
            p = MultiPoly.const(QuadExt(0, 1, int(v2)))
        elif kind == "name":
            p = MultiPoly.var(self._var(val, pos))
        else:
            raise PolyParseError(f"unexpected {val!r}", pos)
        p, e = self._power(p) if self.peek()[1] == "^" else (p, 1)
        if left is not None and _product_work(left, p, e) > MAX_POWER_WORK:
            raise PolyParseError("product would expand past MAX_POWER_WORK", at)
        return p ** e

    def _power(self, p) -> tuple:
        """(base, e) of p ^ e after the `^`; a negative power inverts a
        constant base.  Refused when p ** e would expand past MAX_POWER_WORK."""
        self.next()
        k2, v2, p2 = self.next()
        neg = v2 == "-"
        if neg:
            k2, v2, p2 = self.next()
        if k2 != "num":
            raise PolyParseError("exponent must be an integer", p2)
        e = int(v2)
        if e > 1 and _power_work(p, e) > MAX_POWER_WORK:  # refused before it expands
            raise PolyParseError(f"power ^{v2} would expand past MAX_POWER_WORK", p2)
        if neg:
            if p.is_zero() or not p.is_constant():
                raise PolyParseError("negative power of zero or of a non-constant", p2)
            p = MultiPoly.const(inverse(p.constant_value()))
        return p, e


def parse_poly(text: str, variables: Optional[Iterable[str]] = None) -> MultiPoly:
    """Parse the polynomial literal syntax, e.g. "2/3*a02*a11 - x^2".

    With ``variables`` given, the result uses exactly that ordered variable
    list (unknown names are rejected); otherwise variables are taken in
    order of first appearance.
    """
    parser = _Parser(text, variables)
    try:
        p = parser.parse()
    except RecursionError:  # the parser recurses once per nesting level
        raise PolyParseError("expression nested too deeply", parser.peek()[2]) from None
    target = tuple(variables) if variables is not None else tuple(parser.seen)
    return p.with_variables(target)

