"""Sparse multivariate polynomials over exact scalars (Q or Q(sqrt(d))).

Terms are stored as {exponent tuple: nonzero scalar} relative to an ordered
variable tuple.  Canonical iteration order is graded lexicographic, which
keeps printed output and serialized reports deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .scalars import QuadExt, ScalarLike, format_scalar, inverse, is_zero


class _MinusInf:
    """Degree of the zero polynomial.  Comparisons work, arithmetic does not."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("MINUS_INF_DEGREE")

    def __repr__(self):
        return "-inf"


MINUS_INF = _MinusInf()


def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, ScalarLike]):
        self.variables = tuple(variables)
        clean = {}
        for exp, c in terms.items():
            if not is_zero(c):
                clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, c: ScalarLike, variables: Iterable[str] = ()) -> "MultiPoly":
        variables = tuple(variables)
        if isinstance(c, int):
            c = Fraction(c)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, name: str, variables: Optional[Iterable[str]] = None) -> "MultiPoly":
        variables = (name,) if variables is None else tuple(variables)
        exp = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        return cls(variables, {exp: Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> ScalarLike:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree(self):
        if not self.terms:
            return MINUS_INF
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, var: str):
        i = self._index(var)
        if not self.terms:
            return MINUS_INF
        return max(exp[i] for exp in self.terms)

    def _index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise KeyError(f"unknown variable {var!r}") from None

    def used_variables(self) -> tuple:
        used = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(self.variables[i])
        return tuple(v for v in self.variables if v in used)

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    # -- variable alignment --------------------------------------------------

    def with_variables(self, variables: Iterable[str]) -> "MultiPoly":
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = {}
        for i, v in enumerate(self.variables):
            if v not in variables:
                if any(exp[i] for exp in self.terms):
                    raise KeyError(f"variable {v!r} missing from target list")
                pos[i] = None
            else:
                pos[i] = variables.index(v)
        n = len(variables)
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * n
            for i, e in enumerate(exp):
                if e:
                    new[pos[i]] = e
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(variables, terms)

    @staticmethod
    def _align(p: "MultiPoly", q: "MultiPoly"):
        if p.variables == q.variables:
            return p, q
        merged = list(p.variables)
        for v in q.variables:
            if v not in merged:
                merged.append(v)
        return p.with_variables(merged), q.with_variables(merged)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return MultiPoly.const(other, self.variables)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        terms = dict(p.terms)
        for exp, c in q.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return MultiPoly(p.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            if is_zero(other):
                return MultiPoly.zero(self.variables)
            return MultiPoly(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        terms = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return MultiPoly(p.variables, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            if is_zero(other):
                raise ZeroDivisionError
            return self * inverse(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None  # no 1*base product for the lowest set bit
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(1, self.variables) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        return p.terms == q.terms

    def __hash__(self):
        used = self.used_variables()
        p = self.with_variables(used)
        return hash((used, frozenset(p.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus & substitution ----------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        i = self._index(var)
        terms = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = exp[:i] + (e - 1,) + exp[i + 1:]
            terms[new] = terms.get(new, 0) + c * e
        return MultiPoly(self.variables, terms)

    def evaluate(self, bindings: Mapping[str, ScalarLike]) -> "MultiPoly":
        """Partial scalar substitution; unbound variables stay symbolic."""
        for v in bindings:
            if v not in self.variables:
                raise KeyError(f"unknown variable {v!r}")
        idx = {self._index(v): val for v, val in bindings.items()}
        terms = {}
        for exp, c in self.terms.items():
            coeff = c
            new = list(exp)
            for i, val in idx.items():
                e = exp[i]
                if e:
                    if isinstance(val, int):
                        val = Fraction(val)
                    coeff = coeff * val**e
                new[i] = 0
            key = tuple(new)
            terms[key] = terms.get(key, 0) + coeff
        return MultiPoly(self.variables, terms)

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables (exact composition)."""
        all_vars = list(self.variables)
        for p in bindings.values():
            for v in p.variables:
                if v not in all_vars:
                    all_vars.append(v)
        result = MultiPoly.zero(all_vars)
        subs = {v: p.with_variables(all_vars) for v, p in bindings.items()}
        powers = {v: {0: MultiPoly.const(1, all_vars)} for v in subs}
        for exp, c in self.terms.items():
            term = MultiPoly.const(c, all_vars)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                v = self.variables[i]
                if v in subs:
                    cache = powers[v]
                    if e not in cache:
                        p = cache[max(cache)]
                        for _ in range(max(cache), e):
                            p = p * subs[v]
                            cache[max(cache) + 1] = p
                    term = term * cache[e]
                else:
                    term = term * MultiPoly(
                        all_vars,
                        {tuple(e if j == all_vars.index(v) else 0
                               for j in range(len(all_vars))): Fraction(1)},
                    )
            result = result + term
        return result

    def eval_scalar(self, bindings: Mapping[str, ScalarLike]) -> ScalarLike:
        """Full evaluation to a scalar; every used variable must be bound."""
        out = self.evaluate(bindings)
        return out.constant_value()

    def coeff_of(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of var**power, a polynomial in the remaining variables."""
        return self.collect((var,)).get((power,)) or MultiPoly.zero(self.variables)

    def coeffs_in(self, var: str) -> list:
        """[c_0, ..., c_deg] with p = sum c_k var^k; empty list for zero."""
        groups = self.collect((var,))
        if not groups:
            return []
        return [groups.get((k,)) or MultiPoly.zero(self.variables)
                for k in range(max(groups)[0] + 1)]

    # -- grouping by named variables -------------------------------------------

    def collect(self, names: Iterable[str]) -> dict:
        """{exponents in names: coefficient}, so p = sum coeff * names**exponents.

        Each coefficient keeps this polynomial's variable tuple, with the
        exponents of `names` set to zero.  `from_collected` is the inverse.
        """
        idx = tuple(self._index(v) for v in names)
        groups: dict = {}
        for exp, c in self.terms.items():
            rest = list(exp)
            for i in idx:
                rest[i] = 0
            groups.setdefault(tuple([exp[i] for i in idx]), {})[tuple(rest)] = c
        return {k: MultiPoly(self.variables, t) for k, t in groups.items()}

    def graded(self, names: Iterable[str]) -> dict:
        """{total degree in names: the part of p of that degree}."""
        idx = tuple(self._index(v) for v in names)
        groups: dict = {}
        for exp, c in self.terms.items():
            groups.setdefault(sum([exp[i] for i in idx]), {})[exp] = c
        return {d: MultiPoly(self.variables, t) for d, t in groups.items()}

    def truncated(self, names: Iterable[str], order: int) -> "MultiPoly":
        """The terms of total degree <= order in names."""
        idx = tuple(self._index(v) for v in names)
        return MultiPoly(self.variables, {
            e: c for e, c in self.terms.items() if sum([e[i] for i in idx]) <= order
        })

    @classmethod
    def from_collected(cls, names: Iterable[str], groups: Mapping,
                       variables: Optional[Iterable[str]] = None) -> "MultiPoly":
        """Sum of coeff * names**exponents over groups, the inverse of collect.

        Coefficients are scalars or polynomials; the result uses
        `variables`, which default to `names`.
        """
        names = tuple(names)
        variables = names if variables is None else tuple(variables)
        idx = tuple(cls.zero(variables)._index(v) for v in names)
        unit = (0,) * len(variables)
        terms: dict = {}
        for key, coeff in groups.items():
            if isinstance(coeff, MultiPoly):
                items = coeff.with_variables(variables).terms.items()
            else:
                items = ((unit, coeff),)
            for exp, c in items:
                new = list(exp)
                for i, e in zip(idx, key):
                    new[i] += e
                new = tuple(new)
                terms[new] = terms[new] + c if new in terms else c
        return cls(variables, terms)

    # -- exact division -----------------------------------------------------

    def exact_div(self, q: "MultiPoly") -> Optional["MultiPoly"]:
        """Return self / q when the division is exact, else None."""
        if isinstance(q, (int, Fraction, QuadExt)):
            return self / q
        if q.is_zero():
            raise ZeroDivisionError
        p, q = MultiPoly._align(self, q)
        if q.is_constant():
            return p / q.constant_value()
        qexp, qc = q.leading()
        quotient = {}
        rem = dict(p.terms)
        qc_inv = inverse(qc)
        while rem:
            exp = max(rem, key=_grlex_key)
            diff = tuple(a - b for a, b in zip(exp, qexp))
            if any(e < 0 for e in diff):
                return None
            c = rem[exp] * qc_inv
            quotient[diff] = c
            for e2, c2 in q.terms.items():
                key = tuple(a + b for a, b in zip(diff, e2))
                new = rem.get(key, 0) - c * c2
                if is_zero(new):
                    rem.pop(key, None)
                else:
                    rem[key] = new
        return MultiPoly(p.variables, quotient)

    # -- printing -------------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, {format_poly(self)!r})"


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
    if p.is_zero():
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
        s = _term_str(p.variables, exp, c)
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append("-" + s[1:].strip())
        else:
            parts.append("+" + s)
    out = parts[0]
    for s in parts[1:]:
        out += s[0] + s[1:]
    return out


# -- parser ---------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


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
            kind, val, _ = self.peek()
            if val == "*":
                self.next()
                p = p * self.factor()
            elif val == "/":
                self.next()
                q = self.factor()
                if not (isinstance(q, MultiPoly) and q.is_constant()):
                    raise PolyParseError("can only divide by a constant", self.peek()[2])
                p = p / q.constant_value()
            else:
                return p

    def factor(self):
        kind, val, pos = self.next()
        if val == "-":
            return -self.factor()
        if val == "(":
            p = self.expr()
            self.expect(")")
            return self._maybe_power(p)
        if kind == "num":
            return self._maybe_power(MultiPoly.const(Fraction(int(val))))
        if kind == "name":
            if val == "sqrt":
                self.expect("(")
                k2, v2, p2 = self.next()
                if k2 != "num":
                    raise PolyParseError("sqrt() needs an integer radicand", p2)
                self.expect(")")
                return self._maybe_power(
                    MultiPoly.const(QuadExt(0, 1, int(v2)))
                )
            name = self._var(val, pos)
            return self._maybe_power(MultiPoly.var(name))
        raise PolyParseError(f"unexpected {val!r}", pos)

    def _maybe_power(self, p):
        kind, val, _ = self.peek()
        if val == "^":
            self.next()
            k2, v2, p2 = self.next()
            neg = False
            if v2 == "-":
                neg = True
                k2, v2, p2 = self.next()
            if k2 != "num":
                raise PolyParseError("exponent must be an integer", p2)
            if neg:
                if not p.is_constant():
                    raise PolyParseError("negative power of a non-constant", p2)
                return MultiPoly.const(inverse(p.constant_value())) ** int(v2)
            return p ** int(v2)
        return p


def parse_poly(text: str, variables: Optional[Iterable[str]] = None) -> MultiPoly:
    """Parse the polynomial literal syntax, e.g. "2/3*a02*a11 - x^2".

    With ``variables`` given, the result uses exactly that ordered variable
    list (unknown names are rejected); otherwise variables are taken in
    order of first appearance.
    """
    parser = _Parser(text, variables)
    p = parser.parse()
    target = tuple(variables) if variables is not None else tuple(parser.seen)
    return p.with_variables(target)

