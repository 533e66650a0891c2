"""Sparse multivariate polynomials over exact scalars (Q or Q(sqrt(d))).

Terms are kept relative to an ordered variable tuple.  Each monomial is
one int key (packed exponent vectors; Monagan & Pearce, CASC 2007): the
total degree in the top field, then one `_W`-bit field per variable, the
first variable most significant.  Adding two keys multiplies the
monomials, and comparing keys compares in graded lexicographic order, the
canonical order that keeps printed output and serialized reports
deterministic.  An exponent that does not fit its field raises
OverflowError; it never carries into the next variable.

A rational polynomial stores integer numerators over one shared positive
denominator, with the gcd of the denominator and all numerators 1.  A
polynomial with a coefficient in Q(sqrt(d)) keeps its scalars (Fraction or
QuadExt) as they are; the form follows from the coefficients.  `terms` is
a fresh {exponent tuple: scalar} dict of either form.  The zero polynomial
has degree -1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

from .scalars import QuadExt, ScalarLike, as_fraction, format_scalar, inverse, is_zero


_W = 16  # bits per variable field of a monomial key
_MAX_EXP = (1 << _W) - 1


def _shifts(n: int) -> range:
    """Bit offsets of the variable fields, first variable first."""
    return range(_W * (n - 1), -1, -_W)


def _pack(exp, n: int) -> int:
    if len(exp) != n:
        raise ValueError(f"exponent {tuple(exp)!r} does not match {n} variables")
    key = deg = 0
    for e in exp:
        if e < 0:
            raise ValueError(f"negative exponent in {tuple(exp)!r}")
        if e > _MAX_EXP:
            raise OverflowError(f"exponent {e} exceeds the {_W}-bit field")
        key = (key << _W) | e
        deg += e
    return (deg << (_W * n)) | key


def _unpack(key: int, n: int) -> tuple:
    return tuple([(key >> s) & _MAX_EXP for s in _shifts(n)])


def _check_sum(variables: tuple, a, b):
    """Raise unless every sum of a key from a and a key from b fits."""
    n = len(variables)
    top = _W * n
    if not a or not b or (max(a) >> top) + (max(b) >> top) <= _MAX_EXP:
        return
    for v, s in zip(variables, _shifts(n)):
        e = max((k >> s) & _MAX_EXP for k in a) + max((k >> s) & _MAX_EXP for k in b)
        if e > _MAX_EXP:
            raise OverflowError(f"exponent {e} of {v!r} exceeds the {_W}-bit field")


def _new(variables: tuple, c: dict, d: Optional[int]) -> "MultiPoly":
    p = object.__new__(MultiPoly)
    p.variables, p._c, p._d = variables, c, d
    return p


def _rational(variables: tuple, c: dict, d: int = 1) -> "MultiPoly":
    """Numerators c over d, brought to the canonical form."""
    if 0 in c.values():
        c = {k: v for k, v in c.items() if v}
    if d != 1:
        g = gcd(d, *c.values())
        if g != 1:
            c = {k: v // g for k, v in c.items()}
            d //= g
    return _new(variables, c, d)


def _from_scalars(variables: tuple, c: dict) -> "MultiPoly":
    """{key: scalar} in either form, picked from the coefficients."""
    c = {k: v for k, v in c.items() if not is_zero(v)}
    if any(isinstance(v, QuadExt) for v in c.values()):
        return _new(variables, c, None)
    # over the lcm of reduced denominators the numerators are coprime to it
    d = lcm(*[v.denominator for v in c.values()])
    return _new(variables, {k: v.numerator * (d // v.denominator)
                            for k, v in c.items()}, d)


class MultiPoly:
    __slots__ = ("variables", "_c", "_d")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, ScalarLike]):
        variables = tuple(variables)
        n = len(variables)
        p = _from_scalars(variables, {_pack(e, n): c for e, c in terms.items()})
        self.variables, self._c, self._d = variables, p._c, p._d

    @property
    def terms(self) -> dict:
        """A fresh {exponent tuple: scalar} dict."""
        n = len(self.variables)
        return {_unpack(k, n): self._scalar(v) for k, v in self._c.items()}

    def _scalar(self, v) -> ScalarLike:
        d = self._d
        if d is None:
            return v
        return Fraction(v) if d == 1 else Fraction(v, d)

    def _scalars(self) -> dict:
        """{key: scalar}, the form every Q(sqrt d) operation works on."""
        if self._d is None:
            return self._c
        return {k: self._scalar(v) for k, v in self._c.items()}

    def _part(self, c: dict) -> "MultiPoly":
        """A polynomial made of some of this polynomial's coefficients."""
        if self._d is None:
            return _from_scalars(self.variables, c)
        return _rational(self.variables, c, self._d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "MultiPoly":
        return _new(tuple(variables), {}, 1)

    @classmethod
    def const(cls, c: ScalarLike, variables: Iterable[str] = ()) -> "MultiPoly":
        return _from_scalars(tuple(variables), {0: c})

    @classmethod
    def var(cls, name: str, variables: Optional[Iterable[str]] = None) -> "MultiPoly":
        variables = (name,) if variables is None else tuple(variables)
        if name not in variables:
            raise KeyError(f"unknown variable {name!r}")
        n = len(variables)
        key = (1 << (_W * n)) | (1 << _shifts(n)[variables.index(name)])
        return _new(variables, {key: 1}, 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def constant_value(self) -> ScalarLike:
        if not self._c:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._scalar(self._c[0])

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial, as in degree_in."""
        return max(self._c) >> (_W * len(self.variables)) if self._c else -1

    def degree_in(self, var: str) -> int:
        s = self._shift(var)
        return max(((k >> s) & _MAX_EXP for k in self._c), default=-1)

    def _index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise KeyError(f"unknown variable {var!r}") from None

    def _shift(self, var: str) -> int:
        return _W * (len(self.variables) - 1 - self._index(var))

    def used_variables(self) -> tuple:
        used = 0
        for k in self._c:
            used |= k
        return tuple(v for v, s in zip(self.variables, _shifts(len(self.variables)))
                     if (used >> s) & _MAX_EXP)

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order."""
        n = len(self.variables)
        return [(_unpack(k, n), self._scalar(self._c[k]))
                for k in sorted(self._c, reverse=True)]

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._c)
        return _unpack(k, len(self.variables)), self._scalar(self._c[k])

    def primitive(self) -> "MultiPoly":
        """The canonical unit multiple: coprime integer coefficients with a
        positive graded-lex leading coefficient, or monic when a coefficient
        is irrational.  Zero stays zero."""
        if not self._c:
            return self
        p = self
        if p._d is None:
            if any(isinstance(v, QuadExt) and v.b for v in p._c.values()):
                return p._scale(inverse(p._c[max(p._c)]))
            p = _from_scalars(p.variables, {k: as_fraction(v) for k, v in p._c.items()})
        g = gcd(*p._c.values())
        if p._c[max(p._c)] < 0:
            g = -g
        return _new(p.variables, {k: v // g for k, v in p._c.items()}, 1)

    # -- variable alignment --------------------------------------------------

    def with_variables(self, variables: Iterable[str]) -> "MultiPoly":
        variables = tuple(variables)
        if variables == self.variables:
            return self
        n, m = len(self.variables), len(variables)
        used = self.used_variables()
        moves = []  # (old field offset, new field offset)
        for v, s in zip(self.variables, _shifts(n)):
            if v in variables:
                moves.append((s, _shifts(m)[variables.index(v)]))
            elif v in used:
                raise KeyError(f"variable {v!r} missing from target list")
        top, new_top = _W * n, _W * m
        c = {}
        for k, v in self._c.items():
            key = (k >> top) << new_top
            for s, t in moves:
                key |= ((k >> s) & _MAX_EXP) << t
            c[key] = v
        return _new(variables, c, self._d)

    def renamed(self, variables: Iterable[str]) -> "MultiPoly":
        """The same terms over new names, position for position."""
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise ValueError("renaming must keep the number of variables")
        return _new(variables, self._c, self._d)

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
        if p._d is None or q._d is None:
            c = dict(p._scalars())
            for k, v in q._scalars().items():
                c[k] = c.get(k, 0) + v
            return _from_scalars(p.variables, c)
        dp, dq = p._d, q._d
        g = gcd(dp, dq)
        sp, sq = dq // g, dp // g
        c = dict(p._c) if sp == 1 else {k: v * sp for k, v in p._c.items()}
        get = c.get
        for k, v in q._c.items():
            c[k] = get(k, 0) + (v if sq == 1 else v * sq)
        return _rational(p.variables, c, dp * sp)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.variables, {k: -v for k, v in self._c.items()}, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, a: ScalarLike) -> "MultiPoly":
        if is_zero(a):
            return MultiPoly.zero(self.variables)
        if self._d is None or isinstance(a, QuadExt):
            return _from_scalars(self.variables,
                                 {k: v * a for k, v in self._scalars().items()})
        num, den = a.numerator, a.denominator
        g = gcd(num, self._d)
        num, d = num // g, self._d // g
        g = gcd(den, *self._c.values())
        c = {k: v // g * num for k, v in self._c.items()}
        return _new(self.variables, c, d * den // g)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            return self._scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        p, q = MultiPoly._align(self, other)
        pc, qc = p._c, q._c
        if not pc or not qc:
            return MultiPoly.zero(p.variables)
        _check_sum(p.variables, pc, qc)
        if p._d is None or q._d is None:
            c = {}
            qs = q._scalars()
            for k1, v1 in p._scalars().items():
                for k2, v2 in qs.items():
                    k = k1 + k2
                    c[k] = c.get(k, 0) + v1 * v2
            return _from_scalars(p.variables, c)
        # content(p*q) = content(p)*content(q), so cancelling each content
        # against the other denominator leaves the product canonical
        dp, dq = p._d, q._d
        if dq != 1:
            g = gcd(dq, *pc.values())
            if g != 1:
                pc = {k: v // g for k, v in pc.items()}
                dq //= g
        if dp != 1:
            g = gcd(dp, *qc.values())
            if g != 1:
                qc = {k: v // g for k, v in qc.items()}
                dp //= g
        c = {}
        get = c.get
        qitems = list(qc.items())
        for k1, v1 in pc.items():
            for k2, v2 in qitems:
                k = k1 + k2
                c[k] = get(k, 0) + v1 * v2
        if 0 in c.values():
            c = {k: v for k, v in c.items() if v}
        return _new(p.variables, c, dp * dq)

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
        if p._d is not None and q._d is not None:
            return p._d == q._d and p._c == q._c
        return p._scalars() == q._scalars()

    def __hash__(self):
        used = self.used_variables()
        p = self.with_variables(used)
        return hash((used, frozenset(p._scalars().items())))

    def __bool__(self):
        return bool(self._c)

    # -- calculus & substitution ----------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        s = self._shift(var)
        step = (1 << s) + (1 << (_W * len(self.variables)))
        c = {k - step: v * e for k, v in self._c.items() if (e := (k >> s) & _MAX_EXP)}
        return self._part(c)

    def evaluate(self, bindings: Mapping[str, ScalarLike]) -> "MultiPoly":
        """Partial scalar substitution; unbound variables stay symbolic."""
        for v in bindings:
            if v not in self.variables:
                raise KeyError(f"unknown variable {v!r}")
        top = _W * len(self.variables)
        fields = [(self._shift(v), Fraction(val) if isinstance(val, int) else val)
                  for v, val in bindings.items()]
        if self._d is None or any(isinstance(val, QuadExt) for _, val in fields):
            c = {}
            for k, coeff in self._scalars().items():
                for s, val in fields:
                    e = (k >> s) & _MAX_EXP
                    if e:
                        coeff = coeff * val**e
                        k -= (e << s) + (e << top)
                c[k] = c.get(k, 0) + coeff
            return _from_scalars(self.variables, c)
        # val = a/b at exponent e contributes a^e * b^(M - e) over b^M, M the
        # variable's top exponent here
        d = self._d
        tables = []
        for s, val in fields:
            a, b = val.numerator, val.denominator
            top_e = max(((k >> s) & _MAX_EXP for k in self._c), default=0)
            tables.append((s, [a**e * b ** (top_e - e) for e in range(top_e + 1)]))
            d *= b**top_e
        c = {}
        get = c.get
        for k, v in self._c.items():
            for s, table in tables:
                e = (k >> s) & _MAX_EXP
                v *= table[e]
                k -= (e << s) + (e << top)
            c[k] = get(k, 0) + v
        return _rational(self.variables, c, d)

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
                else:  # v**e, whose key is e times the key of v
                    x = MultiPoly.var(v, all_vars)
                    term = term * _new(x.variables, {k * e: 1 for k in x._c}, 1)
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
        exponents of `names` set to zero.
        """
        shifts = [self._shift(v) for v in names]
        top = _W * len(self.variables)
        steps = [(s, (1 << s) + (1 << top)) for s in set(shifts)]
        groups: dict = {}
        for k, v in self._c.items():
            rest = k
            for s, step in steps:
                rest -= ((k >> s) & _MAX_EXP) * step
            exps = tuple([(k >> s) & _MAX_EXP for s in shifts])
            groups.setdefault(exps, {})[rest] = v
        return {e: self._part(c) for e, c in groups.items()}

    def _names_degree(self, names: Iterable[str]):
        """Total degree of a key in the named variables."""
        shifts = [self._shift(v) for v in names]
        return lambda k: sum([(k >> s) & _MAX_EXP for s in shifts])

    def graded(self, names: Iterable[str]) -> dict:
        """{total degree in names: the part of p of that degree}."""
        degree = self._names_degree(names)
        groups: dict = {}
        for k, v in self._c.items():
            groups.setdefault(degree(k), {})[k] = v
        return {d: self._part(c) for d, c in groups.items()}

    def truncated(self, names: Iterable[str], order: int) -> "MultiPoly":
        """The terms of total degree <= order in names."""
        degree = self._names_degree(names)
        return self._part({k: v for k, v in self._c.items() if degree(k) <= order})

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
        qlead = max(q._c)
        fields = [(s, (qlead >> s) & _MAX_EXP) for s in _shifts(len(p.variables))]
        rational = p._d is not None and q._d is not None
        if rational:
            # (cp/dp) P / ((cq/dq) Q) with P, Q primitive: Gauss's lemma makes
            # P / Q an integer polynomial whenever it exists
            cp, cq = gcd(*p._c.values()), gcd(*q._c.values())
            rem = {k: v // cp for k, v in p._c.items()} if cp else {}
            qitems = [(k, v // cq) for k, v in q._c.items()]
            lc = q._c[qlead] // cq
        else:
            rem = dict(p._scalars())
            qitems = list(q._scalars().items())
            lc_inv = inverse(q._scalars()[qlead])
        quotient = {}
        while rem:
            k = max(rem)
            if any(((k >> s) & _MAX_EXP) < e for s, e in fields):
                return None
            diff = k - qlead
            if rational:
                c, r = divmod(rem[k], lc)
                if r:
                    return None
            else:
                c = rem[k] * lc_inv
            quotient[diff] = c
            for k2, c2 in qitems:
                key = diff + k2
                new = rem.get(key, 0) - c * c2
                if is_zero(new):
                    rem.pop(key, None)
                else:
                    rem[key] = new
        if not rational:
            return _from_scalars(p.variables, quotient)
        scale = cp * q._d
        return _rational(p.variables, {k: v * scale for k, v in quotient.items()},
                         cq * p._d)

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
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                p = p * self.factor()
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
    try:
        p = parser.parse()
    except RecursionError:  # the parser recurses once per nesting level
        raise PolyParseError("expression nested too deeply", parser.peek()[2]) from None
    target = tuple(variables) if variables is not None else tuple(parser.seen)
    return p.with_variables(target)

