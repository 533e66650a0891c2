"""Exact real-root isolation for univariate polynomials.

Works on coefficient lists (index = power) over Q or Q(sqrt(d)).  Roots come
back either as exact rationals (found by the rational-root theorem) or as
Sturm-certified isolating intervals with rational endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .poly import MultiPoly
from .scalars import QuadExt, inverse, scalar_sign, is_zero


# -- univariate coefficient-list helpers --------------------------------------


def poly_to_coeffs(p: MultiPoly, var: Optional[str] = None) -> list:
    used = p.used_variables()
    if len(used) > 1:
        raise ValueError(f"{p} is not univariate")
    if not used:  # a constant has degree <= 0 in any variable
        return strip([p.constant_value()])
    coeffs = [c.constant_value() for c in p.coeffs_in(var or used[0])]
    return strip(coeffs)


def coeffs_to_poly(coeffs: list, var: str) -> MultiPoly:
    return MultiPoly.from_collected((var,), {(k,): c for k, c in enumerate(coeffs)})


def strip(coeffs: list) -> list:
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def deg(coeffs: list) -> int:
    return len(coeffs) - 1


def horner(coeffs: list, x):
    acc = coeffs[-1] if coeffs else Fraction(0)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def derivative(coeffs: list) -> list:
    return [c * k for k, c in enumerate(coeffs)][1:]


def gcd_univariate(a: list, b: list) -> list:
    """Monic gcd over the coefficient field (Euclid)."""
    a, b = strip(a[:]), strip(b[:])
    while b:
        a, b = b, _divmod(a, b)[1]
    if a:
        inv = inverse(a[-1])
        a = [c * inv for c in a]
    return a


def squarefree_part(coeffs: list) -> list:
    d = derivative(coeffs)
    if not strip(d[:]):
        return coeffs[:1] if coeffs else []
    g = gcd_univariate(coeffs, d)
    if deg(g) == 0:
        return coeffs
    q, r = _divmod(coeffs, g)
    assert not r, "inexact division by gcd"
    return q


def _divmod(a: list, b: list):
    """(quotient, remainder) of a by b over the coefficient field."""
    a = a[:]
    inv = inverse(b[-1])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = a[shift + i] - c * bc
        a.pop()
        strip(a)
    return q, a


# -- Sturm sequences -----------------------------------------------------------


def sturm_chain(coeffs: list) -> list:
    chain = [coeffs, strip(derivative(coeffs))]
    while chain[-1]:
        r = _divmod(chain[-2], chain[-1])[1]
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _variations(signs: list) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def variations_at(chain: list, x: Fraction) -> int:
    return _variations([scalar_sign(horner(c, x)) for c in chain])


def variations_at_infinity(chain: list, positive: bool) -> int:
    signs = []
    for c in chain:
        s = scalar_sign(c[-1])
        if not positive and deg(c) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def root_count_interval(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] for a square-free chain."""
    return variations_at(chain, lo) - variations_at(chain, hi)


def _abs_upper(c) -> Fraction:
    if isinstance(c, QuadExt):
        return abs(c.a) + abs(c.b) * (math.isqrt(c.d) + 1)
    return abs(Fraction(c))


def _abs_lower(c) -> Fraction:
    if isinstance(c, QuadExt):
        s = c.sign()
        if s == 0:
            return Fraction(0)
        # |c| = |norm(c)| / |conj(c)| >= |norm| / upper(|conj|)
        n = abs(c.norm())
        return n / _abs_upper(c.conjugate())
    return abs(Fraction(c))


def cauchy_bound(coeffs: list) -> Fraction:
    lead = _abs_lower(coeffs[-1])
    m = max(_abs_upper(c) for c in coeffs[:-1]) if len(coeffs) > 1 else Fraction(0)
    return 1 + m / lead


# -- root objects ----------------------------------------------------------------


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval certified (Sturm count 1) to hold one simple root."""

    lo: Fraction
    hi: Fraction
    sign_change_certificate: tuple  # (sign at lo, sign at hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo < x < self.hi


RootLocation = Union[Fraction, IsolatingInterval]


# -- rational roots ----------------------------------------------------------------


def _rational_component_polys(coeffs: list):
    """Split Q(sqrt(d)) coefficients into the two rational component polys."""
    p1, p2 = [], []
    for c in coeffs:
        if isinstance(c, QuadExt):
            p1.append(c.a)
            p2.append(c.b)
        else:
            p1.append(Fraction(c))
            p2.append(Fraction(0))
    return strip(p1), strip(p2)


def rational_roots(coeffs: list) -> List[tuple]:
    """All rational roots with multiplicities, via the rational-root theorem."""
    coeffs = strip(coeffs[:])
    if not coeffs or deg(coeffs) == 0:
        return []
    p1, p2 = _rational_component_polys(coeffs)
    if p2:
        g = gcd_univariate(p1, p2) if p1 else p2
        if deg(g) == 0:
            return []
        base = g
    else:
        base = p1
    # clear denominators to a primitive integer polynomial
    den = 1
    for c in base:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in base]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    if content > 1:
        ints = [c // content for c in ints]
    k = 0
    while ints[k] == 0:
        k += 1
    hits = {Fraction(0)} if k > 0 else set()
    body = ints[k:]
    n = deg(body)
    a0, an = abs(body[0]), abs(body[-1])
    # candidates p/q in lowest terms, |p/q| within the Cauchy bound,
    # evaluated by integer arithmetic on the homogenization
    height = an + max(abs(c) for c in body)
    for qdiv in _divisors(an):
        for pdiv in _divisors(a0):
            if math.gcd(pdiv, qdiv) != 1 or pdiv * an > height * qdiv:
                continue
            for p in (pdiv, -pdiv):
                acc = body[-1]
                qq = 1
                for c in reversed(body[:-1]):
                    qq *= qdiv
                    acc = acc * p + c * qq
                if acc == 0:
                    hits.add(Fraction(p, qdiv))
    out = []
    for r in sorted(hits):
        mult = 0
        rest = coeffs[:]
        while len(rest) > 1:
            q, rem = _divmod(rest, [-r, Fraction(1)])
            if strip(rem):
                break
            mult += 1
            rest = q
        if mult:
            out.append((r, mult))
    return out


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# -- isolation --------------------------------------------------------------------


def real_roots(coeffs: list) -> List[RootLocation]:
    """All distinct real roots, exact rationals first-class, sorted ascending."""
    coeffs = strip(coeffs[:])
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    if deg(coeffs) == 0:
        return []
    return _squarefree_real_roots(squarefree_part(coeffs))


def _squarefree_real_roots(sf: list) -> List[RootLocation]:
    """`real_roots` of a square-free polynomial of positive degree."""
    rroots = [r for r, _ in rational_roots(sf)]
    rest = sf
    for r in rroots:
        rest, rem = _divmod(rest, [-r, Fraction(1)])
        assert not rem
    roots: List[RootLocation] = list(rroots)
    if deg(rest) >= 1:
        for iv in _isolate_irrational(rest):
            # shrink until every rational root is strictly outside, so the
            # interval isolates with respect to the full input polynomial,
            # then restate the endpoint certificate in terms of it
            while any(iv.lo <= r <= iv.hi for r in rroots):
                iv = refine(rest, iv, iv.width() / 4)
            cert = (scalar_sign(horner(sf, iv.lo)), scalar_sign(horner(sf, iv.hi)))
            roots.append(IsolatingInterval(iv.lo, iv.hi, cert))
    return sorted(roots, key=lambda r: r.midpoint() if isinstance(r, IsolatingInterval) else r)


def _isolate_irrational(sf: list) -> List[IsolatingInterval]:
    """Isolate the (all irrational) real roots of a square-free polynomial."""
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    total = variations_at_infinity(chain, False) - variations_at_infinity(chain, True)
    out: List[IsolatingInterval] = []

    def rec(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        if n == 1:
            slo, shi = scalar_sign(horner(sf, lo)), scalar_sign(horner(sf, hi))
            if slo != 0 and shi != 0 and slo != shi:
                out.append(IsolatingInterval(lo, hi, (slo, shi)))
                return
        mid = (lo + hi) / 2
        nl = variations_at(chain, lo) - variations_at(chain, mid)
        rec(lo, mid, nl)
        rec(mid, hi, n - nl)

    rec(-bound, bound, total)
    assert len(out) == total, "isolation failed to separate all roots"
    return out


def refine(coeffs_sf: list, iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """Bisect a certified interval of a square-free polynomial down to width."""
    lo, hi = iv.lo, iv.hi
    slo, shi = iv.sign_change_certificate
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = scalar_sign(horner(coeffs_sf, mid))
        if sm == 0:
            # rational hit: shrink asymmetrically to keep an open certificate
            off = (hi - lo) / 4
            lo2, hi2 = mid - off, mid + off
            return IsolatingInterval(
                lo2, hi2,
                (scalar_sign(horner(coeffs_sf, lo2)), scalar_sign(horner(coeffs_sf, hi2))),
            )
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi, (slo, shi))


def isolate_real_roots(p: MultiPoly, var: Optional[str] = None) -> List[IsolatingInterval]:
    """Disjoint isolating intervals, one per distinct real root of p."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    coeffs = poly_to_coeffs(p, var)
    if deg(coeffs) == 0:
        return []
    sf = squarefree_part(coeffs)
    chain = sturm_chain(sf)
    out = [r if isinstance(r, IsolatingInterval) else _rational_to_interval(sf, chain, r)
           for r in _squarefree_real_roots(sf)]
    return sorted(out, key=lambda iv: iv.lo)


def _rational_to_interval(sf: list, chain: list, r: Fraction) -> IsolatingInterval:
    gap = Fraction(1)
    while True:
        lo, hi = r - gap, r + gap
        slo, shi = scalar_sign(horner(sf, lo)), scalar_sign(horner(sf, hi))
        if (slo != 0 and shi != 0 and slo != shi
                and root_count_interval(chain, lo, hi) == 1):
            return IsolatingInterval(lo, hi, (slo, shi))
        gap /= 2


# -- rational interval arithmetic ----------------------------------------------


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def point(cls, x) -> "RatInterval":
        x = Fraction(x)
        return cls(x, x)

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return RatInterval.point(1)
        if n % 2 == 0 and self.lo < 0 < self.hi:
            m = max(abs(self.lo), abs(self.hi))
            return RatInterval(Fraction(0), m**n)
        vals = sorted([self.lo**n, self.hi**n])
        return RatInterval(vals[0], vals[1])

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> Optional[int]:
        """Determined sign of every point, or None if the interval straddles 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


# bits of sqrt(d) in the enclosure of a Q(sqrt d) coefficient
ENCLOSURE_BITS = 30
# interval refinements (each quarters the width) before sign_at_root gives up
SIGN_REFINE_STEPS = 200


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def sqrt_enclosure(d: int) -> RatInterval:
    """Rational enclosure of sqrt(d) with width <= 2**-ENCLOSURE_BITS."""
    scale = 1 << ENCLOSURE_BITS
    s = math.isqrt(d * scale * scale)
    return RatInterval(Fraction(s, scale), Fraction(s + 1, scale))


def scalar_enclosure(c) -> RatInterval:
    if isinstance(c, QuadExt):
        if c.b == 0:
            return RatInterval.point(c.a)
        return RatInterval.point(c.a) + RatInterval.point(c.b) * sqrt_enclosure(c.d)
    return RatInterval.point(c)


def poly_box_eval(p: MultiPoly, box: dict) -> RatInterval:
    """Interval evaluation of p over a box {var: RatInterval}."""
    total = RatInterval.point(0)
    for exp, c in p.collect(p.variables).items():
        term = scalar_enclosure(c.constant_value())
        for v, e in zip(p.variables, exp):
            if e:
                term = term * (_as_interval(box[v]) ** e)
        total = total + term
    return total


def sign_at_root(f: MultiPoly, defining: MultiPoly, root: RootLocation,
                 var: str) -> int:
    """Exact sign of f at a root of `defining` given exactly or by interval."""
    fc = poly_to_coeffs(f, var) if not f.is_constant() else None
    if isinstance(root, Fraction):
        val = f.eval_scalar({var: root}) if not f.is_constant() else f.constant_value()
        return scalar_sign(val)
    # shared root => sign 0
    dc = poly_to_coeffs(defining, var)
    if fc is not None:
        g = gcd_univariate(fc, dc)
        if deg(g) >= 1:
            chain = sturm_chain(squarefree_part(g))
            if root_count_interval(chain, root.lo, root.hi) > 0:
                return 0
    sf = squarefree_part(dc)
    iv = root
    for _ in range(SIGN_REFINE_STEPS):
        enc = poly_box_eval(f, {var: RatInterval(iv.lo, iv.hi)})
        s = enc.sign()
        if s is not None:
            return s
        iv = refine(sf, iv, iv.width() / 4)
    raise ArithmeticError("could not determine sign by interval refinement")
