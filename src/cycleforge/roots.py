"""Exact real-root isolation for univariate polynomials.

Works on coefficient lists (index = power) over Q or Q(sqrt(d)).  Roots come
back either as exact rationals (found by the rational-root theorem) or as
Sturm-certified isolating intervals with rational endpoints.  An interval
carries the square-free polynomial its Sturm count and endpoint signs refer
to, so `refine` and `sign_at_root` need nothing but the root itself;
`sign_at_root` decides a sign there by one Sturm query, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Union

from .poly import MultiPoly
from .scalars import QuadExt, inverse, scalar_sign, is_zero


# -- univariate coefficient-list helpers --------------------------------------


def poly_to_coeffs(p: MultiPoly, var: Optional[str] = None) -> list:
    used = p.used_variables()
    var = var or (used[0] if used else None)
    if any(v != var for v in used):
        raise ValueError(f"{p} is not a polynomial in {var} alone")
    if not used:  # a constant has degree <= 0 in any variable
        return strip([p.constant_value()])
    return strip([c.constant_value() for c in p.coeffs_in(var)])


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


def sturm_chain(coeffs: list, other: Optional[list] = None) -> list:
    """Signed remainder sequence of (coeffs, other); other defaults to the
    derivative, giving the Sturm sequence of coeffs."""
    chain = [coeffs, strip(derivative(coeffs) if other is None else list(other))]
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
    """Open rational interval certified (Sturm count 1) to hold one simple
    root of the square-free polynomial `poly` (coefficients, index = power)."""

    lo: Fraction
    hi: Fraction
    sign_change_certificate: tuple  # (sign of poly at lo, sign at hi)
    poly: tuple = field(repr=False)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


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


def _rational_base(coeffs: list) -> list:
    """The rational polynomial whose roots are the rational roots of coeffs:
    over Q(sqrt(d)), the gcd of its two component polynomials."""
    p1, p2 = _rational_component_polys(coeffs)
    return gcd_univariate(p1, p2) if p1 and p2 else p1 or p2


def rational_roots(coeffs: list) -> List[Fraction]:
    """The distinct rational roots, ascending."""
    return _lifted_roots(squarefree_part(_rational_base(coeffs)))


def _lifted_roots(sf: list) -> List[Fraction]:
    """The rational roots of a square-free rational polynomial, ascending.

    On integer coefficients a_i, a root in lowest terms has a denominator
    dividing a_n, so a_n times it is an integer of absolute value at most
    |a_n| + max |a_i| (Cauchy).  Modulo the least prime p that divides no
    a_n and at which every root is simple, each root lifts by Newton's
    iteration to a unique p-adic root; a_n times it, as a symmetric residue
    modulo p^(2^j) above twice that bound, is the one candidate, checked
    exactly (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    The work grows with the degree and the size of the coefficients, not
    with the divisors of a_0 and a_n.
    """
    if deg(sf) < 1:
        return []
    den = 1
    for c in sf:  # pairwise: lcm(*generator) per call grew the tuple free lists
        den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in sf]
    hits = [Fraction(0)] if ints[0] == 0 else []
    body = ints[1:] if ints[0] == 0 else ints  # square-free: 0 is a simple root
    an = body[-1]
    if len(body) == 1:
        return hits
    bound = abs(an) + max(abs(c) for c in body[:-1])
    dbody = derivative(body)
    p = 1
    while True:
        p += 1
        if an % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        zs = [z for z in range(p) if horner(body, z) % p == 0]
        if all(horner(dbody, z) % p for z in zs):
            break
    for z in zs:
        m = p
        while m <= 2 * bound:
            m *= m
            z = (z - horner(body, z) * pow(horner(dbody, z), -1, m)) % m
        n = an * z % m
        r = Fraction(n - m if 2 * n > m else n, an)
        num, q, top = r.numerator, r.denominator, len(body) - 1
        if sum(c * num**i * q ** (top - i) for i, c in enumerate(body)) == 0:
            hits.append(r)
    return sorted(hits)


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
    rroots = _lifted_roots(_rational_base(sf))
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
                iv = refine(iv, iv.width() / 4)
            roots.append(_certified(sf, iv.lo, iv.hi))
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
                out.append(IsolatingInterval(lo, hi, (slo, shi), tuple(sf)))
                return
        mid = (lo + hi) / 2
        nl = variations_at(chain, lo) - variations_at(chain, mid)
        rec(lo, mid, nl)
        rec(mid, hi, n - nl)

    rec(-bound, bound, total)
    assert len(out) == total, "isolation failed to separate all roots"
    return out


def _certified(sf: list, lo: Fraction, hi: Fraction) -> IsolatingInterval:
    """(lo, hi) with the signs of sf at its ends; the caller has checked
    that it isolates one simple root of sf."""
    cert = (scalar_sign(horner(sf, lo)), scalar_sign(horner(sf, hi)))
    return IsolatingInterval(lo, hi, cert, tuple(sf))


def refine(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """Bisect a certified interval down to the given positive width."""
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    lo, hi = iv.lo, iv.hi
    slo, shi = iv.sign_change_certificate
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = scalar_sign(horner(iv.poly, mid))
        if sm == 0:
            # rational hit: hi - lo > width, so this box lies inside (lo, hi)
            return _certified(iv.poly, mid - width / 2, mid + width / 2)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi, (slo, shi), iv.poly)


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
            return IsolatingInterval(lo, hi, (slo, shi), tuple(sf))
        gap /= 2


def sign_at_root(f: MultiPoly, root: RootLocation, var: str) -> int:
    """Exact sign of the polynomial f in var at a real root."""
    fc = poly_to_coeffs(f, var)
    if isinstance(root, Fraction):
        return scalar_sign(horner(fc, root))
    # Sturm's theorem for the Cauchy index: with P = root.poly nonzero at
    # lo and hi, Var(lo) - Var(hi) of the signed remainder sequence of
    # (P, f) is Ind(f/P) over (lo, hi) = sign(P'(a) f(a)) at the one simple
    # root a, and P'(a) has the sign of P at hi
    chain = sturm_chain(list(root.poly), fc)
    index = variations_at(chain, root.lo) - variations_at(chain, root.hi)
    return index * root.sign_change_certificate[1]


# -- rational interval arithmetic (enclosures only; signs are exact) -----------


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

    def __mul__(self, other):
        other = _as_interval(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.contains_zero():
            raise ZeroDivisionError("interval denominator straddles zero")
        quots = [self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi]
        return RatInterval(min(quots), max(quots))

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


# bits of sqrt(d), at least, in the enclosure of a Q(sqrt d) coefficient
ENCLOSURE_BITS = 30


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(x)


def sqrt_enclosure(d: int, bits: int) -> RatInterval:
    """Rational enclosure of sqrt(d) with width <= 2**-bits."""
    scale = 1 << bits
    s = math.isqrt(d * scale * scale)
    return RatInterval(Fraction(s, scale), Fraction(s + 1, scale))


def scalar_enclosure(c, bits: int) -> RatInterval:
    if isinstance(c, QuadExt):
        if c.b == 0:
            return RatInterval.point(c.a)
        return RatInterval.point(c.a) + RatInterval.point(c.b) * sqrt_enclosure(c.d, bits)
    return RatInterval.point(c)


def poly_box_eval(p: MultiPoly, box: dict) -> RatInterval:
    """Interval evaluation of p over a box {var: RatInterval}; sqrt(d) is
    enclosed at least as tightly as the narrowest side of the box, so the
    result shrinks with the box."""
    box = {v: _as_interval(b) for v, b in box.items()}
    widths = [b.width() for b in box.values() if b.width()]
    # 2**-bits is at most every positive width
    bits = max([ENCLOSURE_BITS] + [(w.denominator // w.numerator).bit_length() for w in widths])
    total = RatInterval.point(0)
    for exp, c in p.collect(p.variables).items():
        term = scalar_enclosure(c.constant_value(), bits)
        for v, e in zip(p.variables, exp):
            if e:
                term = term * (box[v] ** e)
        total = total + term
    return total
