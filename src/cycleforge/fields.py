"""Planar vector fields with the invariant square (4x^2-1)(4y^2-1) = 0.

A field here is P = (4x^2-1)*f, Q = (4y^2-1)*g with f, g polynomials of
degree at most d.  The subclass with a_{d,0} = b_{0,d} = 0 is exactly the
one realizable from two-player game dynamics with polynomial payoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import MultiPoly, format_poly, parse_poly


XY = ("x", "y")


def in_plane(*polys: MultiPoly) -> list:
    """The polynomials over (x, y) alone; a ValueError names every other
    symbol they still use."""
    unbound = sorted({v for p in polys for v in p.used_variables()} - set(XY))
    if unbound:
        raise ValueError(f"unbound symbols {', '.join(unbound)}; "
                         "bind every parameter first")
    return [p.with_variables(XY) for p in polys]


def square_factors(variables: Sequence[str]) -> tuple:
    """(4x^2 - 1, 4y^2 - 1) over the given variables, which hold x and y."""
    x, y = MultiPoly.var("x", variables), MultiPoly.var("y", variables)
    return 4 * x**2 - 1, 4 * y**2 - 1


def _xy_degree(p: MultiPoly) -> int:
    return max(p.graded(XY), default=0)


@dataclass
class VectorField:
    """P = (4x^2-1)*f, Q = (4y^2-1)*g; the factored form is kept exact."""

    f: MultiPoly
    g: MultiPoly
    P: MultiPoly = field(init=False)
    Q: MultiPoly = field(init=False)
    d: int = field(init=False)
    klass: str = field(init=False)

    def __post_init__(self):
        f, g = MultiPoly._align(self.f, self.g)
        if "x" not in f.variables or "y" not in f.variables:
            raise ValueError("field components must use variables x and y")
        self.f, self.g = f, g
        sq_x, sq_y = square_factors(f.variables)
        self.P = sq_x * f
        self.Q = sq_y * g
        self.d = max(_xy_degree(f), _xy_degree(g))
        ad0 = (self.d, 0) in f.collect(XY)
        b0d = (0, self.d) in g.collect(XY)
        self.klass = "X_d" if (ad0 or b0d) else "X_d0"

    @property
    def variables(self) -> tuple:
        return self.f.variables

    @property
    def parameters(self) -> tuple:
        return tuple(v for v in self.variables if v not in ("x", "y"))

    def bind(self, binding: Mapping) -> "VectorField":
        """Substitute parameter values, keeping x and y symbolic."""
        return VectorField(*in_plane(self.f.evaluate(binding),
                                     self.g.evaluate(binding)))

    def is_even_symmetric(self) -> bool:
        """True when (x,y,t) -> (-x,-y,-t) preserves the field, i.e. P and
        Q are even under (x,y) -> (-x,-y)."""
        return all(d % 2 == 0 for p in (self.P, self.Q) for d in p.graded(XY))

    def to_json(self) -> dict:
        return {
            "f": format_poly(self.f),
            "g": format_poly(self.g),
            "P": format_poly(self.P),
            "Q": format_poly(self.Q),
            "degree": self.d,
            "class": self.klass,
        }


# -- canned families -----------------------------------------------------------


def p4_family() -> VectorField:
    """Quadratic subfamily with a linear center at the origin and
    a_{2,0} = b_{0,2} = 0 (four free parameters)."""
    vs = ("x", "y", "a11", "a02", "b20", "b11")
    return VectorField(
        parse_poly("y + a11*x*y + a02*y^2", vs),
        parse_poly("-x + b20*x^2 + b11*x*y", vs),
    )


def p5_family() -> VectorField:
    """Full quadratic family with a linear center at the origin
    (six free parameters)."""
    vs = ("x", "y", "a20", "a11", "a02", "b20", "b11", "b02")
    return VectorField(
        parse_poly("y + a20*x^2 + a11*x*y + a02*y^2", vs),
        parse_poly("-x + b20*x^2 + b11*x*y + b02*y^2", vs),
    )


def p7_base() -> VectorField:
    """One-parameter center family (a02 = b20 = b11 = 0 pattern with
    a11 = mu, plus the x^2 term), origin center for every mu."""
    vs = ("x", "y", "mu")
    return VectorField(
        parse_poly("y + mu*x*y", vs),
        parse_poly("-x + x^2", vs),
    )


def p8_base() -> VectorField:
    """One-parameter center family inside the full quadratic class."""
    vs = ("x", "y", "mu")
    return VectorField(
        parse_poly("y - x^2 + mu*x*y - y^2", vs),
        parse_poly("-x - mu/2*x^2 + 2*x*y - mu/2*y^2", vs),
    )


def p9_family() -> VectorField:
    """Two-center family with singularities at (1/4, 0) and (-1/4, 0);
    even-symmetric, so behavior at one center mirrors the other."""
    vs = ("x", "y", "mu", "alpha", "lam")
    return VectorField(
        parse_poly("x*y + lam*y^2", vs),
        parse_poly("1 - 16*x^2 - 4*alpha*x*y + mu*y^2", vs),
    )


# center-condition strata of the four-parameter family
P4_CONDITIONS = {
    "C1": {"a11": 0, "b20": 0},
    "C2": {"a11": 0, "b11": 0},
    "C3": {"a02": 0, "b20": 0},
    "C4": {"a02": 0, "b11": 0},
    "C5": {"b20": "a02", "b11": "a11"},
    "C6": {"b20": "-a02", "b11": "-a11"},
    "C7": {"b20": "-a11", "b11": "-a02"},
}

# center-condition strata of the six-parameter family
P5_CONDITIONS = {
    "D1": {"a20": 0, "a02": 0, "b20": 0, "b02": 0},
    "D2": {"a20": 0, "a11": 0, "b11": 0, "b02": 0},
    "D3": {"a20": 0, "a02": 0, "b11": 0},
    "D4": {"a11": 0, "b20": 0, "b02": 0},
    "D5": {"b20": "a02", "b11": "a11", "b02": "a20"},
    "D6": {"b20": "-a02", "b11": "-a11", "b02": "-a20"},
    "D7": {"a20": "-b11/2", "a02": "-b11/2", "b20": "-a11/2", "b02": "-a11/2"},
    "D8": {"a11": "2*a20", "b02": "-a20", "b11": "-2*a20", "b20": "-a02"},
    "D9": {"a11": "-2*a20", "b02": "a20", "b11": "-2*a20", "b20": "a02"},
}


def apply_condition(base: VectorField, condition: Mapping) -> VectorField:
    """Substitute a center-condition stratum into a family.

    Values may be numbers or polynomial strings in the remaining
    parameters.
    """
    variables = base.variables
    binding = {}
    for name, val in condition.items():
        if isinstance(val, str):
            binding[name] = parse_poly(val, variables)
        else:
            binding[name] = MultiPoly.const(Fraction(val), variables)
    f = base.f.substitute(binding)
    g = base.g.substitute(binding)
    used = ("x", "y") + tuple(
        v for v in variables
        if v not in ("x", "y") and v not in condition
    )
    return VectorField(f.with_variables(used), g.with_variables(used))


# -- game model reduction --------------------------------------------------------


@dataclass
class GameModel:
    """Two-player payoff matrices; entries are polynomials in the mixed
    strategy weights (x, y), constants allowed."""

    payoff_A: list  # 2x2 of MultiPoly
    payoff_B: list

    def __post_init__(self):
        for M in (self.payoff_A, self.payoff_B):
            if len(M) != 2 or any(len(row) != 2 for row in M):
                raise ValueError("payoff matrices must be 2x2")

    @staticmethod
    def from_json(data: dict) -> "GameModel":
        def conv(M):
            return [
                [
                    e if isinstance(e, MultiPoly) else parse_poly(str(e), ("x", "y"))
                    for e in row
                ]
                for row in M
            ]

        return GameModel(payoff_A=conv(data["A"]), payoff_B=conv(data["B"]))

    def to_json(self) -> dict:
        return {
            "A": [[format_poly(e) for e in row] for row in self.payoff_A],
            "B": [[format_poly(e) for e in row] for row in self.payoff_B],
        }


def build_from_game(model: GameModel) -> VectorField:
    """Reduce the two-strategy replicator dynamics to a square-invariant
    field.

    On the unit square the dynamics is x' = x(x-1)*f*(x,y),
    y' = y(y-1)*g*(x,y) with f* and g* the payoff combinations; centering
    the square at the origin and rescaling time by 4 gives
    P = (4x^2-1)*f, Q = (4y^2-1)*g exactly.
    """
    A, B = model.payoff_A, model.payoff_B
    variables = A[0][0].variables if A[0][0].variables else ("x", "y")
    if "x" not in variables or "y" not in variables:
        variables = ("x", "y") + tuple(
            v for v in variables if v not in ("x", "y")
        )
    def lift(p):
        return p.with_variables(variables)

    xv = MultiPoly.var("x", variables)
    yv = MultiPoly.var("y", variables)
    f_star = lift(A[1][1]) - lift(A[0][1]) + (
        lift(A[0][1]) + lift(A[1][0]) - lift(A[0][0]) - lift(A[1][1])
    ) * yv
    g_star = lift(B[1][1]) - lift(B[0][1]) + (
        lift(B[0][1]) + lift(B[1][0]) - lift(B[0][0]) - lift(B[1][1])
    ) * xv
    half = Fraction(1, 2)
    shift = {"x": xv + half, "y": yv + half}
    return VectorField(f_star.substitute(shift), g_star.substitute(shift))
