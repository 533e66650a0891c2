"""Center certificates: reversibility, Darboux integrating factors,
separability.

A linear center that is reversible about a line through it, or admits a
local integrating factor, or has separated variables, is a true center.
The certificates here are exact polynomial identities, re-verifiable
independently of how they were found.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .fields import VectorField, square_factors
from .linalg import ExactMatrix, echelon, solve_linear_exact
from .poly import MultiPoly, format_poly


def reversibility(field: VectorField) -> list:
    """All axes/diagonals about which the field is reversible.

    The four candidate involutions R are reflection in x=0, y=0, y=x and
    y=-x; the field X is reversible about one when X = -R(X o R), R acting
    on the vector (P, Q) as on the point (x, y).
    """
    xv = MultiPoly.var("x", field.variables)
    yv = MultiPoly.var("y", field.variables)
    P, Q = field.P, field.Q
    lines = []
    for line, R in (("x=0", lambda a, b: (-a, b)), ("y=0", lambda a, b: (a, -b)),
                    ("y=x", lambda a, b: (b, a)), ("y=-x", lambda a, b: (-b, -a))):
        sub = dict(zip("xy", R(xv, yv)))
        pm, qm = R(P.substitute(sub), Q.substitute(sub))
        if P == -pm and Q == -qm:
            lines.append(line)
    return lines


def cofactor(field: VectorField, F: MultiPoly) -> Optional[MultiPoly]:
    """K with P*F_x + Q*F_y = K*F, or None when F is not invariant."""
    if F.is_zero():
        raise ValueError("zero curve")
    F = F.with_variables(field.variables)
    lie = field.P * F.diff("x") + field.Q * F.diff("y")
    return lie.exact_div(F)


def divergence(field: VectorField) -> MultiPoly:
    return field.P.diff("x") + field.Q.diff("y")


class CenterCertificate:
    __slots__ = ("kind", "line", "factors", "witness")
    kind: str  # "reversible" | "darboux" | "separable" | "none"
    line: Optional[str]
    factors: Optional[list]  # [(MultiPoly, scalar exponent)]
    witness: Optional[str]

    def __init__(self, kind, line=None, factors=None, witness=None):
        self.kind, self.line, self.factors, self.witness = kind, line, factors, witness

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.line is not None:
            out["line"] = self.line
        if self.factors is not None:
            out["factors"] = [
                {"curve": format_poly(F), "exponent": str(lam)}
                for F, lam in self.factors
            ]
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def darboux_search(
    field: VectorField, curves: Sequence[MultiPoly]
) -> Optional[CenterCertificate]:
    """Integrating factor of the form prod curve_i^lambda_i.

    Solves div(X) + sum lambda_i * K_i = 0 exactly for rational exponents,
    where K_i is the cofactor of curve i; curves that are not invariant are
    discarded.  Returns None when no combination works.
    """
    if not curves:
        raise ValueError("no candidate curves")
    kept = []
    cofs = []
    for F in curves:
        K = cofactor(field, F)
        if K is not None:
            kept.append(F.with_variables(field.variables))
            cofs.append(K)
    if not kept:
        return None
    div = divergence(field)
    # coefficient-wise linear system over all monomials appearing anywhere
    vs = field.variables
    zero = MultiPoly.zero(vs)
    div_c = div.collect(vs)
    cof_c = [K.collect(vs) for K in cofs]
    mono = sorted(set(div_c).union(*cof_c))
    A = ExactMatrix(
        [[Kc.get(m, zero).constant_value() for Kc in cof_c] for m in mono]
    )
    b = [-div_c.get(m, zero).constant_value() for m in mono]
    sol = solve_linear_exact(A, b)
    if sol is None:
        return None
    residual = div
    for K, lam in zip(cofs, sol):
        residual = residual + K * lam
    if not residual.is_zero():
        return None
    factors = list(zip(kept, sol))
    return CenterCertificate(
        kind="darboux",
        factors=factors,
        witness="div(X) + sum(lambda_i * K_i) = 0",
    )


def _separates(p: MultiPoly) -> bool:
    """True when p = u(x)*v(y) exactly, parameters allowed in either part.

    Writing p = sum_{i,j} c_ij * x^i y^j with c_ij polynomial in the
    parameters, p separates for every parameter value iff the coefficient
    matrix (c_ij) has rank at most one over the parameters, i.e. every 2x2
    minor vanishes identically.
    """
    cells = p.collect(("x", "y"))
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    zero = MultiPoly.zero(p.variables)
    matrix = ExactMatrix([[cells.get((i, j), zero) for j in cols] for i in rows])
    return len(echelon(matrix)[2]) <= 1


def separable_check(field: VectorField) -> bool:
    """True iff P = f(x)g(y) and Q = h(x)k(y) exactly.

    Parameter symbols may appear in any factor; only the (x, y) structure
    must separate.
    """
    return _separates(field.P) and _separates(field.Q)


def certify(
    field: VectorField, extra_curves: Sequence[MultiPoly] = ()
) -> CenterCertificate:
    """First certificate found: reversibility, then a Darboux integrating
    factor over the two invariant lines squared plus any caller-supplied
    curves, then separability."""
    lines = reversibility(field)
    if lines:
        return CenterCertificate(
            kind="reversible", line=lines[0], witness=",".join(lines)
        )
    curves = list(square_factors(field.variables))
    curves.extend(extra_curves)
    cert = darboux_search(field, curves)
    if cert is not None:
        return cert
    if separable_check(field):
        return CenterCertificate(kind="separable", witness="P and Q split as u(x)*v(y)")
    return CenterCertificate(kind="none")
