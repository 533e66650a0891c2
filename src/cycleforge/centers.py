"""Center certificates: reversibility, Darboux integrating factors,
separability.

A linear center that is reversible about a line through it, or admits a
local integrating factor, or has separated variables, is a true center.
The certificates here are exact polynomial identities, re-verifiable
independently of how they were found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .fields import VectorField
from .linalg import ExactMatrix, solve_linear_exact
from .poly import MultiPoly, format_poly, parse_poly


def _swap_sub(field: VectorField, sx, sy):
    """Substitute (x, y) -> (sx, sy) in both components."""
    return field.P.substitute({"x": sx, "y": sy}), field.Q.substitute(
        {"x": sx, "y": sy}
    )


def reversibility(field: VectorField) -> list:
    """All axes/diagonals about which the field is reversible.

    The four candidate involutions are reflection in x=0, y=0, y=x and
    y=-x; each has an exact polynomial criterion on (P, Q).
    """
    xv = MultiPoly.var("x", field.variables)
    yv = MultiPoly.var("y", field.variables)
    P, Q = field.P, field.Q
    lines = []
    pm, qm = _swap_sub(field, -xv, yv)
    if P == pm and Q == -qm:
        lines.append("x=0")
    pm, qm = _swap_sub(field, xv, -yv)
    if P == -pm and Q == qm:
        lines.append("y=0")
    pm, qm = _swap_sub(field, yv, xv)
    if P == -qm and Q == -pm:
        lines.append("y=x")
    pm, qm = _swap_sub(field, -yv, -xv)
    if P == qm and Q == pm:
        lines.append("y=-x")
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


@dataclass
class CenterCertificate:
    kind: str  # "reversible" | "darboux" | "separable" | "none"
    line: Optional[str] = None
    factors: Optional[list] = None  # [(MultiPoly, scalar exponent)]
    witness: Optional[str] = None

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
    if sol.kind == "inconsistent":
        return None
    residual = div
    for K, lam in zip(cofs, sol.solution):
        residual = residual + K * lam
    if not residual.is_zero():
        return None
    factors = list(zip(kept, sol.solution))
    return CenterCertificate(
        kind="darboux",
        factors=factors,
        witness="div(X) + sum(lambda_i * K_i) = 0",
    )


def _separates(p: MultiPoly) -> bool:
    """True when p = u(x)*v(y) exactly, parameters allowed in either part.

    Writing p = sum_{i,j} c_ij * x^i y^j with c_ij polynomial in the
    parameters, p separates for every parameter value iff the coefficient
    matrix (c_ij) has rank one, i.e. every 2x2 minor vanishes identically.
    """
    cells = p.collect(("x", "y"))
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    zero = MultiPoly.zero(p.variables)
    for r1, r2 in combinations(rows, 2):
        for c1, c2 in combinations(cols, 2):
            minor = (
                cells.get((r1, c1), zero) * cells.get((r2, c2), zero)
                - cells.get((r1, c2), zero) * cells.get((r2, c1), zero)
            )
            if not minor.is_zero():
                return False
    return True


def separable_check(field: VectorField) -> bool:
    """True iff P = f(x)g(y) and Q = h(x)k(y) exactly.

    Parameter symbols may appear in any factor; only the (x, y) structure
    must separate.
    """
    return _separates(field.P) and _separates(field.Q)


DEFAULT_CURVES = ("4*x^2 - 1", "4*y^2 - 1")


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
    curves = [parse_poly(s, field.variables) for s in DEFAULT_CURVES]
    curves.extend(extra_curves)
    cert = darboux_search(field, curves)
    if cert is not None:
        return cert
    if separable_check(field):
        return CenterCertificate(kind="separable", witness="P and Q split as u(x)*v(y)")
    return CenterCertificate(kind="none")
