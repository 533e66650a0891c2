"""Numerical trajectories and Poincare return maps.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair (scipy's
RK45) at tight tolerances.  The return map integrates exactly one turn
in the polar angle around the focus and reads the displacement off the
endpoint (Andronov, Leontovich, Gordon & Maier, 1973).

scipy is imported on the first integration and numpy only inside
`integrate`, so importing this module (and the CLI, which imports it)
stays cheap for the exact symbolic commands, which never load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .fields import VectorField
from .poly import MultiPoly

# A failed return-map solve whose last state has |X.e_phi| / |X| below this
# stalled where the orbit turns radial: dr/dphi grows like 1/(X.e_phi)
# there, so RK45 shrinks its step until it gives up before the no_return
# event can fire.
STALL_ANGULAR_SPEED = 1e-6


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _compile(p: MultiPoly):
    """Fast float evaluator for a polynomial in (x, y)."""
    terms = [(float(c.constant_value()), ex, ey)
             for (ex, ey), c in p.collect(("x", "y")).items()]

    def ev(x: float, y: float) -> float:
        return sum(c * x**ex * y**ey for c, ex, ey in terms)

    return ev


def _rhs(field: VectorField, binding: Optional[Mapping]):
    fb = field.bind(dict(binding or {}))
    fp = _compile(fb.P)
    fq = _compile(fb.Q)

    def rhs(t, z):
        return (fp(z[0], z[1]), fq(z[0], z[1]))

    return rhs, fb


@dataclass
class Trajectory:
    t: Sequence[float]  # numpy arrays: t has shape (n,), xy (n, 2)
    xy: Sequence[Sequence[float]]
    status: str  # "ok" | "truncated"
    diagnostic: str = ""

    def csv_text(self) -> str:
        """CSV text: a t,x,y header, floats in repr form, LF line ends."""
        rows = [f"{float(ti)!r},{float(xi)!r},{float(yi)!r}\n"
                for ti, (xi, yi) in zip(self.t, self.xy)]
        return "t,x,y\n" + "".join(rows)


def integrate(
    field: VectorField,
    binding: Optional[Mapping],
    x0: Sequence,
    tmax: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    samples: int = 1000,
) -> Trajectory:
    """Integrate from x0 for t in [0, tmax], sampled on a uniform grid."""
    import numpy as np

    rhs, _ = _rhs(field, binding)
    t_eval = np.linspace(0.0, float(tmax), samples)
    sol = solve_ivp(
        rhs, (0.0, float(tmax)), [float(x0[0]), float(x0[1])],
        method="RK45", rtol=rtol, atol=atol, t_eval=t_eval,
    )
    if sol.success:
        return Trajectory(t=sol.t, xy=sol.y.T, status="ok")
    return Trajectory(t=sol.t, xy=sol.y.T, status="truncated", diagnostic=sol.message)


def return_map(
    field: VectorField,
    binding: Optional[Mapping],
    focus: Sequence,
    direction: Sequence = (1.0, 0.0),
    radii: Sequence = (1e-2,),
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list:
    """Signed radial displacement after one turn, per start radius.

    The transversal is the ray from the focus along the unit vector d of
    `direction`.  The polar angle phi turns from it in the sense
    s = sign(d x X) of the flow X at the start: d_perp = s (-d_y, d_x),
    e_r = cos(phi) d + sin(phi) d_perp and e_phi = de_r/dphi.  Each start
    radius r0 is integrated on its own over phi in [0, 2 pi]:

        dr/dphi = r (X.e_r) / (X.e_phi),    dt/dphi = r / (X.e_phi),

    so the displacement is r(2 pi) - r0 and the return time is t(2 pi).

    Each row has the "radius" and a "status":
    - "ok": with "displacement" and "time"; a displacement within the
      tolerance atol + rtol r0 has no resolved sign and is reported as 0.0;
    - "left_annulus": r left [r0/10, 10 r0] at the row's "time";
    - "no_return": the angular speed X.e_phi fell to zero, or the solver
      failed where |X.e_phi| / |X| < STALL_ANGULAR_SPEED;
    - "tangent_start": the flow runs along the ray at the start;
    - "integration_failed": the solver's message is the "diagnostic".
    """
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if not 0 < norm < math.inf:
        raise ValueError("direction must be a nonzero finite vector")
    dx, dy = dx / norm, dy / norm
    radii = [float(r) for r in radii]
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("radii must be positive and finite")
    rhs, fb = _rhs(field, binding)
    at = {v: Fraction(c).limit_denominator(10**12) for v, c in zip("xy", focus)}
    (px, py), (qx, qy) = ([c.diff(v).eval_scalar(at) for v in "xy"]
                          for c in (fb.P, fb.Q))
    if float(px * qy - py * qx) <= 0:
        raise ValueError("focus Jacobian determinant is not positive")
    fx, fy = float(focus[0]), float(focus[1])
    results = []
    for r0 in radii:
        vx, vy = rhs(0.0, (fx + r0 * dx, fy + r0 * dy))
        turn = dx * vy - dy * vx
        if turn == 0:
            results.append({"radius": r0, "status": "tangent_start"})
            continue
        s = math.copysign(1.0, turn)
        nx, ny = -s * dy, s * dx

        def polar(phi, r):
            """(X.e_r, X.e_phi) at polar coordinates (r, phi)."""
            c, sn = math.cos(phi), math.sin(phi)
            ex, ey = c * dx + sn * nx, c * dy + sn * ny
            vx, vy = rhs(phi, (fx + r * ex, fy + r * ey))
            return vx * ex + vy * ey, vx * (c * nx - sn * dx) + vy * (c * ny - sn * dy)

        def flow(phi, state):
            radial, angular = polar(phi, state[0])
            return state[0] * radial / angular, state[0] / angular

        def left_annulus(phi, state):
            return (state[0] - r0 / 10) * (10 * r0 - state[0])

        def no_return(phi, state):
            return polar(phi, state[0])[1]

        left_annulus.terminal = no_return.terminal = True
        sol = solve_ivp(flow, (0.0, 2 * math.pi), (r0, 0.0), method="RK45",
                        rtol=rtol, atol=atol, events=(left_annulus, no_return))
        if sol.status == -1:
            radial, angular = polar(sol.t[-1], sol.y[0][-1])
            if abs(angular) < STALL_ANGULAR_SPEED * math.hypot(radial, angular):
                row = {"status": "no_return"}
            else:
                row = {"status": "integration_failed", "diagnostic": sol.message}
        elif sol.t_events[0].size:
            row = {"status": "left_annulus", "time": float(sol.y_events[0][0][1])}
        elif sol.t_events[1].size:
            row = {"status": "no_return"}
        else:
            d = float(sol.y[0][-1]) - r0
            row = {"status": "ok", "time": float(sol.y[1][-1]),
                   "displacement": d if abs(d) > atol + rtol * r0 else 0.0}
        results.append({"radius": r0, **row})
    return results


def displacement_sign_changes(table: list) -> list:
    """Pairs of consecutive radii whose displacements change sign."""
    ok = [row for row in table if row.get("status") == "ok"]
    return [(a["radius"], b["radius"]) for a, b in zip(ok, ok[1:])
            if a["displacement"] * b["displacement"] < 0]


def refine_cycle_bracket(
    field: VectorField,
    binding: Optional[Mapping],
    focus: Sequence,
    rlo: float,
    rhi: float,
    width: float = 1e-3,
    direction: Sequence = (1.0, 0.0),
    **kw,
) -> tuple:
    """Shrink a sign-change radius bracket by bisection on the radius."""

    def disp(r):
        row = return_map(field, binding, focus, direction=direction,
                         radii=(r,), **kw)[0]
        if row["status"] != "ok":
            raise ArithmeticError(f"return map failed at radius {r}: {row}")
        return row["displacement"]

    dlo = disp(rlo)
    dhi = disp(rhi)
    if dlo * dhi >= 0:
        raise ValueError("no sign change on the given bracket")
    while rhi - rlo > width:
        mid = (rlo + rhi) / 2
        dm = disp(mid)
        if dm == 0:
            return (mid, mid)
        if dm * dlo < 0:
            rhi, dhi = mid, dm
        else:
            rlo, dlo = mid, dm
    return (rlo, rhi)

