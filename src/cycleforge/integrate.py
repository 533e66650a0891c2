"""Numerical trajectories and Poincare return maps.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair (scipy's
RK45) at tight tolerances; return-map crossings are located by
sign-bracketed bisection on the dense output, never by extrapolation.

numpy and scipy are imported only when `integrate` or `return_map` runs,
so importing this module (and the CLI, which imports it) stays cheap for
the exact symbolic commands, which never load them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .fields import VectorField
from .poly import MultiPoly


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
    t: np.ndarray
    xy: np.ndarray  # shape (n, 2)
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
    return Trajectory(
        t=sol.t, xy=sol.y.T, status="truncated",
        diagnostic=sol.message,
    )


def _angular_speed(fb: VectorField, focus) -> float:
    """sqrt(det DX) at the focus: the local rotation rate."""
    at = {"x": Fraction(focus[0]), "y": Fraction(focus[1])}
    px = fb.P.diff("x").eval_scalar(at)
    py = fb.P.diff("y").eval_scalar(at)
    qx = fb.Q.diff("x").eval_scalar(at)
    qy = fb.Q.diff("y").eval_scalar(at)
    det = float(px * qy - py * qx)
    if det <= 0:
        raise ValueError("focus Jacobian determinant is not positive")
    return math.sqrt(det)


def return_map(
    field: VectorField,
    binding: Optional[Mapping],
    focus: Sequence,
    direction: Sequence = (1.0, 0.0),
    radii: Sequence = (1e-2,),
    rtol: float = 1e-10,
    atol: float = 1e-12,
    guard: Optional[tuple] = None,
    max_revolutions: float = 8.0,
    time_tol: float = 1e-12,
) -> list:
    """Signed radial displacement after one revolution, per start radius.

    The transversal is the ray from the focus along `direction`.  The
    first re-crossing (same rotational sense, positive ray side, after at
    least a quarter revolution) is bracketed on a fine sample of the dense
    output and bisected down to `time_tol` in time.  A trajectory leaving
    the guard annulus (defaults: [radius/10, 10*radius]) is reported as
    such for that radius.
    """
    import numpy as np

    rhs, fb = _rhs(field, binding)
    fx, fy = float(focus[0]), float(focus[1])
    dx, dy = float(direction[0]), float(direction[1])
    dn = math.hypot(dx, dy)
    dx, dy = dx / dn, dy / dn
    omega = _angular_speed(fb, (Fraction(focus[0]).limit_denominator(10**12),
                                Fraction(focus[1]).limit_denominator(10**12)))
    period = 2 * math.pi / omega
    results = []
    for r in radii:
        r = float(r)
        g_in, g_out = guard if guard is not None else (r / 10, 10 * r)
        start = (fx + r * dx, fy + r * dy)
        d0 = rhs(0.0, start)
        sense = dx * d0[1] - dy * d0[0]  # sign of initial angular motion
        if sense == 0:
            results.append({"radius": r, "status": "tangent_start"})
            continue
        sense = 1.0 if sense > 0 else -1.0

        def cross(z):
            return sense * (dx * (z[1] - fy) - dy * (z[0] - fx))

        def dot(z):
            return dx * (z[0] - fx) + dy * (z[1] - fy)

        def radius(z):
            return math.hypot(z[0] - fx, z[1] - fy)

        tmax = max_revolutions * period
        sol = solve_ivp(
            rhs, (0.0, tmax), start, method="RK45",
            rtol=rtol, atol=atol, dense_output=True,
        )
        if not sol.success:
            results.append({"radius": r, "status": "integration_failed",
                            "diagnostic": sol.message})
            continue
        n = max(2000, int(800 * sol.t[-1] / period))
        ts = np.linspace(0.0, sol.t[-1], n)
        zs = sol.sol(ts)
        hit = None
        left = None
        prev_c = cross((zs[0][0], zs[1][0]))
        for i in range(1, n):
            z = (zs[0][i], zs[1][i])
            rr = radius(z)
            if rr > g_out or rr < g_in:
                left = ts[i]
                break
            c = cross(z)
            if (ts[i] > 0.2 * period and prev_c < 0 <= c and dot(z) > 0):
                lo, hi = ts[i - 1], ts[i]
                while hi - lo > time_tol:
                    mid = (lo + hi) / 2
                    zm = sol.sol(mid)
                    if cross((zm[0], zm[1])) < 0:
                        lo = mid
                    else:
                        hi = mid
                zstar = sol.sol((lo + hi) / 2)
                hit = ((lo + hi) / 2, radius((zstar[0], zstar[1])))
                break
            prev_c = c
        if left is not None:
            results.append({"radius": r, "status": "left_annulus", "time": left})
        elif hit is None:
            results.append({"radius": r, "status": "no_return"})
        else:
            results.append({
                "radius": r,
                "status": "ok",
                "time": hit[0],
                "displacement": hit[1] - r,
            })
    return results


def displacement_sign_changes(table: list) -> list:
    """Pairs of consecutive radii whose displacements change sign."""
    out = []
    ok = [row for row in table if row.get("status") == "ok"]
    for a, b in zip(ok, ok[1:]):
        if a["displacement"] * b["displacement"] < 0:
            out.append((a["radius"], b["radius"]))
    return out


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

