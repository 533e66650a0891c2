"""Numerical trajectories and Poincare return maps.

The integrator is the Dormand-Prince 5(4) pair (Dormand & Prince, 1980)
with Shampine's quartic dense output (Shampine, 1986), on plain Python
floats.  It keeps scipy RK45's initial step, step-size controller and
event rule, so it takes the same steps; an event's time is found by
bisection on the dense output.  The return map integrates
exactly one turn in the polar angle around the focus and reads the
displacement off the endpoint (Andronov, Leontovich, Gordon & Maier, 1973).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .fields import VectorField
from .poly import MultiPoly

# A failed return-map solve whose last state has |X.e_phi| / |X| below this
# stalled where the orbit turns radial: dr/dphi grows like 1/(X.e_phi)
# there, so the solver shrinks its step until it gives up before the
# no_return event can fire.
STALL_ANGULAR_SPEED = 1e-6

EPS = sys.float_info.epsilon

# Dormand-Prince 5(4): nodes _C, stage weights _A, fifth-order weights _B,
# error weights _E (fifth minus fourth order; the last one weights the
# derivative at the new point) and the quartic dense output _P.
_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
_A = ((),
      (1/5,),
      (3/40, 9/40),
      (44/45, -56/15, 32/9),
      (19372/6561, -25360/2187, 64448/6561, -212/729),
      (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = ((1, -8048581381/2820520608, 8663915743/2820520608,
       -12715105075/11282082432),
      (0, 0, 0, 0),
      (0, 131558114200/32700410799, -68118460800/10900136933,
       87487479700/32700410799),
      (0, -1754552775/470086768, 14199869525/1410260304,
       -10690763975/1880347072),
      (0, 127303824393/49829197408, -318862633887/49829197408,
       701980252875/199316789632),
      (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
      (0, 40617522/29380423, -110615467/29380423, 69997945/29380423))
# step-size controller: safety factor, bounds on the factor, error exponent
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _dot(u, w) -> float:
    """sum u[j] w[j], added in order."""
    s = 0.0
    for a, b in zip(u, w):
        s += a * b
    return s


def _rms(v) -> float:
    return math.sqrt(_dot(v, v)) / len(v) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Sec. II.4)."""
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * fv for v, fv in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol):
    """One accepted step: (t, y, f, next |h|, stages), or None if the step
    size fell below ten units in the last place of t."""
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = abs(h)
        K = [f]
        for c, a in zip(_C[1:], _A[1:]):
            K.append(fun(t + c * h, [v + _dot(k, a) * h
                                     for v, k in zip(y, zip(*K))]))
        y_new = [v + h * _dot(k, _B) for v, k in zip(y, zip(*K))]
        f_new = fun(t + h, y_new)
        K.append(f_new)
        scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
        error = _rms([_dot(k, _E) * h / s for k, s in zip(zip(*K), scale)])
        if error < 1:
            factor = (MAX_FACTOR if error == 0
                      else min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT))
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor, K
        h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
        rejected = True
    return None


def _dense(t_old, t, y_old, K) -> Callable:
    """The quartic interpolant y(s) of the step from t_old to t."""
    h = t - t_old
    Q = [[_dot(k, p) for p in zip(*_P)] for k in zip(*K)]

    def sol(s):
        x = (s - t_old) / h
        x2 = x * x
        x3 = x2 * x
        powers = (x, x2, x3, x3 * x)
        return [h * _dot(q, powers) + v for q, v in zip(Q, y_old)]

    return sol


def _bisect(g, a, b) -> float:
    """A root of g in [a, b], where g(a) and g(b) differ in sign or one of
    them is zero, by bisection to within xtol + rtol |t|, xtol = rtol = 4 EPS."""
    ga = g(a)
    if ga == 0:
        return a
    if g(b) == 0:
        return b
    while b - a > 4 * EPS * (1 + abs(a)):
        t = (a + b) / 2
        gt = g(t)
        if gt == 0:
            return t
        if (gt > 0) == (ga > 0):
            a = t
        else:
            b = t
    return (a + b) / 2


class Solution:
    """What `solve_ivp` returns; y[k] is the state at t[k]."""
    __slots__ = ("t", "y", "t_events", "y_events", "nfev", "status", "message")
    t: list
    y: list
    t_events: list  # per event: the time it ended the solve, if it did
    y_events: list
    nfev: int
    status: int  # 0: reached the end, 1: an event ended the solve, -1: failed
    message: str

    def __init__(self, t, y, t_events, y_events, nfev, status, message):
        self.t, self.y, self.t_events, self.y_events = t, y, t_events, y_events
        self.nfev, self.status, self.message = nfev, status, message

    @property
    def success(self) -> bool:
        return self.status >= 0


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, events=()) -> Solution:
    """Solve y' = fun(t, y) over t_span = (t0, tf) with t0 < tf.

    Each step is the Dormand-Prince 5(4) step of scipy's RK45 with its
    initial step and step-size control, so it takes scipy's steps up to
    rounding (scipy sums through BLAS).  The states are kept at every
    accepted step or, with t_eval (increasing, within t_span), read off the
    dense output at those times.  An event g(t, y) ends the solve when it
    changes sign (or reaches zero) from one accepted step to the next; its
    root is found by bisection on the dense output, and the earliest root
    of all active events ends the solve there.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t < t_bound:
        raise ValueError(f"t_span must increase, got {t_span}")
    rtol = max(rtol, 100 * EPS)
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    y = [float(v) for v in y0]
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
    g = [event(t, y) for event in events]
    ts, ys = ([t], [y]) if t_eval is None else ([], [])
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    next_eval = 0
    status, message = None, ""
    while status is None:
        t_old, y_old = t, y
        step = _step(rhs, t, y, f, h_abs, t_bound, rtol, atol)
        if step is None:
            status, message = -1, TOO_SMALL_STEP
            break
        t, y, f, h_abs, K = step
        if t >= t_bound:
            status = 0
            message = ("The solver successfully reached the end of the "
                       "integration interval.")
        sol = None
        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if a <= 0 <= b or a >= 0 >= b]
            if active:
                sol = _dense(t_old, t, y_old, K)
                # the earliest root ends the solve; ties go to the first event
                t, i = min((_bisect(lambda s, e=events[i]: e(s, sol(s)),
                                    t_old, t), i) for i in active)
                y = sol(t)
                t_events[i].append(t)
                y_events[i].append(y)
                status, message = 1, "A termination event occurred."
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            last = bisect_right(t_eval, t, next_eval)
            if last > next_eval:
                sol = sol or _dense(t_old, t, y_old, K)
                ts.extend(t_eval[next_eval:last])
                ys.extend(sol(s) for s in t_eval[next_eval:last])
                next_eval = last
    return Solution(t=ts, y=ys, t_events=t_events, y_events=y_events,
                    nfev=nfev, status=status, message=message)


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


class Trajectory:
    __slots__ = ("t", "xy", "status", "diagnostic")
    t: Sequence[float]
    xy: Sequence[Sequence[float]]
    status: str  # "ok" | "truncated"
    diagnostic: str

    def __init__(self, t, xy, status, diagnostic=""):
        self.t, self.xy, self.status, self.diagnostic = t, xy, status, diagnostic

    def csv_text(self) -> str:
        """CSV text: a t,x,y header, floats in repr form, LF line ends."""
        rows = [f"{ti!r},{xi!r},{yi!r}\n" for ti, (xi, yi) in zip(self.t, self.xy)]
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
    tmax = float(tmax)
    rhs, _ = _rhs(field, binding)
    sol = solve_ivp(rhs, (0.0, tmax), [float(x0[0]), float(x0[1])],
                    rtol=rtol, atol=atol, t_eval=_sample_grid(tmax, samples))
    if sol.success:
        return Trajectory(t=sol.t, xy=sol.y, status="ok")
    return Trajectory(t=sol.t, xy=sol.y, status="truncated", diagnostic=sol.message)


def _sample_grid(tmax: float, samples: int) -> list:
    """samples evenly spaced times from 0 to tmax, both ends included."""
    step = tmax / max(samples - 1, 1)
    grid = [i * step for i in range(samples)]
    if samples > 1:
        grid[-1] = tmax
    return grid


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

        sol = solve_ivp(flow, (0.0, 2 * math.pi), (r0, 0.0), rtol=rtol,
                        atol=atol, events=(left_annulus, no_return))
        if sol.status == -1:
            radial, angular = polar(sol.t[-1], sol.y[-1][0])
            if abs(angular) < STALL_ANGULAR_SPEED * math.hypot(radial, angular):
                row = {"status": "no_return"}
            else:
                row = {"status": "integration_failed", "diagnostic": sol.message}
        elif sol.t_events[0]:
            row = {"status": "left_annulus", "time": sol.y_events[0][0][1]}
        elif sol.t_events[1]:
            row = {"status": "no_return"}
        else:
            d = sol.y[-1][0] - r0
            row = {"status": "ok", "time": sol.y[-1][1],
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
    """Shrink a sign-change radius bracket by bisection on the radius; the
    width must be positive and finite."""
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"bracket width must be positive and finite, got {width}")

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

