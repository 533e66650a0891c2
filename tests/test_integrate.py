"""Numerical trajectories and return maps."""

import math
from fractions import Fraction

import pytest

from cycleforge import fields, integrate
from cycleforge.fields import VectorField
from cycleforge.poly import parse_poly


def _center_field():
    # P = (4x^2-1)*y, Q = -(4y^2-1)*x: reversible center at the origin
    return VectorField(parse_poly("y", ("x", "y")),
                       parse_poly("-x", ("x", "y")))


def test_trajectory_stays_on_invariant_boundary():
    fld = fields.p4_family()
    b = {"a11": Fraction(1), "a02": Fraction(1), "b20": Fraction(1),
         "b11": Fraction(1)}
    traj = integrate.integrate(fld, b, (0.5, 0.1), tmax=5.0)
    assert traj.status == "ok"
    assert max(abs(x - 0.5) for x, _ in traj.xy) == 0.0


def test_center_has_zero_displacement():
    rows = integrate.return_map(_center_field(), None, (0, 0), radii=(1e-2,))
    assert rows[0]["status"] == "ok"
    assert abs(rows[0]["displacement"]) < 1e-9


def test_return_time_close_to_linear_period():
    rows = integrate.return_map(_center_field(), None, (0, 0), radii=(1e-3,))
    # near the origin the rotation rate is sqrt(det DX) = 1
    assert math.isclose(rows[0]["time"], 2 * math.pi, rel_tol=1e-3)


def test_displacement_sign_changes_and_bracket():
    table = [
        {"radius": 0.01, "status": "ok", "displacement": -1e-6},
        {"radius": 0.02, "status": "ok", "displacement": -1e-7},
        {"radius": 0.03, "status": "left_annulus"},
        {"radius": 0.04, "status": "ok", "displacement": 2e-7},
    ]
    assert integrate.displacement_sign_changes(table) == [(0.02, 0.04)]


def test_refine_cycle_bracket_requires_sign_change():
    with pytest.raises(ValueError):
        integrate.refine_cycle_bracket(_center_field(), None, (0, 0),
                                       1e-3, 2e-3)


def test_return_map_guard_annulus():
    # strongly unstable focus (trace 2, det 2) leaves the default annulus
    fld = VectorField(parse_poly("y - x", ("x", "y")),
                      parse_poly("-x - y", ("x", "y")))
    rows = integrate.return_map(fld, None, (0, 0), radii=(1e-2,))
    assert rows[0]["status"] == "left_annulus"


@pytest.mark.parametrize("a", ["1/100", "-1/100", "1/20", "-1/20"])
@pytest.mark.parametrize("omega", ["1", "2"])
def test_return_map_matches_linear_focus(a, omega):
    # P ~ a*x - omega*y, Q ~ omega*x + a*y near the origin: one turn takes
    # 2*pi/omega and scales the radius by exp(2*pi*a/omega).  The square's
    # factors slow the turn by a relative r0^2 on average, so r0 is small.
    fld = VectorField(parse_poly(f"-({a}*x - {omega}*y)", ("x", "y")),
                      parse_poly(f"-({omega}*x + {a}*y)", ("x", "y")))
    r0 = 1e-4
    row = integrate.return_map(fld, None, (0, 0), radii=(r0,))[0]
    rate, w = float(Fraction(a)), float(Fraction(omega))
    assert row["status"] == "ok"
    assert math.isclose(row["displacement"], r0 * math.expm1(2 * math.pi * rate / w),
                        rel_tol=1e-4)
    assert math.isclose(row["time"], 2 * math.pi / w, rel_tol=1e-6)


def test_sweep_rows_equal_single_radius_calls():
    fam = fields.p9_family()
    alpha = Fraction(1, 1000)
    binding = {"mu": Fraction(0), "alpha": alpha, "lam": -8 * alpha}
    radii = [0.01, 0.02, 0.03, 0.045, 0.06, 0.09, 0.12]
    kw = {"direction": (1, 0), "rtol": 1e-9, "atol": 1e-11}
    rows = integrate.return_map(fam, binding, (0.25, 0.0), radii=radii, **kw)
    assert [r["status"] for r in rows] == ["ok"] * len(radii)
    for r, row in zip(radii, rows):
        assert integrate.return_map(fam, binding, (0.25, 0.0), radii=(r,), **kw) == [row]


@pytest.mark.parametrize("direction", [(1, 0), (0, 1), (0, -1), (-1, 0)])
def test_return_map_reports_no_return_where_the_orbit_turns_radial(direction):
    # from r0 = 0.6 every turn meets a point where X.e_phi = 0; RK45 stalls
    # before it there in three of the four directions
    fld = VectorField(parse_poly("x/5 - y", ("x", "y")),
                      parse_poly("x + y/5 - x^2", ("x", "y")))
    rows = integrate.return_map(fld, None, (0, 0), direction=direction, radii=(0.6,))
    assert rows == [{"radius": 0.6, "status": "no_return"}]


def test_return_map_rejects_bad_direction_and_radius():
    with pytest.raises(ValueError, match="direction"):
        integrate.return_map(_center_field(), None, (0, 0), direction=(0, 0))
    with pytest.raises(ValueError, match="radii"):
        integrate.return_map(_center_field(), None, (0, 0), radii=(-1e-2,))


def test_trajectory_csv_round_trip():
    fld = _center_field()
    traj = integrate.integrate(fld, None, (0.1, 0.0), tmax=1.0, samples=20)
    text = traj.csv_text()
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 21
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.1, 0.0]


def test_return_map_rejects_degenerate_focus():
    # Jacobian at a saddle has negative determinant
    fld = VectorField(parse_poly("x", ("x", "y")),
                      parse_poly("-y", ("x", "y")))
    with pytest.raises(ValueError):
        integrate.return_map(fld, None, (0, 0), radii=(1e-2,))


# -- oracle: scipy's RK45 on the same calls, in tests only ---------------------

_P9_SIMULATE = {"mu": Fraction(0), "alpha": Fraction(1, 100), "lam": Fraction(0)}
_P9_CYCLE = {"mu": Fraction(0), "alpha": Fraction(1, 1000), "lam": Fraction(-8, 1000)}


def _linear_focus(a, omega):
    return VectorField(parse_poly(f"-({a}*x - {omega}*y)", ("x", "y")),
                       parse_poly(f"-({omega}*x + {a}*y)", ("x", "y")))


def _stalling_field():
    return VectorField(parse_poly("x/5 - y", ("x", "y")),
                       parse_poly("x + y/5 - x^2", ("x", "y")))


ORACLE_CASES = {
    "simulate-7": lambda: integrate.integrate(
        fields.p9_family(), _P9_SIMULATE, (0.3, 0.0), 2.0, samples=7),
    "simulate-500": lambda: integrate.integrate(
        fields.p9_family(), _P9_SIMULATE, (0.3, 0.0), 50.0, samples=500),
    "p9-radius": lambda: integrate.return_map(
        fields.p9_family(), _P9_CYCLE, (0.25, 0.0), radii=(0.06,),
        rtol=1e-9, atol=1e-11),
    "linear-focus": lambda: integrate.return_map(
        _linear_focus("1/20", "2"), None, (0, 0), radii=(1e-4,)),
    "left-annulus": lambda: integrate.return_map(
        VectorField(parse_poly("y - x", ("x", "y")), parse_poly("-x - y", ("x", "y"))),
        None, (0, 0), radii=(1e-2,)),
    **{f"stall-{dx},{dy}": (lambda d=(dx, dy): integrate.return_map(
        _stalling_field(), None, (0, 0), direction=d, radii=(0.6,)))
       for dx, dy in [(1, 0), (0, 1), (0, -1), (-1, 0)]},
}


def _terminal(event):
    def g(t, y):
        return event(t, y)

    g.terminal = True
    return g


def _assert_close(ours, ref):
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (a, b)


def _flat(states):
    return [v for state in states for v in state]


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_solver_replays_scipy_rk45(monkeypatch, case):
    """Each solve_ivp call gives what scipy's RK45 gives on the same call.

    scipy sums its stages through BLAS, which may fuse multiply-adds, so the
    values agree up to rounding.  The error estimate cancels to a few digits,
    so a step can end 1e-10 away from scipy's; the states are compared where
    the times are the same: at every t_eval sample, and at the end.
    """
    scipy_integrate = pytest.importorskip("scipy.integrate")
    calls = []
    solve = integrate.solve_ivp

    def record(*args, **kw):
        calls.append((args, kw, solve(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(integrate, "solve_ivp", record)
    ORACLE_CASES[case]()
    (args, kw, ours), = calls
    events = [_terminal(e) for e in kw.pop("events", ())]
    ref = scipy_integrate.solve_ivp(*args, method="RK45", events=events or None, **kw)
    assert (ours.status, ours.message) == (ref.status, ref.message)
    if events:
        assert [len(te) for te in ours.t_events] == [te.size for te in ref.t_events]
        _assert_close(_flat(ours.t_events), _flat(ref.t_events))
    if case.startswith("stall"):
        # dr/dphi blows up ahead: the solve stops at the same angle, but how
        # many steps the controller rejects on the way, and r there, turn on
        # the last bits of its error estimate
        _assert_close(ours.t[-1:], ref.t[-1:])
        return
    assert (ours.nfev, len(ours.t)) == (ref.nfev, len(ref.t))
    same_times = 0 if kw.get("t_eval") is not None else len(ref.t) - 1
    _assert_close(ours.t[same_times:], ref.t[same_times:])
    _assert_close(_flat(ours.y[same_times:]), ref.y.T[same_times:].ravel())
    if events:
        _assert_close(_flat(_flat(ours.y_events)), _flat(_flat(ref.y_events)))


@pytest.mark.parametrize("samples", [1, 2, 7, 1000])
def test_sample_grid_is_numpys_linspace(samples):
    np = pytest.importorskip("numpy")
    for tmax in (2.0, 50.0, 0.1, 1e4):
        grid = integrate._sample_grid(tmax, samples)
        assert grid == np.linspace(0.0, tmax, samples).tolist()
