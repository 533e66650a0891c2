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
    assert rows[0]["status"] in ("left_annulus", "no_return")


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
