"""Command-line interface: exit codes, JSON shape, atomic output."""

import gc
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cycleforge import cli, fields
from cycleforge.cli import main

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir,
                         "perfbench", "reference", "focus")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lyap_json(capsys):
    code, out, err = run(capsys, "lyap", "--family", "P4", "--N", "1")
    assert code == 0
    data = json.loads(out)
    assert data["quantities"] == ["2/3*a11*a02-2/3*b20*b11"]


def test_unknown_family_is_input_error(capsys):
    code, out, err = run(capsys, "lyap", "--family", "NOPE")
    assert code == 2 and "unknown family" in err


def test_file_family_and_out(tmp_path, capsys):
    src = tmp_path / "fam.json"
    src.write_text(json.dumps({"f": "y", "g": "-x"}))
    dst = tmp_path / "rep.json"
    code, out, err = run(capsys, "singular", "--file", str(src),
                         "--out", str(dst))
    assert code == 0
    data = json.loads(dst.read_text())
    assert data["points"][0]["location"] == {"x": "0", "y": "0"}
    # no temp files left behind
    assert all(not name.startswith(".cycleforge-")
               for name in os.listdir(tmp_path))


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "singular", "--file", str(bad))
    assert code == 2 and "bad.json" in err


def test_bad_binding_is_input_error(capsys):
    code, out, err = run(capsys, "singular", "--family", "P4",
                         "--bind", "a11=two")
    assert code == 2 and "bad rational value" in err


SIM = ["simulate", "--family", "P9", "--bind", "mu=0,alpha=1/100,lam=0"]
START = ["--start", "0.3,0"]
TMAX = ["--tmax", "1"]
# a --setup file up to its "point" value
SETUP = 'json:{"base": {"f": "y", "g": "-x"}, "terms": [], "point": '
# a --setup file up to its "alpha" value, which no term's symbol matches
ALPHA = ('json:{"base": {"f": "x*y-1", "g": "x^2*y^2-1/7", "variables": ["x", "y", "mu"]}, '
         '"terms": [["P", "lam", "(4*x^2-1)*y^2"]], "point": ["1/4", 0], "alpha": ')


@pytest.mark.parametrize("argv, named", [
    (["singular", "--family", "P9", "--bind", "mu=0"], "alpha"),
    (["singular", "--family", "P9", "--bind", "mu=0,alpha=0,lam=0,zzz=3"], "zzz"),
    (["eliminate", "--family", "P4", "--order", "zz"], "zz"),
    (["lyap", "--family", "P4", "--N", "0"], "--N"),
    (["lyap", "--family", "P4", "--N", "-1"], "--N"),
    (SIM + START + ["--tmax", "nan"], "--tmax"),
    (SIM + START + ["--tmax", "inf"], "--tmax"),
    (SIM + START + ["--tmax", "-1"], "--tmax"),
    (SIM + START + TMAX + ["--rtol", "nan"], "--rtol"),
    (SIM + START + TMAX + ["--atol", "inf"], "--atol"),
    (SIM + START + TMAX + ["--samples", "0"], "--samples"),
    (SIM + ["--start", "5,5"] + TMAX, "--start"),
    (SIM + ["--start", "nan,0"] + TMAX, "--start"),
    (SIM + ["--start", "0.1"] + TMAX, "--start"),
    (["lyap", "--file", "json:[1, 2]"], "JSON object"),
    (["game-build", "--file", "json:[1, 2]"], "JSON object"),
    (["bifurcate", "--setup", "json:[1, 2]"], "JSON object"),
    (["lyap", "--file", 'json:{"f": 1, "g": "x", "variables": 5}'], ".json"),
    (["game-build", "--file", 'json:{"A": 1, "B": 1}'], ".json"),
    (["center-certify", "--family", "P4", "--condition", "[1]"], "condition"),
    (["center-certify", "--family", "P4", "--condition", '{"zz": 1}'], "zz"),
    (["center-certify", "--family", "P4", "--condition", '{"a11": null}'],
     "--condition"),
    (SIM + START + ["--tmax", "1e9"], "--tmax"),
    (SIM + START + ["--tmax", f"{cli.MAX_TMAX * 1.001!r}"], "--tmax"),
    (["eliminate", "--family", "P4", "--order", "a11", "--bound", "0"], "--bound"),
    (["eliminate", "--family", "P4", "--order", "a11",
      "--bound", str(cli.MAX_BOUND + 1)], "--bound"),
    (["lyap", "--file", 'json:{"f": "x/0", "g": "y"}'], "division by zero (column 2)"),
    (["center-certify", "--family", "P4", "--curve", "x/0"], "division by zero"),
    (["center-certify", "--family", "P4", "--condition", '{"a11": "1/0"}'],
     "division by zero"),
    (["singular", "--family", "P9", "--bind", "mu=1/0,alpha=0,lam=0"], "'1/0'"),
    (["bifurcate", "--setup", SETUP + '["1/0", 0]}'], "division by zero"),
    (["bifurcate", "--setup", SETUP + '["1"]}'], "point"),
    (["bifurcate", "--setup", SETUP + '[0, 0, 0]}'], "point"),
    (["bifurcate", "--setup", SETUP + '[]}'], "point"),
    (["lyap", "--file", 'json:{"f": "x^70000", "g": "y"}'], "16-bit field"),
    (["eliminate", "--family", "P4", "--N", "3", "--order", "a11,a11", "--bound", "2"],
     "'a11'"),
    (["bifurcate", "--setup", ALPHA + '"a"}'], "alpha 'a'"),
    (["bifurcate", "--setup", ALPHA + 'null}'], "alpha None"),
    (["lyap", "--file", "json:" + json.dumps({"f": "(" * 400 + "x" + ")" * 400, "g": "y"})],
     "nested too deeply"),
    (["lyap", "--file", "json:" + json.dumps({"f": "x*" + "-" * 3000 + "y", "g": "y"})],
     "nested too deeply"),
    (["center-certify", "--family", "P4", "--curve", "(" * 400 + "x" + ")" * 400],
     "nested too deeply"),
    (["berlinskii", "--raw-pair", "--file",
      'json:{"f": "(x-1/3)*(y+2)", "g": "x^65535"}'], "deg f * deg g = 2 * 65535"),
    (["singular", "--file", "json:" + json.dumps({"f": "x + y",
                                                   "g": f"y^{cli.MAX_BEZOUT + 1}"})],
     f"exceeds {cli.MAX_BEZOUT}"),
    (SIM + START + TMAX + ["--samples", str(cli.MAX_SAMPLES + 1)], "--samples"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, named):
    argv = list(argv)
    for i, a in enumerate(argv):
        if a.startswith("json:"):  # an input file with the given contents
            argv[i] = str(tmp_path / f"in{i}.json")
            (tmp_path / f"in{i}.json").write_text(a[len("json:"):])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("exc", [KeyError, TypeError, AttributeError,
                                 AssertionError, ZeroDivisionError,
                                 ArithmeticError])
def test_internal_error_exits_3_with_one_line(monkeypatch, capsys, exc):
    def boom(args):
        raise exc("broken\ninvariant")

    monkeypatch.setattr(cli, "_cmd_lyap", boom)
    code, out, err = run(capsys, "lyap", "--family", "P4")
    assert code == 3 and out == ""
    assert err.startswith(f"internal error: {exc.__name__}: ")
    assert err.count("\n") == 1 and "broken" in err


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # usage errors leave the one parser of the process usable
    assert main([]) == 2
    assert main(["lyap", "--bogus"]) == 2
    dst = tmp_path / "report.json"
    assert main(["lyap", "--family", "P4", "--N", "2", "--out", str(dst)]) == 0
    with open(os.path.join(REFERENCE, "lyap-P4-N2.json"), "rb") as fh:
        assert dst.read_bytes() == fh.read()
    # and calls build no new argparse objects for the collector to free
    src = tmp_path / "game.json"
    src.write_text(json.dumps({"A": [[0, 0], [1, -1]], "B": [[0, 1], [1, 0]]}))
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = [main(["game-build", "--file", str(src)]) for _ in range(5)]
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage[start:]
                if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert codes == [0] * 5 and left == []


def test_a_call_leaves_no_reference_cycle(capsys):
    # json.dumps with an indent leaves its encoder's closures in a cycle
    main(["lyap", "--family", "P4", "--N", "2"])
    gc.collect()
    gc.disable()
    try:
        main(["lyap", "--family", "P4", "--N", "2"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_center_certify_strict_negative(capsys):
    # the generic family has no certificate: strict mode exits 1
    code, out, err = run(capsys, "center-certify", "--family", "P4", "--strict")
    assert code == 1
    assert json.loads(out)["certificate"]["kind"] == "none"


def test_center_certify_with_curve(capsys):
    code, out, err = run(capsys, "center-certify", "--family", "P4",
                         "--condition", "C7",
                         "--curve", "a11*x + a02*y + 1")
    assert code == 0
    assert json.loads(out)["certificate"]["kind"] == "darboux"


def test_bifurcate_totals(capsys):
    code, out, err = run(capsys, "bifurcate", "--prop", "T1c")
    assert code == 0
    data = json.loads(out)
    assert data["per_nest"] == 2 and data["total"] == 4
    code, out, err = run(capsys, "bifurcate", "--prop", "P9c")
    assert code == 0
    data = json.loads(out)
    assert data == {"hopf": "one_cycle", "per_nest": 1, "total": 2}


def test_bifurcate_unknown_prop(capsys):
    code, out, err = run(capsys, "bifurcate", "--prop", "XYZ")
    assert code == 2
    code, out, err = run(capsys, "bifurcate")
    assert code == 2


def test_bifurcate_custom_setup(tmp_path, capsys):
    setup = {
        "base": {"f": "y + mu*x*y", "g": "-x + x^2",
                 "variables": ["x", "y", "mu"]},
        "terms": [["P", "alpha", "-(4*x^2 - 1)*y"],
                  ["P", "a", "(4*x^2 - 1)*y^2"],
                  ["Q", "alpha", "(4*y^2 - 1)*x"],
                  ["Q", "b", "(4*y^2 - 1)*x*y"]],
        "alpha": "alpha",
        "point": ["0", "0"],
    }
    src = tmp_path / "setup.json"
    src.write_text(json.dumps(setup))
    code, out, err = run(capsys, "bifurcate", "--setup", str(src))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == {"kind": "k_plus_ell_cycles", "count": 3}
    assert data["mu0"] == {"exact": "5"}


def test_bifurcate_setup_rejects_bad_term(tmp_path, capsys):
    setup = {"base": {"f": "y", "g": "-x"},
             "terms": [["P", "lam", "x*y"]]}
    src = tmp_path / "setup.json"
    src.write_text(json.dumps(setup))
    code, out, err = run(capsys, "bifurcate", "--setup", str(src))
    assert code == 2 and "lam" in err


def test_eliminate_smoke(capsys):
    code, out, err = run(capsys, "eliminate", "--family", "P4", "--N", "2",
                         "--order", "a11")
    assert code == 0
    stages = json.loads(out)
    assert stages[0]["eliminated_variable"] == "a11"


def test_eliminate_at_bound_4_matches_the_bound_2_report(tmp_path):
    # every linear factor of this cascade has coefficients within 1
    dst = tmp_path / "report.json"
    assert main(["eliminate", "--family", "P4", "--N", "5", "--order", "a11,a02,b20",
                 "--bound", "4", "--out", str(dst)]) == 0
    with open(os.path.join(REFERENCE, "eliminate-P4-N5.json"), "rb") as fh:
        assert dst.read_bytes() == fh.read()


def test_eliminate_drops_a_quantity_that_vanishes_identically(tmp_path, capsys):
    # L1 is identically zero and L2 = -16/15*s^3 + 16/15*s
    src = tmp_path / "fam.json"
    src.write_text(json.dumps({"f": "y + s*x*y + y^2", "g": "-x + s*x^2 + x*y",
                               "variables": ["x", "y", "s"]}))
    code, out, err = run(capsys, "eliminate", "--file", str(src), "--N", "3",
                         "--order", "s")
    assert code == 0 and err == ""
    stages = json.loads(out)
    assert stages[0]["inputs"][0] == "-16/15*s^3+16/15*s"


def test_eliminate_on_a_family_without_nonzero_quantities_is_input_error(tmp_path, capsys):
    src = tmp_path / "fam.json"
    src.write_text(json.dumps({"f": "y", "g": "-x", "variables": ["x", "y", "s"]}))
    code, out, err = run(capsys, "eliminate", "--file", str(src), "--N", "3",
                         "--order", "s")
    assert code == 2 and "at least two nonzero equations" in err


def test_simulate_csv(tmp_path, capsys):
    dst = tmp_path / "traj.csv"
    code, out, err = run(capsys, "simulate", "--family", "P4",
                         "--bind", "a11=0,a02=0,b20=0,b11=0",
                         "--start", "0.1,0", "--tmax", "1.0",
                         "--samples", "10", "--out", str(dst))
    assert code == 0
    lines = dst.read_text().strip().splitlines()
    assert lines[0] == "t,x,y" and len(lines) == 11


def test_simulate_out_bytes_equal_stdout(tmp_path, capsys):
    argv = ["simulate", "--family", "P9", "--bind", "mu=0,alpha=1/100,lam=0",
            "--start", "0.3,0", "--tmax", "1.0", "--samples", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    dst = tmp_path / "traj.csv"
    code, _, _ = run(capsys, *argv, "--out", str(dst))
    assert code == 0 and dst.read_bytes() == out.encode()


def test_simulate_rejects_bad_tolerance(capsys):
    code, out, err = run(capsys, "simulate", "--family", "P4",
                         "--start", "0.1,0", "--tmax", "1.0",
                         "--rtol", "-1e-8")
    assert code == 2 and "rtol" in err


def test_game_build(tmp_path, capsys):
    src = tmp_path / "game.json"
    src.write_text(json.dumps({"A": [[0, 0], [1, -1]], "B": [[0, 1], [1, 0]]}))
    code, out, err = run(capsys, "game-build", "--file", str(src))
    assert code == 0
    data = json.loads(out)
    assert data["f"] == "2*y" and data["g"] == "2*x" and data["class"] == "X_d0"


def test_berlinskii_raw_pair(tmp_path, capsys):
    src = tmp_path / "fam.json"
    src.write_text(json.dumps({"f": "x^2 - y^2", "g": "x^2 + y^2 - 2"}))
    code, out, err = run(capsys, "berlinskii", "--file", str(src),
                         "--raw-pair")
    assert code == 0
    data = json.loads(out)
    assert data["berlinskii"]["configuration"] == "convex_alternating"


def test_berlinskii_on_a_family(tmp_path, capsys):
    src = tmp_path / "fam.json"
    src.write_text(json.dumps({"f": "16*x^2 - 1 + y", "g": "16*y^2 - 1 + x"}))
    code, out, err = run(capsys, "berlinskii", "--file", str(src))
    assert code == 0 and err == ""
    data = json.loads(out)
    points = data["singularities"]["points"]
    assert sorted(p["type"] for p in points) == ["antisaddle_node"] * 2 + ["saddle"] * 2
    # irrational coordinates are reported as [lo, hi] boxes
    assert all(isinstance(p["location"][c], list) for p in points for c in "xy")
    assert data["berlinskii"] == {"configuration": "convex_alternating"}
    # the orientation checks leave the reported boxes as they were
    code, out, err = run(capsys, "singular", "--file", str(src))
    assert code == 0 and json.loads(out) == data["singularities"]


def test_bifurcate_setup_failing_its_conditions_exits_1_under_strict(tmp_path, capsys):
    base = fields.p7_base()
    src = tmp_path / "setup.json"
    src.write_text(json.dumps({
        "base": {"f": str(base.f), "g": str(base.g), "variables": list(base.variables)},
        "terms": [["P", "alpha", "-(4*x^2 - 1)*y"], ["Q", "a", "(4*y^2 - 1)*x*y"]],
    }))
    code, out, err = run(capsys, "bifurcate", "--setup", str(src), "--strict")
    assert code == 1 and err == ""
    assert json.loads(out)["verdict"] == {
        "kind": "conditions_fail", "reason": "no admissible simple zero of f_0 found"}


@pytest.mark.parametrize("target", ["missing/rep.json", "taken"])
def test_unwritable_out_is_input_error(tmp_path, capsys, target):
    (tmp_path / "taken").mkdir()  # --out naming a directory
    out = tmp_path / target
    code, stdout, err = run(capsys, "lyap", "--family", "P4", "--N", "1",
                            "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write --out {out}: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["taken"]  # no temp file left behind


def test_berlinskii_decides_orientations_on_certified_boxes(tmp_path, capsys):
    # two of the zeros are less than 10^-11 apart; the midpoints of
    # 1e-9 boxes made this convex quadrilateral look like a triangle with
    # the wrong indices
    src = tmp_path / "near.json"
    src.write_text(json.dumps({"f": "x^2 - 2",
                               "g": "(y - x)*(y - 141421356237/100000000000)"}))
    start = time.perf_counter()
    code, out, err = run(capsys, "berlinskii", "--file", str(src), "--raw-pair",
                         "--strict")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["berlinskii"]["configuration"] == "convex_alternating"
    assert sorted(p["index"] for p in data["singularities"]["points"]) == [-1, -1, 1, 1]


def test_irrational_grid_exits_0(tmp_path, capsys):
    # the zeros (+-sqrt2, +-sqrt3) need a sheared frame, not a refusal
    src = tmp_path / "grid.json"
    src.write_text(json.dumps({"f": "y^2 - 3", "g": "x^2 - 2"}))
    code, out, err = run(capsys, "berlinskii", "--file", str(src), "--raw-pair")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert len(data["singularities"]["points"]) == 4
    assert data["berlinskii"]["configuration"] == "convex_alternating"


def test_doubly_singular_irrational_zeros_exit_0(tmp_path, capsys):
    # zeros (+-sqrt2, +-sqrt3) singular on both components: each fibre of a
    # shear holds one of them as a double zero, read off the second
    # subresultant
    sympy = pytest.importorskip("sympy")
    src = tmp_path / "grid.json"
    src.write_text(json.dumps({"f": "(x^2 - 2)*(y^2 - 3)",
                               "g": "(x^2 - 2)^2 + (y^2 - 3)^2"}))
    code, out, err = run(capsys, "berlinskii", "--file", str(src), "--raw-pair")
    assert code == 0 and err == ""
    points = json.loads(out)["singularities"]["points"]
    assert len(points) == 4 and {p["type"] for p in points} == {"degenerate"}
    x, y = sympy.symbols("x y")
    sols = sympy.solve([(x**2 - 2) * (y**2 - 3), (x**2 - 2)**2 + (y**2 - 3)**2],
                       [x, y], dict=True)
    assert len(sols) == 4
    for sol in sols:
        hits = [p for p in points
                if all(sympy.Rational(lo) < sol[v] < sympy.Rational(hi)
                       for v, (lo, hi) in ((x, p["location"]["x"]),
                                           (y, p["location"]["y"])))]
        assert len(hits) == 1, sol


def test_sqrt_coefficient_points_get_their_enclosures(tmp_path):
    # sqrt(2) enclosed to a fixed 30 bits kept every box wider than the
    # requested width, so the command never returned: run it with a timeout
    sympy = pytest.importorskip("sympy")
    src = tmp_path / "q.json"
    src.write_text(json.dumps({"f": "x^2 - sqrt(2)*y - 1", "g": "y^2 + sqrt(2)*x - 2"}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cycleforge.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "berlinskii", "--file", str(src), "--raw-pair"],
        capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0 and done.stderr == ""
    points = json.loads(done.stdout)["singularities"]["points"]
    x, y = sympy.symbols("x y")
    r2 = sympy.sqrt(2)
    sols = [{v: sympy.N(c, 30) for v, c in sol.items()}
            for sol in sympy.solve([x**2 - r2 * y - 1, y**2 + r2 * x - 2], [x, y], dict=True)]
    sols = [sol for sol in sols if all(abs(sympy.im(c)) < 1e-20 for c in sol.values())]
    assert len(sols) == len(points) == 2
    for sol in sols:
        hits = [p for p in points
                if all(sympy.Rational(lo) - 1e-12 <= sol[v] <= sympy.Rational(hi) + 1e-12
                       for v, (lo, hi) in ((x, p["location"]["x"]),
                                           (y, p["location"]["y"])))]
        assert len(hits) == 1, sol


@pytest.mark.parametrize("above, det_sign", [(False, 1), (True, -1)])
def test_sign_at_a_near_miss_is_decided(tmp_path, capsys, above, det_sign):
    # g = (x - r)*y with r within 10^-150 of sqrt(2): the Jacobian
    # determinant 2x(x - r) at (sqrt(2), 0) has the sign of sqrt(2) - r
    n = math.isqrt(2 * 10**300) + above
    src = tmp_path / "near.json"
    src.write_text(json.dumps({"f": "x^2 - 2", "g": f"x*y - {n}/10^150*y"}))
    code, out, err = run(capsys, "berlinskii", "--file", str(src), "--raw-pair")
    assert code == 0 and err == ""
    points = json.loads(out)["singularities"]["points"]
    near = [p for p in points
            if Fraction(p["location"]["x"][0]) > 0 and p["location"]["y"] == "0"]
    assert len(near) == 1 and near[0]["jacobian_det_sign"] == det_sign


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "lyap", "--family", "P5", "--N", "2")
    _, out2, _ = run(capsys, "lyap", "--family", "P5", "--N", "2")
    assert out1 == out2


def _canned():
    """(label, argv) of the canned commands with reference reports."""
    cmds = [
        ("lyap-P5-N5", ["lyap", "--family", "P5", "--N", "5"]),
        ("lyap-P4-N6", ["lyap", "--family", "P4", "--N", "6"]),
        ("eliminate-P4-N5", ["eliminate", "--family", "P4", "--N", "5",
                             "--order", "a11,a02,b20", "--bound", "2"]),
        ("lyap-P4-N2", ["lyap", "--family", "P4", "--N", "2"]),
    ]
    cmds += [(f"bifurcate-{p}", ["bifurcate", "--prop", p])
             for p in ("P7", "P8", "P9b", "T1c", "P9c")]
    strata = [("P4", c) for c in sorted(fields.P4_CONDITIONS)]
    strata += [("P5", c) for c in sorted(fields.P5_CONDITIONS)]
    for fam, cond in strata:
        argv = ["center-certify", "--family", fam, "--condition", cond]
        if cond == "C7":
            argv += ["--curve", "a11*x + a02*y + 1"]
        cmds.append((f"center-certify-{fam}-{cond}", argv))
    cmds.append(("singular-P9-zero",
                 ["singular", "--family", "P9", "--bind", "mu=0,alpha=0,lam=0"]))
    return cmds


@pytest.mark.parametrize("label, argv", _canned(),
                         ids=[label for label, _ in _canned()])
def test_canned_report_is_byte_identical(tmp_path, label, argv):
    dst = tmp_path / "report.json"
    assert main(argv + ["--out", str(dst)]) == 0
    with open(os.path.join(REFERENCE, label + ".json"), "rb") as fh:
        assert dst.read_bytes() == fh.read()
