"""Command-line interface: exit codes, JSON shape, atomic output."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cycleforge import cli, fields
from cycleforge.cli import main

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir,
                         "perfbench", "reference", "focus")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_files(argv, directory) -> list:
    """argv with each "json:<text>" written to an input file in directory and
    replaced by its path, and each "out:<name>" replaced by a path there."""
    argv = list(argv)
    for i, a in enumerate(argv):
        if a.startswith("json:"):
            argv[i] = os.path.join(directory, f"in{i}.json")
            with open(argv[i], "w") as fh:
                fh.write(a[len("json:"):])
        elif a.startswith("out:"):
            argv[i] = os.path.join(directory, a[len("out:"):])
    return argv


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


def test_json_numbers_are_read_exactly_from_their_text(monkeypatch, tmp_path, capsys):
    # 0.1 is 1/10, not the binary float nearest it
    seen = []
    certify = cli.centers.certify
    monkeypatch.setattr(cli.centers, "certify",
                        lambda fam, **kw: seen.append(fam.to_json()) or certify(fam, **kw))
    certificates = []
    for a11 in ("0.1", '"1/10"'):
        code, out, err = run(capsys, "center-certify", "--family", "P4", "--condition",
                             '{"a02": 0, "b20": 0, "a11": %s}' % a11)
        assert code == 0 and err == ""
        certificates.append(json.loads(out)["certificate"])
    assert seen[0] == seen[1] and "1/10" in seen[0]["f"]
    assert certificates[0] == certificates[1] == {
        "kind": "separable", "witness": "P and Q split as u(x)*v(y)"}
    # a number too small or too large for MAX_BIND_BITS, and a boolean, are refused
    for value in ("1e-400", "1e400", "true"):
        code, out, err = run(capsys, "center-certify", "--family", "P4", "--condition",
                             '{"a11": %s}' % value)
        assert code == 2 and out == "" and err.count("\n") == 1 and "--condition" in err
    written = []
    for half in ("0.5", '"1/2"'):
        src, dst = tmp_path / "game.json", tmp_path / "field.json"
        src.write_text('{"A": [[%s, 0], [1, -1]], "B": [[0, 1], [1, 0]]}' % half)
        assert main(["game-build", "--file", str(src), "--out", str(dst)]) == 0
        written.append(dst.read_bytes())
    assert written[0] == written[1]


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
# the perturbation terms of the canned P7 setup
P7_TERMS = [["P", "alpha", "-(4*x^2 - 1)*y"], ["P", "a", "(4*x^2 - 1)*y^2"],
            ["Q", "alpha", "(4*y^2 - 1)*x"], ["Q", "b", "(4*y^2 - 1)*x*y"]]
# a --setup file over (x, y, mu) up to the symbol and expression of its one term
TERM = ('json:{"base": {"f": "y + mu*x*y", "g": "-x + x^2", "variables": ["x", "y", "mu"]}, '
        '"terms": [["P", ')


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
    (["bifurcate", "--setup", TERM + '"mu", "(4*x^2-1)*y"]]}'], "symbol 'mu'"),
    (["bifurcate", "--setup", TERM + '"x", "(4*x^2-1)*y"]]}'], "symbol 'x'"),
    (["lyap", "--family", "P4", "--N", str(cli.MAX_N + 1)], "--N"),
    (["singular", "--family", "P5", "--bind=a20=1e2000,a11=-2,a02=-2,b20=-2,b11=-2,b02=0"],
     "'a20'"),
    (["bifurcate", "--setup", 'json:{"base": [1], "terms": []}'], "got list"),
    (["game-build", "--file", "json:" + json.dumps(
        {"A": [[0, 0], [0, 0]], "B": [[0, 0], ["x^2000", 0]]})],
     f"B[1][0] has degree 2000 in x, y, over {cli.MAX_PAYOFF_DEGREE}"),
    (["game-build", "--file", "json:" + json.dumps(
        {"A": [["(x+y+1)^400", 0], [0, 0]], "B": [[0, 0], [0, 0]]})],
     "power ^400 would expand past MAX_POWER_WORK"),
    (["singular", "--file", "json:" + json.dumps({"f": "(x+y+1)^400", "g": "y"})], "^400"),
    (["bifurcate", "--setup", "json:" + json.dumps(
        {"base": {"f": "sqrt(2)*y + x*y", "g": "-(1+sqrt(2))*x + x^2"}, "terms": P7_TERMS})],
     "Jacobian determinant 2+sqrt(2)"),
    (["lyap", "--file", 'json:{"f": "y + 0^-1", "g": "-x"}'], "negative power of zero"),
    (["bifurcate", "--prop", "P9c", "--setup", SETUP + '[0, 0]}'], "exactly one of --prop"),
    (["bifurcate", "--setup", 'json:{"base": {"f": "y", "g": "-x"}, "terms": [["P", "a", 1]]}'],
     "a*(1) does not keep"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, named):
    argv = _with_files(argv, tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    # each is refused at the boundary, before any work is done
    assert time.perf_counter() - start < 0.1
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


@pytest.mark.parametrize("condition", ['{"a11": "a02", "a02": "a11"}', '{"a11": "a11"}'])
def test_condition_may_swap_or_keep_its_parameters(capsys, condition):
    code, out, err = run(capsys, "center-certify", "--family", "P4", "--condition", condition)
    assert code == 0 and err == ""
    assert json.loads(out)["condition"] == condition


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


def test_bifurcate_setup_with_a_linear_part_over_a_quadratic_extension(tmp_path, capsys):
    # the Jacobian at the origin is [[0, sqrt(2)], [-sqrt(2), 0]], det 2
    src = tmp_path / "setup.json"
    src.write_text(json.dumps({"base": {"f": "sqrt(2)*y + x*y", "g": "-sqrt(2)*x + x^2"},
                               "terms": P7_TERMS}))
    code, out, err = run(capsys, "bifurcate", "--setup", str(src))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["k"] == 2 and data["verdict"]["kind"] == "conditions_fail"


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


def test_game_build_parses_each_entry_once(tmp_path, capsys, monkeypatch):
    texts = []

    def counted(text, variables=None):
        texts.append(text)
        return parse(text, variables)

    parse = cli.parse_poly
    monkeypatch.setattr(cli, "parse_poly", counted)
    monkeypatch.setattr(fields, "parse_poly", counted)
    src = tmp_path / "game.json"
    src.write_text(json.dumps({"A": [["x", 0], [1, "x*y"]], "B": [[0, "y^2"], ["1/2", 0]]}))
    code, out, err = run(capsys, "game-build", "--file", str(src))
    assert code == 0 and err == ""
    assert sorted(texts) == sorted(["x", "0", "1", "x*y", "0", "y^2", "1/2", "0"])


def test_game_build_takes_entries_up_to_the_degree_bound(tmp_path, capsys):
    n = cli.MAX_PAYOFF_DEGREE
    src = tmp_path / "game.json"
    src.write_text(json.dumps({"A": [[f"x^{n}", 0], [0, 0]], "B": [[0, 0], [0, 0]]}))
    code, out, err = run(capsys, "game-build", "--file", str(src))
    assert code == 0 and err == ""
    assert f"-x^{n}*y" in json.loads(out)["f"]


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


# -- the exit contract under generated input ----------------------------------------

PARAMETERS = {"P4": ["a11", "a02", "b20", "b11"], "P5": ["a20", "a11", "a02", "b20", "b11", "b02"],
              "P7": ["mu"], "P8": ["mu"], "P9": ["mu", "alpha", "lam"], "file": ["mu"]}
NAMES = ["a11", "mu", "alpha", "x", "zz", ""]
NUMBERS = ["0", "1", "-2", "1/3", "-3/4", "1/100"]
BAD_NUMBERS = ["1/0", "0.5", "nan", "abc", "", "7" * 400]
POLYS = ["y", "-x", "x*y - 1/3", "y + mu*x*y", "-x + x^2 + mu*y^2", "x^2 + sqrt(2)*y", "2"]
BAD_POLYS = ["1/0", "(x", "zz*x", "", "x^70000", "x***y", "(x+y+1)^400",
             "(x+y+1)^100*(x+y+1)^100"]
TERMS = ["(4*x^2-1)*y", "(4*x^2-1)*y^2", "(4*y^2-1)*x", "(4*y^2-1)*x*y", "-(4*x^2-1)*y"]
BAD_TERMS = ["x*y", "1/0", "(4*x^2-1)*zz"]
JSON_JUNK = [None, True, 0.5, float("inf"), [1], {}, "1/0"]


def _bad(draw) -> bool:
    """True one time in five: the next piece is an invalid one."""
    return draw(st.sampled_from([False] * 4 + [True]))


def _pick(draw, valid, invalid):
    return draw(st.sampled_from(invalid if _bad(draw) else valid))


def _json_arg(data) -> str:
    return "json:" + json.dumps(data)


def _binding(draw, names) -> str:
    pairs = [(n, _pick(draw, NUMBERS, BAD_NUMBERS)) for n in names]
    if _bad(draw):  # a name dropped, added or repeated
        pairs = draw(st.lists(st.sampled_from(pairs + [("zz", "1"), ("x", "0")]), max_size=4))
    return ",".join(f"{n}={v}" for n, v in pairs) or draw(st.sampled_from(["", "junk"]))


@st.composite
def _argv(draw):
    """One CLI call drawn from valid and invalid pieces; every flag parses (a
    value that may start with "-" is joined to its flag with "="), so argparse
    itself never exits.  P5 cascades, dense pairs and large --N are known to
    be slow and are left out."""
    command = draw(st.sampled_from(["lyap", "center-certify", "eliminate", "bifurcate",
                                    "singular", "berlinskii", "simulate", "game-build"]))
    argv = [command]
    family = _pick(draw, ["P4", "P5", "P7", "P8", "P9", "file"], ["NOPE"])
    if command == "eliminate":  # P4 has a cascade; P5's is slow
        family = _pick(draw, ["P4"], ["P7", "P9", "file", "NOPE"])
    params = PARAMETERS.get(family, [])
    if family == "file":
        variables = _pick(draw, [["x", "y", "mu"]], [["x", "y"], ["x", "mu"], ["x", "y", "x"]])
        data = {"f": _pick(draw, POLYS, BAD_POLYS), "g": _pick(draw, POLYS, BAD_POLYS),
                "variables": variables}
        family_args = ["--file", _json_arg(data)]
    else:
        family_args = ["--family", family]
    if command not in ("bifurcate", "game-build"):
        argv += family_args
    if command in ("lyap", "eliminate", "bifurcate") and draw(st.booleans()):
        argv += ["--N", str(_pick(draw, [1, 2, 3], [0, -1, cli.MAX_N + 1]))]
    if command == "center-certify":
        if draw(st.booleans()):
            labels = sorted(fields.P4_CONDITIONS) + sorted(fields.P5_CONDITIONS)
            values = params + NUMBERS + [0, 2] + [f"-2*{p} + 1" for p in params]
            names = draw(st.lists(st.sampled_from(params or ["zz"]), max_size=3, unique=True))
            cond = json.dumps({n: _pick(draw, values, BAD_POLYS + BAD_NUMBERS + JSON_JUNK)
                               for n in names + _pick(draw, [[]], [["zz"], ["x"]])})
            # a canned label one time in five
            argv.append("--condition=" + (draw(st.sampled_from(labels)) if _bad(draw)
                                          else cond))
        curves = ["a11*x + a02*y + 1", "x", "4*x^2 - 1", "x + y + 1"]
        argv += ["--curve=" + _pick(draw, curves, BAD_POLYS)
                 for _ in range(draw(st.integers(0, 2)))]
    elif command == "eliminate":
        order = draw(st.lists(st.sampled_from(params + ["zz"]), min_size=1, max_size=3))
        argv += ["--order=" + ",".join(order), "--bound", str(_pick(draw, [1, 2, 3, 4], [0, 5]))]
    elif command == "bifurcate":
        if draw(st.booleans()):
            argv += ["--prop", _pick(draw, ["P7", "P8", "P9b", "P9c", "T1c"], ["XYZ"])]
        else:
            terms = [[_pick(draw, ["P", "Q"], ["R"]), _pick(draw, ["alpha", "a", "b"], NAMES),
                      _pick(draw, TERMS, BAD_TERMS)] for _ in range(draw(st.integers(0, 4)))]
            setup = {"base": {"f": _pick(draw, ["y + mu*x*y", "x*y"], BAD_POLYS),
                              "g": _pick(draw, ["-x + x^2", "1 - 16*x^2 + mu*y^2"], BAD_POLYS),
                              "variables": ["x", "y", "mu"]},
                     "terms": terms}
            if draw(st.booleans()):
                setup["alpha"] = _pick(draw, ["alpha", "a"], NAMES + [None])
            if draw(st.booleans()):
                setup["point"] = _pick(draw, [[0, 0], ["1/4", 0]],
                                       [["1/0", 0], [1], "0,0", [None, 0]])
            argv += ["--setup", _json_arg(setup)]
    elif command in ("singular", "berlinskii", "simulate"):
        argv.append("--bind=" + _binding(draw, params))
        if command == "berlinskii" and draw(st.booleans()):
            argv.append("--raw-pair")
        if command != "simulate" and draw(st.booleans()):
            argv += ["--region", draw(st.sampled_from(["delta", "all"]))]
        if command == "simulate":
            argv += ["--start", _pick(draw, ["0.3,0", "0.1,-0.2"], ["5,5", "nan,0", "0.1"]),
                     "--tmax", _pick(draw, ["0.5", "1"], ["-1", "nan", "inf", "1e9"]),
                     "--samples", _pick(draw, ["1", "5"], ["0", "-3"])]
    elif command == "game-build":
        def matrix():
            entries = st.sampled_from([0, 1, -1, "1/4", "x", "y", "2*x - y"])
            rows = [[draw(entries), draw(entries)], [draw(entries), draw(entries)]]
            if _bad(draw):
                rows[1][draw(st.integers(0, 1))] = draw(st.sampled_from(
                    BAD_POLYS + JSON_JUNK + [f"x^{cli.MAX_PAYOFF_DEGREE + 1}"]))
            return rows[:1] if _bad(draw) else rows
        argv += ["--file", _json_arg({"A": matrix(), "B": matrix()})]
    if draw(st.booleans()):
        argv.append("--strict")
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", _pick(draw, ["out:report"], ["out:missing/report"])]
    return argv


@example(["center-certify", "--family", "P4", "--condition", '{"a11": "a02", "a02": "a11"}'])
@example(["center-certify", "--family", "P4", "--condition", '{"a11": "a11"}'])
@example(["bifurcate", "--setup", TERM + '"mu", "(4*x^2-1)*y"]]}'])
@example(["bifurcate", "--setup", TERM + '"x", "(4*x^2-1)*y"]]}'])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_generated_input_keeps_the_exit_contract(argv):
    """0 writes a report that parses, 1 only under --strict, 2 one error line;
    never 3.  Derandomized, so every run makes the same calls."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = _with_files(argv, tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, err)
        assert code != 1 or "--strict" in argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            return
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1]) as fh:
                out = fh.read()
        if argv[0] == "simulate":
            assert out.splitlines()[0] == "t,x,y"
        else:
            json.loads(out)
