"""numpy and scipy stay out of every process.

The program imports neither: the integrator runs on Python floats, so
symbolic commands, trajectories and return maps load no numeric module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMERIC = ("numpy", "scipy")

# fast symbolic commands, one per kind of exact work
SYMBOLIC = [
    ["lyap", "--family", "P4", "--N", "2"],
    ["center-certify", "--family", "P4", "--condition", "C7",
     "--curve", "a11*x + a02*y + 1"],
    ["singular", "--family", "P9", "--bind", "mu=0,alpha=0,lam=0"],
    ["eliminate", "--family", "P4", "--N", "3", "--order", "a11,a02"],
    ["bifurcate", "--prop", "P8"],
]

SIMULATE = ["simulate", "--family", "P9", "--bind", "mu=0,alpha=1/100,lam=0",
            "--start", "0.3,0", "--tmax", "2.0", "--samples", "7"]

# a return-map sweep and a cycle bracket around the right P9 focus
RETURN_MAP = """
from fractions import Fraction
from cycleforge import fields, integrate
fam = fields.p9_family()
b = {"mu": Fraction(0), "alpha": Fraction(1, 1000), "lam": Fraction(-8, 1000)}
kw = {"rtol": 1e-9, "atol": 1e-11}
rows = integrate.return_map(fam, b, (0.25, 0.0), radii=(0.045, 0.06), **kw)
assert [r["status"] for r in rows] == ["ok", "ok"], rows
integrate.refine_cycle_bracket(fam, b, (0.25, 0.0), 0.045, 0.06, width=1e-2, **kw)
"""

# Runs CLI commands, then the Python code in argv[2], in a fresh interpreter
# and prints, as one JSON line, the exit codes and the numeric modules
# loaded before and after them.
_PROBE = """
import contextlib, io, json, sys
from cycleforge import cli

def numeric():
    return sorted(m for m in sys.modules if m.split(".")[0] in {numeric})

before = numeric()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    exec(sys.argv[2])
print(json.dumps({{"before": before, "after": numeric(), "codes": codes}}))
"""


def _python(code, *args):
    """Standard output of `python -c code *args` with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True).stdout


def _probe(commands, code=""):
    out = _python(_PROBE.format(numeric=NUMERIC), json.dumps(commands), code)
    return json.loads(out.splitlines()[-1])


def test_no_source_file_imports_numpy_or_scipy():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in NUMERIC for name in names):
                offenders.append(f"{path.name}:{node.lineno}: numeric import")
    assert offenders == []


def test_symbolic_commands_load_no_numeric_module():
    seen = _probe(SYMBOLIC)
    assert seen["codes"] == [0] * len(SYMBOLIC)
    assert seen["before"] == [] and seen["after"] == []


def test_trajectory_type_hints_resolve_without_numpy():
    out = _python(
        "import sys, typing\n"
        "from cycleforge import integrate\n"
        "print(sorted(typing.get_type_hints(integrate.Trajectory)))\n"
        f"print([m for m in sys.modules if m.split('.')[0] in {NUMERIC}])\n")
    assert out.splitlines() == ["['diagnostic', 'status', 't', 'xy']", "[]"]


def test_numeric_layer_loads_no_numeric_module(tmp_path):
    # simulate, return_map and refine_cycle_bracket all integrate
    dst = tmp_path / "orbit.csv"
    seen = _probe([SIMULATE + ["--out", str(dst)]], RETURN_MAP)
    assert seen["codes"] == [0]
    assert seen["before"] == [] and seen["after"] == []
    lines = dst.read_text().splitlines()
    assert lines[0] == "t,x,y" and len(lines) == 8
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.3, 0.0]


def test_resultants_need_no_sylvester_matrix():
    """Resultants, first subresultants and gcds come from one subresultant
    PRS, so resultants.py uses no linear algebra and has no Sylvester matrix."""
    path = SRC / "cycleforge" / "resultants.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == "sylvester":
                offenders.append(f"resultants.py:{node.lineno}: defines sylvester")
            continue
        else:
            continue
        if any(name.split(".")[-1] == "linalg" for name in names):
            offenders.append(f"resultants.py:{node.lineno}: imports linalg")
    assert offenders == []
