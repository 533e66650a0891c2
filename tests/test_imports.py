"""numpy and scipy stay out of every process that does no integration.

Importing scipy.integrate takes most of a second, so only the numeric
functions of `integrate` import numpy and scipy, and only when they run.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from cycleforge import fields, integrate

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

# Runs CLI commands in a fresh interpreter and prints, as one JSON line,
# the exit codes and the numeric modules loaded before and after them.
_PROBE = """
import contextlib, io, json, sys
from cycleforge import cli

def numeric():
    return sorted(m for m in sys.modules if m.split(".")[0] in {numeric})

before = numeric()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
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


def _probe(commands):
    out = _python(_PROBE.format(numeric=NUMERIC), json.dumps(commands))
    return json.loads(out.splitlines()[-1])


def _numeric_imports(path):
    """(line, inside a function) for each numpy or scipy import in path."""
    tree = ast.parse(path.read_text(), str(path))
    in_function = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in NUMERIC for name in names):
            yield node.lineno, id(node) in in_function


def test_numeric_imports_only_inside_integrate_functions():
    paths = sorted((SRC / "cycleforge").glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for line, in_function in _numeric_imports(path):
            if path.name != "integrate.py":
                offenders.append(f"{path.name}:{line}: numeric import")
            elif not in_function:
                offenders.append(f"{path.name}:{line}: module-level import")
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


def test_simulate_loads_scipy_and_writes_the_solver_csv(tmp_path):
    dst = tmp_path / "orbit.csv"
    seen = _probe([SIMULATE + ["--out", str(dst)]])
    assert seen["codes"] == [0]
    assert seen["before"] == [] and "scipy.integrate" in seen["after"]
    # the CSV of scipy's RK45 called directly, as before the lazy import
    binding = {"mu": Fraction(0), "alpha": Fraction(1, 100), "lam": Fraction(0)}
    rhs, _ = integrate._rhs(fields.p9_family(), binding)
    sol = solve_ivp(rhs, (0.0, 2.0), [0.3, 0.0], method="RK45",
                    rtol=1e-10, atol=1e-12, t_eval=np.linspace(0.0, 2.0, 7))
    rows = "".join(f"{float(t)!r},{float(x)!r},{float(y)!r}\n"
                   for t, x, y in zip(sol.t, sol.y[0], sol.y[1]))
    assert dst.read_bytes() == ("t,x,y\n" + rows).encode()


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
