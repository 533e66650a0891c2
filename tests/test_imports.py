"""numpy and scipy stay out of every process, the layers the benchmark
tracer wraps exist, every definition in src/ has a caller, every entry
point backs an acceptance criterion, every field has a reader and no
module is larger than its compile budget.

The program imports neither: the integrator runs on Python floats, so
symbolic commands, trajectories and return maps load no numeric module.
"""

import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRACER = SRC.parent / "perfbench" / "tracer.py"
README = SRC.parent / "README.md"
ACCEPTANCE = SRC.parent / "tests" / "test_acceptance.py"
# library entry points that no CLI command reaches; each backs an acceptance
# criterion
ENTRY_POINTS = ("displacement_sign_changes", "verify")
NUMERIC = ("numpy", "scipy")
# compile() of a module peaks at about 340 bytes per token (tracemalloc), and
# the allocator keeps that memory for the life of the process.  Without a
# bytecode cache every process compiles each module it imports, so the
# largest module sets the memory floor of every command: poly.py at 6,960
# tokens peaked at 2,355 KiB while compiling, almost twice any other module.
MAX_MODULE_TOKENS = 5600

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


def test_cli_import_loads_no_dataclasses_or_inspect():
    """The record classes are plain classes with __slots__, so a fresh CLI
    process never loads dataclasses, nor the inspect it imports.  Modules
    the bare interpreter already holds (a site hook may load them) are not
    counted."""
    out = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cycleforge.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    assert out.splitlines() == ["[]"]


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
    """Subresultants (the resultant among them) and gcds come from one
    subresultant PRS, so resultants.py uses no linear algebra and has no
    Sylvester matrix."""
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


def test_traced_names_exist():
    """Every function the benchmark tracer wraps by name is still defined
    where it looks, so deleting or renaming a traced layer fails here."""
    targets = runpy.run_path(str(TRACER))["TARGETS"]  # runs, writes no bytecode
    missing = []
    for _, module, quals, _ in targets:
        for qual in quals:
            *owner_path, attr = qual.split(".")
            owner = importlib.import_module(f"cycleforge.{module}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, "__dict__", {}).get(attr)):
                missing.append(f"cycleforge.{module}.{qual}")
    assert missing == []


def test_every_definition_has_a_caller():
    """Each top-level function and class of src/, and each method, is named
    somewhere in src/ besides its own def, or in the benchmark tracer or the
    README; `main` dispatches the _cmd_* functions by name."""
    texts = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    named = Counter(re.findall(r"\w+", "\n".join(
        texts + [TRACER.read_text(), README.read_text()])))
    defined = Counter()
    for text in texts:
        for node in ast.parse(text).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    defined[d.name] += 1
    unused = sorted(name for name, n in defined.items()
                    if named[name] <= n and not name.startswith(("__", "_cmd_"))
                    and name not in ENTRY_POINTS)
    assert unused == []


def test_every_entry_point_backs_a_criterion():
    """An entry point that no command reaches stays only while an acceptance
    criterion calls it, so a test-only entry point cannot come back."""
    named = set(re.findall(r"\w+", ACCEPTANCE.read_text()))
    assert [name for name in ENTRY_POINTS if name not in named] == []


def test_every_field_has_a_reader():
    """Each annotated field of a src/ class is loaded as `.name` somewhere in
    src/ or the benchmark tracer, or appears as `.name` in the README.  The
    match is by name and an assignment is no read, so this finds the fields
    that are only ever set."""
    texts = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    read = {node.attr for text in texts + [TRACER.read_text()]
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= set(re.findall(r"\.(\w+)", README.read_text()))
    unread = sorted(
        f"{node.name}.{d.target.id}"
        for text in texts for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef)
        for d in node.body
        if isinstance(d, ast.AnnAssign) and isinstance(d.target, ast.Name)
        and d.target.id not in read)
    assert unread == []


def test_no_module_exceeds_the_token_ceiling():
    sizes = {}
    for path in sorted((SRC / "cycleforge").glob("*.py")):
        with path.open() as fh:
            sizes[path.name] = sum(1 for _ in tokenize.generate_tokens(fh.readline))
    assert sizes
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS} == {}
