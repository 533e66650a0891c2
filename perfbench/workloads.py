"""Inputs, jobs and output checks of the three benchmark workloads.

A workload is a fixed list of jobs built from the seed during set-up.
Each job is one call into cycleforge (the part that is timed) plus a
check of its output (not timed).  The same list is run pass after pass,
so every pass does the same work.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from cycleforge import cli, dynamics, fields, integrate
from cycleforge.fields import VectorField
from cycleforge.poly import MultiPoly

HERE = os.path.dirname(os.path.abspath(__file__))
FOCUS_REFERENCE = os.path.join(HERE, "reference", "focus")


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    # returns None when the output is right, else a one-line reason
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    jobs: list
    # cross-job check of one pass: list of (job index, reason)
    check_pass: Callable[[list], list] = field(default=lambda outputs: [])


# -- focus: canned and seeded CLI commands ------------------------------------

def focus_canned() -> list:
    """(label, argv) of every canned command; each has a reference output."""
    cmds = [
        ("lyap-P5-N5", ["lyap", "--family", "P5", "--N", "5"]),
        ("lyap-P4-N6", ["lyap", "--family", "P4", "--N", "6"]),
        ("eliminate-P4-N5", ["eliminate", "--family", "P4", "--N", "5",
                             "--order", "a11,a02,b20", "--bound", "2"]),
        ("lyap-P4-N2", ["lyap", "--family", "P4", "--N", "2"]),
    ]
    for prop in ("P7", "P8", "P9b", "T1c", "P9c"):
        cmds.append((f"bifurcate-{prop}", ["bifurcate", "--prop", prop]))
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


def _cli_job(label: str, argv: list, out: str, check) -> Job:
    def call():
        if os.path.exists(out):
            os.unlink(out)
        return cli.main(argv + ["--out", out])

    def check_rc(rc):
        if rc != 0:
            return f"exit status {rc}"
        return check(out)

    return Job(label, call, check_rc)


def _same_as_reference(label: str):
    with open(os.path.join(FOCUS_REFERENCE, label + ".json"), "rb") as fh:
        want = fh.read()

    def check(out):
        with open(out, "rb") as fh:
            got = fh.read()
        return None if got == want else "output differs from the reference"

    return check


def _parses(extra=None):
    def check(out):
        with open(out) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                return f"unparseable JSON: {e}"
        return extra(data) if extra else None

    return check


def _no_counterexample(data):
    if data["berlinskii"]["configuration"] == "counterexample":
        return "four-point configuration is a counterexample"
    return None


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _poly_text(coeffs) -> str:
    """Plain-text quadratic in x, y from the six coefficients of _MONOMIALS."""
    names = ["1", "x", "y", "x^2", "x*y", "y^2"]
    return " + ".join(f"({c})*{m}" for c, m in zip(coeffs, names) if c) or "0"


def build_focus(rng: random.Random, workdir: str, small: bool = False) -> Workload:
    jobs = [
        _cli_job(label, argv, os.path.join(workdir, label + ".json"),
                 _same_as_reference(label))
        for label, argv in focus_canned()
    ]
    for k in range(3):
        mu = _rational(rng, -4, 4, 16)
        alpha = _rational(rng, -10, 10, 1000)
        lam = _rational(rng, -10, 10, 100)
        label = f"singular-P9-seeded-{k}"
        jobs.append(_cli_job(
            label,
            ["singular", "--family", "P9", "--bind",
             f"mu={mu},alpha={alpha},lam={lam}"],
            os.path.join(workdir, label + ".json"), _parses()))
    for k in range(3):
        game = {m: [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
                for m in ("A", "B")}
        path = os.path.join(workdir, f"game-{k}.in.json")
        with open(path, "w") as fh:
            json.dump(game, fh)
        label = f"game-build-seeded-{k}"
        jobs.append(_cli_job(label, ["game-build", "--file", path],
                             os.path.join(workdir, label + ".json"), _parses()))
    for k in range(3):
        pts, f, g = _four_zero_pair(rng)
        path = os.path.join(workdir, f"pair-{k}.in.json")
        with open(path, "w") as fh:
            json.dump({"f": _poly_text(f), "g": _poly_text(g),
                       "variables": ["x", "y"]}, fh)
        label = f"berlinskii-raw-pair-seeded-{k}"
        jobs.append(_cli_job(label, ["berlinskii", "--file", path, "--raw-pair"],
                             os.path.join(workdir, label + ".json"),
                             _parses(_no_counterexample)))
    return Workload(jobs)


# -- configs: quadratic pairs with four prescribed zeros ------------------------

_MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _nullspace(rows):
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def _collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) == 0


def _four_zero_pair(rng: random.Random):
    """Four non-collinear rational points in the open square and the
    coefficient lists of two independent quadratics vanishing on them
    (the generator of acceptance criterion 9)."""
    while True:
        pts = []
        while len(pts) < 4:
            p = (Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-7, 7), 16))
            if p in pts or any(_collinear(a, b, p)
                               for a, b in itertools.combinations(pts, 2)):
                continue
            pts.append(p)
        basis = _nullspace([[Fraction(1), x, y, x * x, x * y, y * y]
                            for x, y in pts])
        if len(basis) == 2:
            break
    while True:
        c1 = [rng.randint(-3, 3) for _ in range(2)]
        c2 = [rng.randint(-3, 3) for _ in range(2)]
        if c1[0] * c2[1] - c1[1] * c2[0] != 0:
            break
    f = [c1[0] * a + c1[1] * b for a, b in zip(*basis)]
    g = [c2[0] * a + c2[1] * b for a, b in zip(*basis)]
    return pts, f, g


def _quadratic(coeffs) -> MultiPoly:
    return MultiPoly(("x", "y"), {m: c for m, c in zip(_MONOMIALS, coeffs) if c})


VALID_CONFIGURATIONS = ("convex_alternating", "triangle_config")


def _config_job(label: str, pts, f: MultiPoly, g: MultiPoly) -> Job:
    def call():
        rep = dynamics.pair_report(f, g)
        res = dynamics.berlinskii_check(rep)
        induced = dynamics.singularities_in_delta(VectorField(f, g))
        res2 = dynamics.berlinskii_check(induced)
        return rep, res, induced, res2

    def check(out):
        rep, res, induced, res2 = out
        if rep.degenerate_family or len(rep.points) != 4:
            return f"pair has {len(rep.points)} points, want 4"
        if {p.point.midpoint() for p in rep.points} != set(pts):
            return "points differ from the prescribed zeros"
        if any(p.det_sign == 0 for p in rep.points):
            return "a prescribed zero is not simple"
        if res.configuration not in VALID_CONFIGURATIONS:
            return f"configuration {res.configuration}"
        if len(induced.points) != 4:
            return f"induced field has {len(induced.points)} points, want 4"
        if res2.configuration != res.configuration:
            return (f"induced configuration {res2.configuration} "
                    f"!= {res.configuration}")
        return None

    return Job(label, call, check)


def build_configs(rng: random.Random, workdir: str, small: bool = False) -> Workload:
    jobs = []
    for k in range(100 if small else 200):
        pts, f, g = _four_zero_pair(rng)
        jobs.append(_config_job(f"pair-{k}", pts, _quadratic(f), _quadratic(g)))
    return Workload(jobs)


# -- returnmap: P9 return-map sweeps and cycle brackets ---------------------------

RADII = (0.01, 0.02, 0.03, 0.045, 0.06, 0.09, 0.12)
TOLERANCES = {"rtol": 1e-9, "atol": 1e-11}
BRACKET_WIDTH = 1e-3
# the cycle radius observed around both foci at every alpha tried
EXPECTED_CYCLE = (0.0581, 0.0591)
FOCI = (((0.25, 0.0), (1, 0)), ((-0.25, 0.0), (-1, 0)))


def _overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _bracket_job(label: str, fam: VectorField, binding: dict, focus, direction) -> Job:
    def call():
        rows = integrate.return_map(fam, binding, focus, direction=direction,
                                    radii=RADII, **TOLERANCES)
        changes = integrate.displacement_sign_changes(rows)
        if len(changes) != 1:
            return rows, changes, None
        bracket = integrate.refine_cycle_bracket(
            fam, binding, focus, changes[0][0], changes[0][1],
            width=BRACKET_WIDTH, direction=direction, **TOLERANCES)
        return rows, changes, bracket

    def check(out):
        rows, changes, bracket = out
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            return f"return map status {bad[0]['status']} at radius {bad[0]['radius']}"
        if len(changes) != 1:
            return f"{len(changes)} displacement sign changes, want 1"
        lo, hi = bracket
        if hi - lo > BRACKET_WIDTH:
            return f"bracket width {hi - lo} > {BRACKET_WIDTH}"
        if not _overlap((lo, hi), EXPECTED_CYCLE):
            return f"bracket ({lo}, {hi}) misses {EXPECTED_CYCLE}"
        return None

    return Job(label, call, check)


def _mirrored_brackets_overlap(outputs: list) -> list:
    """Jobs come in (right focus, left focus) pairs of one binding."""
    bad = []
    for i in range(0, len(outputs) - 1, 2):
        a, b = outputs[i], outputs[i + 1]
        if a is None or b is None or a[2] is None or b[2] is None:
            continue  # already failed on its own
        if not _overlap(a[2], b[2]):
            reason = f"mirrored brackets {a[2]} and {b[2]} do not overlap"
            bad += [(i, reason), (i + 1, reason)]
    return bad


def build_returnmap(rng: random.Random, workdir: str, small: bool = False) -> Workload:
    fam = fields.p9_family()
    jobs = []
    for k in range(1 if small else 4):
        alpha = rng.choice((-1, 1)) * rng.uniform(1e-3, 1e-2)
        af = Fraction(alpha).limit_denominator(10**6)
        binding = {"mu": Fraction(0), "alpha": af, "lam": -8 * af}
        for side, (focus, direction) in zip(("right", "left"), FOCI):
            jobs.append(_bracket_job(f"alpha-{k}-{side}", fam, binding,
                                     focus, direction))
    return Workload(jobs, _mirrored_brackets_overlap)


BUILDERS = {
    "focus": build_focus,
    "configs": build_configs,
    "returnmap": build_returnmap,
}


def build(name: str, seed: int, workdir: str, small: bool = False) -> Workload:
    """The workload's job list; every input comes from `seed`."""
    return BUILDERS[name](random.Random(seed), workdir, small)
