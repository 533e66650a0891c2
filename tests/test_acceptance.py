"""End-to-end acceptance suite.

Each test prints a single ``CRITERION n: PASS`` / ``FAIL`` line; the
criteria cover the exact symbolic results (focus quantities, elimination
cascade, center certificates, cycle-bifurcation counts), the certified
root isolation, and the corroborating numerical experiments.
"""

import itertools
import random
import time
from fractions import Fraction

from cycleforge import (
    bifurcation, centers, dynamics, fields, integrate, lyapunov, resultants,
)
from cycleforge.fields import VectorField
from cycleforge.poly import MultiPoly, format_poly, parse_poly
from cycleforge.resultants import cascade, resultant, unit_multiple_of
from cycleforge.roots import (
    RatInterval,
    poly_box_eval,
    poly_to_coeffs,
    real_roots,
    refine,
    IsolatingInterval,
)
from cycleforge.scalars import QuadExt

RESULTS = {}


def _report(num, ok, detail=""):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line, flush=True)
    RESULTS[num] = ok
    assert ok, line


def _same(p: MultiPoly, expected: MultiPoly) -> bool:
    return p.with_variables(expected.variables) == expected


# -- 1: first two focus quantities of the four-parameter family ---------------------

L1_EXPECTED = "2/3*a11*a02-2/3*b20*b11"
L2_EXPECTED = (
    "-14/15*a11^3*a02-26/9*a11^2*a02*b20+16/15*a11^2*b20*b11+2/3*a11*a02^3"
    "+2/5*a11*a02^2*b11-20/9*a11*a02*b20^2+106/45*a11*b20^2*b11"
    "+2/15*a02*b20*b11^2+14/9*b20^3*b11-2/15*b20*b11^3"
    "-32/15*a11*a02+32/15*b20*b11"
)


def test_criterion_01_focus_quantities():
    t0 = time.monotonic()
    fam = fields.p4_family()
    rep = lyapunov.lyapunov_quantities(fam.P, fam.Q, 2)
    elapsed = time.monotonic() - t0
    l1, l2 = rep.quantities
    ok = (
        format_poly(l1) == L1_EXPECTED
        and format_poly(l2) == L2_EXPECTED
        and len(l2.terms) == 12
        and _same(l1, parse_poly(L1_EXPECTED))
        and _same(l2, parse_poly(L2_EXPECTED))
        and elapsed < 10.0
    )
    _report(1, ok, f"L1={format_poly(l1)}, {elapsed:.2f}s")


# -- 2: elimination cascade on the first four quantities -----------------------------

STAGE1_FACTORS = {"b11", "b20", "a02", "a02-b20", "a02+b11", "a02+b20"}


def test_criterion_02_elimination_cascade():
    t0 = time.monotonic()
    fam = fields.p4_family()
    rep = lyapunov.lyapunov_quantities(fam.P, fam.Q, 4)
    traces = cascade(rep.quantities, ["a11", "a02", "b20"], coeff_bound=2)
    elapsed = time.monotonic() - t0
    ok = len(traces) == 3 and all(t.verify() for t in traces)
    stage1 = traces[0]
    got = {format_poly(f) for f, _ in stage1.common_factors}
    ok = ok and got == STAGE1_FACTORS
    # first remainder proportional to 16/81*a02 - 16/405*b11
    target = parse_poly("16/81*a02 - 16/405*b11", stage1.remainders[0].variables)
    ok = ok and unit_multiple_of(stage1.remainders[0], target)
    last = traces[2].resultants
    ok = ok and len(last) == 1 and last[0].is_constant() and not last[0].is_zero()
    ok = ok and elapsed < 300.0
    _report(2, ok, f"stage1 factors {sorted(got)}, stage3 "
                   f"{format_poly(last[0])}, {elapsed:.2f}s")


# -- 3: center certificates for every stratum ----------------------------------------

def _xy_degree(p: MultiPoly) -> int:
    xi = p.variables.index("x")
    yi = p.variables.index("y")
    return max((e[xi] + e[yi] for e in p.terms), default=0)


def _line_exponents(cert):
    out = {}
    for f, e in cert.factors:
        out[format_poly(f)] = e
    return out


def test_criterion_03_center_certificates():
    t0 = time.monotonic()
    ok = True
    notes = []

    def expect(label, cert, kind, check=None):
        nonlocal ok
        good = cert.kind == kind and (check is None or check(cert))
        if not good:
            notes.append(f"{label}:{cert.kind}")
        ok = ok and good

    fam4 = fields.p4_family()
    for label, cond in fields.P4_CONDITIONS.items():
        fam_c = fields.apply_condition(fam4, cond)
        extra = []
        if label == "C7":
            extra = [parse_poly("a11*x + a02*y + 1", fam_c.variables)]
        cert = centers.certify(fam_c, extra_curves=extra)
        if label in ("C1", "C4", "C5", "C6"):
            expect(label, cert, "reversible")
        elif label == "C2":
            expect(label, cert, "darboux", lambda c: set(
                _line_exponents(c).values()) == {Fraction(-1)})
        elif label == "C3":
            expect(label, cert, "separable")
        else:  # C7: the linear curve enters with a nonzero exponent
            expect(label, cert, "darboux", lambda c: any(
                _xy_degree(f) == 1 and e != 0 for f, e in c.factors))

    fam5 = fields.p5_family()
    for label, cond in fields.P5_CONDITIONS.items():
        fam_c = fields.apply_condition(fam5, cond)
        cert = centers.certify(fam_c)
        if label == "D1":
            expect(label, cert, "separable")
        elif label == "D2":
            expect(label, cert, "darboux", lambda c: set(
                _line_exponents(c).values()) == {Fraction(-1)})
        elif label == "D7":
            expect(label, cert, "darboux", lambda c: set(
                _line_exponents(c).values()) == {Fraction(-2)})
        else:
            expect(label, cert, "reversible")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, f"16 strata, {elapsed:.2f}s" + (f"; bad: {notes}" if notes else ""))


# -- 4: two-parameter perturbation, three cycles --------------------------------------

def test_criterion_04_three_cycles():
    rep = bifurcation.ggt_analyze(bifurcation.p7_setup())
    f0 = parse_poly("2/15*(mu+1)*(mu-5)")
    f1 = parse_poly("-2/315*(mu+1)*(47*mu^3-96*mu^2-582*mu-673)")
    ok = (
        rep.k == 2
        and rep.l == 1
        and rep.verdict == ("k_plus_ell_cycles", 3)
        and rep.mu0 == Fraction(5)
        and rep.f_funcs[0].is_polynomial()
        and rep.f_funcs[1].is_polynomial()
        and _same(rep.f_funcs[0].num, f0)
        and _same(rep.f_funcs[1].num, f1)
    )
    _report(4, ok, f"k={rep.k}, l={rep.l}, mu0={rep.mu0}, verdict={rep.verdict}")


# -- 5: four-parameter perturbation, five cycles ---------------------------------------

def _interval_sign(num: MultiPoly, den: MultiPoly, iv):
    """Sign of num/den on a shrinking enclosure of the isolated root."""
    for _ in range(200):
        box = {"mu": RatInterval(iv.lo, iv.hi)}
        sn = poly_box_eval(num, box).sign()
        sd = poly_box_eval(den, box).sign()
        if sn is not None and sd is not None:
            return sn * sd
        iv = refine(iv, iv.width() / 4)
    raise ArithmeticError("interval sign did not stabilize")


def test_criterion_05_five_cycles():
    rep = bifurcation.ggt_analyze(bifurcation.p8_setup())
    f0 = parse_poly("1/113400*mu*(mu-2)*(mu+2)*(175*mu^4+128520*mu^2-44944)")
    ok = (
        rep.k == 4
        and rep.l == 1
        and rep.verdict == ("k_plus_ell_cycles", 5)
        and rep.f_funcs[0].is_polynomial()
        and _same(rep.f_funcs[0].num, f0)
    )
    # the quartic cofactor has exactly two real roots, near +-0.5912
    h = parse_poly("175*mu^4+128520*mu^2-44944")
    coeffs = poly_to_coeffs(h, "mu")
    roots = real_roots(coeffs)
    ok = ok and len(roots) == 2
    mids = []
    for r in roots:
        assert isinstance(r, IsolatingInterval)
        r = refine(r, Fraction(1, 10**6))
        ok = ok and r.width() <= Fraction(1, 10**6)
        mids.append(r.midpoint())
    ok = ok and sorted(round(float(m), 4) for m in mids) == [-0.5912, 0.5912]
    # f1 has a determined, nonzero sign at both roots (interval arithmetic)
    valid = [c for c in rep.candidates if c["valid"]]
    ok = ok and len(valid) == 2 and all(c["l"] == 1 for c in valid)
    f1 = rep.f_funcs[1]
    signs = []
    for c in valid:
        num, den = MultiPoly._align(f1.num, f1.den)
        s = _interval_sign(num, den, c["mu0"])
        signs.append(s)
        ok = ok and s != 0
    _report(5, ok, f"verdict={rep.verdict}, roots ~ {[float(m) for m in mids]}, "
                   f"f1 signs {signs}")


# -- 6: symmetric pair of centers over Q(sqrt(6)) --------------------------------------

def test_criterion_06_symmetric_nests():
    rep = bifurcation.ggt_analyze(bifurcation.p9_setup())
    expected_f0 = parse_poly("8*mu+3") * QuadExt(0, Fraction(1, 9), 6)
    ok = (
        rep.k == 1
        and rep.l == 1
        and rep.verdict == ("k_plus_ell_cycles", 2)
        and rep.mu0 == Fraction(-3, 8)
        and rep.f_funcs[0].is_polynomial()
        and _same(rep.f_funcs[0].num, expected_f0)
    )
    f1_at = rep.f_funcs[1].num.eval_scalar({"mu": Fraction(-3, 8)})
    den_at = rep.f_funcs[1].den.eval_scalar({"mu": Fraction(-3, 8)})
    from cycleforge.scalars import is_zero
    ok = ok and not is_zero(f1_at) and not is_zero(den_at)
    ok = ok and bifurcation.mirror_count(rep) == 4
    hopf = bifurcation.hopf_order_one(bifurcation.p9_setup(), {"mu": Fraction(0)})
    ok = ok and hopf == "one_cycle"  # one per nest -> two in total
    _report(6, ok, f"mu0={rep.mu0}, per-nest 2, mirrored total 4, hopf={hopf}")


# -- 7: return-map displacement sign vs first focus quantity ---------------------------

def test_criterion_07_displacement_sign_rule():
    t0 = time.monotonic()
    fam = fields.p4_family()
    rep = lyapunov.lyapunov_quantities(fam.P, fam.Q, 1)
    L1 = rep.quantities[0]
    rng = random.Random(20260823)
    checked = 0
    ok = True
    while checked < 10:
        b = {k: Fraction(rng.randint(-9, 9), 10)
             for k in ("a11", "a02", "b20", "b11")}
        v = L1.eval_scalar(b)
        if abs(v) < Fraction(1, 20):
            continue
        row = integrate.return_map(fam, b, (0, 0), radii=(1e-2,))[0]
        ok = ok and row["status"] == "ok" and (row["displacement"] > 0) == (v > 0)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(7, ok, f"10/10 parameter points, {elapsed:.2f}s")


# -- 8: observed small limit cycle around both symmetric foci --------------------------

def test_criterion_08_observed_cycle():
    fam = fields.p9_family()
    radii = [0.01, 0.02, 0.03, 0.045, 0.06, 0.09, 0.12]
    ok = True
    brackets = []
    for a in (1e-3, -1e-3, 1e-2, -1e-2):
        af = Fraction(a).limit_denominator(10**6)
        binding = {"mu": Fraction(0), "alpha": af, "lam": -8 * af}
        for focus, d in (((0.25, 0.0), (1, 0)), ((-0.25, 0.0), (-1, 0))):
            rows = integrate.return_map(fam, binding, focus, direction=d,
                                        radii=radii, rtol=1e-9, atol=1e-11)
            ok = ok and all(r["status"] == "ok" for r in rows)
            changes = integrate.displacement_sign_changes(rows)
            ok = ok and len(changes) == 1
            if not ok:
                break
            lo, hi = integrate.refine_cycle_bracket(
                fam, binding, focus, changes[0][0], changes[0][1],
                width=1e-3, direction=d, rtol=1e-9, atol=1e-11)
            ok = ok and (hi - lo) <= 1e-3
            brackets.append((lo, hi))
        if not ok:
            break
    _report(8, ok, f"{len(brackets)} sweeps, radius bracket ~ "
                   f"({brackets[0][0]:.4f}, {brackets[0][1]:.4f})" if brackets else "")


# -- 9: four-singularity configuration property suite ----------------------------------

_MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _quadratic(coeffs):
    terms = {m: Fraction(c) for m, c in zip(_MONOMIALS, coeffs) if c}
    return MultiPoly(("x", "y"), terms)


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
        inv = Fraction(1) / m[r][c]
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


def _collinear(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) == 0


def _four_zero_pair(rng):
    """Two independent quadratics through four random non-collinear
    rational points of the open square."""
    while True:
        pts = []
        while len(pts) < 4:
            p = (Fraction(rng.randint(-7, 7), 16), Fraction(rng.randint(-7, 7), 16))
            if p in pts or any(_collinear(a, b, p)
                               for a, b in itertools.combinations(pts, 2)):
                continue
            pts.append(p)
        rows = [[Fraction(1), x, y, x * x, x * y, y * y] for x, y in pts]
        basis = _nullspace(rows)
        if len(basis) == 2:
            break
    while True:
        c1 = [rng.randint(-3, 3) for _ in range(2)]
        c2 = [rng.randint(-3, 3) for _ in range(2)]
        if c1[0] * c2[1] - c1[1] * c2[0] != 0:
            break
    f = _quadratic([c1[0] * a + c1[1] * b for a, b in zip(*basis)])
    g = _quadratic([c2[0] * a + c2[1] * b for a, b in zip(*basis)])
    return f, g


def test_criterion_09_configuration_suite():
    t0 = time.monotonic()
    rng = random.Random(99)
    done = 0
    configs = {}
    ok = True
    while done < 200 and ok:
        f, g = _four_zero_pair(rng)
        rep = dynamics.pair_report(f, g)
        if rep.degenerate_family or len(rep.points) != 4:
            continue
        if any(p.det_sign == 0 for p in rep.points):
            continue
        res = dynamics.berlinskii_check(rep)
        ok = ok and res.configuration != "counterexample"
        # the induced square-invariant field keeps the configuration: at a
        # common zero p, det D(u*f, v*g)(p) = u(p)*v(p)*det D(f, g)(p), and
        # both line factors u, v are negative inside the square, so the
        # Jacobian determinant signs (hence the index pattern) survive
        induced = dynamics.singularities_in_delta(VectorField(f, g))
        ok = ok and len(induced.points) == 4
        res2 = dynamics.berlinskii_check(induced)
        ok = ok and res2.configuration == res.configuration
        configs[res.configuration] = configs.get(res.configuration, 0) + 1
        done += 1
    elapsed = time.monotonic() - t0
    ok = ok and done == 200 and elapsed < 300.0
    _report(9, ok, f"{done} pairs, {configs}, {elapsed:.2f}s")


def test_gcd_only_names_a_shared_factor(monkeypatch):
    # the separating frame's resultant detects a shared factor by itself:
    # coprime pairs never reach multivariate_gcd, and a shared factor
    # reaches it once (its outermost call), to name the factor
    calls, depth = [0], [0]
    original = resultants.multivariate_gcd

    def counted(p, q):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(p, q)
        finally:
            depth[0] -= 1

    for module in (resultants, dynamics):
        monkeypatch.setattr(module, "multivariate_gcd", counted)
    rng = random.Random(99)
    for _ in range(20):
        f, g = _four_zero_pair(rng)
        assert len(dynamics.pair_report(f, g).points) == 4
        assert len(dynamics.singularities_in_delta(VectorField(f, g)).points) == 4
    assert calls[0] == 0
    f = parse_poly("(x + y)*(x - 1)", ("x", "y"))
    g = parse_poly("(x + y)*(y + 2)", ("x", "y"))
    assert dynamics.pair_report(f, g).degenerate_family
    assert calls[0] == 1


# -- 10: resultant against an independent Euclidean-gcd oracle -------------------------

def _euclid_gcd_degree(a, b):
    """Degree of gcd via plain Fraction polynomial remainder sequence."""

    def degree(p):
        return len(p) - 1

    def rem(p, q):
        p = p[:]
        while len(p) >= len(q) and any(p):
            if p[-1] == 0:
                p.pop()
                continue
            factor = p[-1] / q[-1]
            shift = len(p) - len(q)
            for i, c in enumerate(q):
                p[shift + i] -= factor * c
            while p and p[-1] == 0:
                p.pop()
        return p

    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and any(b):
        a, b = b, rem(a, b)
    return degree(a)


def test_criterion_10_resultant_oracle():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(500):
        polys = []
        for _ in range(2):
            d = rng.randint(1, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(d)]
            lead = 0
            while lead == 0:
                lead = rng.randint(-9, 9)
            coeffs.append(lead)
            polys.append(coeffs)
        f = sum((MultiPoly(("x",), {(i,): Fraction(c)}) for i, c in
                 enumerate(polys[0]) if c), MultiPoly.zero(("x",)))
        g = sum((MultiPoly(("x",), {(i,): Fraction(c)}) for i, c in
                 enumerate(polys[1]) if c), MultiPoly.zero(("x",)))
        res = resultant(f, g, "x")
        shared = _euclid_gcd_degree(polys[0], polys[1]) >= 1
        if res.is_zero() != shared:
            mismatches += 1
    _report(10, mismatches == 0, f"500 pairs, {mismatches} mismatches")


# -- 11: existence claims accepted via exact certificates ------------------------------

def test_criterion_11_certificate_substitution():
    ok = all(RESULTS.get(n) for n in (4, 5, 6))
    _report(11, ok,
            "nested small-amplitude cycles accepted through the exact "
            "symbolic certificates of criteria 4-6; the cycles are below "
            "observable amplitude, so no numerical orbit check is required")
