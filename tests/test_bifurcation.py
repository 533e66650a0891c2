"""First-order cycle-bifurcation pipeline."""

import random
from fractions import Fraction

import pytest

from cycleforge.bifurcation import (
    build_perturbation,
    ggt_analyze,
    hopf_order_one,
    mirror_count,
    p7_setup,
    p8_setup,
    p9_setup,
    ratfunc,
)
from cycleforge.fields import VectorField, p7_base
from cycleforge.poly import parse_poly


def test_build_perturbation_rejects_line_breaking_terms():
    base = VectorField(parse_poly("y", ("x", "y")), parse_poly("-x", ("x", "y")))
    with pytest.raises(ValueError, match="lam"):
        build_perturbation(base, [("P", "lam", "x*y")])


@pytest.mark.parametrize("alpha", ["a", None])
def test_build_perturbation_rejects_an_alpha_no_term_names(alpha):
    base = VectorField(parse_poly("x*y - 1", ("x", "y", "mu")),
                       parse_poly("x^2*y^2 - 1/7", ("x", "y", "mu")))
    with pytest.raises(ValueError, match=f"alpha {alpha!r}"):
        build_perturbation(base, [("P", "lam", "(4*x^2 - 1)*y^2")], alpha_symbol=alpha)


def test_build_perturbation_reduces_to_base():
    setup = p7_setup()
    zeros = {s: Fraction(0) for s in setup.lambda_symbols}
    zeros[setup.alpha_symbol] = Fraction(0)
    bound_f = setup.field.f.evaluate(zeros)
    bound_g = setup.field.g.evaluate(zeros)
    assert bound_f == setup.base.f.with_variables(bound_f.variables)
    assert bound_g == setup.base.g.with_variables(bound_g.variables)


def test_ratfunc_reduces_common_factors():
    num = parse_poly("(mu + 1)*(mu - 2)")
    den = parse_poly("(mu + 1)*(mu + 3)", num.variables)
    r = ratfunc(num, den)
    assert r.num.degree_in("mu") == 1 and r.den.degree_in("mu") == 1
    # cross-multiplied identity with the originals
    assert r.num * den == r.den * num


def test_rank_matches_random_specialization():
    rep = ggt_analyze(p8_setup())
    A = rep.linear_matrix
    rng = random.Random(5)
    for _ in range(3):
        mu = Fraction(rng.randint(3, 40), rng.randint(1, 7))
        rows = [[e.eval_scalar({"mu": mu}) if not e.is_constant()
                 else e.constant_value() for e in row] for row in A]
        # plain Gaussian elimination rank over Q
        rank = 0
        m = [list(r) for r in rows]
        ncols = len(m[0])
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c] / m[r][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        rank = r
        assert rank == rep.k


def test_invalid_candidates_report_reasons():
    rep = ggt_analyze(p8_setup())
    invalid = [c for c in rep.candidates if not c["valid"]]
    assert invalid and all(c.get("reason") for c in invalid)
    assert {c["mu0"] for c in invalid} == {Fraction(-2), Fraction(0), Fraction(2)}


def test_mirror_count_requires_symmetry():
    rep = ggt_analyze(p7_setup())  # not an even-symmetric family
    assert rep.verdict[0] == "k_plus_ell_cycles"
    with pytest.raises(ValueError):
        mirror_count(rep)


def test_mirror_count_requires_certificate():
    rep = ggt_analyze(p9_setup(), N=1)  # too few quantities: k+1 rows needed
    if rep.verdict[0] == "k_plus_ell_cycles":
        pytest.skip("single-quantity run unexpectedly certified")
    with pytest.raises(ValueError):
        mirror_count(rep)


def test_hopf_on_plain_field():
    # unperturbed symmetric family at mu=0 has a center at (1/4, 0): no
    # cycle (at lam = alpha = 0 the setup's field is the base field)
    setup = p9_setup()
    assert hopf_order_one(setup, {"mu": 0, "lam": 0}) == "none"
    # with the cross term switched on the first quantity is nonzero
    assert hopf_order_one(setup, {"mu": Fraction(0)}) == "one_cycle"


def test_report_json_round_trips():
    import json
    rep = ggt_analyze(p7_setup())
    text = json.dumps(rep.to_json())
    data = json.loads(text)
    assert data["verdict"] == {"kind": "k_plus_ell_cycles", "count": 3}
    assert data["k"] == 2 and data["l"] == 1


# P7 with its alpha term on P, plus one more term
FAILING_P7_TERMS = [
    (("Q", "alpha", "(4*y^2 - 1)*x"), "no perturbation parameters"),
    (("Q", "a", "(4*y^2 - 1)*x^2"), "all linear parts vanish identically"),
    (("Q", "a", "(4*y^2 - 1)*x*y"), "no admissible simple zero of f_0 found"),
    (("P", "a", "(4*x^2 - 1)*y^2"), "no later f is nonzero at the candidate"),
]


@pytest.mark.parametrize("term, reason", FAILING_P7_TERMS)
def test_failed_conditions_name_their_reason(term, reason):
    setup = build_perturbation(p7_base(), [("P", "alpha", "-(4*x^2 - 1)*y"), term])
    rep = ggt_analyze(setup)
    assert rep.verdict == ("conditions_fail", reason)
    assert rep.to_json()["verdict"] == {"kind": "conditions_fail", "reason": reason}


def _sym(sympy, p):
    syms = [sympy.Symbol(v) for v in p.variables]
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s**e for s, e in zip(syms, exp)])
                       for exp, c in p.terms.items()])


def test_p8_reparametrization_matches_sympy_inverse_and_kernel():
    sympy = pytest.importorskip("sympy")
    rep = ggt_analyze(p8_setup())
    k = rep.k
    assert k == 4
    B = sympy.Matrix([[_sym(sympy, e) for e in row]
                      for row in rep.linear_matrix[: k - 1]])
    _, pivots = B.rref(simplify=True)
    inv = B[:, list(pivots)].inv()
    (kernel,) = B.nullspace(simplify=True)
    last = max(c for c in range(len(kernel)) if sympy.cancel(kernel[c]) != 0)

    def same(rf, expr):
        # rf.num / rf.den == a / b, by cross-multiplication
        a, b = sympy.fraction(sympy.cancel(expr))
        return sympy.expand(_sym(sympy, rf.num) * b - _sym(sympy, rf.den) * a) == 0

    for c, row in enumerate(rep.M):
        for j in range(k - 1):
            want = inv[pivots.index(c), j] if c in pivots else 0
            assert same(row[j], want)
        assert same(row[k - 1], kernel[c] / kernel[last])
