"""Field families, degree classes, and the game-dynamics reduction."""

from fractions import Fraction

import pytest

from cycleforge import fields
from cycleforge.fields import VectorField, build_from_game
from cycleforge.poly import format_poly, parse_poly


def test_factored_form_is_exact():
    fld = VectorField(parse_poly("x + y", ("x", "y")),
                      parse_poly("x - y", ("x", "y")))
    assert fld.P == parse_poly("(4*x^2 - 1)*(x + y)", ("x", "y"))
    assert fld.Q == parse_poly("(4*y^2 - 1)*(x - y)", ("x", "y"))
    assert fld.to_json()["degree"] == 1


def test_degree_class_split():
    # f has the extreme monomial x^d -> full class
    full = VectorField(parse_poly("x^2 + y", ("x", "y")),
                       parse_poly("x", ("x", "y")))
    assert full.to_json()["class"] == "X_d"
    sub = VectorField(parse_poly("x*y + y", ("x", "y")),
                      parse_poly("x + x*y", ("x", "y")))
    assert sub.to_json()["class"] == "X_d0"


def test_bind_substitutes_parameters():
    fam = fields.p4_family()
    b = fam.bind({"a11": Fraction(1), "a02": Fraction(0),
                  "b20": Fraction(2), "b11": Fraction(-1)})
    assert b.parameters == ()
    assert b.f == parse_poly("y + x*y", ("x", "y"))


def test_even_symmetry():
    fam = fields.p9_family()
    assert fam.is_even_symmetric()
    assert not fields.p7_base().is_even_symmetric()


def test_apply_condition_expressions():
    fam = fields.p4_family()
    c7 = fields.apply_condition(fam, fields.P4_CONDITIONS["C7"])
    # b20 -> -a11, b11 -> -a02
    assert "b20" not in c7.g.used_variables()
    got = c7.g
    expected = parse_poly("-x - a11*x^2 - a02*x*y", got.variables)
    assert got == expected


def test_apply_condition_swaps_parameters_at_once():
    fam = fields.p4_family()
    vs = fam.variables
    swapped = fields.apply_condition(fam, {"a11": "a02", "a02": "a11"})
    both = {"a11": parse_poly("a02", vs), "a02": parse_poly("a11", vs)}
    assert swapped.variables == vs
    assert swapped.f == fam.f.substitute(both)
    assert swapped.f == parse_poly("y + a02*x*y + a11*y^2", vs)
    assert swapped.g == fam.g
    same = fields.apply_condition(fam, {"a11": "a11"})
    assert same.variables == vs and same.f == fam.f


def test_game_model_reduction():
    fld = build_from_game([[0, 0], [1, -1]], [[0, 1], [1, 0]])
    assert fld.to_json()["class"] == "X_d0"
    assert format_poly(fld.f) == "2*y"
    assert format_poly(fld.g) == "2*x"


def test_game_model_takes_parsed_entries():
    A, B = [[0, "x"], ["1/2", "x*y - 1"]], [["y^2", 0], [1, "x + y"]]
    parsed = [[[parse_poly(str(e), fields.XY) for e in row] for row in M] for M in (A, B)]
    want, got = build_from_game(A, B), build_from_game(*parsed)
    assert (got.f, got.g, got.P, got.Q) == (want.f, want.g, want.P, want.Q)
    assert got.P == parse_poly("4*x^2 - 1", fields.XY) * got.f
    assert got.Q == parse_poly("4*y^2 - 1", fields.XY) * got.g


def test_game_model_shape_checked():
    with pytest.raises(ValueError):
        build_from_game([[0, 0]], [[0, 0], [0, 0]])


def test_field_requires_xy():
    with pytest.raises(ValueError):
        VectorField(parse_poly("t", ("t",)), parse_poly("t", ("t",)))
