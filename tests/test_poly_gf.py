"""Polynomials, the expression grammar, jet composition."""

import pytest

from motzeta.errors import ParseError, UnknownToken, VariableMismatch
from motzeta.poly import Poly, parse_poly


def test_poly_arithmetic_and_render():
    x, y = Poly.var("x"), Poly.var("y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.total_degree() == 2
    assert (x**2 + y**3 - 1).render() == "y^3 + x^2 - 1"
    assert Poly.const(0).is_zero()
    assert parse_poly(f.render()) == f


def test_parse_grammar():
    assert parse_poly("x^2 + y^2") == Poly.var("x") ** 2 + Poly.var("y") ** 2
    assert parse_poly("2*x*y - 3") == 2 * Poly.var("x") * Poly.var("y") - 3
    assert parse_poly("-x") == -Poly.var("x")
    assert parse_poly("(x + 1)^2") == (Poly.var("x") + 1) ** 2
    assert parse_poly("ab1^3") == Poly.var("ab1") ** 3
    # ^ binds tightest: -x^2 is -(x^2)
    assert parse_poly("-x^2") == -(Poly.var("x") ** 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_poly("x^^2")
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("x +")
    with pytest.raises(ParseError) as ei:
        parse_poly("x $ y")
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("(x + 1")


def test_unknown_token_reports_its_offset():
    for src, pos in (("x + y # z", 6), ("2*x^2 + Y", 8), ("  x!", 3)):
        with pytest.raises(UnknownToken) as ei:
            parse_poly(src)
        assert ei.value.position == pos
        assert "at position %d" % pos in str(ei.value)


def test_direct_sum_disjointness():
    f, g = parse_poly("x^2"), parse_poly("y^3")
    assert f.direct_sum(g) == parse_poly("x^2 + y^3")
    with pytest.raises(VariableMismatch):
        f.direct_sum(parse_poly("x + 1"))


def test_compose_jet_square():
    # f = x^2 with phi = a1 t + a2 t^2 + a3 t^3:
    # f(phi) = a1^2 t^2 + 2 a1 a2 t^3 + ... exactly.
    f = parse_poly("x^2")
    coeffs = f.compose_jet(3)
    a1, a2 = Poly.var("x_1"), Poly.var("x_2")
    assert coeffs[0].is_zero()
    assert coeffs[1].is_zero()
    assert coeffs[2] == a1 * a1
    assert coeffs[3] == 2 * a1 * a2


def test_compose_jet_sum_of_squares():
    f = parse_poly("x^2 + y^2")
    coeffs = f.compose_jet(2)
    assert coeffs[2] == Poly.var("x_1") ** 2 + Poly.var("y_1") ** 2
