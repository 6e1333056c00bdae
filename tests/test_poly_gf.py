"""Polynomials, the expression grammar, jet composition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import _value_digits
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


@st.composite
def _germs(draw):
    """Integer polynomials in at most 3 variables with at most 4 terms."""
    vars_ = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 3)] * len(vars_))
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), exps), min_size=1, max_size=4))
    f = Poly.const(0)
    for c, e in terms:
        term = Poly.const(c)
        for v, x in zip(vars_, e):
            term = term * Poly.var(v, x)
        f = f + term
    return f


def _eval_mod(p, values, q):
    total = 0
    for e, c in p.terms.items():
        for v, x in zip(p.vars, e):
            c *= values[v] ** x
        total += c
    return total % q


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_germs(), st.integers(0, 5))
def test_compose_jet_deeper_expansion_extends_shallower(f, depth):
    # digit j involves only jet coordinates of index <= j
    full = f.compose_jet(depth)
    assert len(full) == depth + 1
    for n in range(depth + 1):
        assert full[: n + 1] == f.compose_jet(n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_germs(), st.integers(1, 5), st.sampled_from((2, 3, 5, 7)), st.randoms())
def test_compose_jet_digits_evaluate_to_the_brute_digits(f, n, q, rng):
    jets = {v: [rng.randrange(q) for _ in range(n)] for v in f.vars}
    values = {"%s_%d" % (v, j): c for v in f.vars for j, c in enumerate(jets[v], 1)}
    digits = f.compose_jet(n)
    got = [_eval_mod(d, values, q) for d in digits]
    assert got == _value_digits(f, jets, n, q)
