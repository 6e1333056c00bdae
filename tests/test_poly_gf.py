"""Polynomials, the expression grammar, jet composition."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import _value_digits, jet_count_direct, jet_digits, jet_equations_dense, prepare_brute
from motzeta.errors import MotzetaError, ParseError, UnknownToken, VariableMismatch
from motzeta.geomset import WorkMeter, _prepare, twisted_count
from motzeta.poly import JetExpansion, Poly, parse_poly
from motzeta.zeta import AxisCounts, jet_set


def test_poly_arithmetic_and_render():
    x, y = Poly.var("x"), Poly.var("y")
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.total_degree() == 2
    assert (x**2 + y**3 - 1).render() == "y^3 + x^2 - 1"
    assert Poly.const(0).is_zero()
    assert parse_poly(f.render()) == f


def test_foreign_operands_raise_type_error():
    # an operand that is neither a Poly nor an int leaves the operator to
    # Python's standard TypeError; ints are still constants
    p = parse_poly("x^2+y")
    for run in (lambda: p + 1.5, lambda: p - 1.5, lambda: p * 1.5, lambda: 1.5 + p, lambda: 1.5 - p,
                lambda: 1.5 * p, lambda: p + "x", lambda: p * None):
        with pytest.raises(TypeError, match="unsupported operand"):
            run()
    assert p + 1 == 1 + p == parse_poly("x^2+y+1") and 1 - p == -(p - 1) and 2 * p == p * 2 == p + p


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
    # a superscript digit is no digit of the grammar (str.isdigit is true
    # for it, int() refuses it)
    for src, pos in (("x + y # z", 6), ("2*x^2 + Y", 8), ("  x!", 3), ("x^\u00b2", 2), ("\u00b2x", 0), ("x\u00b2", 1)):
        with pytest.raises(UnknownToken) as ei:
            parse_poly(src)
        assert ei.value.position == pos
        assert "at position %d" % pos in str(ei.value)


def test_direct_sum_disjointness():
    f, g = parse_poly("x^2"), parse_poly("y^3")
    assert f.direct_sum_vars(g) == ("x", "y")
    assert f + g == parse_poly("x^2 + y^3")
    with pytest.raises(VariableMismatch):
        f.direct_sum_vars(parse_poly("x + 1"))


def test_compose_jet_square():
    # f = x^2 with phi = a1 t + a2 t^2 + a3 t^3:
    # f(phi) = a1^2 t^2 + 2 a1 a2 t^3 + ... exactly.
    f = parse_poly("x^2")
    coeffs = jet_digits(JetExpansion(f), 3)
    a1, a2 = Poly.var("x_1"), Poly.var("x_2")
    assert coeffs[0].is_zero()
    assert coeffs[1].is_zero()
    assert coeffs[2] == a1 * a1
    assert coeffs[3] == 2 * a1 * a2


def test_compose_jet_sum_of_squares():
    f = parse_poly("x^2 + y^2")
    coeffs = jet_digits(JetExpansion(f), 2)
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
    full = jet_digits(JetExpansion(f), depth)
    assert len(full) == depth + 1
    resumed = JetExpansion(f)
    for n in range(depth + 1):
        assert full[: n + 1] == jet_digits(JetExpansion(f), n) == jet_digits(resumed, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_germs(), st.integers(1, 5), st.sampled_from((2, 3, 5, 7)), st.randoms())
def test_compose_jet_digits_evaluate_to_the_brute_digits(f, n, q, rng):
    jets = {v: [rng.randrange(q) for _ in range(n)] for v in f.vars}
    values = {"%s_%d" % (v, j): c for v in f.vars for j, c in enumerate(jets[v], 1)}
    digits = jet_digits(JetExpansion(f), n)
    got = [_eval_mod(d, values, q) for d in digits]
    assert got == _value_digits(f, jets, n, q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_germs(), st.integers(1, 5), st.booleans(), st.sampled_from((2, 3, 5, 7)))
def test_digit_built_jet_loci_match_the_dense_construction(f, n, exact, q):
    # jet_set builds its locus from the sparse digits with no Poly; its Poly
    # view is the locus built from the Poly digits, and every twisted sector
    # s reduces as the dense oracle reduces that view at the twists -s w_i,
    # or is refused with the oracle's message
    gs = jet_set(f, n, exact)
    assert gs.equations == jet_equations_dense(f, n, exact)
    for s in range(gs.action_order):
        try:
            want, candidates = prepare_brute(gs, q, [-s * w for w in gs.weights])
        except MotzetaError as exc:
            with pytest.raises(MotzetaError, match=re.escape(str(exc))):
                _prepare(gs, q, s)
            continue
        got, nonzero = _prepare(gs, q, s)
        assert got == want
        assert [list(eq[1].items()) for eq in got] == [list(eq[1].items()) for eq in want]
        assert [list(range(nonzero >> i & 1, q)) for i in range(len(gs.coords))] == candidates


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_germs(), st.sampled_from((2, 3, 5)))
def test_axis_counts_match_brute_force_and_per_level_counts(f, q):
    # the levels of one AxisCounts read one expansion; each count is the
    # brute-force count and charges what a count of the level's own jet_set
    # charges
    ax = AxisCounts(f, q)
    d = len(f.vars)
    for n in range(1, 6):
        if q ** (d * n) > 729:
            break
        for kind in ("exact", "ordgt"):
            spent = ax.meter.spent
            got = getattr(ax, kind)(n)
            assert got == jet_count_direct(f, n, q, target=kind)
            meter = WorkMeter()
            assert twisted_count(jet_set(f, n, kind == "exact", action_order=1), q, meter=meter) == got
            assert ax.meter.spent - spent == meter.spent
