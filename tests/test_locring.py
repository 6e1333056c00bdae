"""Scalar ring: exact arithmetic, cancellation, evaluation, units, display text."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzeta.errors import DenominatorVanishes, NotInvertible
from motzeta.locring import (
    L,
    ONE,
    ZERO,
    LaurentPoly,
    LocRat,
    _den_poly,
    one_minus_L,
)


def test_laurent_basic_arithmetic():
    a = LaurentPoly({0: 1, 1: 2})  # 1 + 2L
    b = LaurentPoly({-1: 3, 1: -2})  # 3L^-1 - 2L
    assert (a + b).c == {-1: 3, 0: 1}
    assert (a - a).is_zero()
    assert (a * b).c == {-1: 3, 0: 6, 1: -2, 2: -4}
    assert (a * 0).is_zero()
    assert (a**2).c == {0: 1, 1: 4, 2: 4}


def test_laurent_divexact():
    # (1 - L^2) = (1 - L)(1 + L), exactly.
    q = one_minus_L(2).divexact(one_minus_L(1))
    assert q == LaurentPoly({0: 1, 1: 1})
    # Non-exact division returns None.
    assert LaurentPoly({0: 1, 1: 1}).divexact(one_minus_L(1)) is None
    # Laurent shifts are handled.
    p = LaurentPoly({-2: 1, 0: -1})  # L^-2 (1 - L^2)
    assert p.divexact(one_minus_L(2)) == LaurentPoly({-2: 1})


def test_sum_of_simple_fractions():
    # 1/(1-L) + 1/(1-L^2) == (2+L)/(1-L^2)
    a = LocRat(1, (1,))
    b = LocRat(1, (2,))
    expect = LocRat(LaurentPoly({0: 2, 1: 1}), (2,))
    assert a + b == expect


def test_unit_cancellation_to_poly():
    # (1-L^2)/(1-L) * 1 normalizes to the exact polynomial 1+L.
    r = LocRat(one_minus_L(2), (1,)) * ONE
    assert r.den == ()
    assert r.num == LaurentPoly({0: 1, 1: 1})


def test_eval_exact_rational():
    # (L-1)/(1-L^2) at L=5 equals -1/6.
    r = LocRat(LaurentPoly({1: 1, 0: -1}), (2,))
    assert r.eval_at(5) == Fraction(-1, 6)
    assert LocRat.L(-1).eval_at(5) == Fraction(1, 5)


def test_eval_denominator_vanishes():
    with pytest.raises(DenominatorVanishes):
        LocRat(1, (1,)).eval_at(1)
    with pytest.raises(DenominatorVanishes):
        LocRat(1, (4,)).eval_at(-1)


def test_inverse_of_declared_factors():
    # (1-L^n) * (1-L^n)^-1 == 1 for n = 1..12.
    for n in range(1, 13):
        prod = LocRat(one_minus_L(n)) * LocRat(1, (n,))
        assert prod == ONE
        inv = LocRat(one_minus_L(n)).inverse()
        assert inv == LocRat(1, (n,))
        assert LocRat(one_minus_L(n)) * inv == ONE


def test_inverse_of_mixed_units():
    rng = random.Random(20260817)
    for _ in range(25):
        k = rng.randint(-4, 4)
        sign = rng.choice([1, -1])
        u = LocRat(LaurentPoly({k: sign}))
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                u = u * LocRat(one_minus_L(n))
            else:
                u = u * LocRat(1, (n,))
        assert u * u.inverse() == ONE


def test_inverse_rejects_non_units():
    with pytest.raises(NotInvertible):
        LocRat(LaurentPoly({0: 2})).inverse()
    with pytest.raises(NotInvertible):
        LocRat(LaurentPoly({0: 2, 1: 1, 2: 1})).inverse()
    with pytest.raises(NotInvertible):
        LocRat(LaurentPoly({0: 1, 1: 3})).inverse()


def test_zero_is_not_a_unit():
    for run in (
        ZERO.inverse,
        lambda: ZERO**-1,
        lambda: LocRat(LaurentPoly(), (3,)) ** -2,
    ):
        with pytest.raises(NotInvertible, match="zero is not a unit") as err:
            run()
        assert not isinstance(err.value, ZeroDivisionError)


def test_inverse_handles_cyclotomic_units():
    # 1 + L = (1-L^2)/(1-L) is a unit even though no (1-L^n) divides it.
    u = ONE + L
    assert u * u.inverse() == ONE
    # 1 + L + L^2 = (1-L^3)/(1-L) likewise.
    v = LocRat(LaurentPoly({0: 1, 1: 1, 2: 1}))
    assert v * v.inverse() == ONE


def _random_locrat(rng):
    num = LaurentPoly(
        {rng.randint(-3, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
    )
    den = tuple(rng.choice([1, 1, 2, 3]) for _ in range(rng.randint(0, 2)))
    return LocRat(num, den)


@st.composite
def locrats(draw):
    """Normalized LocRats, some of whose numerators carry (1 - L^n) factors
    that the constructor cancels."""
    num = LaurentPoly(
        draw(st.dictionaries(st.integers(-3, 4), st.integers(-9, 9), max_size=4))
    )
    for n in draw(st.lists(st.sampled_from([1, 2, 3]), max_size=2)):
        num = num * one_minus_L(n)
    return LocRat(num, tuple(draw(st.lists(st.sampled_from([1, 2, 3, 6]), max_size=3))))


monomials = st.builds(
    lambda c, k: LocRat(LaurentPoly.monomial(c, k)),
    st.integers(-9, 9).filter(bool),
    st.integers(-4, 4),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(locrats(), st.one_of(monomials, st.integers(-9, 9)))
def test_product_by_a_monomial_is_the_normalized_product(a, m):
    # the product by c*L^k shifts and scales the numerator and keeps the
    # denominator, built without the normalizing constructor or the
    # numerator's zero filter; the general product gives the same
    # representation
    mr = LocRat(m) if isinstance(m, int) else m
    want = LocRat(a.num * mr.num, a.den + mr.den)
    for got in (a * m, m * a):
        assert got.num == want.num and got.den == want.den
        assert 0 not in got.num.c.values()
        assert got.den == (a.den if m else ())
    if not m:
        assert (a * m).num.is_zero() and (a * m).den == ()


def test_ring_axioms_randomized():
    rng = random.Random(987123)
    for _ in range(60):
        a, b, c = (_random_locrat(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO


def test_eval_is_ring_homomorphism():
    rng = random.Random(55511)
    for q in (2, 3, 5, 7, 13):
        for _ in range(20):
            a, b = _random_locrat(rng), _random_locrat(rng)
            assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)
            assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)
            assert (-a).eval_at(q) == -a.eval_at(q)
    assert ONE.eval_at(7) == 1
    assert L.eval_at(7) == 7


def test_equality_across_representations():
    # L^2/(1-L) and -L^2(1-L^3)/((1-L)(1-L^3)) agree by cross-multiplication.
    a = LocRat(LaurentPoly({2: 1}), (1,))
    b = LocRat(LaurentPoly({2: 1}) * one_minus_L(3), (1, 3))
    assert a == b
    assert not (a == a + ONE)


def _lcm_sum(a, b):
    """a + b over the multiset lcm of the two denominators."""
    mine, theirs = Counter(a.den), Counter(b.den)
    lcm = mine | theirs
    num = a.num * _den_poly((lcm - mine).elements()) + b.num * _den_poly((lcm - theirs).elements())
    return LocRat(num, tuple(lcm.elements()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(locrats(), locrats(), st.booleans())
def test_equal_denominators_add_and_compare_numerators(a, b, share):
    # over one denominator, + adds the numerators and == compares them;
    # both agree with the lcm and cross-multiplication routes, and the
    # constructor still cancels a factor the sum divides
    if share:
        b = LocRat(b.num, a.den)
    for x, y in ((a, b), (b, a), (a, a), (a, -a), (a, a * 2)):
        got, want = x + y, _lcm_sum(x, y)
        assert got.num == want.num and got.den == want.den
        assert (x == y) is (x.num * _den_poly(y.den) == y.num * _den_poly(x.den))
        diff = x - y
        assert diff == _lcm_sum(x, -y) and diff.den == _lcm_sum(x, -y).den
    assert (a - a).den == () and not (a - a)
    minus = LocRat(LaurentPoly.monomial(-1, 0), (1,))
    total = L * LocRat(1, (1,)) + minus
    assert total.den == () and total.num == LaurentPoly.const(-1) and total == -1


def test_render_text():
    # render is display text: the numerator by falling degree, then the
    # denominator factors
    assert LocRat(LaurentPoly({0: 2, 1: 1}), (2,)).render() == "(L + 2) / (1-L^2)"
    assert LaurentPoly({-1: -1, 2: 3, 0: -4}).render() == "3*L^2 - 4 - L^-1"
    assert str(LocRat(LaurentPoly({3: -1}), (1, 3))) == "-L^3 / (1-L)(1-L^3)"
    assert str(ZERO) == "0"


def test_pow_including_negative():
    r = LocRat(1, (2,))
    assert r**3 == LocRat(1, (2, 2, 2))
    u = L * LocRat(one_minus_L(2))
    assert u**-2 * u**2 == ONE
    assert (L**-3) * (L**3) == ONE


def test_foreign_operands_raise_type_error():
    # an operand the ring does not carry leaves the operator to Python's
    # standard TypeError; ints are still scalars
    for run in (lambda: L + "x", lambda: L - "x", lambda: "x" - L, lambda: 0.5 + L, lambda: L + 0.5,
                lambda: LaurentPoly({1: 1}) * 1.5, lambda: LaurentPoly({1: 1}) + 1,
                lambda: LaurentPoly({1: 1}) - 1, lambda: 1 - LaurentPoly({1: 1})):
        with pytest.raises(TypeError, match="unsupported operand"):
            run()
    assert L + 1 == 1 + L and L - 1 == -(1 - L)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-9, 9).filter(bool), st.integers(-4, 4), st.integers(-6, 6))
def test_power_of_a_monomial_is_repeated_multiplication(c, e, k):
    # (c*L^e)^k is c^k*L^(e*k), read off the monomial; a negative power
    # exists only for c = +-1, else 1/c leaves the ring
    m = LocRat(LaurentPoly.monomial(c, e))
    if k < 0 and c not in (1, -1):
        with pytest.raises(NotInvertible):
            m**k
        return
    want = ONE
    for _ in range(abs(k)):
        want = want * (m if k > 0 else LocRat(LaurentPoly.monomial(c, -e)))
    got = m**k
    assert got == want and got.num == want.num and got.den == ()
    assert got.num == LaurentPoly.monomial(c ** abs(k), e * k)
