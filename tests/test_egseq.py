"""Exact-summation sequence engine: closed-form tails, shifts, fitting.

Oracle values are computed independently (geometric series sums) and
frozen as exact Fractions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzeta.egseq import EGSeq
from motzeta.errors import FitFailed, MotzetaError, TailNotSummable
from motzeta.locring import LocRat, ONE as LR_ONE
from motzeta.realize import count_realization, symbolic_realization
from motzeta.series import strand_fit


def test_scalar_adapters():
    # sum_{l>0} ratio^l = 1/(1 - ratio) - 1 through the scalars of each
    # realization: the tail at n=0 of the stream n -> ratio^n
    def geometric_sum(real, ratio):
        return EGSeq.single_residue(real, 1, 0, ratio, real.one).tail_sum().value(0)

    sym = symbolic_realization()
    for ratio, inv_at_3 in (
        (LocRat.L(2), Fraction(-1, 8)),  # 1/(1 - L^2) stays in the localized ring
        (LocRat.L(-1), Fraction(3, 2)),  # 1/(1 - L^-1) = -L/(1-L)
        (-LocRat.L(1), Fraction(1, 4)),  # 1/(1 + L) is a cyclotomic unit inverse
    ):
        ((factors, _, total),) = geometric_sum(sym, ratio).terms  # a scalar class
        assert factors == () and total.eval_at(3) == inv_at_3 - 1
        assert geometric_sum(count_realization(3), ratio.eval_at(3)) == inv_at_3 - 1
    with pytest.raises(TailNotSummable):
        geometric_sum(sym, LR_ONE)
    rat = count_realization(7)
    assert rat.from_locrat(LocRat.L(-2)) == Fraction(1, 49)
    assert geometric_sum(rat, Fraction(1, 7)) == Fraction(7, 6) - 1
    with pytest.raises(TailNotSummable):
        geometric_sum(rat, Fraction(1))


def test_geometric_tail_counts():
    real = count_realization(7)
    v = EGSeq.single_residue(real, 1, 0, Fraction(1, 7), Fraction(1))
    t = v.tail_sum()
    for n in range(0, 9):
        assert t.value(n) == Fraction(1, 6 * 7**n)


def test_tail_telescoping_symbolic():
    real = symbolic_realization()
    v = EGSeq.single_residue(real, 1, 0, LocRat.L(-1), real.one)
    t = v.tail_sum()
    for n, m in [(0, 3), (2, 6), (5, 9)]:
        acc = real.zero
        for l in range(n + 1, m + 1):
            acc = acc + v.value(l)
        assert t.value(n) == t.value(m) + acc


def test_tail_not_summable():
    for real in (count_realization(5), symbolic_realization()):
        v = EGSeq.constant(real, real.one)
        with pytest.raises(TailNotSummable):
            v.tail_sum()


def test_mixed_period_add():
    real = count_realization(7)
    v1 = EGSeq.single_residue(real, 2, 1, Fraction(3), Fraction(1))
    v2 = EGSeq.constant(real, Fraction(5))
    s = v1.add(v2)
    for n in range(1, 13):
        expect = Fraction(5) + (Fraction(3) ** (n // 2) if n % 2 == 1 else 0)
        assert s.value(n) == expect


def test_shift_both_directions():
    real = count_realization(7)
    v = EGSeq.single_residue(real, 2, 1, Fraction(3), Fraction(1), dom_min=0)
    fwd = v.shift(3)
    for n in range(0, 10):
        assert fwd.value(n) == v.value(n + 3)
    reals = symbolic_realization()
    u = EGSeq.single_residue(reals, 1, 0, LocRat.L(-1), reals.one)
    back = u.shift(-1)
    assert back.dom_min == 2
    for n in range(2, 9):
        assert back.value(n) == u.value(n - 1)


def test_re_period_preserves_values():
    real = count_realization(7)
    v = EGSeq(
        real, 2,
        [[(Fraction(5), (Fraction(1), Fraction(2)))], []],
        dom_min=0, stable_start=0,
    )
    assert v.re_period(6).agrees_with(v, 0, 18)


def test_fit_geometric():
    real = count_realization(7)
    samples = {n: Fraction(1, 6 * 7**n) for n in range(1, 11)}
    seq = strand_fit(real, samples)
    for n in range(1, 11):
        assert seq.value(n) == samples[n]
    # the fitted model extrapolates the true closed form
    assert seq.value(14) == Fraction(1, 6 * 7**14)


def test_fit_period_and_exceptional():
    # the ratio 3 must be a power of q, so the stream is counted at q=3
    real = count_realization(3)
    samples = {1: Fraction(99), 2: Fraction(-4)}
    for n in range(3, 20):
        t = n // 2
        samples[n] = Fraction(3) ** t if n % 2 == 0 else 5 * Fraction(3) ** t
    seq = strand_fit(real, samples, period=2, stable_from=3)
    for n, y in samples.items():
        assert seq.value(n) == y


def test_fit_validation_failure():
    real = count_realization(7)
    samples = {n: Fraction(1, 6 * 7**n) for n in range(1, 11)}
    samples[9] += 1
    with pytest.raises(FitFailed):
        strand_fit(real, samples)


def test_exceptional_tail_and_prefix():
    # tail sums reach back through the exceptional prefix n < stable_start
    real = count_realization(7)
    v = EGSeq(
        real, 1,
        [[(Fraction(1, 7), (Fraction(1),))]],
        exceptional={1: Fraction(99), 2: Fraction(-4)},
        dom_min=1, stable_start=3,
    )
    t = v.tail_sum()
    assert t.value(2) == Fraction(1, 6 * 7**2)
    assert t.value(1) == Fraction(-4) + Fraction(1, 6 * 7**2)
    assert t.value(0) == Fraction(95) + Fraction(1, 6 * 7**2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(("count", "symbolic")),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(-2, 1), st.integers(1, 3), st.integers(0, 1)), min_size=1, max_size=6),
    st.integers(-3, 2),
    st.integers(0, 3),
)
def test_values_match_value_pointwise(tag, period, raw_modes, shift, n_exc):
    """values(lo, hi), which steps ratio powers, equals value(n) at every n,
    across residues, exceptional values, t-polynomial modes and a domain
    that starts at or below zero (negative t)."""
    if tag == "count":
        real = count_realization(5)
        ratio, coeff = (lambda k: Fraction(5) ** k), Fraction
    else:
        real = symbolic_realization()
        ratio, coeff = LocRat.L, (lambda c: LocRat.from_int(c) * real.one)
    modes = [[] for _ in range(period)]
    for i, (k, c, deg) in enumerate(raw_modes):
        modes[i % period].append((ratio(k), (coeff(c),) * (deg + 1)))
    exc = {n: coeff(n + 7) for n in range(1, 1 + n_exc)}
    seq = EGSeq(real, period, modes, exc, dom_min=1).shift(shift)
    lo, hi = seq.dom_min, seq.dom_min + 4 * period + 6
    assert seq.values(lo, hi) == [seq.value(n) for n in range(lo, hi + 1)]
    assert seq.values(lo + 3, hi) == [seq.value(n) for n in range(lo + 3, hi + 1)]
    assert seq.values(hi, lo) == []
    with pytest.raises(MotzetaError, match="below the domain start dom_min=%d" % lo):
        seq.values(lo - 1, hi)
