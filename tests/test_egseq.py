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
from motzeta.motclass import Atom, SymbolicClass
from motzeta.realize import count_realization, symbolic_realization
from motzeta.series import strand_fit
from motzeta.zeta import multizeta_separable


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
        v = EGSeq(real, 1, [[(real.from_locrat(LR_ONE), (real.one,))]])
        with pytest.raises(TailNotSummable):
            v.tail_sum()


def test_mixed_period_add():
    real = count_realization(7)
    v1 = EGSeq.single_residue(real, 2, 1, Fraction(3), Fraction(1))
    v2 = EGSeq(real, 1, [[(Fraction(1), (Fraction(5),))]])
    s = v1.add(v2)
    for n in range(1, 13):
        expect = Fraction(5) + (Fraction(3) ** (n // 2) if n % 2 == 1 else 0)
        assert s.value(n) == expect


def test_shift_both_directions():
    real = count_realization(7)
    v = EGSeq(real, 2, [[], [(Fraction(3), (Fraction(1),))]], dom_min=0)
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
        dom_min=0,
    )
    w = v.re_period(6)
    assert [w.value(n) for n in range(19)] == [v.value(n) for n in range(19)]


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
    samples = {n: Fraction(3) ** (n // 2) * (1 if n % 2 == 0 else 5) for n in range(1, 20)}
    seq = strand_fit(real, samples, period=2)
    for n, y in samples.items():
        assert seq.value(n) == y
    assert seq.value(31) == 5 * Fraction(3) ** 15
    # the fit holds from n = 1 on: exceptional first values give each
    # residue's recurrence the root 0, which is no power of q
    samples[1], samples[2] = Fraction(99), Fraction(-4)
    with pytest.raises(FitFailed, match=r"^residue 0: characteristic polynomial \(1\)z\^2 \+ \(-3\)z\^1 has roots"):
        strand_fit(real, samples, period=2)


def test_fit_validation_failure():
    real = count_realization(7)
    samples = {n: Fraction(1, 6 * 7**n) for n in range(1, 11)}
    samples[9] += 1
    with pytest.raises(FitFailed):
        strand_fit(real, samples)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(("count", "symbolic")),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(-2, 1), st.integers(1, 3), st.integers(0, 1)), min_size=1, max_size=6),
    st.integers(-3, 2),
)
def test_value_refuses_below_the_domain_start(tag, period, raw_modes, shift):
    """value(n) refuses every n below dom_min, across residues,
    t-polynomial modes and a domain that starts at or below zero
    (negative t)."""
    if tag == "count":
        real = count_realization(5)
        ratio, coeff = (lambda k: Fraction(5) ** k), Fraction
    else:
        real = symbolic_realization()
        ratio, coeff = LocRat.L, (lambda c: LocRat.from_int(c) * real.one)
    modes = [[] for _ in range(period)]
    for i, (k, c, deg) in enumerate(raw_modes):
        modes[i % period].append((ratio(k), (coeff(c),) * (deg + 1)))
    seq = EGSeq(real, period, modes).shift(shift)
    lo = seq.dom_min
    for n in range(lo - period - 1, lo):
        with pytest.raises(MotzetaError, match="n=%d is below the domain start dom_min=%d" % (n, lo)):
            seq.value(n)


def _stream_parts(tag):
    """The realization, a decaying ratio +-q^-k and a coefficient of
    integer weight (a scalar class, or an atom's class, when symbolic)."""
    if tag == "count":
        real = count_realization(5)
        return real, (lambda s, k: s * Fraction(1, 5**k)), (lambda c, _atom: Fraction(c))
    real = symbolic_realization()
    mu2 = SymbolicClass.from_atom(Atom("mu2", 2))
    return real, (lambda s, k: LocRat.L(-k) * s), (lambda c, atom: (mu2 if atom else real.one).scale(c))


@st.composite
def _decaying_streams(draw):
    """EGSeqs of period <= 5, up to three modes per residue, each a
    t-polynomial of degree <= 2 times a decaying ratio."""
    tag = draw(st.sampled_from(("count", "symbolic")))
    real, ratio, coeff = _stream_parts(tag)
    period = draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    modes = [
        [
            (ratio(s, k), tuple(coeff(c, atom) for c in cs))
            for s, k, cs, atom in draw(st.lists(
                st.tuples(st.sampled_from((1, -1)), st.integers(1, 3),
                          st.lists(ints, min_size=1, max_size=3), st.booleans()),
                max_size=3,
            ))
        ]
        for _ in range(period)
    ]
    return EGSeq(real, period, modes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_decaying_streams(), st.integers(0, 6))
def test_tails_telescope(seq, start):
    Q = seq.period
    # tail(n) - tail(N) = sum_{n < l <= N} value(l) for n < N <= n + 3Q
    tail = seq.tail_sum()
    n = tail.dom_min + start
    acc = seq.real.zero
    for N in range(n + 1, n + 3 * Q + 1):
        acc = acc + seq.value(N)
        assert tail.value(n) - tail.value(N) == acc


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_decaying_streams(), st.data())
def test_ratio_one_mode_is_not_summable(seq, data):
    # a ratio-1 mode in any residue refuses the tail with the same
    # message, even with other modes around it
    one = seq.real.from_locrat(LR_ONE)
    r = data.draw(st.integers(0, seq.period - 1))
    modes = [list(m) for m in seq.modes]
    modes[r].insert(data.draw(st.integers(0, len(modes[r]))), (one, (seq.real.one,)))
    stuck = EGSeq(seq.real, seq.period, modes, seq.dom_min)
    with pytest.raises(TailNotSummable, match="^geometric ratio 1 has no summable tail$"):
        stuck.tail_sum()


def test_tail_sum_refuses_at_the_first_unsummable_mode():
    # residues and modes are read in order, so the first of a ratio-1 mode
    # and a ratio whose 1 - ratio is no unit (1 - 3 = -2) names the refusal
    real = symbolic_realization()
    one, three = (LR_ONE, (real.one,)), (LocRat.from_int(3), (real.one,))
    decay = (LocRat.L(-1), (real.one,))
    for modes, message in (
        ([[decay, one], [three]], "geometric ratio 1 has no summable tail"),
        ([[decay], [three, one]], "1 - ratio is not invertible: -2"),
        ([[decay, three], [one]], "1 - ratio is not invertible: -2"),
    ):
        with pytest.raises(TailNotSummable, match="^%s$" % message):
            EGSeq(real, 2, modes).tail_sum()


def _count_inverses(monkeypatch):
    calls = [0]
    inverse = LocRat.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(LocRat, "inverse", counted)
    return calls


def test_tail_tables_are_built_once_per_ratio(monkeypatch):
    # each later axis of (x^2, y^3, z^5) has one ratio, L^-1, over 3 and 5
    # residues: phi_inv inverts 1 - L^-1 once per stream
    block = multizeta_separable(("x^2", "y^3", "z^5"), symbolic_realization())
    calls = _count_inverses(monkeypatch)
    block.phi_inv()
    assert calls[0] == 2


def test_tail_table_depth_covers_every_mode_of_its_ratio(monkeypatch):
    # value(2t) = 3 L^-t + 2 (-L^-2)^t, value(2t + 1) = (1 + 4t) L^-t: two
    # ratios, and the degree-1 mode of L^-1 comes after its degree-0 mode,
    # so the one table of L^-1 must reach degree 1.  At L = q the tail is
    # the exact geometric sum
    # sum_{t>=a} rho^t = rho^a/(1-rho), sum_{t>=a} t rho^t = rho^a (a/(1-rho) + rho/(1-rho)^2).
    real = symbolic_realization()
    r1, r2 = LocRat.L(-1), -LocRat.L(-2)
    seq = EGSeq(real, 2, [[(r1, (real.one.scale(3),)), (r2, (real.one.scale(2),))],
                          [(r1, (real.one, real.one.scale(4)))]])
    calls = _count_inverses(monkeypatch)
    tail = seq.tail_sum()
    assert calls[0] == 2

    def geometric(rho, a, deg):
        if deg == 0:
            return rho**a / (1 - rho)
        return rho**a * (a / (1 - rho) + rho / (1 - rho) ** 2)

    for q in (2, 3, 7):
        p1, p2 = Fraction(1, q), Fraction(-1, q * q)
        for n in range(0, 9):
            a0, a1 = n // 2 + 1, (n + 1) // 2  # first t with 2t > n, 2t + 1 > n
            want = (3 * geometric(p1, a0, 0) + 2 * geometric(p2, a0, 0)
                    + geometric(p1, a1, 0) + 4 * geometric(p1, a1, 1))
            ((factors, _aug, total),) = tail.value(n).terms
            assert factors == () and total.eval_at(q) == want
