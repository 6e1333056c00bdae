"""Jet loci and zeta series: counting routes, splits, resolution evaluators."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brute import (
    direct_pair_counts,
    fermat_affine_brute,
    jet_count_direct,
    lattice_sum,
    monomial_pair_brute,
    mono_exact_count,
    mono_ordgt_count,
    multizeta_direct,
    validate_cone,
)
from motzeta import zeta
from motzeta.egseq import EGSeq
from motzeta.errors import (
    BudgetExceeded,
    ConeNotDecomposed,
    FitFailed,
    MotzetaError,
    VariableMismatch,
)
from motzeta.geomset import GeomSet, WorkMeter, fermat_pair, mu_n, twisted_count
from motzeta.locring import LaurentPoly, LocRat
from motzeta.motclass import Atom, Binding, SymbolicClass, bind_and_count, conv, conv0, conv1
from motzeta.poly import Poly, parse_poly
from motzeta.realize import count_realization, symbolic_realization
from motzeta.series import (
    CellSpec,
    ClosedSeries,
    SeparableSeries,
    Strand,
    TruncSeries,
    closed_from_fit,
    expand_chains,
    hadamard_conv,
    hadamard_ext,
    monomial_substitute,
    project,
    series_from_dict,
    series_from_json,
    series_to_dict,
    series_to_json,
    strand_fit,
    v_hadamard,
)
from motzeta.zeta import (
    AxisCounts,
    ConePieces,
    ResolutionData,
    Stratum,
    diagonal_closed,
    dl_eval,
    fermat_affine_counts,
    histogram_pair_counts,
    jet_set,
    monomial_pair_counts,
    multizeta_separable,
    multizeta_trunc,
    nearby_cycles,
    parse_resolution,
    shape_exponent,
    standard_atom_sets,
    sum_zeta_pullback,
    zeta_closed,
    zeta_trunc,
)

X = parse_poly("x")
X2 = parse_poly("x^2")
X3 = parse_poly("x^3")
Y = parse_poly("y")
Y3 = parse_poly("y^3")
XY = parse_poly("x + y")


# ---------------------------------------------------------------------------
# jet loci
# ---------------------------------------------------------------------------


def test_jet_count_linear_is_one():
    # phi = c1 t + ... + cn t^n with phi = t^n exactly: all digits pinned.
    for n in (1, 2, 3, 4):
        assert twisted_count(jet_set(X, n), 7) == 1
        assert twisted_count(jet_set(X, n), 5) == 1


def test_untwisted_counts_at_levels_divisible_by_q():
    # the s=0 sector needs no roots of unity, even when q divides the level
    assert twisted_count(jet_set(X, 7), 7) == 1
    assert twisted_count(jet_set(parse_poly("x^2 + x^3"), 14), 7) == 2 * 7**7
    with pytest.raises(MotzetaError, match="q=7.*N=7"):
        twisted_count(jet_set(X2, 7), 7, g_exp=1)


def test_jet_count_square():
    # phi^2 = t^2 exactly at level 2: c1^2 = 1, c2 free.
    assert twisted_count(jet_set(X2, 2), 5) == 10
    assert twisted_count(jet_set(X2, 2), 7) == 14
    # odd target order is unreachable for a square
    assert twisted_count(jet_set(X2, 3), 5) == 0
    assert twisted_count(jet_set(X2, 3), 7) == 0


def test_jet_closed_forms_match_enumeration():
    for a, n, q in [(1, 3, 5), (2, 2, 5), (2, 4, 5), (3, 3, 7), (2, 3, 7), (3, 6, 7)]:
        f = Poly.var("x", a)
        want = mono_exact_count(a, n, q, n)
        assert twisted_count(jet_set(f, n), q) == want
        assert jet_count_direct(f, n, q) == want
        assert jet_count_direct(f, n, q, target="ordgt") == mono_ordgt_count(a, n, q, n)


def test_jet_level_padding():
    # one free coordinate per level above the constrained depth: a count at
    # level m is the own-level count times q^(d(m-n)), which is why each
    # axis of a family can be normalized at its own level
    assert jet_count_direct(X2, 2, 5, level=4) == 10 * 25 == mono_exact_count(2, 2, 5, 4)
    assert jet_count_direct(X2, 2, 5, level=4, target="ordgt") == mono_ordgt_count(2, 2, 5, 4)
    f = parse_poly("x^2 + x*y")
    ax = AxisCounts(f, 3)
    for n, level in ((1, 3), (2, 3), (2, 4)):
        assert jet_count_direct(f, n, 3, level=level) == ax.exact(n) * 3 ** (2 * (level - n))
        assert jet_count_direct(f, n, 3, level=level, target="ordgt") == ax.ordgt(n) * 3 ** (
            2 * (level - n)
        )


def test_linear_sum_jets_are_sector_blind():
    # a sum of distinct coordinates imposes n independent linear conditions,
    # in every twisted sector alike
    for n in (2, 3):
        gs = jet_set(XY, n)
        for s in range(n):
            assert twisted_count(gs, 5, s) == 5**n
            assert twisted_count(gs, 7, s) == 7**n


def test_jet_sets_carry_good_actions():
    for f, n in [(X, 3), (X2, 2), (X2, 4), (XY, 2), (X3, 3)]:
        assert jet_set(f, n).check_action_invariance()
        assert jet_set(f, n, exact=False).check_action_invariance()


# (germ, shape_exponent symbolically, at q=3, at q=5): a coordinate change
# fixing the origin carries a smooth germ onto x, and x^a u(x) with
# u(0) = 1 and a prime to q onto x^a (x -> x u(x)^(1/a))
SHAPE_TABLE = [
    ("x^2", 2, 2, 2),
    ("x^3", 3, None, 3),
    ("x", 1, 1, 1),
    ("3*x", 1, None, 1),
    ("x + y", 1, 1, 1),
    ("2*x + 3*y + z", 1, 1, 1),
    # smooth: some degree-one coefficient prime to q
    ("x + y^2", 1, 1, 1),
    ("x + x^2", 1, 1, 1),
    ("x^2 - x", 1, 1, 1),
    ("3*x + 5*y + x*y", 1, 1, 1),
    ("5*x + 5*y", 1, 1, None),
    ("5*x + x^2", 1, 1, None),
    # one variable, lowest term x^a with coefficient 1
    ("x^2 + x^3", 2, 2, 2),
    ("x^2 - 4*x^5", 2, 2, 2),
    ("x^3 + x^4", 3, None, 3),
    ("x^5 + 2*x^6", 5, 5, None),
    # none of the rules: a lowest coefficient other than 1 with a >= 2, a
    # nonzero constant, no linear part in two or more variables
    ("2*x^2", None, None, None),
    ("2*x^2 + x^3", None, None, None),
    ("1 + x", None, None, None),
    ("x*y", None, None, None),
    ("x^2 + y^3 + x*y^2", None, None, None),
    ("x^2 + y^2", None, None, None),
]


def test_shape_exponent():
    for f, sym, at3, at5 in SHAPE_TABLE:
        assert (shape_exponent(f), shape_exponent(f, 3), shape_exponent(f, 5)) == (sym, at3, at5), f


@pytest.mark.parametrize("q", [0, 1, 4, -5, 1.5, 7.0, "7", True, (5,)], ids=repr)
def test_shape_exponent_refuses_q(q):
    # q is None (symbolic) or a prime; anything else names q
    with pytest.raises(MotzetaError, match=re.escape("shape_exponent q must be None or a prime, not %r" % (q,))):
        shape_exponent("x + y", q)


# ---------------------------------------------------------------------------
# the brute-force oracle
# ---------------------------------------------------------------------------


def test_jet_table_budget_guard():
    with pytest.raises(BudgetExceeded):
        jet_count_direct(X2, 8, 7, budget=100)


# ---------------------------------------------------------------------------
# pair splits for f(phi) + g(psi) = t^n
# ---------------------------------------------------------------------------

PAIR_CASES = [
    (1, 1, 2, 5),
    (1, 2, 2, 5),
    (2, 2, 2, 5),
    (2, 2, 2, 7),
    (2, 2, 3, 5),
    (2, 2, 4, 7),
    (2, 3, 6, 5),
    (2, 3, 6, 7),
    (3, 3, 3, 7),
    (3, 3, 6, 5),
]
# past the brute-force oracle's jet space: checked against the closed counts
DEEP_PAIR_CASES = [(2, 3, 12, 7), (2, 2, 10, 5), (3, 3, 9, 7)]


def _pair_polys(a, b):
    return Poly.var("x", a), Poly.var("y", b)


@pytest.mark.parametrize("a,b,n,q", PAIR_CASES + DEEP_PAIR_CASES)
def test_pair_routes_agree(a, b, n, q):
    f, g = _pair_polys(a, b)
    hist = histogram_pair_counts(f, g, n, q)
    routes = [monomial_pair_counts(a, b, n, q)]
    if (a, b, n, q) in PAIR_CASES:
        routes.append(direct_pair_counts(f, g, n, q))
    for key in ("total", "A1", "A2", "A3", "A3_by_l", "Bpair"):
        for other in routes:
            assert hist[key] == other[key], (key, a, b, n, q)
    assert hist["total"] == hist["A1"] + hist["A2"] + hist["A3"]


def test_pair_routes_agree_generic_shape():
    cases = [
        ("x^2 + x^3", "y^3", (2, 3, 4)),
        ("x^2 + x^3", "3*y*z", (1, 2, 3)),
        # constants that cancel mod 5: the sum is x^2 + y^2
        ("1 + x^2", "4 + y^2", (1, 2, 3, 4)),
        # constants that do not: no pair hits t^n
        ("1 + x^2", "1 + y^2", (1, 2, 3, 4)),
    ]
    for f, g, ns in cases:
        for n in ns:
            hist = histogram_pair_counts(f, g, n, 5)
            direct = direct_pair_counts(f, g, n, 5)
            assert hist == direct, (f, g, n)
            if g == "1 + y^2":
                assert not any(hist.values()), n
    assert histogram_pair_counts("1 + x^2", "4 + y^2", 4, 5)["total"] == 7500


def test_fermat_affine_counts_match_brute_force():
    for q in (2, 3, 5, 7, 13):
        for a in range(1, 7):
            for b in range(1, 7):
                assert fermat_affine_counts(a, b, q) == fermat_affine_brute(a, b, q), (a, b, q)


def test_split_values_square_pair():
    # both orders at n=2: leading coefficients solve u^2 + v^2 = 1;
    # mixed orders: one side pinned to t^2, the other of order > 2
    out = monomial_pair_counts(2, 2, 2, 7)
    f1 = fermat_affine_brute(2, 2, 7)[1]
    assert out["A1"] == f1 * 7**2
    assert out["A2"] == 4 * 7**2
    assert out["A3"] == 0
    assert out["total"] == 8 * 49


def test_split_values_common_lower_order():
    # (2,3) at n=6 admits a common order l=6k < n only at l divisible by 6;
    # at n=6 the A3 bucket is empty but at n=12 it is not
    out = monomial_pair_counts(2, 3, 12, 7)
    f0 = fermat_affine_brute(2, 3, 7)[0]
    assert out["A3_by_l"] == {6: f0 * 7 ** (12 + 6 - 3 - 2)}
    assert out["A3"] == out["A3_by_l"][6]


@st.composite
def _closed_pairs(draw):
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    q = draw(st.sampled_from([p for p in (2, 3, 5, 7, 11, 13) if math.gcd(a * b, p) == 1]))
    return a, b, q, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_closed_pairs())
@example((2, 3, 7, 40))
@example((5, 5, 11, 40))
def test_pair_level_stream_matches_the_closed_counts(case):
    # every level of the running sums equals its counts computed on their
    # own, and so do monomial_pair_counts and the strata split series
    a, b, q, D = case
    levels = list(zeta._monomial_pair_levels(a, b, D, q))
    total, parts = sum_zeta_pullback(Poly.var("x", a), Poly.var("y", b), D, count_realization(q), split=True)
    assert len(levels) == D
    for n, level in enumerate(levels, 1):
        want = monomial_pair_brute(a, b, n, q)
        assert monomial_pair_counts(a, b, n, q) == want, n
        assert level == tuple(want[k] for k in zeta._PAIR_KEYS), n
        assert total.coeff((n,)) == Fraction(want["total"], q ** (2 * n)), n
        for k, part in parts.items():
            assert part.coeff((n,)) == Fraction(want[k], q ** (2 * n)), (k, n)


def test_strata_pullback_checks_q_once(monkeypatch):
    # the strata route reads all D levels from one stream: the prime check
    # and the Fermat triple run once per call, not once per level
    calls = {}
    for name in ("_require_prime", "fermat_affine_counts"):
        def counted(*args, _name=name, _fn=getattr(zeta, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(zeta, name, counted)
    for split in (False, True):
        calls.clear()
        sum_zeta_pullback(X2, Y3, 60, count_realization(7), split=split)
        assert calls == {"_require_prime": 1, "fermat_affine_counts": 1}, split


# ---------------------------------------------------------------------------
# leading-coefficient convolutions and tail sums
# ---------------------------------------------------------------------------


def _leading_locus(tag, a, n):
    """Jets phi with phi^a = t^n + ...: the leading coefficient satisfies
    u^a = 1 and rescaling t by an n-th root of unity scales u by zeta^{n/a}."""
    gs = GeomSet(("u",), (Poly.var("u", a) - 1,), ("u",), n, (n // a,))
    return SymbolicClass.from_atom(Atom(tag, n)), gs


LEMMA_CASES = [
    (1, 1, 7, 1),
    (1, 2, 5, 2),
    (2, 2, 5, 2),
    (2, 2, 5, 4),
    (2, 2, 7, 2),
    (2, 2, 13, 2),
    (2, 3, 7, 6),
    (3, 3, 7, 3),
    # order-12 action at q=13: twist exponents modulo K = 144
    (2, 3, 13, 12),
]


@pytest.mark.parametrize("a,b,q,n", LEMMA_CASES)
def test_convolutions_match_fermat_counts(a, b, q, n):
    A, gs_a = _leading_locus("lf", a, n)
    B, gs_b = _leading_locus("lg", b, n)
    binding = Binding({"lf": gs_a, "lg": gs_b}, q)
    f0, f1, _ = fermat_affine_brute(a, b, q)
    assert bind_and_count(conv0(A, B), binding) == f0
    assert bind_and_count(conv1(A, B), binding) == f1


def _tail_stream(real, deg, q):
    # l -> q^{-l/deg} on multiples of deg, zero elsewhere
    return EGSeq.single_residue(
        real, deg, 0, Fraction(1, q), Fraction(1)
    ).tail_sum()


@pytest.mark.parametrize("a,b,q,n", [(2, 2, 7, 2), (2, 2, 5, 4), (2, 3, 7, 6), (3, 3, 7, 3)])
def test_mixed_order_split_is_a_tail_sum(a, b, q, n):
    # A2 pairs pin one side to t^n exactly while the other side has order
    # beyond n; summing the exact-order measure over all higher orders
    # reproduces the same mass.
    real = count_realization(q)
    out = monomial_pair_counts(a, b, n, q)
    a_n = Fraction(mono_exact_count(a, n, q, n), q**n) if n % a == 0 else Fraction(0)
    b_n = Fraction(mono_exact_count(b, n, q, n), q**n) if n % b == 0 else Fraction(0)
    tail_a = _tail_stream(real, a, q).value(n)
    tail_b = _tail_stream(real, b, q).value(n)
    lhs = Fraction(out["A2"], q ** (2 * n))
    assert lhs == (q - 1) * (a_n * tail_b + tail_a * b_n)


def test_order_beyond_mass_closes():
    # sum_{l > n} (q-1) q^{-l/deg} over multiples of deg equals q^{-floor(n/deg)}
    real = count_realization(7)
    for deg in (1, 2, 3):
        tail = _tail_stream(real, deg, 7)
        for n in range(1, 9):
            assert (7 - 1) * tail.value(n) == Fraction(1, 7 ** (n // deg))


# ---------------------------------------------------------------------------
# per-axis counts
# ---------------------------------------------------------------------------


def _xy_counts(n, q):
    """Closed counts of x*y at level n: (exact hits, order beyond n).  A jet
    of order i <= n takes (q-1) q^(n-i) values, the zero jet (order n+1)
    one; a hit pairs orders i + j = n with leading coefficients of product 1."""
    by_order = [(q - 1) * q ** (n - i) for i in range(1, n + 1)] + [1]
    ordgt = sum(
        ci * cj
        for i, ci in enumerate(by_order, 1)
        for j, cj in enumerate(by_order, 1)
        if i + j > n
    )
    return (n - 1) * (q - 1) * q**n, ordgt


def test_axis_routes_agree():
    # the DFS counts of recognized shapes and of other germs against the
    # brute-force enumeration of tests/brute.py
    cases = [
        (X2, 5, 5, 2),
        (X3, 7, 4, 3),
        (XY, 5, 3, 1),
        (parse_poly("x^2 + x^3"), 5, 5, 2),
        (parse_poly("x + y^2"), 3, 4, 1),
        (parse_poly("2*x^2 + x^3"), 7, 4, None),
        (parse_poly("x*y"), 3, 4, None),
    ]
    for f, q, top, a in cases:
        assert shape_exponent(f, q) == a
        ax = AxisCounts(f, q)
        for n in range(1, top + 1):
            assert ax.exact(n) == jet_count_direct(f, n, q), (f, n)
            assert ax.ordgt(n) == jet_count_direct(f, n, q, target="ordgt"), (f, n)
    # past the oracle's jet space, DFS counts against closed forms: x^2 + x^3
    # is x^2 after the change of coordinate x -> x (1 + x)^(1/2), which is
    # why shape_exponent gives it the closed stream of x^2
    ax = AxisCounts("x^2 + x^3", 7)
    xy = AxisCounts("x*y", 5)
    for n in range(1, 13):
        assert ax.exact(n) == mono_exact_count(2, n, 7, n)
        assert ax.ordgt(n) == mono_ordgt_count(2, n, 7, n)
        assert (xy.exact(n), xy.ordgt(n)) == _xy_counts(n, 5)


@pytest.mark.parametrize(
    "f, q, level",
    [
        ("x + y^2", 5, 3),  # linear terms: every new digit moves c_{j+1}
        ("1 + x^2", 5, 4),  # nonzero constant term: every count is 0
        ("x^3", 3, 6),  # exponent divisible by q
        ("x^2 + y^3 + x*y^2", 3, 4),
    ],
)
def test_axis_sweep_matches_direct_and_table(f, q, level):
    # DFS counts, at their own level and padded by one factor q per free
    # digit up to `level`, against the brute-force enumeration
    f = parse_poly(f)
    ax = AxisCounts(f, q)
    pad = lambda n: q ** (len(f.vars) * (level - n))
    for n in range(1, level + 1):
        assert ax.exact(n) == jet_count_direct(f, n, q)
        assert ax.ordgt(n) == jet_count_direct(f, n, q, target="ordgt")
        assert ax.exact(n) * pad(n) == jet_count_direct(f, n, q, level=level)
        assert ax.ordgt(n) * pad(n) == jet_count_direct(f, n, q, level=level, target="ordgt")


def test_axis_sweep_resumes():
    # the expansion grows with the deepest level asked and counts are kept
    # per (kind, n): the order of the queries does not change a count
    f = parse_poly("x^2 + y^3 + x*y^2")
    ax = AxisCounts(f, 3)
    for kind, n in (("ordgt", 3), ("exact", 4), ("exact", 2), ("ordgt", 1), ("exact", 4)):
        assert getattr(ax, kind)(n) == jet_count_direct(f, n, 3, target=kind), (kind, n)


def test_axis_sweep_budget_guard():
    # x^2 + x^3 at q=5: the DFS spends no candidate at levels 1-2, 5 at
    # level 4 and 15 at level 8, against the one meter it is given
    ax = AxisCounts("x^2 + x^3", 5, meter=WorkMeter(10))
    assert ax.exact(2) == mono_exact_count(2, 2, 5, 2)
    assert ax.exact(4) == mono_exact_count(2, 4, 5, 4)
    with pytest.raises(BudgetExceeded, match="level 8 exceeded the budget of 10 candidates"):
        ax.exact(8)


def test_axis_generic_demotion():
    # an exponent sharing a factor with q has no closed form: the DFS counts it
    assert shape_exponent(X3, 3) is None
    ax = AxisCounts(X3, 3)
    for n in range(1, 7):
        assert ax.exact(n) == jet_count_direct(X3, n, 3)
        assert ax.ordgt(n) == jet_count_direct(X3, n, 3, target="ordgt")


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------


def test_zeta_trunc_counts():
    z = zeta_trunc(X2, 8, count_realization(7))
    assert z.support() == [(2,), (4,), (6,), (8,)]
    for k in (1, 2, 3, 4):
        assert z.coeff((2 * k,)) == Fraction(2, 7**k)


def test_zeta_trunc_rejects_unknown_base():
    with pytest.raises(MotzetaError, match="'origin' or 'global', not 'free'"):
        zeta_trunc(X2, 8, count_realization(7), base="free")


R7 = count_realization(7)
RES = [{"I": ["E"], "atom": "mu2", "N": [[2]], "nu": [1]}]
RES2 = [{"I": ["E1"], "N": [[1, 0]], "nu": [1]}, {"I": ["E2"], "N": [[0, 1]], "nu": [1]}]
ONES7 = EGSeq.constant(R7, Fraction(1))
COUNT7 = {"tag": "count", "q": 7}
TWO_FACTORS7 = ClosedSeries(R7, ("T",), [Strand(Fraction(1), (0,), [(-1, (1,)), (-1, (2,))])])
A2_A3 = TruncSeries(
    symbolic_realization(),
    ("T",),
    3,
    {(1,): SymbolicClass.from_atom(Atom("a", 2)), (2,): SymbolicClass.from_atom(Atom("a", 3))},
)
ONE_DATA = {"num": [[0, 1]], "den": []}


def _symbolic_entry(coeff):
    return series_from_dict({"realization": {"tag": "symbolic"}, "vars": ["T"], "mode": "trunc",
                             "bound": 2, "entries": [{"exp": [1], "coeff": coeff}]})


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 4, R7, mode="direct"),
                     "mode must be 'auto', 'strata' or 'hist', not 'direct'", id="pullback-mode"),
        pytest.param(lambda: sum_zeta_pullback("2*x^2+x^3", "y^2", 2, count_realization(5), mode="strata"),
                     "summand x^3 + 2*x^2 is not one at q=5", id="pullback-strata-generic"),
        pytest.param(lambda: sum_zeta_pullback("x^3", "y^2", 3, count_realization(3), mode="strata"),
                     "summand x^3 is not one at q=3", id="pullback-strata-exponent"),
        pytest.param(lambda: dl_eval(RES, R7, cone=5),
                     "cone must be a ConePieces or a per-stratum list of them, not 5", id="dl-cone"),
        pytest.param(lambda: dl_eval(RES, R7, cone=[None, None]),
                     "cone lists 2 strata for 1", id="dl-cone-strata"),
        pytest.param(lambda: dl_eval(RES, R7, binding={}),
                     "binding must be a motclass.Binding at q=7, not {}", id="dl-binding"),
        pytest.param(lambda: Stratum(("E",), None, ((0,),), (1,)),
                     "Stratum N: every member needs a positive multiplicity", id="stratum-N"),
        pytest.param(lambda: Stratum(("E",), None, ((1,),), (0,)),
                     "Stratum nu: twist must be >= 1, not 0", id="stratum-nu"),
        pytest.param(lambda: ResolutionData([]),
                     "ResolutionData strata: need at least one stratum", id="resolution-strata"),
        pytest.param(lambda: jet_set(X2, 0), "jet order n must be >= 1, not 0", id="jet-order"),
        pytest.param(lambda: jet_set(X2, 2.5), "jet order n must be an int, not 2.5", id="jet-order-float"),
        pytest.param(lambda: jet_set(X2, "3"), "jet order n must be an int, not '3'", id="jet-order-str"),
        pytest.param(lambda: jet_set(X2, True), "jet order n must be an int, not True", id="jet-order-bool"),
        pytest.param(lambda: AxisCounts(X2, 5).exact(2.0), "jet order n must be an int, not 2.0",
                     id="axis-level-float"),
        pytest.param(lambda: histogram_pair_counts(X2, Y3, 2.5, 5), "jet order n must be an int, not 2.5",
                     id="pair-counts-level-float"),
        pytest.param(lambda: zeta_trunc("x^2", 2.5, R7), "truncation bound must be an int, not 2.5",
                     id="zeta-bound-float"),
        pytest.param(lambda: zeta_trunc("x^2", "3", R7), "truncation bound must be an int, not '3'",
                     id="zeta-bound-str"),
        pytest.param(lambda: TruncSeries(R7, ("T",), True), "truncation bound must be an int, not True",
                     id="trunc-bound-bool"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 2.5, R7), "truncation bound must be an int, not 2.5",
                     id="pullback-bound-float"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 2.5, R7, mode="hist", split=True),
                     "truncation bound must be an int, not 2.5", id="pullback-split-bound-float"),
        pytest.param(lambda: multizeta_trunc((), 4, R7),
                     "the family fs needs at least one function", id="multizeta-empty"),
        pytest.param(lambda: multizeta_separable((), R7),
                     "the family fs needs at least one function", id="separable-empty"),
        pytest.param(lambda: monomial_pair_counts(3, 2, 3, 3),
                     "exponent a=3 must be prime to q=3", id="pair-exponent"),
        pytest.param(lambda: monomial_pair_counts(-2, 3, 4, 7),
                     "monomial_pair_counts: a must be >= 1, not -2", id="pair-a"),
        pytest.param(lambda: monomial_pair_counts(2, 0, 4, 7),
                     "monomial_pair_counts: b must be >= 1, not 0", id="pair-b"),
        pytest.param(lambda: monomial_pair_counts(2, 3, 0, 7),
                     "monomial_pair_counts: n must be >= 1, not 0", id="pair-level"),
        pytest.param(lambda: monomial_pair_counts(2.0, 3, 4, 7),
                     "monomial_pair_counts: a must be an int, not 2.0", id="pair-a-int"),
        pytest.param(lambda: monomial_pair_counts(2, 3, True, 7),
                     "monomial_pair_counts: n must be an int, not True", id="pair-level-bool"),
        pytest.param(lambda: monomial_pair_counts(2, 3, 4, 7.0),
                     "monomial_pair_counts needs a prime q, got 7.0", id="pair-q-int"),
        pytest.param(lambda: AxisCounts(X2, 7.5), "AxisCounts needs a prime q, got 7.5", id="axis-q-int"),
        pytest.param(lambda: AxisCounts(X2, True), "AxisCounts needs a prime q, got True", id="axis-q-bool"),
        pytest.param(lambda: validate_cone(ConePieces(()), lambda p: False, 3),
                     "dim is needed when there are no pieces", id="validate-dim"),
        pytest.param(lambda: dl_eval(RES2, R7, cone=ConePieces(((((1, 0, 0),), (True,)),))),
                     "stratum 0 (E1): generators need one entry per member, 1", id="dl-cone-width"),
        pytest.param(lambda: parse_resolution([{"I": ["E"], "N": [[1]]}]),
                     "parse_resolution: stratum 0 has no 'nu'", id="resolution-key"),
        pytest.param(lambda: Stratum(("E",), None, (("a",),), (1,)),
                     "Stratum N: multiplicity must be an int, not 'a'", id="stratum-N-int"),
        pytest.param(lambda: Stratum(("E",), None, ((1,),), ("b",)),
                     "Stratum nu: twist must be an int, not 'b'", id="stratum-nu-int"),
        pytest.param(lambda: zeta_trunc(X2, 4, count_realization(5)).add(zeta_trunc(X2, 4, R7)),
                     "operands live over different realizations: count at q=5 vs count at q=7",
                     id="add-realization"),
        pytest.param(lambda: v_hadamard(zeta_trunc(X2, 4, count_realization(5)), zeta_trunc(Y3, 4, R7)),
                     "operands live over different realizations: count at q=5 vs count at q=7",
                     id="v-hadamard-realization"),
        pytest.param(lambda: EGSeq.single_residue(count_realization(5), 1, 0, Fraction(1, 5), Fraction(1))
                     .add(EGSeq.single_residue(R7, 1, 0, Fraction(1, 7), Fraction(1))),
                     "sequences live over different realizations", id="egseq-add-realization"),
        pytest.param(lambda: GeomSet(("x",), weights=(1, 2)),
                     "GeomSet weights: 2 weights for 1 coords", id="geomset-weights"),
        pytest.param(lambda: GeomSet(("x",), (parse_poly("x*y"),)),
                     "GeomSet equations mention unknown coords ['y']", id="geomset-equations"),
        pytest.param(lambda: GeomSet(("x",), (), ("z",)),
                     "GeomSet nonzero names unknown coords ['z']", id="geomset-nonzero"),
        pytest.param(lambda: TruncSeries(R7, ("T",), 3, {(-1,): Fraction(1)}),
                     "TruncSeries entries: exponent must be >= 0, not -1", id="trunc-negative-exponent"),
        pytest.param(lambda: hadamard_conv(zeta_trunc(X2, 4, R7), zeta_trunc(X2, 4, R7)),
                     "hadamard_conv operands must have class coefficients, not count at q=7",
                     id="hadamard-conv-counted"),
        pytest.param(lambda: hadamard_ext(ClosedSeries(R7, ("T",)), TruncSeries(R7, ("T",), 3)),
                     "Hadamard operands must both be closed or both truncated, not ClosedSeries and TruncSeries",
                     id="hadamard-mixed"),
        pytest.param(lambda: EGSeq(R7, 0, []), "EGSeq period must be >= 1, not 0", id="egseq-period"),
        pytest.param(lambda: EGSeq.constant(R7, Fraction(1)).value(0),
                     "EGSeq value: n=0 is below the domain start dom_min=1", id="egseq-domain"),
        pytest.param(lambda: EGSeq.single_residue(R7, 2, 0, Fraction(1, 7), Fraction(1)).re_period(3),
                     "EGSeq re_period: new_period=3 is not a multiple of the period 2", id="egseq-re-period"),
        pytest.param(lambda: Strand(Fraction(1), (-1,), []),
                     "Strand b: monomial exponent must be >= 0, not -1", id="strand-b"),
        pytest.param(lambda: Strand(Fraction(1), (0,), [(0, (0,))]),
                     "Strand factors: exponent vector [0] must be nonzero and nonnegative", id="strand-factors"),
        pytest.param(lambda: SeparableSeries(R7, ("x",), (), ()),
                     "SeparableSeries streams: need at least one stream", id="separable-slots"),
        pytest.param(lambda: SeparableSeries(R7, ("x",), ((0,),), (ONES7,)),
                     "SeparableSeries masks: [0] must be nonzero and nonnegative", id="separable-zero-mask"),
        pytest.param(lambda: SeparableSeries(R7, ("x",), ((-1,),), (ONES7,)),
                     "SeparableSeries masks: [-1] must be nonzero and nonnegative", id="separable-negative-mask"),
        pytest.param(lambda: CellSpec((0, 0), (2,)),
                     "CellSpec order: [0, 0] is not a permutation of the axes", id="cellspec-order"),
        pytest.param(lambda: CellSpec((0, 1), (1,)),
                     "CellSpec breaks: [1] must end at the axis count 2", id="cellspec-breaks"),
        pytest.param(lambda: series_from_dict({}),
                     "series_from_dict: the dict has no 'realization'", id="from-dict-realization"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "mode": "trunc"}),
                     "series_from_dict: the dict has no 'vars'", id="from-dict-vars"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": ["T"], "mode": "open"}),
                     "series_from_dict mode must be 'trunc' or 'closed', not 'open'", id="from-dict-mode"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": ["T"], "mode": "trunc", "bound": 2}),
                     "series_from_dict: the dict has no 'entries'", id="from-dict-entries"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": ["T"], "mode": "trunc",
                                               "bound": 2, "entries": [5]}),
                     "series_from_dict entries: expected a dict, not 5", id="from-dict-entry"),
        pytest.param(lambda: series_from_dict({"realization": {"tag": "count"}, "vars": ["T"], "mode": "closed"}),
                     "series_from_dict realization: the dict has no 'q'", id="from-dict-q"),
        pytest.param(lambda: series_from_dict({"realization": {"tag": "p"}, "vars": ["T"], "mode": "closed"}),
                     "series_from_dict realization: tag must be 'count' or 'symbolic', not 'p'",
                     id="from-dict-tag"),
        pytest.param(lambda: _symbolic_entry([{"aug": False, "coeff": ONE_DATA}]),
                     "series_from_dict term: the dict has no 'factors'", id="from-dict-term-factors"),
        pytest.param(lambda: _symbolic_entry([{"factors": [{"atom": "a", "base": "pt", "aug": False}],
                                               "aug": False, "coeff": ONE_DATA}]),
                     "series_from_dict atom: the dict has no 'order'", id="from-dict-atom-order"),
        pytest.param(lambda: _symbolic_entry([{"factors": [{"atom": "a", "order": 0, "base": "pt", "aug": False}],
                                               "aug": False, "coeff": ONE_DATA}]),
                     "Atom 'a' order must be >= 1, not 0", id="from-dict-atom-order-zero"),
        pytest.param(lambda: _symbolic_entry([{"factors": [{"conv": 2, "left": [], "right": [], "aug": False}],
                                               "aug": False, "coeff": ONE_DATA}]),
                     "series_from_dict conv: kind must be 0 or 1, not 2", id="from-dict-conv-kind"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False,
                                               "coeff": {"num": [[0, 1]], "den": [0]}}]),
                     "LocRat den: n of a factor (1-L^n) must be >= 1, not 0", id="from-dict-den"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": ["T"], "mode": "trunc", "bound": 2,
                                               "entries": [{"exp": [1], "coeff": "1/x"}]}),
                     "series_from_dict coeff: '1/x' is not a fraction", id="from-dict-fraction"),
        pytest.param(lambda: LocRat(1, (0,)), "LocRat den: n of a factor (1-L^n) must be >= 1, not 0",
                     id="locrat-den"),
        pytest.param(lambda: LaurentPoly.const(2) ** -1, "LaurentPoly power: exponent must be >= 0, not -1",
                     id="laurent-power"),
        pytest.param(lambda: LaurentPoly({1: 1}) ** 0.5, "LaurentPoly power: exponent must be an int, not 0.5",
                     id="laurent-power-float"),
        pytest.param(lambda: LaurentPoly({1: 1}) ** True, "LaurentPoly power: exponent must be an int, not True",
                     id="laurent-power-bool"),
        pytest.param(lambda: LocRat.L() ** 0.5, "LocRat power: exponent must be an int, not 0.5",
                     id="locrat-power-float"),
        pytest.param(lambda: LocRat.L() ** True, "LocRat power: exponent must be an int, not True",
                     id="locrat-power-bool"),
        pytest.param(lambda: LocRat(1, (2,)) ** -1.0, "LocRat power: exponent must be an int, not -1.0",
                     id="locrat-power-float-non-monomial"),
        pytest.param(lambda: X2 ** -1, "Poly power: exponent must be >= 0, not -1", id="poly-power"),
        pytest.param(lambda: hadamard_ext(TWO_FACTORS7, TWO_FACTORS7),
                     "closed Hadamard products cover single-factor monomial-free strands",
                     id="closed-hadamard"),
        pytest.param(lambda: hadamard_conv(A2_A3, A2_A3, kind=5),
                     "hadamard_conv kind must be None, 0 or 1, not 5", id="hadamard-conv-kind"),
        pytest.param(lambda: project(ONES7, 0), "project expects a TruncSeries or ClosedSeries, not EGSeq",
                     id="project-type"),
        pytest.param(lambda: series_to_dict(1), "series_to_dict expects a TruncSeries or ClosedSeries, not int",
                     id="to-dict-type"),
        pytest.param(lambda: standard_atom_sets(["mu0"]), "mu_n n must be >= 1, not 0",
                     id="atom-mu0"),
        pytest.param(lambda: standard_atom_sets(["mu²"]), "no builtin presentation for atom 'mu²'",
                     id="atom-mu-superscript"),
        pytest.param(lambda: zeta_trunc(X2, 4, count_realization(4)),
                     "a counted zeta series needs a prime q, got 4", id="zeta-prime"),
        pytest.param(lambda: zeta_closed("x^3", count_realization(4)),
                     "a counted zeta series needs a prime q, got 4", id="zeta-closed-prime"),
        pytest.param(lambda: multizeta_separable(("x^2", "y"), count_realization(9)),
                     "a counted zeta series needs a prime q, got 9", id="separable-prime"),
        pytest.param(lambda: ConePieces(((((1, 0), (1,)), (True, True)),)),
                     "piece 0: generators ((1, 0), (1,)) differ in length", id="cone-ragged"),
        pytest.param(lambda: ConePieces(((((1, 0),), (True,)), (((1, 1), (2, 2)), (True, True)))),
                     "piece 1: generators ((1, 1), (2, 2)) are linearly dependent", id="cone-parallel"),
        pytest.param(lambda: ConePieces(((((1, 0), (0, 1), (1, 1)), (True, True, False)),)),
                     "piece 0: generators ((1, 0), (0, 1), (1, 1)) are linearly dependent",
                     id="cone-too-many-generators"),
        pytest.param(lambda: validate_cone(ConePieces(((((1, 0),), (True,)),)), lambda p: False, 2, dim=3),
                     "piece 0: generators of length 2 in dimension 3", id="validate-dim-mismatch"),
        pytest.param(lambda: ConePieces(5), "ConePieces pieces: need a list of (generators, flags), not 5",
                     id="cone-pieces-type"),
        pytest.param(lambda: ConePieces([((1, 0),)]),
                     "piece 0: needs a (generators, flags) pair, not ((1, 0),)", id="cone-no-flags"),
        pytest.param(lambda: ConePieces([(5, (True,))]), "piece 0 generators: need integer vectors, not 5",
                     id="cone-gens-type"),
        pytest.param(lambda: ConePieces([(((1, 0),), 5)]), "piece 0 flags: need one flag per generator, not 5",
                     id="cone-flags-type"),
        pytest.param(lambda: Atom("mu2", 0), "Atom 'mu2' order must be >= 1, not 0", id="atom-order"),
        pytest.param(lambda: Atom("a", 2.5), "Atom 'a' order must be an int, not 2.5", id="atom-order-float"),
        pytest.param(lambda: Atom("a", True), "Atom 'a' order must be an int, not True",
                     id="atom-order-bool"),
        pytest.param(lambda: parse_resolution(5), "parse_resolution: need a list of strata, not 5",
                     id="resolution-type"),
        pytest.param(lambda: parse_resolution([5]), "parse_resolution: stratum 0 is not a dict: 5",
                     id="resolution-stratum-type"),
        pytest.param(lambda: parse_resolution([{"I": ["E"], "atom": {"order": 2}, "N": [[1]], "nu": [1]}]),
                     "parse_resolution: stratum 0: atom must be a name, a dict with a 'name' or null",
                     id="resolution-atom-name"),
        pytest.param(lambda: parse_resolution([{"I": ["E"], "atom": {"name": "a", "order": "x"},
                                                "N": [[1]], "nu": [1]}]),
                     "parse_resolution: stratum 0: Atom 'a' order must be an int, not 'x'",
                     id="resolution-atom-order"),
        pytest.param(lambda: dl_eval(5, R7), "parse_resolution: need a list of strata, not 5", id="dl-eval-type"),
        pytest.param(lambda: Stratum(("E",), None, 5, (1,)), "Stratum N: need a list, not 5", id="stratum-N-type"),
        pytest.param(lambda: Stratum(5, None, ((1,),), (1,)), "Stratum labels: need a list, not 5",
                     id="stratum-labels-type"),
        pytest.param(lambda: Stratum(("E",), "mu2", ((1,),), (1,)), "Stratum atom: need an Atom or None, not 'mu2'",
                     id="stratum-atom-type"),
        pytest.param(lambda: Stratum(("E",), None, ((1.5,),), (2,)), "Stratum N: multiplicity must be an int, not 1.5",
                     id="stratum-N-float"),
        pytest.param(lambda: Stratum(("E",), None, ((True,),), (2,)), "Stratum N: multiplicity must be an int, not True",
                     id="stratum-N-bool"),
        pytest.param(lambda: Stratum(("E",), None, ((1,),), (2.7,)), "Stratum nu: twist must be an int, not 2.7",
                     id="stratum-nu-float"),
        pytest.param(lambda: parse_resolution([{"I": ["E"], "N": [[1]], "nu": [1]}, {"I": ["F"], "N": [["1"]], "nu": [1]}]),
                     "parse_resolution: stratum 1: Stratum N: multiplicity must be an int, not '1'",
                     id="resolution-N-str"),
        pytest.param(lambda: ConePieces([(((1, 0),), (True,)), (((1.9, 0),), (True,))]),
                     "piece 1 generators: entry must be an int, not 1.9", id="cone-gens-float"),
        pytest.param(lambda: ConePieces([(((1, False),), (True,))]),
                     "piece 0 generators: entry must be an int, not False", id="cone-gens-bool"),
        pytest.param(lambda: ConePieces([(((1, 0),), ("no",))]),
                     "piece 0 flags: need one flag per generator, not ('no',)", id="cone-flags-str"),
        pytest.param(lambda: multizeta_separable((X2, Y3), R7, vars=("T", "T")),
                     "duplicate variable names: ['T', 'T']", id="separable-duplicate-vars"),
        # a float, a bool or an out-of-range value where an int or a choice belongs
        pytest.param(lambda: GeomSet(("x",), action_order=2.5), "GeomSet action_order must be an int, not 2.5",
                     id="geomset-order-float"),
        pytest.param(lambda: GeomSet(("x",), action_order=True), "GeomSet action_order must be an int, not True",
                     id="geomset-order-bool"),
        pytest.param(lambda: GeomSet(("x",), action_order=2, weights=(2.5,)),
                     "GeomSet weights: weight must be an int, not 2.5", id="geomset-weight-float"),
        pytest.param(lambda: GeomSet(("x",), action_order=2, weights=(True,)),
                     "GeomSet weights: weight must be an int, not True", id="geomset-weight-bool"),
        pytest.param(lambda: mu_n(2.5), "mu_n n must be an int, not 2.5", id="mu-n-float"),
        pytest.param(lambda: mu_n(True), "mu_n n must be an int, not True", id="mu-n-bool"),
        pytest.param(lambda: fermat_pair(2, 3), "fermat_pair kind must be 0 or 1, not 2", id="fermat-kind"),
        pytest.param(lambda: fermat_pair(2.5, 3), "fermat_pair kind must be 0 or 1, not 2.5", id="fermat-kind-float"),
        pytest.param(lambda: fermat_pair(True, 3), "fermat_pair kind must be 0 or 1, not True", id="fermat-kind-bool"),
        pytest.param(lambda: fermat_pair(1, 2.5), "fermat_pair N must be an int, not 2.5", id="fermat-N-float"),
        pytest.param(lambda: fermat_pair(1, True), "fermat_pair N must be an int, not True", id="fermat-N-bool"),
        pytest.param(lambda: Strand(Fraction(1), (2.5,), []), "Strand b: monomial exponent must be an int, not 2.5",
                     id="strand-b-float"),
        pytest.param(lambda: Strand(Fraction(1), (True,), []), "Strand b: monomial exponent must be an int, not True",
                     id="strand-b-bool"),
        pytest.param(lambda: Strand(Fraction(1), (0,), [(-2.5, (1,))]),
                     "Strand factors: L exponent m must be an int, not -2.5", id="strand-m-float"),
        pytest.param(lambda: Strand(Fraction(1), (0,), [(True, (1,))]),
                     "Strand factors: L exponent m must be an int, not True", id="strand-m-bool"),
        pytest.param(lambda: Strand(Fraction(1), (0,), [(-1, (2.5,))]),
                     "Strand factors: exponent must be an int, not 2.5", id="strand-nv-float"),
        pytest.param(lambda: Strand(Fraction(1), (0,), [(-1, (True,))]),
                     "Strand factors: exponent must be an int, not True", id="strand-nv-bool"),
        pytest.param(lambda: TruncSeries(R7, ("T",), 3, {(2.5,): Fraction(1)}),
                     "TruncSeries entries: exponent must be an int, not 2.5", id="trunc-exponent-float"),
        pytest.param(lambda: TruncSeries(R7, ("T",), 3, {(True,): Fraction(1)}),
                     "TruncSeries entries: exponent must be an int, not True", id="trunc-exponent-bool"),
        pytest.param(lambda: TruncSeries(R7, ("T",), 3).coeff((2.5,)),
                     "TruncSeries coeff: exponent must be an int, not 2.5", id="trunc-coeff-float"),
        pytest.param(lambda: TruncSeries(R7, ("T",), 3).coeff((True,)),
                     "TruncSeries coeff: exponent must be an int, not True", id="trunc-coeff-bool"),
        pytest.param(lambda: SeparableSeries(R7, ("x",), ((2.5,),), (ONES7,)),
                     "SeparableSeries masks: entry must be an int, not 2.5", id="separable-mask-float"),
        pytest.param(lambda: SeparableSeries(R7, ("x",), ((True,),), (ONES7,)),
                     "SeparableSeries masks: entry must be an int, not True", id="separable-mask-bool"),
        pytest.param(lambda: monomial_substitute(TruncSeries(R7, ("T",), 3), ("U",), ((2.5,),)),
                     "monomial_substitute images: exponent must be an int, not 2.5", id="substitute-image-float"),
        pytest.param(lambda: monomial_substitute(TruncSeries(R7, ("T",), 3), ("U",), ((True,),)),
                     "monomial_substitute images: exponent must be an int, not True", id="substitute-image-bool"),
        pytest.param(lambda: LocRat(1, (2.5,)), "LocRat den: n of a factor (1-L^n) must be an int, not 2.5",
                     id="locrat-den-float"),
        pytest.param(lambda: LocRat(1, (True,)), "LocRat den: n of a factor (1-L^n) must be an int, not True",
                     id="locrat-den-bool"),
        pytest.param(lambda: X2 ** 2.5, "Poly power: exponent must be an int, not 2.5", id="poly-power-float"),
        pytest.param(lambda: X2 ** True, "Poly power: exponent must be an int, not True", id="poly-power-bool"),
        pytest.param(lambda: EGSeq(R7, 2.5, [[], []]), "EGSeq period must be an int, not 2.5", id="egseq-period-float"),
        pytest.param(lambda: EGSeq(R7, True, [[]]), "EGSeq period must be an int, not True", id="egseq-period-bool"),
        pytest.param(lambda: WorkMeter(2.5), "WorkMeter budget must be an int, not 2.5", id="meter-budget-float"),
        pytest.param(lambda: WorkMeter(True), "WorkMeter budget must be an int, not True", id="meter-budget-bool"),
        pytest.param(lambda: WorkMeter(-1), "WorkMeter budget must be >= 0, not -1", id="meter-budget-negative"),
        pytest.param(lambda: hadamard_conv(A2_A3, A2_A3, kind=2.5),
                     "hadamard_conv kind must be None, 0 or 1, not 2.5", id="hadamard-conv-kind-float"),
        pytest.param(lambda: hadamard_conv(A2_A3, A2_A3, kind=True),
                     "hadamard_conv kind must be None, 0 or 1, not True", id="hadamard-conv-kind-bool"),
        pytest.param(lambda: _symbolic_entry([{"factors": [{"conv": True, "left": [], "right": [], "aug": False}],
                                               "aug": False, "coeff": ONE_DATA}]),
                     "series_from_dict conv: kind must be 0 or 1, not True", id="from-dict-conv-kind-bool"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False, "coeff": {"num": [[0, 2.5]], "den": []}}]),
                     "series_from_dict coeff: num coefficient must be an int, not 2.5", id="from-dict-num-float"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False, "coeff": {"num": [[True, 1]], "den": []}}]),
                     "series_from_dict coeff: num exponent must be an int, not True", id="from-dict-num-bool"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False, "coeff": {"num": [[0, 1]], "den": [2.5]}}]),
                     "LocRat den: n of a factor (1-L^n) must be an int, not 2.5", id="from-dict-den-float"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False, "coeff": {"num": [[0, 1]], "den": [True]}}]),
                     "LocRat den: n of a factor (1-L^n) must be an int, not True", id="from-dict-den-bool"),
        # inputs of a foreign type, text that is not JSON, division by zero
        pytest.param(lambda: series_from_json("nope"), "series_from_json: not JSON: Expecting value at position 0",
                     id="from-json-text"),
        pytest.param(lambda: LaurentPoly.const(1).divexact(LaurentPoly()),
                     "LaurentPoly divexact: the divisor is zero", id="laurent-divexact-zero"),
        pytest.param(lambda: jet_set(3, 2), "germ f must be a Poly or its text, not int 3", id="jet-set-germ-type"),
        pytest.param(lambda: LocRat(1.5), "LocRat num must be an int or a LaurentPoly, not float 1.5",
                     id="locrat-num-type"),
        pytest.param(lambda: SymbolicClass.scalar(1.5), "SymbolicClass scalar must be an int or a LocRat, not float 1.5",
                     id="class-scalar-type"),
        pytest.param(lambda: SymbolicClass.unit().scale(1.5),
                     "SymbolicClass scalar must be an int or a LocRat, not float 1.5", id="class-scale-type"),
        pytest.param(lambda: LocRat(1, 5), "LocRat den must be a list or tuple, not int 5", id="locrat-den-type"),
        pytest.param(lambda: EGSeq(R7, 1, [[]], dom_min=1.5), "EGSeq dom_min must be an int, not 1.5",
                     id="egseq-dom-min-float"),
        pytest.param(lambda: EGSeq(R7, 1, [[]], stable_start=2.5), "EGSeq stable_start must be an int, not 2.5",
                     id="egseq-stable-start-float"),
        pytest.param(lambda: ONES7.re_period(2.5), "EGSeq re_period: new_period must be an int, not 2.5",
                     id="egseq-re-period-float"),
        pytest.param(lambda: ONES7.shift(1.5), "EGSeq shift: d must be an int, not 1.5", id="egseq-shift-float"),
        pytest.param(lambda: EGSeq.single_residue(R7, 2, 2.5, Fraction(1, 7), Fraction(1)),
                     "EGSeq single_residue: residue must be an int, not 2.5", id="egseq-residue-float"),
        pytest.param(lambda: ONES7.value(2.0), "EGSeq value: n must be an int, not 2.0", id="egseq-value-float"),
        pytest.param(lambda: ONES7.value(True), "EGSeq value: n must be an int, not True", id="egseq-value-bool"),
        # a variable name that is not a str
        pytest.param(lambda: TruncSeries(R7, "T", 3), "TruncSeries vars: need a list or tuple of names, not 'T'",
                     id="trunc-vars-type"),
        pytest.param(lambda: TruncSeries(R7, (None,), 3), "TruncSeries vars: a variable name must be a str, not None",
                     id="trunc-var-name"),
        pytest.param(lambda: ClosedSeries(R7, ("T", 3)), "ClosedSeries vars: a variable name must be a str, not 3",
                     id="closed-var-name"),
        pytest.param(lambda: SeparableSeries(R7, (("x",),), ((1,),), (ONES7,)),
                     "SeparableSeries vars: a variable name must be a str, not ('x',)", id="separable-var-name"),
        pytest.param(lambda: expand_chains(R7, (1,), ((1,),), (ONES7,), 3),
                     "expand_chains vars: a variable name must be a str, not 1", id="expand-chains-var-name"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 4, R7, var=("S",)),
                     "TruncSeries vars: a variable name must be a str, not ('S',)", id="pullback-var-tuple"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 4, R7, var=None),
                     "TruncSeries vars: a variable name must be a str, not None", id="pullback-var-none"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 4, R7, var=3),
                     "TruncSeries vars: a variable name must be a str, not 3", id="pullback-var-int"),
        pytest.param(lambda: sum_zeta_pullback(X2, Y3, 4, R7, var=3, mode="hist"),
                     "expand_chains vars: a variable name must be a str, not 3", id="pullback-hist-var-int"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": [["S"]], "mode": "trunc",
                                               "bound": 2, "entries": []}),
                     "TruncSeries vars: a variable name must be a str, not ['S']", id="from-dict-var-name"),
        # a family whose functions share a variable
        pytest.param(lambda: multizeta_trunc(("x^2", "x^3+y^2"), 8, count_realization(5)),
                     "a family needs disjoint variables; shared: x", id="family-shared-variable"),
        pytest.param(lambda: multizeta_separable(("x^2", "x^3"), symbolic_realization()),
                     "a family needs disjoint variables; shared: x", id="family-shared-variable-symbolic"),
    ],
)
def test_argument_errors_name_the_parameter(run, message):
    with pytest.raises(MotzetaError, match=re.escape(message)) as err:
        run()
    assert not isinstance(err.value, ValueError)


def test_one_atom_name_at_two_orders_roundtrips():
    # every factor carries its own order, so one name may stand at two
    # orders; an atom table keyed by name used to refuse this series
    back = series_from_json(series_to_json(A2_A3))
    assert back == A2_A3
    assert [back.coeff((n,)).terms[0][0][0].order for n in (1, 2)] == [2, 3]


def test_negative_bound_is_a_variable_mismatch():
    r7 = count_realization(7)
    for run in (
        lambda: zeta_trunc(X2, -1, r7),
        lambda: multizeta_trunc((X2, Y3), -1, r7),
        lambda: sum_zeta_pullback(X2, Y3, -1, r7),
    ):
        with pytest.raises(VariableMismatch, match="truncation bound must be >= 0, not -1"):
            run()


def test_zeta_trunc_reaches_past_the_jet_space_budget():
    # the DFS counts the locus (2*5^6 points) without enumerating the 5^12
    # level-12 jets.  The lowest coefficient 4 leaves 4x^2 + x^3 to the
    # DFS; it is (2x)^2 (1 + x/4), so its counts are those of x^2
    z = zeta_trunc("4*x^2 + x^3", 12, count_realization(5))
    for n in range(1, 13):
        want = Fraction(2 * 5 ** (n // 2), 5**n) if n % 2 == 0 else 0
        assert z.coeff((n,)) == want


def test_zeta_trunc_slices_one_expansion():
    # zeta_trunc reads every level off one expansion of f to D=20; each
    # coefficient equals the DFS count of a locus expanded at its own level
    f = parse_poly("x^2 + y^3 + x*y^2")
    z = zeta_trunc(f, 20, count_realization(5))
    for n in range(1, 21):
        c = twisted_count(jet_set(f, n, action_order=1), 5)
        assert z.coeff((n,)) == Fraction(c, 5 ** (2 * n)), n


# recognized shapes: (text, exponent a, linear coefficients)
SHAPES = [("x^%d" % a, a, ()) for a in range(2, 6)] + [
    ("x", 1, (1,)),
    ("3*x", 1, (3,)),
    ("x + y", 1, (1, 1)),
    ("2*x + 3*y + z", 1, (2, 3, 1)),
]
CLOSED_CASES = [
    pytest.param(f, q, id="%s-q%d" % (f.replace(" ", ""), q))
    for f, a, coeffs in SHAPES
    for q in (2, 3, 5, 7, 11, 13)
    if math.gcd(a, q) == 1 and all(c % q for c in coeffs)
]


@pytest.mark.parametrize("f, q", CLOSED_CASES)
def test_zeta_closed_matches_trunc(f, q):
    # the closed form against DFS counts of the exact-hit jet loci
    f = parse_poly(f)
    d = len(f.vars)
    D = 8
    want = {}
    for n in range(1, D + 1):
        c = twisted_count(jet_set(f, n, action_order=1), q)
        if c:
            want[(n,)] = Fraction(c, q ** (d * n))
    real = count_realization(q)
    assert zeta_closed(f, real).expand(D) == TruncSeries(real, ("T",), D, want)


def test_zeta_symbolic_realizes_to_counts():
    for f, a, _ in SHAPES:
        zs = zeta_trunc(f, 8, symbolic_realization())
        table = standard_atom_sets(("mu%d" % a,)) if a > 1 else {}
        for q in (7, 11, 13):
            zc = zeta_trunc(f, 8, count_realization(q))
            binding = Binding(table, q)
            assert zs.support() == zc.support()
            for e in zs.support():
                assert bind_and_count(zs.coeff(e), binding) == zc.coeff(e)


def test_leading_classes_live_over_the_realization_base():
    rx = symbolic_realization("X")
    for z in (
        multizeta_separable((X2,), rx).expand(4),
        zeta_trunc(X2, 4, rx),
        zeta_trunc(X, 4, rx),
        dl_eval(RES, rx).expand(4),
    ):
        assert z.support()
        assert {z.coeff(e).base for e in z.support()} == {"X"}


def test_zeta_closed_rejects_generic():
    # germs the coordinate-change rule of shape_exponent leaves to the DFS
    for f in ("2*x^2 + x^3", "x*y", "1 + x"):
        with pytest.raises(FitFailed, match="no closed form for"):
            zeta_closed(f, symbolic_realization())
    with pytest.raises(FitFailed, match="x\\^3 at q=3"):
        zeta_closed(X3, count_realization(3))
    with pytest.raises(FitFailed, match="x\\^4 \\+ x\\^3 at q=3"):
        zeta_closed("x^3 + x^4", count_realization(3))


def test_linear_sum_with_coefficients_divisible_by_q():
    # 5x + 5y vanishes identically mod 5: no jet hits t^n, so the closed
    # strand of x + y does not apply and the DFS's zero series stands
    r5 = count_realization(5)
    with pytest.raises(FitFailed):
        zeta_closed("5*x+5*y", r5)
    assert zeta_trunc("5*x+5*y", 3, r5).is_zero()
    with pytest.raises(FitFailed):
        multizeta_separable(("5*z+5*w", "y"), r5)
    assert multizeta_trunc(("5*z+5*w", "y"), 5, r5).is_zero()


def test_zeta_global_base_sums_local_contributions():
    # x(x-1) vanishes at two rational points, each locally linear
    f = parse_poly("x^2 - x")
    g = zeta_trunc(f, 6, count_realization(7), base="global")
    local = zeta_trunc(X, 6, count_realization(7))
    assert g == local.scale(Fraction(2))


def test_global_zeta_budget_covers_every_zero():
    # 2 x^2 (x-1)^2 at q=7 vanishes at 0 and 1, as 2x^2 times a unit at
    # each, which the DFS counts: 84 candidates per zero through level 8,
    # under one budget for the call
    f = "2*x^4 - 4*x^3 + 2*x^2"
    r7 = count_realization(7)
    with pytest.raises(
        BudgetExceeded,
        match=r"jet counts of 2\*x\^4 - 4\*x\^3 \+ 2\*x\^2 at level 8 of the zero x=1 "
        "exceeded the budget of 167 candidates",
    ):
        zeta_trunc(f, 8, r7, base="global", budget=167)
    full = zeta_trunc(f, 8, r7, base="global")
    assert not full.is_zero()
    assert zeta_trunc(f, 8, r7, base="global", budget=168) == full
    # x^2 (x-1)^2 is x^2 times a unit of constant term 1 at both zeros:
    # closed streams, no candidate
    g = "x^4 - 2*x^3 + x^2"
    assert zeta_trunc(g, 8, r7, base="global", budget=0) == zeta_trunc(X2, 8, r7).scale(Fraction(2))


# ---------------------------------------------------------------------------
# several functions over chains
# ---------------------------------------------------------------------------


def test_multizeta_routes_agree_small():
    # a counted multizeta_trunc walks the chains with AxisCounts; the
    # expanded chain block and the brute-force family count must agree
    r5 = count_realization(5)
    for fs, D in [((X, Y), 4), ((X2, Y), 4)]:
        sep = multizeta_separable(fs, r5).expand(D)
        axes = multizeta_trunc(fs, D, r5)
        direct = multizeta_direct(fs, D, r5)
        assert sep == axes == direct


def test_multizeta_budget_covers_the_family():
    # at q=7 through D=9 the exact-hit counts of 2x^2+x^3 spend 14 candidates
    # and the order-beyond counts of 2y^2+y^3 63, under one budget
    fs, r7 = ("2*x^2+x^3", "2*y^2+y^3"), count_realization(7)
    with pytest.raises(
        BudgetExceeded, match=r"jet counts of y\^3 \+ 2\*y\^2 at level 7 exceeded the budget of 76 "
    ):
        multizeta_trunc(fs, 9, r7, budget=76)
    full = multizeta_trunc(fs, 9, r7)
    assert not full.is_zero()
    assert multizeta_trunc(fs, 9, r7, budget=77) == full


def _chains(r, D):
    """Strict chains n_1 < .. < n_r of positive integers with |n| <= D."""
    return [ns for ns in itertools.combinations(range(1, D + 1), r) if sum(ns) <= D]


def test_multizeta_counted_chains_match_the_chain_block_deep():
    # the one chain walk against the product, at level |n|, of the closed
    # x^a jet counts of tests/brute.py (the oracle pads every axis to the
    # family level, the walk normalizes each at its own level), far past
    # the brute-force enumeration's reach.  4x^2 + x^3 is x^2 after the
    # change of coordinate x -> 2x (1 + x/4)^(1/2), but its lowest
    # coefficient is not 1, so its DFS stream meets the same oracle, as a
    # leading or as a trailing axis.
    cases = [
        ((X2, Y3), (2, 3), 40, 7),
        ((X2, Y3, "z^5"), (2, 3, 5), 45, 31),
        ((X, "y^2"), (1, 2), 30, 5),
        (("4*x^2 + x^3", Y3), (2, 3), 30, 7),
        ((X, "4*y^2 + y^3", "z^3"), (1, 2, 3), 30, 7),
    ]
    for fs, exps, D, q in cases:
        real = count_realization(q)
        want = {}
        for ns in _chains(len(fs), D):
            level = sum(ns)
            c = mono_exact_count(exps[0], ns[0], q, level)
            for a, n in zip(exps[1:], ns[1:]):
                c *= mono_ordgt_count(a, n, q, level)
            want[ns] = Fraction(c, q ** (len(fs) * level))
        counted = multizeta_trunc(fs, D, real)
        assert counted == TruncSeries(real, counted.vars, D, want)
        assert not counted.is_zero()
        if all(shape_exponent(f, q) for f in fs):
            assert counted == multizeta_separable(fs, real).expand(D)


# germs for the family property: recognized germs (closed streams) and
# other germs (DFS streams), among them a constant term, a lowest
# coefficient other than 1 and x^3 + x^4 at q=3
FAMILY_POOL = [
    "x", "2*x", "x^2", "x^3", "x + y",
    "x^2 + x^3", "x*y", "x^3 + x^4", "1 + x", "x^2 - x", "x - x^3",
    "2*x^2 + x^3",
]
FAMILY_JETS = 3**9  # brute-force jets per chain


@st.composite
def _families(draw):
    # each function on its own variables (x, y; z, w; u, v); q and D reach
    # the first chain (level r(r+1)/2) whenever the jet cap allows it
    fs = tuple(
        parse_poly(f.replace("x", "xzu"[i]).replace("y", "ywv"[i]))
        for i, f in enumerate(draw(st.lists(st.sampled_from(FAMILY_POOL), min_size=1, max_size=3)))
    )
    r, dtot = len(fs), sum(len(f.vars) for f in fs)
    first = r * (r + 1) // 2
    qs = [q for q in (3, 5, 7) if q ** (dtot * first) <= FAMILY_JETS] or [3, 5, 7]
    q = draw(st.sampled_from(qs))
    top = max(D for D in range(1, 7) if D == 1 or q ** (dtot * D) <= FAMILY_JETS)
    return fs, draw(st.integers(min(top, first), top)), q


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_families())
@example(((parse_poly("x^2 - x"), parse_poly("z^2 + z^3")), 4, 3))
@example(((X, Y3), 4, 3))
@example(((parse_poly("2*x"), parse_poly("z*w")), 3, 3))
def test_counted_family_walk_matches_the_definition(case):
    # one walk over mixed closed and DFS streams against the definitional
    # enumeration of the family locus; D is capped so the enumeration stays
    # small, which leaves three-germ families (first chain at level 6) only
    # their empty truncations
    fs, D, q = case
    real = count_realization(q)
    assert multizeta_trunc(fs, D, real) == multizeta_direct(fs, D, real)
    for f in fs:
        assert zeta_trunc(f, D, real) == multizeta_trunc((f,), D, real, ("T",))


@pytest.mark.parametrize("f, q", [(X2, 7), (XY, 5), (X3, 7)])
def test_closed_streams_match_the_dfs_at_depth(f, q):
    # the closed exact-hit and order-beyond streams of a recognized shape
    # against the DFS counts of AxisCounts
    real = count_realization(q)
    d = len(f.vars)
    ax = AxisCounts(f, q)
    lead = multizeta_separable((f,), real).streams[0]
    trail = multizeta_separable(("z", f), real).streams[1]
    for n in range(1, 31):
        assert lead.value(n) == Fraction(ax.exact(n), q ** (d * n)), n
        assert trail.value(n) == Fraction(ax.ordgt(n), q ** (d * n)), n


# germs that a change of coordinates fixing the origin carries onto x^a:
# shape_exponent gives them the closed stream of x^a, the DFS is the oracle


@st.composite
def _monic_germs(draw, q, var):
    """x^a u(x) in the one variable var, u(0) = 1 and a prime to q: the
    lowest term x^a, up to three higher terms with small coefficients."""
    a = draw(st.sampled_from([a for a in range(1, 5) if a % q]))
    f = Poly.var(var, a)
    for k in sorted(draw(st.sets(st.integers(a + 1, a + 4), max_size=3))):
        f = f + Poly.var(var, k) * draw(st.integers(-3, 3))
    return f


@st.composite
def _smooth_germs(draw, q, names):
    """Constant term 0 and a degree-one coefficient prime to q on one of
    names, any linear coefficients on the others, and up to two terms of
    degree 2 or 3 in names."""
    lead = draw(st.sampled_from(names))
    f = Poly.var(lead) * draw(st.sampled_from([c for c in range(-q, q + 1) if c % q]))
    for v in names:
        if v != lead:
            f = f + Poly.var(v) * draw(st.integers(-q, q))
    for _ in range(draw(st.integers(0, 2))):
        term = Poly.const(draw(st.sampled_from((-2, -1, 1, 2, 3))))
        for v in draw(st.lists(st.sampled_from(names), min_size=2, max_size=3)):
            term = term * Poly.var(v)
        f = f + term
    return f


@st.composite
def _recognized_germs(draw):
    # one-variable germs with a monic lowest term and smooth germs in up to
    # three variables, at q in {3, 5, 7}, through D <= 8
    q = draw(st.sampled_from((3, 5, 7)))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    f = draw(st.one_of(_monic_germs(q, "x"), _smooth_germs(q, names)))
    return f, q, draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_recognized_germs())
@example((parse_poly("x^2 + x^3"), 5, 8))
@example((parse_poly("x^4 + x^6 - 3*x^7 + 3*x^8"), 3, 8))
@example((parse_poly("3*x + y*z + x*y^2"), 7, 8))
@example((parse_poly("5*y + 2*z + x*y - x*y*z"), 5, 8))
def test_closed_route_matches_the_dfs(case):
    # the closed exact-hit and order-beyond streams of a recognized germ,
    # read without a DFS candidate, against the AxisCounts DFS of the germ
    f, q, D = case
    real = count_realization(q)
    assert shape_exponent(f, q) is not None
    ax, d = AxisCounts(f, q), len(f.vars)
    want = {(n,): Fraction(ax.exact(n), q ** (d * n)) for n in range(1, D + 1) if ax.exact(n)}
    z = zeta_trunc(f, D, real, budget=0)
    assert z == TruncSeries(real, ("T",), D, want) == zeta_closed(f, real).expand(D)
    trail = multizeta_separable(("w", f), real).streams[1]
    for n in range(1, D + 1):
        assert trail.value(n) == Fraction(ax.ordgt(n), q ** (d * n)), n


@st.composite
def _recognized_pairs(draw):
    # two one-variable summands the strata route reads as x^a, y^b: monic
    # lowest terms or smooth, at least one of them not a monomial
    q = draw(st.sampled_from((3, 5, 7)))
    f, g = (draw(st.one_of(_monic_germs(q, v), _smooth_germs(q, (v,)))) for v in "xy")
    assume(len(f.terms) > 1 or len(g.terms) > 1)
    return f, g, q, draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_recognized_pairs())
@example((parse_poly("x^2 + x^3"), parse_poly("3*y - y^2"), 7, 6))
def test_strata_pullback_matches_the_hist_split(case):
    # the closed pair counts of (x^a, y^b) against the DFS pair counts of
    # f and g, every part of the split by leading orders
    f, g, q, D = case
    real = count_realization(q)
    strata = sum_zeta_pullback(f, g, D, real, mode="strata", split=True)
    assert strata == sum_zeta_pullback(f, g, D, real, mode="hist", split=True)
    assert sum_zeta_pullback(f, g, D, real, split=True, budget=0) == strata


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_recognized_germs())
@example((parse_poly("x^3 - x^5"), 7, 8))
def test_symbolic_closed_route_realizes_to_counts(case):
    # the symbolic closed series of a recognized germ, each coefficient
    # counted through a binding at q, against the counted closed series
    f, q, D = case
    a = shape_exponent(f, q)
    zs = zeta_closed(f, symbolic_realization()).expand(D)
    zc = zeta_closed(f, count_realization(q)).expand(D)
    binding = Binding(standard_atom_sets(("mu%d" % a,)) if a > 1 else {}, q)
    assert zs.support() == zc.support()
    for e in zs.support():
        assert bind_and_count(zs.coeff(e), binding) == zc.coeff(e), e


def test_multizeta_definitional_check_at_q3():
    r3 = count_realization(3)
    axes = multizeta_trunc((X2, Y3), 5, r3)
    direct = multizeta_direct((X2, Y3), 5, r3)
    assert axes == direct
    assert axes.support() == [(2, 3)]
    assert axes.coeff((2, 3)) == Fraction(2, 9)


def test_multizeta_chain_support_and_values():
    mz = multizeta_trunc((X2, Y3), 8, count_realization(7))
    assert mz.support() == [(2, 3), (2, 4), (2, 5), (2, 6)]
    assert mz.coeff((2, 3)) == Fraction(2, 49)
    assert mz.coeff((2, 6)) == Fraction(2, 343)
    # exponent tuples must be strict chains
    assert mz.coeff((3, 2)) == 0
    assert mz.coeff((2, 2)) == 0


def test_multizeta_symbolic_realizes_to_counts():
    ms = multizeta_trunc((X2, Y3), 8, symbolic_realization())
    mc = multizeta_trunc((X2, Y3), 8, count_realization(7))
    binding = Binding(standard_atom_sets(("mu2", "mu3")), 7)
    assert ms.support() == mc.support()
    for e in ms.support():
        assert bind_and_count(ms.coeff(e), binding) == mc.coeff(e)


def _monomials(names, exps):
    return tuple(Poly.var(v, a) for v, a in zip(names, exps))


@pytest.mark.parametrize("exps, entries, products", [((2, 3, 5), 952, 201), ((2, 3, 4, 5), 1856, 192)])
def test_chain_walk_multiplies_each_class_pair_once(monkeypatch, exps, entries, products):
    # The later axes are order-beyond streams L^{-floor(n/a)}, step
    # functions, so most chain points repeat a (prefix, value) pair the walk
    # has multiplied already.  One product per point took 1022 and 2071
    # class products here; the pins are a third of that or less.
    calls = []

    def counted(self, other, _mul=SymbolicClass.__mul__):
        calls.append(1)
        return _mul(self, other)

    monkeypatch.setattr(SymbolicClass, "__mul__", counted)
    mz = multizeta_trunc(_monomials("xyzw", exps), 45, symbolic_realization())
    assert len(mz.entries) == entries
    assert len(calls) == products
    monkeypatch.undo()
    # the values, against the closed coefficient [mu_2] L^{-(n1/2 + sum floor(n_i/a_i))}
    mu2 = SymbolicClass.from_atom(Atom("mu2", 2))
    for e, c in mz.entries.items():
        t = e[0] // 2 + sum(n // a for n, a in zip(e[1:], exps[1:]))
        assert e[0] % 2 == 0 and c == mu2.scale(LocRat.L(-t)), e


@pytest.mark.parametrize("kind, fn", [(None, conv), (0, conv0), (1, conv1)])
def test_hadamard_conv_of_multizeta_operands_is_the_entrywise_conv(kind, fn):
    # multizeta operands share one object across the entries of a run; the
    # join computes each pair of objects once, and every entry must still
    # be its own convolution
    sym = symbolic_realization()
    a = multizeta_trunc(_monomials("xy", (2, 3)), 24, sym)
    b = multizeta_trunc(_monomials("zw", (3, 2)), 24, sym)
    assert len({id(v) for v in a.entries.values()}) < len(a.entries)
    want = {e: fn(v, b.entries[e]) for e, v in a.entries.items() if e in b.entries}
    assert want
    assert hadamard_conv(a, b, kind) == TruncSeries(sym, a.vars, 24, want)


# ---------------------------------------------------------------------------
# the sum pullback
# ---------------------------------------------------------------------------


def test_pullback_linear_pair():
    S = sum_zeta_pullback(X, Y, 5, count_realization(7))
    for n in range(1, 6):
        assert S.coeff((n,)) == Fraction(1, 7**n)
    Ssym = sum_zeta_pullback(X, Y, 4, symbolic_realization())
    for n in range(1, 5):
        assert Ssym.coeff((n,)) == SymbolicClass.scalar(LocRat.L(-n))


def test_pullback_routes_agree():
    r7 = count_realization(7)
    strata = sum_zeta_pullback(X2, Y3, 6, r7, mode="strata")
    hist = sum_zeta_pullback(X2, Y3, 6, r7, mode="hist")
    assert strata == hist
    r5 = count_realization(5)
    direct = {
        (n,): Fraction(direct_pair_counts(X2, Y3, n, 5)["total"], 5 ** (2 * n))
        for n in range(1, 6)
    }
    want = TruncSeries(r5, ("S",), 5, direct)
    assert sum_zeta_pullback(X2, Y3, 5, r5, mode="hist") == want
    # c*x counts as x: u -> c*u permutes the jets of each order
    for q in (5, 7, 13):
        rq = count_realization(q)
        hist = sum_zeta_pullback("3*x", "y^2", 4, rq, mode="hist")
        assert sum_zeta_pullback("3*x", "y^2", 4, rq, mode="strata") == hist
        assert sum_zeta_pullback("3*x", "y^2", 4, rq) == hist


def test_pullback_split_sums_to_total():
    total, parts = sum_zeta_pullback(X2, Y3, 6, count_realization(7), split=True)
    acc = parts["A1"].add(parts["A2"]).add(parts["A3"])
    assert acc == total
    assert not parts["Bpair"].is_zero()
    # a generic pair past the 5^12 level-6 jets of y*z
    total, parts = sum_zeta_pullback(
        "x^2+x^3", "y*z", 6, count_realization(5), mode="hist", split=True
    )
    assert parts["A1"].add(parts["A2"]).add(parts["A3"]) == total
    assert not total.is_zero()


def test_pullback_auto_budget_names_the_level():
    # a pair without the strata route: auto counts the direct sum
    # 2x^2+x^3+2y^2+y^3 by the DFS, under one budget for all levels; at q=7
    # its counts spend 0, 7, 14, 21, 28, 35 and 42 candidates at levels 1-7
    f, g, r7 = "2*x^2+x^3", "2*y^2+y^3", count_realization(7)
    with pytest.raises(BudgetExceeded, match="at level 3 exceeded the budget of 10 "):
        sum_zeta_pullback(f, g, 4, r7, budget=10)
    with pytest.raises(BudgetExceeded, match="at level 7 exceeded the budget of 140 "):
        sum_zeta_pullback(f, g, 7, r7, budget=140)
    # 105 candidates reach level 6, with the totals of the split by leading order
    total, _ = sum_zeta_pullback(f, g, 6, r7, split=True)
    assert not total.is_zero()
    assert sum_zeta_pullback(f, g, 6, r7, budget=105) == total


def test_pullback_split_budget_covers_every_level():
    # the pair counts of 2x^2+x^3 and 2y^2+y^3 at q=7 spend 0, 28, 84 and
    # 140 candidates at levels 1-4, under one budget for the call
    f, g, r7 = "2*x^2+x^3", "2*y^2+y^3", count_realization(7)
    with pytest.raises(BudgetExceeded, match="pair counts at level 4 exceeded the budget of 251 "):
        sum_zeta_pullback(f, g, 4, r7, split=True, budget=251)
    assert sum_zeta_pullback(f, g, 4, r7, split=True, budget=252) == sum_zeta_pullback(
        f, g, 4, r7, split=True
    )


def test_pullback_split_expands_each_function_once(monkeypatch):
    # the split reads every level off one expansion of each function, with
    # the counts and the meter charges of histogram_pair_counts per level
    f, g, q, D = parse_poly("2*x^2+x^3"), parse_poly("2*y^2+y^3"), 7, 6
    meter = WorkMeter()
    levels = [histogram_pair_counts(f, g, n, q, meter) for n in range(1, D + 1)]
    built = []

    class CountedExpansion(zeta.JetExpansion):
        def __init__(self, h):
            built.append(h)
            super().__init__(h)

    monkeypatch.setattr(zeta, "JetExpansion", CountedExpansion)
    rq = count_realization(q)
    total, parts = sum_zeta_pullback(f, g, D, rq, split=True, budget=meter.spent)
    assert built == [f, g]
    for n, c in enumerate(levels, 1):
        den = q ** (2 * n)
        assert total.coeff((n,)) == Fraction(c["total"], den)
        for k, part in parts.items():
            assert part.coeff((n,)) == Fraction(c[k], den)
    # the split spends exactly what the per-level counts spent
    with pytest.raises(BudgetExceeded):
        sum_zeta_pullback(f, g, D, rq, split=True, budget=meter.spent - 1)


def test_pullback_requires_disjoint_variables():
    r5, sym = count_realization(5), symbolic_realization()
    routes = [
        (r5, {}),
        (r5, {"mode": "strata"}),
        (r5, {"split": True}),
        (r5, {"mode": "hist"}),
        (r5, {"mode": "hist", "split": True}),
        (sym, {}),
        (sym, {"split": True}),
    ]
    for real, kwargs in routes:
        with pytest.raises(VariableMismatch, match=re.escape("direct sum needs disjoint variables; shared: x")):
            sum_zeta_pullback(X2, X3, 4, real, **kwargs)


@pytest.mark.parametrize("kwargs", [{}, {"split": True}, {"mode": "hist", "split": True}],
                         ids=["strata", "strata-split", "hist-split"])
def test_counted_pair_routes_build_no_poly_sum(monkeypatch, kwargs):
    # these routes read only the variables of f + g, never the Poly itself
    adds = []

    def counted(self, other, _add=Poly.__add__):
        adds.append((self, other))
        return _add(self, other)

    f, g = Poly.var("x", 2), Poly.var("y", 3)
    monkeypatch.setattr(Poly, "__add__", counted)
    s = sum_zeta_pullback(f, g, 6, count_realization(7), **kwargs)
    assert adds == []
    monkeypatch.undo()
    total = s[0] if kwargs.get("split") else s
    assert total == sum_zeta_pullback(f, g, 6, count_realization(7), mode="hist")


def test_pullback_symbolic_generic_pair_unsupported():
    with pytest.raises(FitFailed):
        sum_zeta_pullback(X2, Y3, 4, symbolic_realization())


# ---------------------------------------------------------------------------
# supplied resolution data
# ---------------------------------------------------------------------------


def _mono_resolution(a):
    return ResolutionData([Stratum(("E",), Atom("mu%d" % a, a), ((a,),), (1,))])


def test_dl_single_stratum_matches_jet_series():
    rs = symbolic_realization()
    for a in (2, 3, 4):
        assert dl_eval(_mono_resolution(a), rs) == zeta_closed(Poly.var("x", a), rs)
    r7 = count_realization(7)
    for a in (2, 3):
        assert dl_eval(_mono_resolution(a), r7) == zeta_closed(Poly.var("x", a), r7)


def test_dl_trunc_matches_closed():
    res = _mono_resolution(3)
    r7 = count_realization(7)
    assert lattice_sum(res, r7, 9) == dl_eval(res, r7).expand(9)
    rs = symbolic_realization()
    assert lattice_sum(res, rs, 9) == dl_eval(res, rs).expand(9)


def test_dl_counts_through_a_binding():
    # F bound to u^2 + v^2 = 1 in G_m^2: 4 points at q=7, so the strand
    # [F] L^-1 T^2 / (1 - L^-1 T^2) opens with 4/7 at T^2; the DFS spends
    # 6 candidates on the binding's meter
    res = [{"I": ["E"], "atom": {"name": "F", "order": 2}, "N": [[2]], "nu": [1]}]
    r7 = count_realization(7)
    binding = Binding({"F": fermat_pair(1, 2)}, 7)
    assert dl_eval(res, r7, binding=binding).expand(3).coeff((2,)) == Fraction(4, 7)
    assert binding.meter.spent == 6
    with pytest.raises(BudgetExceeded, match="atom 'F' at twist 0 exceeded the budget of 1 "):
        dl_eval(res, r7, binding=Binding({"F": fermat_pair(1, 2)}, 7, budget=1))


def test_dl_two_strata():
    # crossing of two divisors: the depth-two stratum carries one torus
    # factor (q-1 at counts) per extra member
    res = ResolutionData(
        [
            Stratum(("E1",), None, ((1, 0),), (1,)),
            Stratum(("E2",), None, ((0, 1),), (1,)),
            Stratum(("E1", "E2"), None, ((1, 0), (0, 1)), (1, 1)),
        ]
    )
    r7 = count_realization(7)
    out = lattice_sum(res, r7, 3, vars=("T", "U"))
    assert out == dl_eval(res, r7, vars=("T", "U")).expand(3)
    q = Fraction(7)
    assert out.coeff((1, 0)) == 1 / q
    assert out.coeff((0, 1)) == 1 / q
    assert out.coeff((1, 1)) == (q - 1) / q**2
    assert out.coeff((2, 1)) == (q - 1) / q**3


def test_parse_resolution_round_trip():
    rs = symbolic_realization()
    parsed = parse_resolution([{"I": ["E"], "atom": "mu3", "N": [[3]], "nu": [1]}])
    assert dl_eval(parsed, rs) == zeta_closed(X3, rs)
    with pytest.raises(MotzetaError, match="Stratum N"):
        Stratum(("E",), None, ((0,),), (1,))
    with pytest.raises(MotzetaError, match="Stratum nu"):
        Stratum(("E",), None, ((1,),), (0,))


def test_dl_closed_without_cone_decomposition():
    res = _mono_resolution(2)
    with pytest.raises(ConeNotDecomposed):
        dl_eval(res, symbolic_realization(), cone=[object()])


# ---------------------------------------------------------------------------
# lattice cones
# ---------------------------------------------------------------------------


def _quadrant():
    return ConePieces(
        (
            (((1, 0),), (True,)),
            (((0, 1),), (True,)),
            (((1, 0), (0, 1)), (True, True)),
        ),
        origin=True,
    )


def test_cone_validation_and_euler():
    quad = _quadrant()
    validate_cone(quad, lambda p: all(c >= 0 for c in p), 5, dim=2)
    # the same set as one piece: closed flags admit zero coefficients, so
    # the rays and the origin are inside
    glued = ConePieces(((((1, 0), (0, 1)), (False, False)),), origin=False)
    validate_cone(glued, lambda p: all(c >= 0 for c in p), 5, dim=2)
    # a wrong membership predicate must be rejected
    with pytest.raises(MotzetaError):
        validate_cone(quad, lambda p: p[0] >= 1 and p[1] >= 0, 4, dim=2)


def test_cone_trunc_matches_closed():
    res = ResolutionData(
        [Stratum(("E1", "E2"), None, ((1, 0), (0, 1)), (1, 1))]
    )
    r7 = count_realization(7)
    quad = _quadrant()
    closed = dl_eval(res, r7, cone=quad)
    trunc = lattice_sum(res, r7, 5, cone=quad)
    assert trunc == closed.expand(5)
    chain = ConePieces(
        ((((1, 1),), (True,)), (((1, 1), (0, 1)), (True, True))),
    )
    closed2 = dl_eval(res, r7, cone=chain)
    trunc2 = lattice_sum(res, r7, 6, cone=chain)
    assert trunc2 == closed2.expand(6)
    validate_cone(chain, lambda p: 1 <= p[0] <= p[1], 6, dim=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.tuples(*[st.tuples(st.integers(0, 3), st.integers(0, 3))] * 2).filter(
        lambda g: g[0][0] * g[1][1] != g[0][1] * g[1][0]
    ),
    st.tuples(st.booleans(), st.booleans()),
)
@example(((1, 0), (1, 2)), (True, False))
def test_independent_pieces_sum_their_integer_combinations(gens, flags):
    # a piece, unimodular or not, is the set of integer combinations of its
    # generators: validate_cone accepts the set a search over the
    # coefficient box finds, and dl_eval sums it as the lattice sum does
    piece = ConePieces(((gens, flags),))
    bound = 6
    lo = [1 if b else 0 for b in flags]
    members = {
        tuple(c0 * a + c1 * b for a, b in zip(*gens))
        for c0 in range(lo[0], bound + 1)
        for c1 in range(lo[1], bound + 1)
    }
    validate_cone(piece, members.__contains__, bound)
    res = ResolutionData([Stratum(("E1", "E2"), None, ((1, 0), (0, 1)), (1, 1))])
    r7 = count_realization(7)
    assert dl_eval(res, r7, cone=piece).expand(6) == lattice_sum(res, r7, 6, cone=piece)


# ---------------------------------------------------------------------------
# the limit at infinity
# ---------------------------------------------------------------------------


def test_nearby_class_of_powers():
    rs = symbolic_realization()
    assert nearby_cycles(zeta_closed(X, rs)) == SymbolicClass.unit()
    assert nearby_cycles(zeta_closed(X3, rs)) == SymbolicClass.from_atom(Atom("mu3", 3))
    assert nearby_cycles(zeta_closed(X3, count_realization(7))) == 3
    assert nearby_cycles(zeta_closed(X2, count_realization(7))) == 2
    assert nearby_cycles(zeta_closed(X2, count_realization(13))) == 2


def test_diagonal_collapses_variables():
    res = ResolutionData(
        [Stratum(("E1", "E2"), None, ((1, 0), (0, 1)), (1, 1))]
    )
    r7 = count_realization(7)
    diag = diagonal_closed(dl_eval(res, r7, vars=("T", "U")))
    assert diag.vars == ("T",)
    two_var = lattice_sum(res, r7, 8, vars=("T", "U"))
    folded = {}
    for e in two_var.support():
        folded[e[0] + e[1]] = folded.get(e[0] + e[1], Fraction(0)) + two_var.coeff(e)
    expanded = diag.expand(8)
    for k, v in folded.items():
        if k <= 8:
            assert expanded.coeff((k,)) == v


# Depth at which the pullback stream of (x^a, y^b) first fits, on the rung
# ladder 8, 16, 24, ...; the rung below it is refused.
FIT_DEPTH = {(2, 2): 16, (2, 3): 32, (3, 3): 16, (2, 4): 24}


def _fit_pullback(s, D, period):
    samples = {n: s.coeff((n,)) for n in range(1, D + 1)}
    return closed_from_fit(strand_fit(s.real, samples, period=period))


@st.composite
def _thom_sebastiani_cases(draw):
    a, b = draw(st.sampled_from(sorted(FIT_DEPTH)))
    # mu_a and mu_b need a, b | q - 1; (2, 2) takes q = 1 mod 4
    need = 4 if (a, b) == (2, 2) else math.lcm(a, b)
    primes = [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31) if (p - 1) % need == 0]
    return a, b, draw(st.sampled_from(primes)), draw(st.booleans())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_thom_sebastiani_cases())
@example((2, 2, 5, False))
@example((2, 3, 7, False))
def test_thom_sebastiani_from_counts(case):
    # count -> fit -> closed form -> nearby cycles, against the Burnside sum:
    # 1 - psi_{x^a + y^b} = [conv(mu_a - 1, mu_b - 1)]
    a, b, q, swap = case
    D = FIT_DEPTH[(a, b)]
    if swap:
        a, b = b, a
    s = sum_zeta_pullback(parse_poly("x^%d" % a), parse_poly("y^%d" % b), D, count_realization(q))
    with pytest.raises(FitFailed):
        _fit_pullback(s, D - 8, math.lcm(a, b))
    psi = nearby_cycles(_fit_pullback(s, D, math.lcm(a, b)))
    one = SymbolicClass.unit()
    mu_a = SymbolicClass.from_atom(Atom("mu%d" % a, a))
    mu_b = SymbolicClass.from_atom(Atom("mu%d" % b, b))
    binding = Binding(standard_atom_sets(("mu%d" % a, "mu%d" % b)), q)
    assert 1 - psi == bind_and_count(conv(mu_a - one, mu_b - one), binding)


def test_pullback_2_5_extrapolates_past_its_samples():
    # (x^2, y^5) at q=11: one recurrence of order 2 per residue mod 10 with
    # roots q^-10 and q^-7, found from D=64; its values match the counts to
    # D=128.  The closed form is outside the one/two-factor strands.
    q = 11
    s = sum_zeta_pullback(X2, parse_poly("y^5"), 128, count_realization(q))
    seq = strand_fit(s.real, {n: s.coeff((n,)) for n in range(1, 65)}, period=10)
    for modes in seq.modes:
        assert sorted(ratio for ratio, _ in modes) == [Fraction(1, q**10), Fraction(1, q**7)]
    for n in range(65, 129):
        assert seq.value(n) == s.coeff((n,))
    with pytest.raises(FitFailed, match="candidate strands"):
        closed_from_fit(seq)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_series_round_trip_and_determinism():
    z1 = zeta_trunc(X2, 8, symbolic_realization())
    z2 = zeta_trunc(X2, 8, symbolic_realization())
    blob1 = series_to_json(z1)
    blob2 = series_to_json(z2)
    assert blob1 == blob2
    assert series_from_json(blob1) == z1
    mz = multizeta_trunc((X2, Y3), 8, count_realization(7))
    assert series_from_json(series_to_json(mz)) == mz
