"""Jet loci and zeta series: counting routes, splits, resolution evaluators."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import (
    direct_pair_counts,
    fermat_affine_brute,
    jet_count_direct,
    lattice_sum,
    mono_exact_count,
    mono_ordgt_count,
    multizeta_direct,
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
from motzeta.geomset import GeomSet, WorkMeter, fermat_pair, twisted_count
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
    hadamard_conv,
    hadamard_ext,
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
    cone_euler,
    default_q,
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
    required_orders,
    shape_exponent,
    standard_atom_sets,
    sum_zeta_pullback,
    validate_cone,
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


def test_shape_exponent():
    assert shape_exponent(X2) == 2
    assert shape_exponent(X) == 1
    assert shape_exponent(XY) == 1
    assert shape_exponent("3*x") == 1
    assert shape_exponent("2*x + 3*y + z") == 1
    for f in ("x^2 + x^3", "x + y^2", "2*x^2", "x*y", "x + x^2"):
        assert shape_exponent(f) is None, f
    # a prime dividing the exponent or a linear coefficient has no strand
    assert shape_exponent(X3, 3) is None
    assert shape_exponent(X3, 5) == 3
    assert shape_exponent("5*x + 5*y", 5) is None
    assert shape_exponent("5*x + 5*y", 7) == 1


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
        (parse_poly("x^2 + x^3"), 5, 5, None),
        (parse_poly("x*y"), 3, 4, None),
    ]
    for f, q, top, a in cases:
        assert shape_exponent(f, q) == a
        ax = AxisCounts(f, q)
        for n in range(1, top + 1):
            assert ax.exact(n) == jet_count_direct(f, n, q), (f, n)
            assert ax.ordgt(n) == jet_count_direct(f, n, q, target="ordgt"), (f, n)
    # past the oracle's jet space, DFS counts against closed forms: x^2 + x^3
    # is x^2 after the change of coordinate x -> x (1 + x)^(1/2)
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
    with pytest.raises(BudgetExceeded, match="level 8 exceed the budget of 10 candidates"):
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
        pytest.param(lambda: sum_zeta_pullback("x^2+x^3", "y^2", 2, count_realization(5), mode="strata"),
                     "summand x^3 + x^2 is not one at q=5", id="pullback-strata-generic"),
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
                     "Stratum nu: twists must be >= 1", id="stratum-nu"),
        pytest.param(lambda: ResolutionData([]),
                     "ResolutionData strata: need at least one stratum", id="resolution-strata"),
        pytest.param(lambda: jet_set(X2, 0), "jet order n must be >= 1, not 0", id="jet-order"),
        pytest.param(lambda: multizeta_trunc((), 4, R7),
                     "the family fs needs at least one function", id="multizeta-empty"),
        pytest.param(lambda: multizeta_separable((), R7),
                     "the family fs needs at least one function", id="separable-empty"),
        pytest.param(lambda: monomial_pair_counts(3, 2, 3, 3),
                     "exponent a=3 must be prime to q=3", id="pair-exponent"),
        pytest.param(lambda: validate_cone(ConePieces(()), lambda p: False, 3),
                     "dim is needed when there are no pieces", id="validate-dim"),
        pytest.param(lambda: dl_eval(RES2, R7, cone=ConePieces(((((1, 0, 0),), (True,)),))),
                     "stratum 0 (E1): generators need one entry per member, 1", id="dl-cone-width"),
        pytest.param(lambda: parse_resolution([{"I": ["E"], "N": [[1]]}]),
                     "parse_resolution: stratum 0 has no 'nu'", id="resolution-key"),
        pytest.param(lambda: Stratum(("E",), None, (("a",),), (1,)),
                     "Stratum N: entries must be integers", id="stratum-N-int"),
        pytest.param(lambda: Stratum(("E",), None, ((1,),), ("b",)),
                     "Stratum nu: entries must be integers", id="stratum-nu-int"),
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
                     "TruncSeries entries: exponent [-1] is negative", id="trunc-negative-exponent"),
        pytest.param(lambda: hadamard_conv(zeta_trunc(X2, 4, R7), zeta_trunc(X2, 4, R7)),
                     "hadamard_conv operands must have class coefficients, not count at q=7",
                     id="hadamard-conv-counted"),
        pytest.param(lambda: hadamard_ext(ClosedSeries(R7, ("T",)), TruncSeries(R7, ("T",), 3)),
                     "Hadamard operands must both be closed or both truncated, not ClosedSeries and TruncSeries",
                     id="hadamard-mixed"),
        pytest.param(lambda: EGSeq(R7, 0, []), "EGSeq period must be >= 1, not 0", id="egseq-period"),
        pytest.param(lambda: EGSeq.constant(R7, Fraction(1)).value(0),
                     "EGSeq values: n=0 is below the domain start dom_min=1", id="egseq-domain"),
        pytest.param(lambda: EGSeq.single_residue(R7, 2, 0, Fraction(1, 7), Fraction(1)).re_period(3),
                     "EGSeq re_period: new_period=3 is not a multiple of the period 2", id="egseq-re-period"),
        pytest.param(lambda: Strand(Fraction(1), (-1,), []),
                     "Strand b: monomial exponent [-1] is negative", id="strand-b"),
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
                     "series_from_dict mode: must be 'trunc' or 'closed', not 'open'", id="from-dict-mode"),
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
        pytest.param(lambda: _symbolic_entry([{"factors": [{"conv": 2, "left": [], "right": [], "aug": False}],
                                               "aug": False, "coeff": ONE_DATA}]),
                     "series_from_dict conv: kind must be 0 or 1, not 2", id="from-dict-conv-kind"),
        pytest.param(lambda: _symbolic_entry([{"factors": [], "aug": False,
                                               "coeff": {"num": [[0, 1]], "den": [0]}}]),
                     "LocRat den: factors (1-L^n) need n >= 1, not [0]", id="from-dict-den"),
        pytest.param(lambda: series_from_dict({"realization": COUNT7, "vars": ["T"], "mode": "trunc", "bound": 2,
                                               "entries": [{"exp": [1], "coeff": "1/x"}]}),
                     "series_from_dict coeff: '1/x' is not a fraction", id="from-dict-fraction"),
        pytest.param(lambda: LocRat(1, (0,)), "LocRat den: factors (1-L^n) need n >= 1, not [0]",
                     id="locrat-den"),
        pytest.param(lambda: LaurentPoly.const(2) ** -1, "LaurentPoly power: exponent must be >= 0, not -1",
                     id="laurent-power"),
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
        pytest.param(lambda: standard_atom_sets(["mu0"]), "GeomSet action_order must be >= 1, not 0",
                     id="atom-mu0"),
        pytest.param(lambda: default_q((0,)), "default_q orders must be >= 1, not 0", id="default-q-order"),
        pytest.param(lambda: zeta_trunc(X2, 4, count_realization(4)),
                     "a counted zeta series needs a prime q, got 4", id="zeta-prime"),
        pytest.param(lambda: ConePieces.from_json({"pieces": [{}]}),
                     "ConePieces.from_json: piece 0 has no 'gens'", id="cone-json-gens"),
        pytest.param(lambda: ConePieces(((((1, 0), (1,)), (True, True)),)),
                     "piece 0: generators ((1, 0), (1,)) differ in length", id="cone-ragged"),
        pytest.param(lambda: ConePieces(((((1, 0),), (True,)), (((1, 1), (2, 2)), (True, True)))),
                     "piece 1: generators ((1, 1), (2, 2)) are linearly dependent", id="cone-parallel"),
        pytest.param(lambda: ConePieces(((((1, 0), (0, 1), (1, 1)), (True, True, False)),)),
                     "piece 0: generators ((1, 0), (0, 1), (1, 1)) are linearly dependent",
                     id="cone-too-many-generators"),
        pytest.param(lambda: validate_cone(ConePieces(((((1, 0),), (True,)),)), lambda p: False, 2, dim=3),
                     "piece 0: generators of length 2 in dimension 3", id="validate-dim-mismatch"),
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
    # level-12 jets
    z = zeta_trunc("x^2 + x^3", 12, count_realization(5))
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
    with pytest.raises(FitFailed):
        zeta_closed(parse_poly("x^2 + x^3"), symbolic_realization())
    with pytest.raises(FitFailed, match="x\\^3 at q=3"):
        zeta_closed(X3, count_realization(3))


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
    # x^2 (x-1)^2 at q=5 vanishes at 0 and 1; each zero's DFS counts spend
    # 60 candidates through level 8, under one budget for the call
    f = "x^4 - 2*x^3 + x^2"
    r5 = count_realization(5)
    with pytest.raises(
        BudgetExceeded,
        match=r"jet counts of x\^4 - 2\*x\^3 \+ x\^2 at level 8 of the zero x=1 "
        "exceed the budget of 119 candidates",
    ):
        zeta_trunc(f, 8, r5, base="global", budget=119)
    assert zeta_trunc(f, 8, r5, base="global", budget=120) == zeta_trunc(f, 8, r5, base="global")


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
    # at q=5 through D=9 the exact-hit counts of x^2+x^3 spend 10 candidates
    # and the order-beyond counts of y^2+y^3 45, under one budget
    fs, r5 = ("x^2+x^3", "y^2+y^3"), count_realization(5)
    with pytest.raises(
        BudgetExceeded, match=r"jet counts of y\^3 \+ y\^2 at level 7 exceed the budget of 54 "
    ):
        multizeta_trunc(fs, 9, r5, budget=54)
    assert multizeta_trunc(fs, 9, r5, budget=55) == multizeta_trunc(fs, 9, r5)


def _chains(r, D):
    """Strict chains n_1 < .. < n_r of positive integers with |n| <= D."""
    return [ns for ns in itertools.combinations(range(1, D + 1), r) if sum(ns) <= D]


def test_multizeta_counted_chains_match_the_chain_block_deep():
    # the one chain walk against the product, at level |n|, of the closed
    # x^a jet counts of tests/brute.py (the oracle pads every axis to the
    # family level, the walk normalizes each at its own level), far past
    # the brute-force enumeration's reach.  x^2 + x^3 is x^2 after the
    # change of coordinate x -> x (1 + x)^(1/2), so its DFS stream meets
    # the same oracle, as a leading or as a trailing axis.
    cases = [
        ((X2, Y3), (2, 3), 40, 7),
        ((X2, Y3, "z^5"), (2, 3, 5), 45, 31),
        ((X, "y^2"), (1, 2), 30, 5),
        (("x^2 + x^3", Y3), (2, 3), 30, 7),
        ((X, "y^2 + y^3", "z^3"), (1, 2, 3), 30, 7),
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


# germs for the family property: recognized shapes (closed streams) and
# other germs (DFS streams), among them a constant term and x^3 at q=3
FAMILY_POOL = [
    "x", "2*x", "x^2", "x^3", "x + y",
    "x^2 + x^3", "x*y", "x^3 + x^4", "1 + x", "x^2 - x", "x - x^3",
]
FAMILY_JETS = 3**9  # brute-force jets per chain


@st.composite
def _families(draw):
    # q and D reach the first chain (level r(r+1)/2) whenever the jet cap
    # allows it
    fs = tuple(parse_poly(f) for f in draw(st.lists(st.sampled_from(FAMILY_POOL), min_size=1, max_size=3)))
    r, dtot = len(fs), sum(len(f.vars) for f in fs)
    first = r * (r + 1) // 2
    qs = [q for q in (3, 5, 7) if q ** (dtot * first) <= FAMILY_JETS] or [3, 5, 7]
    q = draw(st.sampled_from(qs))
    top = max(D for D in range(1, 7) if D == 1 or q ** (dtot * D) <= FAMILY_JETS)
    return fs, draw(st.integers(min(top, first), top)), q


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_families())
@example(((parse_poly("x^2 - x"), parse_poly("x^2 + x^3")), 4, 3))
@example(((X, X3), 4, 3))
@example(((parse_poly("2*x"), parse_poly("x*y")), 3, 3))
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
    trail = multizeta_separable((X, f), real).streams[1]
    for n in range(1, 31):
        assert lead.value(n) == Fraction(ax.exact(n), q ** (d * n)), n
        assert trail.value(n) == Fraction(ax.ordgt(n), q ** (d * n)), n


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
    # generic pair: auto counts the direct sum x^2+x^3+y^2+y^3 by the DFS,
    # under one budget for all levels; its counts spend 0, 5, 10, 15, 20,
    # 25 and 30 candidates at levels 1-7
    with pytest.raises(BudgetExceeded, match="at level 3 exceed the budget of 10 "):
        sum_zeta_pullback(
            "x^2+x^3", "y^2+y^3", 4, count_realization(5), budget=10
        )
    with pytest.raises(BudgetExceeded, match="at level 7 exceed the budget of 100 "):
        sum_zeta_pullback(
            "x^2+x^3", "y^2+y^3", 7, count_realization(5), budget=100
        )
    # 75 candidates reach level 6, with the totals of the split by leading order
    total, _ = sum_zeta_pullback("x^2+x^3", "y^2+y^3", 6, count_realization(5), split=True)
    assert sum_zeta_pullback("x^2+x^3", "y^2+y^3", 6, count_realization(5), budget=75) == total


def test_pullback_split_budget_covers_every_level():
    # the pair counts of x^2+x^3 and y^2+y^3 at q=5 spend 0, 20, 60 and 100
    # candidates at levels 1-4, under one budget for the call
    f, g, r5 = "x^2+x^3", "y^2+y^3", count_realization(5)
    with pytest.raises(BudgetExceeded, match="pair counts at level 4 exceed the budget of 179 "):
        sum_zeta_pullback(f, g, 4, r5, split=True, budget=179)
    assert sum_zeta_pullback(f, g, 4, r5, split=True, budget=180) == sum_zeta_pullback(
        f, g, 4, r5, split=True
    )


def test_pullback_split_expands_each_function_once(monkeypatch):
    # the split reads every level off one expansion of each function, with
    # the counts and the meter charges of histogram_pair_counts per level
    f, g, q, D = parse_poly("x^2+x^3"), parse_poly("y^2+y^3"), 5, 6
    meter = WorkMeter()
    levels = [histogram_pair_counts(f, g, n, q, meter) for n in range(1, D + 1)]
    built = []

    class CountedExpansion(zeta.JetExpansion):
        def __init__(self, h):
            built.append(h)
            super().__init__(h)

    monkeypatch.setattr(zeta, "JetExpansion", CountedExpansion)
    r5 = count_realization(q)
    total, parts = sum_zeta_pullback(f, g, D, r5, split=True, budget=meter.spent)
    assert built == [f, g]
    for n, c in enumerate(levels, 1):
        den = q ** (2 * n)
        assert total.coeff((n,)) == Fraction(c["total"], den)
        for k, part in parts.items():
            assert part.coeff((n,)) == Fraction(c[k], den)
    # the split spends exactly what the per-level counts spent
    with pytest.raises(BudgetExceeded):
        sum_zeta_pullback(f, g, D, r5, split=True, budget=meter.spent - 1)


def test_pullback_requires_disjoint_variables():
    with pytest.raises(MotzetaError):
        sum_zeta_pullback(X2, X3, 4, count_realization(5))


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
    with pytest.raises(BudgetExceeded, match="atom 'F' at twist 0 exceeds the budget of 1 "):
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
    assert cone_euler(quad) == 0
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


def test_cone_json_round_trip():
    quad = _quadrant()
    again = ConePieces.from_json(quad.to_json())
    assert again.pieces == quad.pieces and again.origin == quad.origin


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
# prime selection and serialization
# ---------------------------------------------------------------------------


def test_default_q_choices():
    assert default_q(()) == 2
    assert default_q((2,)) == 3
    assert default_q((2, 3)) == 7
    assert default_q((4,)) == 5
    assert default_q((5,)) == 11
    assert default_q((2,), avoid=(3,)) == 5


def test_required_orders_feed_default_q():
    orders, avoid = required_orders((X2, Y3))
    assert default_q(orders, avoid=avoid) == 7


def test_series_round_trip_and_determinism():
    z1 = zeta_trunc(X2, 8, symbolic_realization())
    z2 = zeta_trunc(X2, 8, symbolic_realization())
    blob1 = series_to_json(z1)
    blob2 = series_to_json(z2)
    assert blob1 == blob2
    assert series_from_json(blob1) == z1
    mz = multizeta_trunc((X2, Y3), 8, count_realization(7))
    assert series_from_json(series_to_json(mz)) == mz
