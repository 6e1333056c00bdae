"""Series layer: truncations, closed forms, limits, cells, chain transforms."""

import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from brute import berlekamp_massey_brute, chains_brute, solve_exact_brute, strand_candidates_brute
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzeta.egseq import EGSeq
from motzeta.errors import (
    BaseMismatch,
    FitFailed,
    MotzetaError,
    NotLimitNormal,
    TailNotSummable,
    VariableMismatch,
)
from motzeta.locring import LaurentPoly, LocRat, ONE
from motzeta.motclass import Atom, SymbolicClass, augment, conv, conv0, external_mul
from motzeta.realize import count_realization, symbolic_realization
from motzeta.series import (
    CellSpec,
    ClosedSeries,
    SeparableSeries,
    Strand,
    TruncSeries,
    _berlekamp_massey,
    _solve_exact,
    _strand_candidates,
    cell_decompose,
    closed_from_fit,
    expand_chains,
    extend_const,
    hadamard_conv,
    hadamard_ext,
    lim_infty,
    monomial_substitute,
    project,
    series_from_json,
    series_to_json,
    strand_fit,
    v_hadamard,
)

Q = 7
COUNT = count_realization(Q)
SYM = symbolic_realization("pt")

MU2 = SymbolicClass.from_atom(Atom("mu2", 2))
MU3 = SymbolicClass.from_atom(Atom("mu3", 3))
UNIT = SymbolicClass.unit()


def geom(real, coeff, m, steps, nvars=1, axis=0):
    n = [0] * nvars
    n[axis] = steps
    return ClosedSeries(real, tuple("TUV"[:nvars]), [Strand(coeff, (0,) * nvars, [(m, tuple(n))])])


# ---------------------------------------------------------------------------
# classification and limits
# ---------------------------------------------------------------------------


def test_classify_by_twist_sign():
    assert geom(COUNT, Fraction(1), -1, 1).classify() == "int"
    assert geom(COUNT, Fraction(1), 0, 1).classify() == "ssr"
    assert geom(COUNT, Fraction(1), 1, 1).classify() == "sr"
    mixed = geom(COUNT, Fraction(1), -1, 1).add(geom(COUNT, Fraction(2), 0, 2))
    assert mixed.classify() == "ssr"
    assert ClosedSeries(COUNT, ("T",)).classify() == "int"


def test_lim_geometric_strand_is_minus_coeff():
    s = geom(SYM, MU2, -1, 2)
    assert lim_infty(s) == MU2.scale(-1)
    two_factor = ClosedSeries(
        SYM, ("T",), [Strand(MU3, (0,), [(-1, (1,)), (-2, (3,))])]
    )
    assert lim_infty(two_factor) == MU3


def test_lim_constant_and_monomial():
    const = ClosedSeries(COUNT, ("T",), [Strand(Fraction(5), (0,), [])])
    assert lim_infty(const) == Fraction(5)
    poly = ClosedSeries(COUNT, ("T",), [Strand(Fraction(1), (2,), [])])
    with pytest.raises(NotLimitNormal):
        lim_infty(poly)
    dressed = ClosedSeries(COUNT, ("T",), [Strand(Fraction(1), (1,), [(-1, (1,))])])
    with pytest.raises(NotLimitNormal):
        lim_infty(dressed)
    with pytest.raises(NotLimitNormal):
        lim_infty(TruncSeries(COUNT, ("T",), 4, {(1,): Fraction(1)}))


def test_lim_is_linear():
    rng = random.Random(4021)
    for _ in range(25):
        strands_a = []
        strands_b = []
        for out in (strands_a, strands_b):
            for _ in range(rng.randint(1, 3)):
                nf = rng.randint(0, 2)
                fs = [(rng.randint(-3, -1), (rng.randint(1, 2),)) for _ in range(nf)]
                out.append(Strand(Fraction(rng.randint(-4, 4)), (0,), fs))
        a = ClosedSeries(COUNT, ("T",), strands_a)
        b = ClosedSeries(COUNT, ("T",), strands_b)
        assert lim_infty(a.add(b)) == lim_infty(a) + lim_infty(b)
        assert lim_infty(a.scale(Fraction(3, 2))) == Fraction(3, 2) * lim_infty(a)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def test_expansion_of_geometric_strand():
    s = geom(SYM, MU2, -1, 2)
    t = s.expand(9)
    assert sorted(t.entries) == [(2,), (4,), (6,), (8,)]
    for k in range(1, 5):
        assert t.coeff((2 * k,)) == MU2.scale(LocRat.L(-k))


def test_expansion_consistency_under_truncation():
    s = ClosedSeries(
        COUNT,
        ("T",),
        [
            Strand(Fraction(2), (0,), [(-1, (1,))]),
            Strand(Fraction(1), (0,), [(-2, (2,)), (-1, (1,))]),
        ],
    )
    assert TruncSeries(s.real, s.vars, 7, s.expand(12).entries) == s.expand(7)


def test_bivariate_strand_is_jointly_integrable():
    s = ClosedSeries(
        COUNT, ("T", "U"), [Strand(Fraction(1), (0, 0), [(-1, (1, 0)), (-2, (0, 3))])]
    )
    assert s.classify() == "int"
    t = s.expand(8)
    assert t.coeff((2, 3)) == Fraction(1, Q**2 * Q**2)


# ---------------------------------------------------------------------------
# Hadamard products
# ---------------------------------------------------------------------------


def test_hadamard_ext_geometric_times_geometric():
    a = geom(SYM, UNIT, -1, 1)
    b = geom(SYM, UNIT, -1, 1)
    prod = hadamard_ext(a, b)
    assert prod == geom(SYM, UNIT, -2, 1)
    # dual route: entrywise on expansions
    assert hadamard_ext(a.expand(10), b.expand(10)) == prod.expand(10)


def test_hadamard_ext_disjoint_rays_vanish():
    a = geom(COUNT, Fraction(1), -1, 2)
    b = geom(COUNT, Fraction(1), -1, 3)
    prod = hadamard_ext(a, b)
    assert prod == geom(COUNT, Fraction(1), -5, 6)
    c = ClosedSeries(
        COUNT, ("T", "U"), [Strand(Fraction(1), (0, 0), [(-1, (1, 0))])]
    )
    d = ClosedSeries(
        COUNT, ("T", "U"), [Strand(Fraction(1), (0, 0), [(-1, (0, 1))])]
    )
    assert hadamard_ext(c, d).is_zero()


def test_hadamard_with_zero():
    a = geom(COUNT, Fraction(1), -1, 1)
    z = ClosedSeries(COUNT, ("T",))
    assert hadamard_ext(a, z).is_zero()
    assert hadamard_ext(a.expand(6), z.expand(6)).is_zero()
    # class entries that cancel are dropped, not stored as zero classes
    assert TruncSeries(SYM, ("T",), 3, [((1,), MU2), ((1,), -MU2)]).entries == {}
    strands = [Strand(c, (0,), [(-1, (1,))]) for c in (MU2, -MU2)]
    assert ClosedSeries(SYM, ("T",), strands).is_zero()


def _random_class(rng):
    out = SymbolicClass.zero()
    for _ in range(rng.randint(1, 2)):
        c = LocRat.from_int(rng.randint(-3, 3))
        roll = rng.random()
        if roll < 0.4:
            part = UNIT.scale(c)
        elif roll < 0.8:
            part = (MU2 if rng.random() < 0.5 else MU3).scale(c)
        else:
            part = conv0(MU2, MU3).scale(c)
        out = out + part
    return out


def test_hadamard_ext_is_associative():
    rng = random.Random(915)
    vars = ("T", "U")
    for _ in range(10):
        series = []
        for _ in range(3):
            ent = {}
            for _ in range(rng.randint(2, 5)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                ent[e] = _random_class(rng)
            series.append(TruncSeries(SYM, vars, 6, ent))
        a, b, c = series
        assert hadamard_ext(hadamard_ext(a, b), c) == hadamard_ext(a, hadamard_ext(b, c))


def test_hadamard_conv_trivial_actions_reduce_to_ext():
    rng = random.Random(916)
    ent_a = {(n,): UNIT.scale(LocRat.L(-n)) for n in range(1, 6)}
    ent_b = {(n,): UNIT.scale(LocRat.from_int(rng.randint(1, 4))) for n in range(1, 6)}
    a = TruncSeries(SYM, ("T",), 6, ent_a)
    b = TruncSeries(SYM, ("T",), 6, ent_b)
    assert hadamard_conv(a, b) == hadamard_ext(a, b)
    with pytest.raises(BaseMismatch, match="hadamard_conv operands must have class coefficients"):
        hadamard_conv(TruncSeries(COUNT, ("T",), 4, {(1,): Fraction(2)}),
                      TruncSeries(COUNT, ("T",), 4, {(1,): Fraction(3)}))


def test_v_hadamard_degenerate_blocks():
    a = TruncSeries(COUNT, ("T",), 5, {(n,): Fraction(n) for n in range(1, 5)})
    b = TruncSeries(COUNT, ("U",), 5, {(n,): Fraction(1, n) for n in range(1, 5)})
    full_ext = v_hadamard(a, b)
    assert full_ext.vars == ("T", "U")
    assert full_ext.coeff((2, 3)) == Fraction(2) * Fraction(1, 3)
    c = TruncSeries(COUNT, ("T", "U"), 5, {(1, 2): Fraction(2), (2, 1): Fraction(5)})
    d = TruncSeries(COUNT, ("T", "U"), 5, {(1, 2): Fraction(7), (2, 2): Fraction(1)})
    assert v_hadamard(c, d) == hadamard_ext(c, d)


def _permuted(s, order):
    """s with its variables reordered: position i holds variable order[i]."""
    ent = {tuple(e[i] for i in order): v for e, v in s.entries.items()}
    return TruncSeries(s.real, tuple(s.vars[i] for i in order), s.bound, ent)


def test_v_hadamard_matches_constant_extension_route():
    rng = random.Random(917)
    a_ent = {}
    for _ in range(6):
        a_ent[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(1, 9))
    b_ent = {}
    for _ in range(6):
        b_ent[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(1, 9))
    a = TruncSeries(COUNT, ("T", "V"), 6, a_ent)
    b = TruncSeries(COUNT, ("V", "U"), 6, b_ent)
    joint = v_hadamard(a, b)
    assert joint.vars == ("T", "U", "V")
    a_ext = _permuted(extend_const(a, ("U",)), (0, 2, 1))
    b_ext = _permuted(extend_const(b, ("T",)), (2, 1, 0))
    assert a_ext.vars == ("T", "U", "V") and b_ext.vars == ("T", "U", "V")
    assert joint == hadamard_ext(a_ext, b_ext)


def _v_hadamard_oracle(a, b):
    """Nested loop over entry pairs, matching shared variables by name,
    one product per pair of entries."""
    shared = [v for v in a.vars if v in b.vars]
    vars2 = [v for v in a.vars if v not in shared] + [v for v in b.vars if v not in shared] + shared
    bound = min(a.bound, b.bound)
    out = {}
    for ea, va in a.entries.items():
        da = dict(zip(a.vars, ea))
        for eb, vb in b.entries.items():
            db = dict(zip(b.vars, eb))
            if all(da[v] == db[v] for v in shared):
                exp = tuple({**da, **db}[v] for v in vars2)
                if sum(exp) <= bound:
                    out[exp] = out[exp] + va * vb if exp in out else va * vb
    return TruncSeries(a.real, vars2, bound, out)


@st.composite
def _v_hadamard_operands(draw):
    real = draw(st.sampled_from((COUNT, SYM)))
    if real.tag == "count":
        value = st.integers(-3, 3).filter(bool).map(Fraction)
    else:
        value = st.sampled_from((MU2, MU3, UNIT.scale(LocRat.L(-1)), MU2.scale(LocRat.from_int(-2))))
    names = draw(st.permutations("TUVWX"))
    na = draw(st.integers(1, 3))
    a_vars = names[:na]
    # b shares none, some or all of a's variables, in a's order
    share = draw(st.sampled_from(("none", "some", "all")))
    if share == "some":
        shared = [v for v in a_vars if draw(st.booleans())]
    else:
        shared = list(a_vars) if share == "all" else []
    b_vars = list(shared)
    for v in names[na : na + draw(st.integers(0 if shared else 1, 2))]:
        b_vars.insert(draw(st.integers(0, len(b_vars))), v)

    def series(vars):
        bound = draw(st.integers(2, 6))
        exps = st.tuples(*[st.integers(0, 2)] * len(vars))
        # entries pick from a pool of objects, so one object may sit at
        # several exponents, as in the series expand_chains builds
        pool = draw(st.lists(value, min_size=1, max_size=12))
        ent = draw(st.dictionaries(exps, st.sampled_from(pool), min_size=1, max_size=12))
        return TruncSeries(real, vars, bound, ent)

    return series(a_vars), series(b_vars)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_v_hadamard_operands())
def test_v_hadamard_matches_nested_loop_oracle(ab):
    a, b = ab
    assert v_hadamard(a, b) == _v_hadamard_oracle(a, b)


def test_v_hadamard_rejects_reordered_shared_block():
    a = TruncSeries(COUNT, ("T", "U"), 4, {(1, 1): Fraction(1)})
    b = TruncSeries(COUNT, ("U", "T"), 4, {(1, 1): Fraction(1)})
    with pytest.raises(VariableMismatch):
        v_hadamard(a, b)


# ---------------------------------------------------------------------------
# ordered cells
# ---------------------------------------------------------------------------


def _full_support(real, vars, bound):
    ent = {}

    def rec(prefix, rem):
        if len(prefix) == len(vars):
            ent[tuple(prefix)] = Fraction(1)
            return
        for v in range(rem + 1):
            rec(prefix + [v], rem - v)

    rec([], bound)
    return TruncSeries(real, vars, bound, ent)


def test_cell_counts_two_and_three_axes():
    a2 = _full_support(COUNT, ("T", "U"), 4)
    cells2 = cell_decompose(a2)
    assert len(cells2) == 3
    a3 = _full_support(COUNT, ("T", "U", "V"), 3)
    cells3 = cell_decompose(a3)
    assert len(cells3) == 13


def test_cells_partition_and_sum():
    a = _full_support(COUNT, ("T", "U"), 5)
    cells = cell_decompose(a)
    total = TruncSeries(COUNT, ("T", "U"), 5)
    seen = set()
    for spec, part in cells.items():
        for e in part.entries:
            assert CellSpec.from_point(e) == spec
            assert e not in seen
            seen.add(e)
        total = total.add(part)
    assert seen == set(a.entries)
    assert total == a


def test_chain_supported_series_lives_in_one_cell():
    ent = {(1, 2): Fraction(1), (2, 5): Fraction(3), (1, 4): Fraction(2)}
    a = TruncSeries(COUNT, ("T", "U"), 7, ent)
    cells = cell_decompose(a)
    assert len(cells) == 1
    (spec,) = cells
    assert spec == CellSpec((0, 1), (1, 2))
    assert spec.masks() == [(1, 0), (0, 1)]


def test_cellspec_groups_ties():
    spec = CellSpec.from_point((3, 1, 3))
    assert spec.groups() == [(1,), (0, 2)]
    assert spec.masks() == [(0, 1, 0), (1, 0, 1)]
    assert CellSpec.from_point((5, 0, 5)) == spec
    assert CellSpec.from_point((5, 0, 4)) != spec


# ---------------------------------------------------------------------------
# coefficient-base projection
# ---------------------------------------------------------------------------


def test_project_counts_is_identity_on_values():
    a = TruncSeries(COUNT, ("T",), 4, {(1,): Fraction(3), (2,): Fraction(9)})
    assert project(a, 0) is a


def test_project_retags_class_base():
    real = symbolic_realization("X*Y")
    cx = SymbolicClass.from_atom(Atom("mu2", 2, "X"), base="X")
    cy = SymbolicClass.from_atom(Atom("mu3", 3, "Y"), base="Y")
    joint = external_mul(cx, cy)
    a = TruncSeries(real, ("T",), 4, {(1,): joint})
    left = project(a, 0)
    assert left.real.zero.base == "X"
    assert left.coeff((1,)) == SymbolicClass(joint.terms, "X")
    with pytest.raises(BaseMismatch):
        project(a, 2)


# ---------------------------------------------------------------------------
# separable chains and the chain transforms
# ---------------------------------------------------------------------------


def _count_stream(rng, decaying=True):
    q = Fraction(Q)
    period = rng.choice([1, 2])
    modes = [[] for _ in range(period)]
    for r in range(period):
        for _ in range(rng.randint(1, 2)):
            j = rng.randint(1, 3) if decaying else 0
            modes[r].append((q**-j, (Fraction(rng.randint(1, 5)),)))
    return EGSeq(COUNT, period, modes, dom_min=0)


def test_chain_transforms_invert_on_counted_chains():
    rng = random.Random(4118)
    for _ in range(8):
        eta = rng.choice([2, 3])
        vars = tuple("TUV"[:eta])
        masks = tuple(tuple(1 if j == i else 0 for j in range(eta)) for i in range(eta))
        streams = tuple(_count_stream(rng) for _ in range(eta))
        s = SeparableSeries(COUNT, vars, masks, streams)
        bound = 10
        base = s.expand(bound)
        assert s.phi().phi_inv().expand(bound) == base
        assert s.phi_inv().phi().expand(bound) == base


def test_chain_transforms_invert_on_class_chains():
    ratio = LocRat.L(-1)
    lead = EGSeq(SYM, 1, [[(ratio, (MU3,))]], dom_min=0)
    trail_val = augment(MU2)
    trail = EGSeq(SYM, 1, [[(LocRat.L(-2), (trail_val,))]], dom_min=0)
    s = SeparableSeries(
        SYM, ("T", "U"), ((1, 0), (0, 1)), (lead, trail)
    )
    base = s.expand(8)
    assert s.phi().phi_inv().expand(8) == base
    assert s.phi_inv().phi().expand(8) == base
    # stream-level agreement well past the expansion window
    rt = s.phi().phi_inv()
    for new, old in zip(rt.streams, s.streams):
        assert [new.value(n) for n in range(1, 21)] == [old.value(n) for n in range(1, 21)]


def test_chain_transform_univariate_is_identity():
    s = SeparableSeries(COUNT, ("T",), ((1,),), (_count_stream(random.Random(1)),))
    assert s.phi() is s and s.phi_inv() is s


def test_inverse_transform_needs_decay():
    rng = random.Random(2)
    lead = _count_stream(rng)
    flat = EGSeq(COUNT, 1, [[(Fraction(1), (Fraction(3),))]], dom_min=0)
    s = SeparableSeries(
        COUNT, ("T", "U"), ((1, 0), (0, 1)), (lead, flat)
    )
    with pytest.raises(TailNotSummable):
        s.phi_inv()


@st.composite
def _axis_stream(draw, real):
    """A random axis stream: either zero off one residue (the shape of a
    lead mu_a stream) or random modes per residue, some of them empty."""
    if real.tag == "count":
        ratios = [Fraction(Q) ** -j for j in (1, 2)] + [Fraction(1, 2)]
        coeff = st.integers(-3, 3).filter(bool).map(Fraction)
    else:
        ratios = [LocRat.L(-j) for j in (1, 2)]
        coeff = st.sampled_from((MU2, MU3, UNIT, UNIT.scale(LocRat.L(-1)), MU2.scale(LocRat.from_int(-2))))
    dom_min = draw(st.integers(0, 2))
    period = draw(st.integers(1, 3))
    if draw(st.booleans()):
        modes = [[] for _ in range(period)]
        modes[draw(st.integers(0, period - 1))] = [(draw(st.sampled_from(ratios)), (draw(coeff),))]
        return EGSeq(real, period, modes, dom_min=dom_min)
    mode = st.tuples(st.sampled_from(ratios), st.lists(coeff, min_size=1, max_size=2).map(tuple))
    modes = [draw(st.lists(mode, min_size=1, max_size=2)) for _ in range(period)]
    return EGSeq(real, period, modes, dom_min)


@st.composite
def _separable_blocks(draw):
    real = draw(st.sampled_from((COUNT, SYM)))
    nvars = draw(st.integers(1, 3))
    eta = draw(st.integers(1, 3))
    mask = st.lists(st.integers(0, 1), min_size=nvars, max_size=nvars).filter(any).map(tuple)
    masks = tuple(draw(mask) for _ in range(eta))
    streams = tuple(draw(_axis_stream(real)) for _ in range(eta))
    # the least total degree of a point, plus some room
    weights = [sum(m) for m in masks]
    least = sum(wt * (j + 1) for j, wt in enumerate(weights))
    bound = least + draw(st.integers(0, 5 if real.tag == "count" else 3))
    return SeparableSeries(real, tuple("TUV"[:nvars]), masks, streams), bound


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_separable_blocks())
@example((SeparableSeries(
    COUNT, ("T", "U"), ((1, 1), (1, 1)),
    (EGSeq.single_residue(COUNT, 2, 0, Fraction(1, 7), Fraction(2)),
     EGSeq(COUNT, 1, [[(Fraction(1), (Fraction(3),))]]))), 12))
def test_separable_expand_matches_brute_force(case):
    s, bound = case
    assert s.expand(bound) == TruncSeries(s.real, s.vars, bound, chains_brute(s.vars, s.masks, s.streams, bound))


def test_separable_expand_merges_masked_axes():
    q = Fraction(Q)
    one = EGSeq(COUNT, 1, [[(q**-1, (Fraction(1),))]], dom_min=0)
    s = SeparableSeries(COUNT, ("T", "U"), ((1, 1),), (one,))
    t = s.expand(8)
    assert sorted(t.entries) == [(w, w) for w in range(1, 5)]
    assert t.coeff((3, 3)) == q**-3


class _DictStream:
    """A stream given by its nonzero values from dom_min on."""

    def __init__(self, zero, values, dom_min):
        self.zero, self.values, self.dom_min = zero, values, dom_min

    def value(self, w):
        assert w >= self.dom_min
        return self.values.get(w, self.zero)


class _Recorded:
    """A stream that logs every (axis, w) it is asked for."""

    def __init__(self, stream, axis, log):
        self.stream, self.axis, self.log = stream, axis, log
        self.dom_min = stream.dom_min

    def value(self, w):
        self.log.append((self.axis, w))
        return self.stream.value(w)


def _walk_requests(masks, streams, bound):
    """(axis, w) pairs the chain walk evaluates: w on axis j lies on a
    strict chain of positive integers through the bound whose axes up to j
    are in their domains and whose values before j are nonzero."""
    out = set()
    for ws in itertools.combinations(range(1, bound + 1), len(streams)):
        if sum(w * sum(m) for w, m in zip(ws, masks)) > bound:
            continue
        for j, (w, s) in enumerate(zip(ws, streams)):
            if w < s.dom_min:
                break
            out.add((j, w))
            if not s.value(w):
                break
    return out


_CHAIN_CLASSES = (
    MU2, MU3, UNIT, MU2.scale(LocRat.L(-1)), MU3.scale(LocRat.L(2)),
    UNIT.scale(LocRat.L(-2)), MU2.scale(-ONE), MU3.scale(LocRat.from_int(-2)),
)


@st.composite
def _chain_cases(draw):
    real = draw(st.sampled_from((COUNT, SYM)))
    nvars = draw(st.integers(1, 3))
    eta = draw(st.integers(1, 3))
    mask = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).filter(any).map(tuple)
    masks = tuple(draw(mask) for _ in range(eta))
    if real.tag == "count":
        coeff, copy = st.integers(-2, 2).map(Fraction), Fraction
    else:
        coeff = st.one_of(st.just(SYM.zero), st.sampled_from(_CHAIN_CLASSES))
        copy = operator.methodcaller("scale", ONE)
    streams = []
    for _ in range(eta):
        dom_min = draw(st.integers(1, 3))
        if draw(st.booleans()):
            # a step function, as an order-beyond stream is: runs of equal
            # values, each w holding its own equal copy
            width = draw(st.integers(2, 4))
            runs = draw(st.lists(coeff, min_size=1, max_size=5))
            values = {w: copy(runs[min((w - dom_min) // width, len(runs) - 1)]) for w in range(dom_min, 15)}
        else:
            values = draw(st.dictionaries(st.integers(dom_min, 14), coeff, max_size=10))
        streams.append(_DictStream(real.zero, values, dom_min))
    return real, tuple("TUV"[:nvars]), masks, tuple(streams), draw(st.integers(0, 14))


def _count_case(masks, values, dom_mins, bound):
    streams = tuple(
        _DictStream(COUNT.zero, {w: Fraction(v) for w, v in vals.items()}, d)
        for vals, d in zip(values, dom_mins)
    )
    return COUNT, tuple("TUV"[: len(masks[0])]), masks, streams, bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chain_cases())
# equal masks: (1,4) and (2,3) both land on T^5 and cancel there
@example(_count_case(((1,), (1,)), ({1: 1, 2: 1}, {3: -1, 4: 1}), (1, 1), 6))
# non-unit masks, a later domain start past the cheapest completion
@example(_count_case(((1, 1), (2, 0), (0, 1)), ({1: 2, 2: -1}, {2: 1, 3: 1}, {5: 3}), (1, 2, 5), 14))
def test_expand_chains_matches_brute_force(case):
    real, vars, masks, streams, bound = case
    log = []
    recorded = tuple(_Recorded(s, j, log) for j, s in enumerate(streams))
    got = expand_chains(real, vars, masks, recorded, bound)
    assert got == TruncSeries(real, vars, bound, chains_brute(vars, masks, streams, bound))
    assert all(got.entries.values())
    # each value is asked for once, and exactly where a chain through the
    # bound can still use it; a counted stream charges its meter per value
    # asked, so this pins the walk's charges and budget refusals
    assert len(log) == len(set(log))
    assert set(log) == _walk_requests(masks, streams, bound)


class _Mod6:
    """An int mod 6: a ring with zero divisors, so the product of two
    nonzero stream values can vanish.  Every product is logged."""

    __slots__ = ("n",)
    log = []

    def __init__(self, n):
        self.n = n % 6

    def __mul__(self, other):
        _Mod6.log.append((self.n, other.n))
        return _Mod6(self.n * other.n)

    def __add__(self, other):
        return _Mod6(self.n + other.n)

    def __eq__(self, other):
        return self.n == other.n

    __hash__ = None

    def __bool__(self):
        return bool(self.n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(1, 2), st.dictionaries(st.integers(1, 12), st.integers(1, 5).map(_Mod6), max_size=8)),
        min_size=2,
        max_size=3,
    ),
    st.integers(0, 14),
)
# 2 * 3 = 0: the chain (1, 2) vanishes on the inner axis, its subtree is skipped
@example([(1, {1: _Mod6(2), 2: _Mod6(1)}), (1, {2: _Mod6(3), 3: _Mod6(3)}), (1, {3: _Mod6(1), 4: _Mod6(1)})], 12)
def test_chain_walk_skips_zero_products(axes, bound):
    # a zero product is neither stored nor multiplied further, and a sum
    # that cancels on a collision (equal masks) is deleted
    masks = tuple((m,) for m, _values in axes)
    streams = tuple(_DictStream(_Mod6(0), values, 1) for _m, values in axes)
    _Mod6.log.clear()
    got = expand_chains(COUNT, ("T",), masks, streams, bound)
    assert all(a and b for a, b in _Mod6.log)
    assert got.entries == chains_brute(("T",), masks, streams, bound)
    assert all(got.entries.values())


_ONES = EGSeq(COUNT, 1, [[(Fraction(1), (Fraction(1),))]])
_ZEROS = _DictStream(COUNT.zero, {}, 1)


@pytest.mark.parametrize(
    "vars, masks, bound, message",
    [
        (("T",), ((1,),), -1, "truncation bound must be >= 0, not -1"),
        (("T", "T"), ((1, 0),), 4, "duplicate variable names: ['T', 'T']"),
        (("T", "U"), ((1,),), 4, "mask arity differs from the variable list"),
        (("T", "U"), ((0, 0),), 4, "masks: [0, 0] must be nonzero and nonnegative"),
        (("T", "U"), ((1, -1),), 4, "masks: [1, -1] must be nonzero and nonnegative"),
    ],
    ids=["negative-bound", "duplicate-vars", "mask-arity", "zero-mask", "negative-mask"],
)
@pytest.mark.parametrize("stream", [_ONES, _ZEROS], ids=["ones", "zeros"])
def test_chain_walk_checks_its_arguments_once_per_call(vars, masks, bound, message, stream):
    # the zero stream gives the walk no entry to check, so these are the
    # per-call checks, not a check of the entries the walk builds
    with pytest.raises(VariableMismatch, match=re.escape(message)):
        expand_chains(COUNT, vars, masks, (stream,), bound)
    with pytest.raises(VariableMismatch, match=re.escape(message)):
        SeparableSeries(COUNT, vars, masks, (stream,)).expand(bound)


# ---------------------------------------------------------------------------
# anti-compatibility of the limit with Hadamard products
# ---------------------------------------------------------------------------


def test_limit_anti_compatibility_on_geometric_strands():
    cases = [
        (MU2, -1, 1, MU3, -1, 1),
        (MU2, -2, 2, MU3, -1, 1),
        (MU3, -1, 3, MU3, -2, 3),
        (UNIT.scale(LocRat.L(1)), -2, 2, MU2, -3, 2),
    ]
    for A, ma, ka, B, mb, kb in cases:
        a = geom(SYM, A, ma, ka)
        b = geom(SYM, B, mb, kb)
        lhs_ext = lim_infty(hadamard_ext(a, b))
        rhs_ext = external_mul(lim_infty(a), lim_infty(b)).scale(-1)
        assert lhs_ext == rhs_ext
        lhs_conv = lim_infty(hadamard_conv(a, b))
        rhs_conv = conv(lim_infty(a), lim_infty(b)).scale(-1)
        assert lhs_conv == rhs_conv


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_strand_fit_geometric_stream():
    q = Fraction(Q)
    samples = {n: q**-n for n in range(1, 13)}
    seq = strand_fit(COUNT, samples)
    assert seq.value(20) == q**-20


def test_strand_fit_period_two_stream():
    q = Fraction(Q)
    samples = {}
    for n in range(1, 17):
        samples[n] = 2 * q ** -(n // 2) if n % 2 == 0 else Fraction(0)
    seq = strand_fit(COUNT, samples, period=2)
    assert seq.value(30) == 2 * q**-15
    assert seq.value(31) == 0


def test_strand_fit_rejects_non_stream():
    samples = {n: Fraction(1, n) for n in range(1, 15)}
    with pytest.raises(FitFailed, match="residue 0: recurrence of order 7 needs 15 samples, has 14"):
        strand_fit(COUNT, samples)
    # an exact recurrence whose root 2/7 is not a power of q
    samples = {n: Fraction(2, Q) ** n + Fraction(1, Q**2) ** n for n in range(1, 15)}
    with pytest.raises(FitFailed, match=r"polynomial \(1\)z\^2 \+ \(-15/49\)z\^1 \+ \(2/343\)z\^0 has"):
        strand_fit(COUNT, samples)


@pytest.mark.parametrize(
    "samples, period, message",
    [
        ({1: Fraction(1), 2: "a"}, 1, "strand_fit sample at n=2 is not a rational number: 'a'"),
        ({1: None}, 1, "strand_fit sample at n=1 is not a rational number: None"),
        ({3: 0.5}, 1, "strand_fit sample at n=3 is not a rational number: 0.5"),
        ({1: Fraction(1)}, "a", "strand_fit period must be an int, not 'a'"),
        ({1: Fraction(1)}, 0, "strand_fit period must be >= 1, not 0"),
        ({1: Fraction(1)}, 2.0, "strand_fit period must be an int, not 2.0"),
        ({1: Fraction(1)}, True, "strand_fit period must be an int, not True"),
    ],
)
def test_strand_fit_refuses_malformed_input(samples, period, message):
    with pytest.raises(MotzetaError, match=re.escape(message)) as err:
        strand_fit(COUNT, samples, period=period)
    assert not isinstance(err.value, (TypeError, ValueError))


@pytest.mark.parametrize(
    "q, rule",
    [(1, ">= 2"), (-1, ">= 2"), (0, ">= 2"), ("a", "an int"), (5.0, "an int"), (True, "an int"), (None, "an int")],
    ids=["1", "-1", "0", "a", "5.0", "True", "None"],
)
def test_count_realization_refuses_q_that_is_no_int_from_two(q, rule):
    # q = 1 or -1 would loop forever in the fit's q-valuations, q = 0 divide
    # by zero, and the rest fail deep inside a count; the JSON loader builds
    # its realization through the same constructor
    message = re.escape("count_realization q must be %s, not %r" % (rule, q))
    with pytest.raises(MotzetaError, match=message):
        count_realization(q)
    blob = json.dumps(
        {"vars": ["T"], "realization": {"tag": "count", "q": q}, "mode": "trunc", "bound": 2, "entries": []}
    )
    with pytest.raises(MotzetaError, match=message):
        series_from_json(blob)


@st.composite
def _bm_streams(draw):
    """Integer or rational streams after a run of leading zeros: free
    lists, or the first terms of a random recurrence."""
    value = draw(st.sampled_from((st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12))))
    if draw(st.booleans()):
        body = draw(st.lists(value, max_size=12))
    else:
        coeffs = draw(st.lists(value, min_size=1, max_size=4))
        body = draw(st.lists(value, min_size=len(coeffs), max_size=len(coeffs)))
        while len(body) < 14:
            body.append(-sum(c * body[-1 - i] for i, c in enumerate(coeffs)))
    return [0] * draw(st.integers(0, 3)) + body


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bm_streams())
@example([])
@example([0, 0, 0, 0])
@example([5])
@example([0, 0, Fraction(2, 3)])
def test_fraction_free_berlekamp_massey_matches_the_fraction_oracle(s):
    # a rational stream is cleared of denominators first, as the fit does;
    # a constant factor, or a geometric one 3^n that maps C(x) to C(3x),
    # keeps L, and C too once 2L <= len(s), where the recurrence is unique
    m = math.lcm(*(Fraction(x).denominator for x in s))
    ints = [int(x * m) for x in s]
    C, L = _berlekamp_massey(ints)
    assert C[0] > 0 and math.gcd(*C) == 1
    assert ([Fraction(c, C[0]) for c in C], L) == berlekamp_massey_brute([Fraction(x) for x in ints])
    rational_C, rational_L = berlekamp_massey_brute([Fraction(x) for x in s])
    C3, L3 = _berlekamp_massey([x * 3**n for n, x in enumerate(ints)])
    assert rational_L == L3 == L
    if 2 * L <= len(s):
        assert rational_C == [Fraction(c, C[0]) for c in C]
        assert [Fraction(c, C3[0]) for c in C3] == [Fraction(c * 3**i, C[0]) for i, c in enumerate(C)]


@st.composite
def _linear_systems(draw):
    """(rows, rhs) of ints or Fractions, any shape: free entries, or a
    product of thin factors (rank below the shape), with a rhs in the column
    span or drawn freely (inconsistent when the rows are dependent)."""
    value = draw(st.sampled_from((st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        rows = [[draw(value) for _ in range(ncols)] for _ in range(nrows)]
    else:
        k = draw(st.integers(0, min(nrows, ncols)))
        left = [[draw(value) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(value) for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(a * b[j] for a, b in zip(lr, right)) for j in range(ncols)] for lr in left]
    if draw(st.booleans()):
        x = [draw(value) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [draw(value) for _ in range(nrows)]
    return rows, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_linear_systems())
@example(([], []))
@example(([[], []], [0, 0]))
@example(([[], []], [0, 1]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[1, 2], [2, 4], [3, 6]], [1, 2, 5]))
@example(([[Fraction(1, 2), 1], [1, 2], [0, 3]], [1, 2, Fraction(3, 4)]))
def test_fraction_free_solver_matches_the_fraction_oracle(system):
    # the same particular solution (0 off the pivot columns), or None
    rows, rhs = system
    got = _solve_exact(rows, rhs)
    assert got == solve_exact_brute(rows, rhs)
    assert got is None or all(type(x) is Fraction for x in got)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 11, 13)),
    st.lists(st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=9)), min_size=9, max_size=9),
    st.integers(0, 12),
    st.integers(-2, 2),
)
def test_fraction_free_solver_on_the_x2_plus_y3_read_off(q, x, n, bump):
    # the read-off of x^2 + y^3 at q T: B = (1 - q^0 T^6)(1 - q^1 T^6) has
    # 13 coefficients and 9 candidate strands; the rhs combines them, bumped
    # at one row
    cands = _strand_candidates(q, 6, {-6: 1, -5: 1}, 1)
    rows = [[num[j] for _, num in cands] for j in range(13)]
    assert len(cands) == 9
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    rhs[n] += bump
    assert _solve_exact(rows, rhs) == solve_exact_brute(rows, rhs)


def test_closed_from_fit_recovers_dictionary_forms():
    target = ClosedSeries(
        COUNT,
        ("T",),
        [
            Strand(Fraction(2), (0,), [(-1, (1,))]),
            Strand(Fraction(1), (0,), [(-2, (2,))]),
            Strand(Fraction(-1), (0,), [(-1, (1,)), (-2, (2,))]),
        ],
    )
    hi = 40
    table = target.expand(hi)
    samples = {n: table.coeff((n,)) for n in range(1, hi + 1)}
    seq = strand_fit(COUNT, samples, period=2)
    rec = closed_from_fit(seq)
    rt = rec.expand(30)
    for n in range(1, 31):
        assert rt.coeff((n,)) == samples[n]
    assert lim_infty(rec) == lim_infty(target)
    assert rec.classify() == "int"


def test_closed_from_fit_rejects_foreign_streams():
    q = Fraction(Q)
    # n^2 q^-n needs the triple pole (1 - q^-1 T)^3, and the candidate
    # strands hold at most two factors
    seq = strand_fit(COUNT, {n: n * n * q**-n for n in range(1, 12)})
    with pytest.raises(FitFailed, match=r"not a combination of the candidate strands \(m, N\): \(-1, 1\); \(-1, 1\)x\(-1, 1\)$"):
        closed_from_fit(seq)
    # a ratio that is not a power of q has no candidate strands at all
    seq = EGSeq.single_residue(COUNT, 1, 0, Fraction(2), Fraction(1))
    with pytest.raises(FitFailed, match="mode ratio 2 is not a power of q=7"):
        closed_from_fit(seq)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.integers(1, 12),
    st.dictionaries(st.integers(-14, 14), st.integers(1, 3), min_size=1, max_size=3),
)
def test_strand_candidates_match_trial_division(q, Q, mult):
    # at q^c T, with c the least shift making every mu + c Q >= 0, each
    # numerator is an integer polynomial: the oracle's coefficients times q^(c j)
    c = max(0, max(-(mu // Q) for mu in mult))
    got = _strand_candidates(q, Q, mult, c)
    want = strand_candidates_brute(q, Q, mult)
    assert [shape for shape, _ in got] == [shape for shape, _ in want]
    for (_, num), (_, ref) in zip(got, want):
        assert all(type(x) is int for x in num)
        assert num == [x * q ** (c * j) for j, x in enumerate(ref)]


@st.composite
def _strand_sums(draw):
    Q = draw(st.sampled_from((1, 2, 3, 4, 6)))
    factor = st.tuples(st.integers(-8, -1), st.sampled_from([N for N in (1, 2, 3, 4, 6) if Q % N == 0]))
    shapes = draw(
        st.lists(
            st.lists(factor, min_size=1, max_size=2).map(lambda fs: tuple(sorted(fs))),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(shapes), max_size=len(shapes)))
    return draw(st.sampled_from((3, 5, 7, 11, 13))), Q, list(zip(coeffs, shapes))


def _recurrence_order(Q, terms):
    """The stream's denominator is prod (1 - q^mu T^Q)^k, mu = m Q / N, with
    k the most factors one strand has with that mu: each residue mod Q
    satisfies a recurrence of order at most L = sum k, returned."""
    mult = {}
    for _, shape in terms:
        per = {}
        for m, N in shape:
            per[m * Q // N] = per.get(m * Q // N, 0) + 1
        for mu, k in per.items():
            mult[mu] = max(mult.get(mu, 0), k)
    return sum(mult.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_strand_sums())
def test_fit_recovers_random_strand_sums(case):
    q, Q, terms = case
    real = count_realization(q)
    target = ClosedSeries(
        real, ("T",), [Strand(Fraction(c), (0,), [(m, (N,)) for m, N in shape]) for c, shape in terms]
    )
    D = Q * (2 * _recurrence_order(Q, terms) + 1)
    table = target.expand(max(D, 8 * Q))
    seq = strand_fit(real, {n: table.coeff((n,)) for n in range(1, D + 1)}, period=Q)
    closed = closed_from_fit(seq)
    rec = closed.expand(8 * Q)
    for n in range(1, 8 * Q + 1):
        assert rec.coeff((n,)) == table.coeff((n,))
    assert lim_infty(closed) == lim_infty(target)


@st.composite
def _scaled_strand_sums(draw):
    """A strand sum over m prime to q."""
    q, Q, terms = draw(_strand_sums())
    return q, Q, terms, draw(st.integers(1, 30).filter(lambda m: math.gcd(m, q) == 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_scaled_strand_sums())
def test_fit_recovers_scaled_strand_sums(case):
    # 1/m leaves a denominator prime to q for the fit to clear
    q, Q, terms, m = case
    real = count_realization(q)
    target = ClosedSeries(
        real, ("T",), [Strand(Fraction(c, m), (0,), [(mu, (N,)) for mu, N in shape]) for c, shape in terms]
    )
    D = Q * (2 * _recurrence_order(Q, terms) + 1)
    table = target.expand(max(D, 8 * Q))
    samples = {n: table.coeff((n,)) for n in range(1, D + 1)}
    seq = strand_fit(real, samples, period=Q)
    assert [seq.value(n) for n in range(1, D + 1)] == [samples[n] for n in range(1, D + 1)]
    closed = closed_from_fit(seq)
    rec = closed.expand(8 * Q)
    for n in range(1, 8 * Q + 1):
        assert rec.coeff((n,)) == table.coeff((n,))
    assert lim_infty(closed) == lim_infty(target)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CLASS_SAMPLES = [
    SymbolicClass.zero(),
    UNIT.scale(LocRat.from_int(4)),
    MU2.scale(LocRat.L(2)) + MU3.scale(LocRat.from_int(-1)),
    external_mul(MU2, MU3),
    conv0(MU2, MU3).scale(LocRat.L(-1)) + conv(MU2, MU2),
    augment(external_mul(MU2, MU3)),
    augment(conv0(MU2, MU3)),
    external_mul(MU2, MU2.scale(LocRat.from_int(2))) + UNIT,
]


def _json_roundtrips(s):
    text = series_to_json(s)
    assert series_from_json(text) == s
    assert series_to_json(series_from_json(text)) == text


def test_class_samples_roundtrip_through_json():
    # every sample as a truncated entry and as a strand coefficient, alone
    # and all in one series
    for i, c in enumerate(CLASS_SAMPLES):
        _json_roundtrips(TruncSeries(SYM, ("T",), 9, {(i + 1,): c}))
        _json_roundtrips(ClosedSeries(SYM, ("T",), [Strand(c, (0,), [(-1, (i + 1,))])]))
    _json_roundtrips(
        TruncSeries(SYM, ("T",), 9, {(i + 1,): c for i, c in enumerate(CLASS_SAMPLES)})
    )
    _json_roundtrips(
        ClosedSeries(
            SYM, ("T",), [Strand(c, (i,), [(-1, (1,))]) for i, c in enumerate(CLASS_SAMPLES)]
        )
    )
    # scalars with Laurent numerators and (1 - L^n) denominators
    rng = random.Random(424242)
    for _ in range(40):
        num = {rng.randint(-3, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
        den = [rng.choice([1, 1, 2, 3]) for _ in range(rng.randint(0, 2))]
        c = SymbolicClass([((Atom("mu2", 2),), False, LocRat(LaurentPoly(num), den))])
        _json_roundtrips(TruncSeries(SYM, ("T",), 2, {(1,): c}))


def test_symbolic_coefficients_serialize_as_data():
    # a term is its factors, its mark and its scalar, never the class text
    a = TruncSeries(SYM, ("T",), 2, {(1,): external_mul(MU2, MU3).scale(LocRat(LaurentPoly({-1: 2}), (3,)))})
    (entry,) = json.loads(series_to_json(a))["entries"]
    assert entry["coeff"] == [
        {
            "factors": [
                {"atom": "mu2", "order": 2, "base": "pt", "aug": False},
                {"atom": "mu3", "order": 3, "base": "pt", "aug": False},
            ],
            "aug": False,
            "coeff": {"num": [[-1, 2]], "den": [3]},
        }
    ]
    (term,) = json.loads(series_to_json(TruncSeries(SYM, ("T",), 2, {(1,): conv0(MU2, MU3)})))["entries"][0]["coeff"]
    assert term["factors"] == [
        {
            "conv": 0,
            "left": [{"atom": "mu2", "order": 2, "base": "pt", "aug": False}],
            "right": [{"atom": "mu3", "order": 3, "base": "pt", "aug": False}],
            "aug": False,
        }
    ]


def test_trunc_serialization_roundtrip_symbolic():
    ent = {
        (1, 0): MU2.scale(LocRat.L(-1)),
        (1, 2): conv0(MU2, MU3) + UNIT,
        (0, 3): augment(external_mul(MU2, MU3)),
    }
    _json_roundtrips(TruncSeries(SYM, ("T", "U"), 5, ent))


def test_closed_serialization_roundtrip():
    s = ClosedSeries(
        SYM,
        ("T",),
        [
            Strand(MU2, (0,), [(-1, (2,))]),
            Strand(UNIT.scale(LocRat.from_int(-1)), (1,), []),
        ],
    )
    _json_roundtrips(s)
    _json_roundtrips(ClosedSeries(COUNT, ("T", "U"), [Strand(Fraction(3, 2), (0, 0), [(-1, (1, 1))])]))


def test_serialization_deterministic_across_insertion_order():
    e1 = [((1,), Fraction(1)), ((2,), Fraction(4))]
    a = TruncSeries(COUNT, ("T",), 4, e1)
    b = TruncSeries(COUNT, ("T",), 4, list(reversed(e1)))
    assert series_to_json(a) == series_to_json(b)


# ---------------------------------------------------------------------------
# substitution helpers
# ---------------------------------------------------------------------------


def test_monomial_substitute_diagonal():
    a = TruncSeries(COUNT, ("S",), 8, {(n,): Fraction(n) for n in range(1, 6)})
    d = monomial_substitute(a, ("T", "U"), [(1, 1)], bound=8)
    assert sorted(d.entries) == [(n, n) for n in range(1, 5)]
    assert d.coeff((3, 3)) == Fraction(3)


def test_monomial_substitute_merges_collisions():
    a = TruncSeries(COUNT, ("S", "R"), 6, {(1, 0): Fraction(2), (0, 2): Fraction(3)})
    m = monomial_substitute(a, ("W",), [(2,), (1,)], bound=6)
    assert m.coeff((2,)) == Fraction(5)
