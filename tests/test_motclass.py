"""Class algebra: normal forms, rewrites, convolution, count realization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import fermat_affine_brute
from motzeta import motclass
from motzeta.errors import BudgetExceeded, MotzetaError, UnboundAtom
from motzeta.geomset import GeomSet, fermat_twisted_count, mu_n, point, torus
from motzeta.locring import L, L_MINUS_1, LocRat, ONE
from motzeta.motclass import (
    Atom,
    Binding,
    ConvNode,
    SymbolicClass,
    augment,
    bind_and_count,
    conv,
    conv0,
    conv1,
    external_mul,
)
from motzeta.zeta import standard_atom_sets

UNIT = SymbolicClass.unit()


def atom(name, order=1, aug=False):
    return SymbolicClass.from_atom(Atom(name, order, "pt", aug))


def test_unit_law_and_bilinearity():
    a = atom("a", 2)
    assert external_mul(UNIT, a) == a
    assert external_mul(a.scale(L), UNIT) == a.scale(L)
    b = atom("b", 3)
    lhs = external_mul(a.scale(2) + b, b)
    rhs = external_mul(a, b).scale(2) + external_mul(b, b)
    assert lhs == rhs


def test_commutativity_normal_form():
    a, b = atom("a", 2), atom("b", 3)
    assert external_mul(a, b) == external_mul(b, a)
    assert conv0(a, b) == conv0(b, a)
    assert conv1(a, b) == conv1(b, a)


def test_trivial_action_conv_rewrites():
    # 1 *0 1 = (L-1), 1 *1 1 = (L-2), 1 * 1 = 1.
    assert conv0(UNIT, UNIT) == SymbolicClass.scalar(L_MINUS_1)
    assert conv1(UNIT, UNIT) == SymbolicClass.scalar(L_MINUS_1 - 1)
    assert conv(UNIT, UNIT) == UNIT
    # Trivial-action atoms also reduce.
    x, y = atom("x"), atom("y")
    assert conv0(x, y) == external_mul(x, y).scale(L_MINUS_1)
    # Augmented operands count as trivial-action.
    a2 = augment(atom("a", 2))
    assert conv0(a2, y) == external_mul(a2, y).scale(L_MINUS_1)


def test_nontrivial_conv_stays_symbolic():
    a, b = atom("a", 2), atom("b", 2)
    c = conv0(a, b)
    assert len(c.terms) == 1
    factors, aug_term, coeff = c.terms[0]
    assert isinstance(factors[0], ConvNode)
    assert coeff == ONE


def test_augment_linear_idempotent():
    a = atom("a", 3)
    assert augment(augment(a)) == augment(a)
    assert augment(UNIT) == UNIT
    assert augment(a.scale(L) + UNIT.scale(2)) == augment(a).scale(L) + UNIT.scale(2)


def test_r1_mark_moves_to_smaller():
    a, b = Atom("a", 2), Atom("b", 3)
    lhs = external_mul(atom("a", 2), augment(atom("b", 3)))
    rhs = external_mul(augment(atom("a", 2)), atom("b", 3))
    assert lhs == rhs
    factors, _aug, _c = lhs.terms[0]
    marked = [f for f in factors if f.aug]
    assert len(marked) == 1 and marked[0].name == "a"
    del a, b


def test_confluence_randomized_corpus():
    rng = random.Random(314159)
    names = ["a", "b", "c", "d"]
    orders = {"a": 1, "b": 2, "c": 3, "d": 2}

    def rand_class(depth):
        kind = rng.randrange(6 if depth > 0 else 3)
        if kind == 0:
            return SymbolicClass.scalar(LocRat.from_int(rng.randint(-3, 3)))
        if kind == 1:
            n = rng.choice(names)
            return atom(n, orders[n])
        if kind == 2:
            n = rng.choice(names)
            return augment(atom(n, orders[n]))
        if kind == 3:
            return rand_class(depth - 1) + rand_class(depth - 1)
        if kind == 4:
            return external_mul(rand_class(depth - 1), rand_class(depth - 1))
        return conv0(rand_class(depth - 1), rand_class(depth - 1))

    for _ in range(60):
        x = rand_class(2)
        y = rand_class(2)
        z = rand_class(2)
        # Same element assembled in different orders normalizes identically.
        assert external_mul(x, y) == external_mul(y, x)
        assert external_mul(external_mul(x, y), z) == external_mul(
            x, external_mul(y, z)
        )
        assert (x + y) + z == x + (y + z)
        assert conv0(x, y) == conv0(y, x)
        assert augment(augment(x)) == augment(x)
        assert external_mul(x, y + z) == external_mul(x, y) + external_mul(x, z)


def test_bind_and_count_scalars_and_atoms():
    binding = Binding({"t": torus(), "m3": mu_n(3)}, 7)
    assert bind_and_count(SymbolicClass.scalar(L_MINUS_1), binding) == 6
    assert bind_and_count(atom("m3", 3), binding) == 3
    assert bind_and_count(atom("t"), binding) == 6
    with pytest.raises(UnboundAtom):
        bind_and_count(atom("nope"), binding)


def test_bind_and_count_products():
    binding = Binding({"m2": mu_n(2), "m3": mu_n(3)}, 7)
    c = external_mul(atom("m2", 2), atom("m3", 3))
    assert bind_and_count(c, binding) == 6


def test_augment_count_burnside_average():
    # augment([mu_2]) at q=5 has count (2+0)/2 = 1.
    binding = Binding({"m2": mu_n(2)}, 5)
    assert bind_and_count(augment(atom("m2", 2)), binding) == 1
    # augment([mu_3]) at q=7: (3+0+0)/3 = 1.
    binding7 = Binding({"m3": mu_n(3)}, 7)
    assert bind_and_count(augment(atom("m3", 3)), binding7) == 1


def test_conv_formula_matches_trivial_parametrization():
    # Force a ConvNode with order-1 operands past the rewrite and verify the
    # double Burnside formula returns the same value as (L-1) resp. (L-2).
    unit_atom = Atom("one", 1)
    for q in (5, 7, 13):
        binding = Binding({"one": point()}, q)
        for kind, expect in ((0, q - 1), (1, q - 2)):
            node = ConvNode(kind, (unit_atom,), (unit_atom,))
            c = SymbolicClass((((node,), False, ONE),))
            assert bind_and_count(c, binding) == expect


def test_conv_formula_mu_independence():
    # Present the point with a trivially-acting mu_2 structure: the Burnside
    # formula then runs over N=2 sectors but must give the same values.
    fat_point = GeomSet((), (), (), 2, ())
    fat = Atom("fat", 2)
    for q in (5, 13):
        binding = Binding({"fat": fat_point}, q)
        for kind, expect in ((0, q - 1), (1, q - 2)):
            node = ConvNode(kind, (fat,), (fat,))
            c = SymbolicClass((((node,), False, ONE),))
            assert bind_and_count(c, binding) == expect, (q, kind)


def test_bind_homomorphism_random():
    rng = random.Random(777)
    binding = Binding({"m2": mu_n(2), "t": torus()}, 5)

    def rand_simple():
        parts = []
        for _ in range(rng.randint(1, 3)):
            c = LocRat.from_int(rng.randint(-2, 3))
            which = rng.randrange(3)
            if which == 0:
                parts.append(SymbolicClass.scalar(c))
            elif which == 1:
                parts.append(atom("m2", 2).scale(c))
            else:
                parts.append(atom("t").scale(c))
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return total

    def rand_scalar():
        c = LocRat.from_int(rng.randint(-3, 3)) * L ** rng.randint(-2, 2)
        return c * LocRat(1, (rng.randint(1, 3),)) if rng.random() < 0.5 else c

    for _ in range(25):
        a, b = rand_simple(), rand_simple()
        va = bind_and_count(a, binding)
        vb = bind_and_count(b, binding)
        assert bind_and_count(a + b, binding) == va + vb
        assert bind_and_count(external_mul(a, b), binding) == va * vb
        # the operator protocol: * is the external product between classes
        # and the scalar action otherwise; bool and str follow is_zero/render
        assert bind_and_count(a * b, binding) == va * vb
        s = rand_scalar()
        assert bind_and_count(s * a, binding) == s.eval_at(5) * va
        assert bind_and_count(a * s, binding) == s.eval_at(5) * va
        assert bind_and_count(2 * a, binding) == 2 * va
        for c in (a, b, a - a):
            assert bool(c) == (not c.is_zero())
            assert str(c) == c.render()
        assert str(s) == s.render()


def test_conv_value_example():
    # [mu_2] *0 [mu_2] at q=5: only the untwisted sector of each operand is
    # inhabited, giving F_0^2(0,0)/4 * 2 * 2 = 8/4 * 4 = 8.
    binding = Binding({"m2": mu_n(2)}, 5)
    c = conv0(atom("m2", 2), atom("m2", 2))
    assert bind_and_count(c, binding) == 8


def test_twist_component_realization():
    # s-twisted realization of [mu_3] at q=7 picks out twisted sectors.
    binding = Binding({"m3": mu_n(3)}, 7)
    a = atom("m3", 3)
    assert bind_and_count(a, binding, s=0) == 3
    assert bind_and_count(a, binding, s=1) == 0
    # Augmented classes are twist-independent.
    aug_a = augment(a)
    assert (
        bind_and_count(aug_a, binding, s=0)
        == bind_and_count(aug_a, binding, s=1)
        == 1
    )


def _record_fermat_keys(monkeypatch):
    """The Binding cache key of every Fermat count made from now on."""
    keys = []

    def counted(kind, N, q, e_u, e_v, meter=None):
        keys.append((kind, N, e_u % N, e_v % N))
        return fermat_twisted_count(kind, N, q, e_u, e_v, meter=meter)

    monkeypatch.setattr(motclass, "fermat_twisted_count", counted)
    return keys


def test_nested_conv_counts_each_fermat_pair_once(monkeypatch):
    # a Fermat count depends on each twist only mod N, so one Binding
    # makes it once per (kind, N, e_u mod N, e_v mod N)
    keys = _record_fermat_keys(monkeypatch)
    mu2, mu3 = atom("mu2", 2) - UNIT, atom("mu3", 3) - UNIT
    # both bracketings of the triple (mu2, mu3, mu2), inner node either side
    for c in (conv(mu2, conv(mu3, mu2)), conv(conv(mu2, mu3), mu2)):
        keys.clear()
        assert bind_and_count(c, Binding({"mu2": mu_n(2), "mu3": mu_n(3)}, 13)) == 26
        assert keys and len(keys) == len(set(keys))


def test_burnside_work_units_are_pinned(monkeypatch):
    # the mu_n atoms cost nothing (binomials solved in closed form); each of
    # the 22 Fermat counts charges q - 1 = 30 units
    keys = _record_fermat_keys(monkeypatch)
    binding = Binding(standard_atom_sets(("mu2", "mu3")), 31)
    assert bind_and_count(conv(atom("mu2", 2) - UNIT, atom("mu3", 3) - UNIT), binding) == -4
    assert binding.meter.spent == 660
    assert len(keys) == len(set(keys)) == 22


def test_burnside_budget_error_names_the_count():
    # the first Fermat count, of F_0^2, charges 30 units at q = 31
    binding = Binding(standard_atom_sets(("mu2", "mu3")), 31, budget=29)
    with pytest.raises(BudgetExceeded, match=r"F_0\^2 at twists \(0, 0\) exceeded the budget of 29"):
        bind_and_count(conv(atom("mu2", 2) - UNIT, atom("mu3", 3) - UNIT), binding)


def _fermat_diff(a, b, q):
    f0, f1, _ = fermat_affine_brute(a, b, q)
    return f0 - f1


@st.composite
def _classes(draw):
    """Normalized classes: sums of products of atoms with or without marks,
    jointly-augmented products and convolution nodes, with scalars as
    coefficients."""
    atoms = st.builds(Atom, st.sampled_from("abc"), st.integers(1, 4), st.just("pt"), st.booleans())
    conv_nodes = st.builds(
        ConvNode,
        st.integers(0, 1),
        st.lists(atoms, min_size=1, max_size=2),
        st.lists(atoms, min_size=1, max_size=2),
        st.booleans(),
    )
    coeffs = st.builds(
        lambda c, k, den: LocRat(LocRat.L(k).num * c, den),
        st.integers(-5, 5),
        st.integers(-2, 3),
        st.lists(st.sampled_from([1, 2, 3]), max_size=2).map(tuple),
    )
    term = st.tuples(
        st.lists(st.one_of(atoms, conv_nodes), max_size=3).map(tuple),
        st.booleans(),
        coeffs,
    )
    return SymbolicClass(tuple(draw(st.lists(term, max_size=4))), draw(st.sampled_from(["pt", "X"])))


def _layout(c):
    """Terms with the exact scalar representation (stronger than ==)."""
    return tuple((f, aug, x.num, x.den) for f, aug, x in c.terms)


scalars = st.builds(
    lambda c, k, den: LocRat(LocRat.L(k).num * c, den),
    st.integers(-5, 5).filter(bool),
    st.integers(-2, 2),
    st.lists(st.sampled_from([1, 2, 4]), max_size=2).map(tuple),
)
monomials = st.builds(lambda c, k: LocRat.L(k) * c, st.integers(-5, 5).filter(bool), st.integers(-3, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_classes(), st.one_of(scalars, monomials, st.integers(-3, 3)))
def test_scaling_keeps_the_normal_form(a, c):
    # scale and an external product with a scalar class reuse the term
    # layout (a monomial scales each coefficient by _times_monomial); the
    # normalizing constructor over the same scaled terms gives exactly the
    # same terms
    cl = LocRat(c) if isinstance(c, int) else c
    want = SymbolicClass(
        tuple((f, aug, LocRat(x.num * cl.num, x.den + cl.den)) for f, aug, x in a.terms),
        a.base,
    )
    assert _layout(a.scale(c)) == _layout(want) and a.scale(c).base == a.base
    if not c:
        assert a.scale(c).terms == () and not (c * a)
        return
    s = SymbolicClass.scalar(c, a.base)
    for got in (external_mul(a, s), external_mul(s, a), a * s, s * a):
        assert _layout(got) == _layout(want) and got.base == a.base
    # over another base the product is external and names the base a*b
    s = SymbolicClass.scalar(c, "Y")
    for got, base in ((external_mul(a, s), "%s*Y" % a.base), (a * s, "%s*Y" % a.base), (s * a, "Y*%s" % a.base)):
        assert got.base == base and _layout(got) == _layout(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_classes(), _classes(), st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2))))
def test_sums_keep_the_normal_form(a, b, shared):
    # + and - merge the two sorted term tuples and -a negates a's
    # coefficients; the normalizing constructor over the concatenated terms
    # gives exactly the same terms.  b takes some of a's terms scaled by
    # -2..2, so equal keys meet and some sums cancel.
    extra = tuple((a.terms[i][0], a.terms[i][1], a.terms[i][2] * k) for i, k in shared if i < len(a.terms))
    b = SymbolicClass(b.terms + extra, a.base)
    neg_b = tuple((f, x, -c) for f, x, c in b.terms)
    for got, terms in (
        (a + b, a.terms + b.terms),
        (b + a, b.terms + a.terms),
        (a - b, a.terms + neg_b),
        (-a, tuple((f, x, -c) for f, x, c in a.terms)),
        (a - a, ()),
    ):
        assert _layout(got) == _layout(SymbolicClass(terms, a.base)) and got.base == a.base


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_classes(), st.booleans())
def test_cached_sort_keys_match_fresh_ones(a, aug):
    # Atom and ConvNode build sort_key (and a ConvNode its order) once; a
    # re-marked copy carries the key a fresh build gives
    for factors, _x, _c in a.terms:
        for f in factors:
            g = f.with_aug(aug)
            if isinstance(g, Atom):
                assert g.sort_key == ("atom", g.name, g.base, g.order, aug)
                assert g.sort_key == Atom(g.name, g.order, g.base, aug).sort_key
                continue
            fresh = ConvNode(g.kind, g.right[::-1], g.left, aug)
            assert g.sort_key == fresh.sort_key == (
                "conv", g.kind, tuple(h.sort_key for h in g.left), tuple(h.sort_key for h in g.right), aug,
            )
            assert g.order == fresh.order == math.lcm(*(h.effective_order() for h in g.left + g.right))


def test_scalar_times_jointly_augmented_class():
    # a term marked as a whole over two live actions has no per-factor
    # form, so only the external product with a non-scalar class refuses it
    joint = SymbolicClass((((Atom("a", 2), Atom("b", 3)), True, ONE),))
    assert joint.terms[0][1]
    two_l = SymbolicClass.scalar(L * 2)
    assert external_mul(two_l, joint) == joint.scale(L * 2)
    assert external_mul(joint, two_l) == joint.scale(L * 2)
    with pytest.raises(MotzetaError, match="augmented jointly over 2 live actions") as err:
        external_mul(joint, atom("c", 2))
    assert not isinstance(err.value, NotImplementedError)


@st.composite
def _burnside_cases(draw):
    a = draw(st.integers(1, 5))
    b = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if (a * b) % p]
    return a, b, k, m, draw(st.sampled_from(primes))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_burnside_cases())
@example((2, 5, 1, 1, 31))
@example((3, 4, 1, 1, 13))
def test_burnside_sum_matches_bilinear_fermat_expansion(case):
    # conv is bilinear, conv(mu_a, mu_b) counts as #{u^a + v^b = 0} -
    # #{u^a + v^b = 1} over (F_q^*)^2, and mu_1 is the point
    a, b, k, m, q = case
    c = conv(atom("mu%d" % a, a) - UNIT.scale(k), atom("mu%d" % b, b) - UNIT.scale(m))
    table = {"mu%d" % a: mu_n(a), "mu%d" % b: mu_n(b)}
    expect = (
        _fermat_diff(a, b, q)
        - m * _fermat_diff(a, 1, q)
        - k * _fermat_diff(1, b, q)
        + k * m * _fermat_diff(1, 1, q)
    )
    assert bind_and_count(c, Binding(table, q)) == expect


def test_foreign_operands_raise_type_error():
    a = SymbolicClass.from_atom(Atom("mu2", 2))
    for run in (lambda: a + 1, lambda: a - 1, lambda: 1 + a, lambda: 1 - a, lambda: a * 0.5, lambda: a + "x"):
        with pytest.raises(TypeError, match="unsupported operand"):
            run()
