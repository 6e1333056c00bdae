"""Point counting: twisted counts, quotients, Fermat pairs, the DFS engine."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import count_reduced_brute, fermat_twisted_dfs, mask_equation_brute, prepare_brute
from motzeta.errors import BudgetExceeded, MotzetaError
from motzeta.geomset import (
    GeomSet,
    WorkMeter,
    _count_reduced,
    _prepare,
    fermat_pair,
    fermat_twisted_count,
    mu_n,
    quotient_count,
    torus,
    twisted_count,
)
from motzeta.poly import Poly, parse_poly
from motzeta.zeta import AxisCounts, jet_set


def test_torus_count():
    assert twisted_count(torus(), 5) == 4
    assert twisted_count(torus(), 7) == 6
    assert twisted_count(torus(), 13) == 12


def test_fermat_affine_line_count():
    # F_1^1 = {u+v=1, uv != 0} has q-2 points.
    assert twisted_count(fermat_pair(1, 1), 7) == 5
    assert twisted_count(fermat_pair(0, 1), 7) == 6  # v = -u, u free in G_m


def test_mu_n_counts():
    # mu_3 in F_7: 3 | 6 so three points.
    assert twisted_count(mu_n(3), 7, 0) == 3
    # mu_2 in F_5: two points.
    assert twisted_count(mu_n(2), 5, 0) == 2
    # Twisted sector of mu_2 at q=5: u^4 = -1 has 4 solutions in F_25,
    # all satisfying u^2 = 1? No: u^2 = 1 and u^4 = -1 are incompatible,
    # so the twisted count is 0.
    assert twisted_count(mu_n(2), 5, 1) == 0


def test_quotient_of_torus_by_mu2():
    # G_m with mu_2 scaling action; quotient is G_m again (u -> u^2).
    gs = GeomSet(("u",), (), ("u",), 2, (1,))
    assert quotient_count(gs, 5) == 4
    assert quotient_count(gs, 7) == 6
    # Twisted sectors individually: s=0 gives q-1 (points of G_m over F_q);
    # s=1 gives the u^{q-1} = -1 solutions, again q-1 of them.
    assert twisted_count(gs, 5, 0) == 4
    assert twisted_count(gs, 5, 1) == 4


def test_affine_space_free_coordinates():
    # Two free coordinates, no equations: q^2 points, counted without
    # branching (meter stays at zero).
    gs = GeomSet(("a", "b"))
    meter = WorkMeter()
    assert twisted_count(gs, 7, meter=meter) == 49
    assert meter.spent == 0


def test_dynamic_free_detection():
    # b is free once the single equation in a is resolved.
    gs = GeomSet(("a", "b", "c"), (parse_poly("a^2 - 1"),))
    meter = WorkMeter()
    assert twisted_count(gs, 7, meter=meter) == 2 * 49
    # Only the a-branching spends budget.
    assert meter.spent <= 7


def test_budget_exceeded():
    # No coordinate is linear or alone, so the search has to branch.
    gs = GeomSet(
        tuple("abcdefgh"), (parse_poly("a^2 + b^2 + c^2 + d^2 + e^2 + f^2 + g^2 + h^2"),)
    )
    with pytest.raises(BudgetExceeded):
        twisted_count(gs, 13, meter=WorkMeter(1000))


def test_linear_hyperplane_is_eliminated():
    gs = GeomSet(tuple("abcdefgh"), (parse_poly("a + b + c + d + e + f + g + h"),))
    meter = WorkMeter()
    assert twisted_count(gs, 13, meter=meter) == 13**7
    assert meter.spent == 0


def test_solving_pins_the_work():
    meter = WorkMeter()
    assert twisted_count(jet_set(parse_poly("x^2+y^2"), 6), 5, meter=meter) == 5 * 4 * 5**6
    assert meter.spent <= 100
    for e in range(30):
        meter = WorkMeter()
        fermat_twisted_count(1, 30, 31, e, e, meter=meter)
        assert meter.spent <= 31


def test_dfs_candidates_are_pinned():
    # the candidates the search tries on the benchmark's loci and on the
    # per-axis counts of three germs, exact and ordgt at every level; a
    # change to the rules, the pivot or the values tried moves them
    for f, n, q, count, want in (
        ("x^2+x^3", 16, 7, twisted_count, 49),
        ("x^2+x^3", 24, 7, twisted_count, 77),
        ("x^2+y^2", 6, 5, twisted_count, 25),
        ("x^2+x^3", 8, 5, quotient_count, 120),
    ):
        meter = WorkMeter()
        count(jet_set(parse_poly(f), n), q, meter=meter)
        assert meter.spent == want, (f, n, q)
    for f, q, D, want in (("x^2+x^3", 5, 8, 120), ("x^2+x^3", 7, 7, 126), ("x^2+y^3+x*y^2", 5, 24, 2200)):
        ax = AxisCounts(f, q)
        for n in range(1, D + 1):
            ax.exact(n)
            ax.ordgt(n)
        assert ax.meter.spent == want, (f, q, D)


@st.composite
def _compiled_systems(draw):
    """Compiled equations over F_q in up to four coordinates: general
    monomials, linear terms c x_j and binomials c v^k + d, with constants and
    random nonzero constraints.  Two shapes exercise the masks: a pair of
    monomials c x_p^e R and -c x_p^f R (e != f, x_p^0 R = R), which cancel
    where x_p^e = x_p^f, and a binomial in a coordinate of the previous
    equation, which rule 2 solves only once that equation is dropped."""
    q = draw(st.sampled_from((3, 5, 7)))
    d = draw(st.integers(1, 4))
    coord = st.integers(0, d - 1)
    coeff = st.integers(1, q - 1)

    def monomial():
        idx = draw(st.lists(coord, min_size=1, max_size=2, unique=True))
        return tuple(sorted((i, draw(st.integers(1, 3))) for i in idx))

    eqs = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(("general", "linear", "binomial", "cancel", "shared")))
        if shape == "cancel":
            p = draw(coord)
            others = [i for i in range(d) if i != p]
            rest = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
            R = tuple((i, draw(st.integers(1, 3))) for i in sorted(rest))
            e, f = draw(st.lists(st.integers(0 if R else 1, 3), min_size=2, max_size=2, unique=True))
            c = draw(coeff)
            terms = {
                tuple(sorted(R + ((p, x),) if x else R)): a for x, a in ((e, c), (f, q - c))
            }
        elif shape == "shared" and eqs:
            mono = draw(st.sampled_from(sorted(eqs[-1][1])))
            terms = {((draw(st.sampled_from(mono))[0], draw(st.integers(1, 3))),): draw(coeff)}
        elif shape == "binomial":
            terms = {((draw(coord), draw(st.integers(1, 4))),): draw(coeff)}
        else:
            terms = {monomial(): draw(coeff) for _ in range(draw(st.integers(0, 2)))}
            if shape == "linear" or not terms:
                terms[((draw(coord), 1),)] = draw(coeff)
        eqs.append((draw(st.integers(0, q - 1)), terms))
    nonzero = draw(st.sets(coord))
    return q, d, eqs, nonzero


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_compiled_systems())
def test_dfs_rules_match_brute_force(system):
    # the count is the enumeration's, and the masked search tries the
    # candidates the unmasked oracle tries
    q, d, eqs, nonzero = system
    candidates = [list(range(1 if i in nonzero else 0, q)) for i in range(d)]
    mask = sum(1 << i for i in nonzero)
    brute = sum(
        all(
            (const + sum(c * math.prod(pt[i] ** x for i, x in mono) for mono, c in terms.items()))
            % q == 0
            for const, terms in eqs
        )
        for pt in itertools.product(*candidates)
    )
    meter, oracle = WorkMeter(), WorkMeter()
    masked = [mask_equation_brute(const, terms) for const, terms in eqs]
    assert _count_reduced(masked, list(range(d)), mask, q, meter) == brute
    assert count_reduced_brute(eqs, list(range(d)), candidates, q, oracle) == brute
    assert meter.spent == oracle.spent


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from((("x^2+%d*x^3", 2), ("x^3+%d*x^4", 3))),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from((5, 7)),
)
def test_jet_loci_match_closed_forms(germ, c, k, q):
    # the benchmark's jet loci: mu_a x A^(n - n/a), with mu_n transitive on
    # the mu_a factor; every twisted form of affine space has q^dim points
    f, a = germ
    n = a * k
    gs = jet_set(parse_poly(f % c), n)
    if n % q:
        assert quotient_count(gs, q) == q ** (n - k)
    # over F_q itself: leading coefficient u with u^a = 1
    assert twisted_count(gs, q) == math.gcd(a, q - 1) * q ** (n - k)


def test_fermat_twisted_counts_match_direct():
    # With zero twists the helper must agree with the plain count.
    for kind in (0, 1):
        for N in (1, 2, 3):
            for q in (7, 13):
                if (q - 1) % N:
                    continue
                direct = twisted_count(fermat_pair(kind, N), q, 0)
                helper = fermat_twisted_count(kind, N, q, 0, 0)
                assert helper == direct


@st.composite
def _twisted_fermat_cases(draw):
    N = draw(st.integers(1, 8))
    twist = st.integers(-N, 2 * N - 1)
    return (
        draw(st.sampled_from((0, 1))),
        N,
        draw(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))),
        draw(twist),
        draw(twist),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_twisted_fermat_cases())
@example((1, 4, 2, 1, 0))  # refused: no 4th roots of unity in characteristic 2
@example((0, 6, 3, 0, 6))  # counted: both twists are 0 mod K = 12
def test_fermat_kernel_matches_the_dfs(case):
    # the power-table count, its q - 1 charge and its refusal (q | N with a
    # nonzero twist) are those of the DFS on fermat_pair
    kind, N, q, e_u, e_v = case
    meter, dfs_meter = WorkMeter(), WorkMeter()
    K = N * (q - 1)
    if N % q == 0 and (e_u % K or e_v % K):
        with pytest.raises(MotzetaError) as dfs_error:
            fermat_twisted_dfs(kind, N, q, e_u, e_v, dfs_meter)
        with pytest.raises(MotzetaError, match=re.escape(str(dfs_error.value))):
            fermat_twisted_count(kind, N, q, e_u, e_v, meter=meter)
        assert meter.spent == dfs_meter.spent == 0
        return
    want = fermat_twisted_dfs(kind, N, q, e_u, e_v, dfs_meter)
    assert fermat_twisted_count(kind, N, q, e_u, e_v, meter=meter) == want
    assert meter.spent == dfs_meter.spent == q - 1


def test_fermat_f0_parametrization():
    # F_0^N: u^N = -v^N; over F_q with N | q-1 and q odd the count is
    # N(q-1) when -1 is an N-th power times ... check against brute force.
    for N in (1, 2, 3):
        for q in (7, 13):
            if (q - 1) % N:
                continue
            brute = 0
            for u in range(1, q):
                for v in range(1, q):
                    if (pow(u, N, q) + pow(v, N, q)) % q == 0:
                        brute += 1
            assert twisted_count(fermat_pair(0, N), q, 0) == brute


def test_equivariance_symbolic_check():
    assert fermat_pair(0, 3).check_action_invariance()
    assert fermat_pair(1, 3).check_action_invariance()
    assert mu_n(4).check_action_invariance()
    bad = GeomSet(("u", "v"), (parse_poly("u + v^2"),), (), 2, (1, 1))
    assert not bad.check_action_invariance()


def test_twisted_count_refuses_non_semi_invariant_sectors():
    # u + v^2 with weights (1, 1): the twist scales u and v^2 differently
    bad = GeomSet(("u", "v"), (parse_poly("u + v^2"),), (), 2, (1, 1))
    assert twisted_count(bad, 5, 0) == 5
    with pytest.raises(MotzetaError, match=r"v\^2 \+ u is not semi-invariant"):
        twisted_count(bad, 5, 1)


def test_twisted_count_needs_an_int_sector():
    for g_exp in (0.5, 1.0, "1", True):
        with pytest.raises(MotzetaError, match="twisted_count g_exp must be an int, not %s" % re.escape(repr(g_exp))):
            twisted_count(mu_n(2), 5, g_exp)


@st.composite
def _poly_geomsets(draw):
    """A GeomSet of at most four coordinates with random Poly equations,
    weights, action order and nonzero set, a prime q and a sector s: often a
    multiple of K = N (q - 1) (an untwisted sector)."""
    coords = "abcd"[: draw(st.integers(1, 4))]
    eqs = []
    for _ in range(draw(st.integers(0, 3))):
        eq = Poly.const(draw(st.integers(-7, 7)))
        for _ in range(draw(st.integers(0, 3))):
            term = Poly.const(draw(st.integers(-7, 7)))
            for v in coords:
                term = term * Poly.var(v, draw(st.integers(0, 3)))
            eq = eq + term
        eqs.append(eq)
    N = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(-5, 5), min_size=len(coords), max_size=len(coords)))
    gs = GeomSet(coords, eqs, draw(st.sets(st.sampled_from(coords))), N, weights)
    q = draw(st.sampled_from((2, 3, 5, 7)))
    K = N * (q - 1)
    s = K * draw(st.integers(-2, 2)) if draw(st.booleans()) else draw(st.integers(-30, 30))
    return gs, q, s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_poly_geomsets())
def test_prepare_twists_the_sparse_form_as_the_dense_oracle(case):
    # the one-pass reduction of sector s, each monomial's twist read off
    # its weight, is the reduction of the Polys at the coordinate twists
    # -s w_i: the same equations in the same term order (the search reads
    # them in that order), its nonzero mask read as the oracle's candidate
    # lists, and the same refusals, by message
    gs, q, s = case
    try:
        want_eqs, want_candidates = prepare_brute(gs, q, [-s * w for w in gs.weights])
    except MotzetaError as exc:
        with pytest.raises(MotzetaError, match=re.escape(str(exc))):
            _prepare(gs, q, s)
        return
    eqs, nonzero = _prepare(gs, q, s)
    assert eqs == want_eqs
    assert [list(eq[1].items()) for eq in eqs] == [list(eq[1].items()) for eq in want_eqs]
    assert [list(range(nonzero >> i & 1, q)) for i in range(gs.dim)] == want_candidates


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        _poly_geomsets(),
        st.tuples(
            st.sampled_from(("x^2+x^3", "x^3+x^4", "x^2+y^3", "x*y")).flatmap(
                lambda f: st.builds(jet_set, st.just(f), st.integers(1, 3), st.booleans())
            ),
            st.sampled_from((2, 3, 5, 7)),
            st.integers(-12, 12),
        ),
    )
)
@example((mu_n(4), 5, 1))
@example((mu_n(4), 7, 3))
@example((fermat_pair(0, 3), 7, 2))
@example((fermat_pair(1, 2), 5, -1))
def test_sector_count_depends_on_s_mod_n(case):
    # xi^N = 1, so sectors s and s +- N count the same points (refusals
    # included) whenever the N-th roots of unity exist, q prime to N;
    # their reductions differ by a unit of F_q in each coordinate
    gs, q, s = case
    if gs.action_order % q == 0:
        return
    counts = []
    for t in (s, s + gs.action_order, s - gs.action_order):
        try:
            counts.append(twisted_count(gs, q, t))
        except MotzetaError as exc:
            counts.append(str(exc))
    assert counts[1:] == counts[:1] * 2


def test_twisted_count_needs_prime_q():
    # q is checked before any arithmetic on it, in every sector
    for q in (4, "7", 7.0, None):
        for gs, s in ((torus(), 0), (mu_n(2), 1)):
            with pytest.raises(MotzetaError, match="needs a prime q, got %s" % re.escape(repr(q))):
                twisted_count(gs, q, s)


def test_quotient_count_is_integral():
    for gs, q in ((mu_n(2), 5), (mu_n(3), 7), (fermat_pair(0, 2), 5)):
        c = quotient_count(gs, q)
        assert c.denominator == 1
