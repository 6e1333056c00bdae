"""Point counting: twisted counts, quotients, Fermat pairs, the DFS engine."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import fermat_twisted_dfs
from motzeta.errors import BudgetExceeded, MotzetaError
from motzeta.geomset import (
    GeomSet,
    WorkMeter,
    _count_reduced,
    fermat_pair,
    fermat_twisted_count,
    mu_n,
    quotient_count,
    torus,
    twisted_count,
)
from motzeta.poly import Poly, parse_poly
from motzeta.zeta import jet_set


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


@st.composite
def _compiled_systems(draw):
    """Compiled equations over F_q in up to four coordinates: general
    monomials, linear terms c x_j and binomials c v^k + d, with constants and
    random nonzero constraints."""
    q = draw(st.sampled_from((3, 5, 7)))
    d = draw(st.integers(1, 4))
    coord = st.integers(0, d - 1)
    coeff = st.integers(1, q - 1)

    def monomial():
        idx = draw(st.lists(coord, min_size=1, max_size=2, unique=True))
        return tuple(sorted((i, draw(st.integers(1, 3))) for i in idx))

    eqs = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(("general", "linear", "binomial")))
        if shape == "binomial":
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
    q, d, eqs, nonzero = system
    candidates = [list(range(1 if i in nonzero else 0, q)) for i in range(d)]
    brute = sum(
        all(
            (const + sum(c * math.prod(pt[i] ** x for i, x in mono) for mono, c in terms.items()))
            % q == 0
            for const, terms in eqs
        )
        for pt in itertools.product(*candidates)
    )
    assert _count_reduced(eqs, list(range(d)), candidates, q, WorkMeter()) == brute


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


def test_twisted_count_needs_prime_q():
    with pytest.raises(MotzetaError, match="prime"):
        twisted_count(torus(), 4)


def test_quotient_count_is_integral():
    for gs, q in ((mu_n(2), 5), (mu_n(3), 7), (fermat_pair(0, 2), 5)):
        c = quotient_count(gs, q)
        assert c.denominator == 1
