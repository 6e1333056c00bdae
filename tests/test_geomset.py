"""Point counting: twisted counts, quotients, Fermat pairs, the DFS engine."""

from fractions import Fraction

import pytest

from motzeta.errors import BudgetExceeded, MotzetaError
from motzeta.geomset import (
    GeomSet,
    WorkMeter,
    enumerate_points,
    fermat_pair,
    fermat_twisted_count,
    mu_n,
    quotient_count,
    torus,
    twisted_count,
)
from motzeta.poly import Poly, parse_poly


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
    gs = GeomSet(tuple("abcdefgh"), (parse_poly("a + b + c + d + e + f + g + h"),))
    with pytest.raises(BudgetExceeded):
        twisted_count(gs, 13, budget=1000)


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


def test_enumerate_points_spot_equivariance():
    # Applying the action generator to every solution lands on a solution.
    gs = fermat_pair(1, 2)
    q = 5
    pts = enumerate_points(gs, q, 0)
    assert len(pts) == twisted_count(gs, q, 0)
    z = q - 1  # the primitive square root of unity in F_q
    ptset = set(pts)
    for u, v in pts:
        assert (z * u % q, z * v % q) in ptset


def test_serialization_roundtrip():
    gs = fermat_pair(1, 3)
    d = gs.to_json_dict()
    back = GeomSet.from_json_dict(d)
    assert back.coords == gs.coords
    assert back.equations == gs.equations
    assert back.nonzero == gs.nonzero
    assert back.action_order == gs.action_order
    assert back.weights == gs.weights
    assert twisted_count(back, 7, 1) == twisted_count(gs, 7, 1)


def test_quotient_count_is_integral():
    for gs, q in ((mu_n(2), 5), (mu_n(3), 7), (fermat_pair(0, 2), 5)):
        c = quotient_count(gs, q)
        assert c.denominator == 1
