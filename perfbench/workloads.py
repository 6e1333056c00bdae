"""The benchmark's workloads: seeded op lists, timed inputs and exact references.

Each workload is a fixed list of ops.  The seed only picks, for each op, one
variant from a list of variants of equal cost: unit coefficients of a germ,
the order of two operands, or a prime at which a pair needs the same fit
depth.  Seed 0 is the canonical list.

For every op:

  * ``prepare(op)`` runs in the workload process before timing starts.  It
    builds the op's inputs and returns a ``Prepared``: ``run()`` is the timed
    call, ``extract(result)`` turns its result into a dict of exact values;
  * ``reference(op)`` runs in the parent process and returns the same dict,
    computed by a route independent of the timed one;
  * the two dicts are compared by ``check``.

Only values that any correct implementation must preserve are compared:
counted coefficients as exact Fractions, nearby-cycle values, and symbolic
coefficients by SymbolicClass equality.  Individual twisted counts at s != 0
depend on the choice of primitive root, so GeomSet counts are checked only at
s = 0 and through Burnside sums.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from motzeta import geomset, motclass, series, zeta
from motzeta.errors import MotzetaError
from motzeta.locring import LocRat
from motzeta.motclass import Atom, SymbolicClass
from motzeta.poly import parse_poly
from motzeta.realize import count_realization, symbolic_realization

# Sample depths the nearby pipeline climbs; an op stops at the first that fits.
LADDER = (8, 16, 24, 32, 48, 64, 96, 128)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``kind`` selects the code, ``args`` its inputs."""

    kind: str
    args: tuple

    @property
    def id(self):
        return "%s%r" % (self.kind, self.args)


# ---------------------------------------------------------------------------
# seeded op lists
# ---------------------------------------------------------------------------


def _unit(rng, q):
    return rng.randrange(1, q) if rng else 1


def _germ(c):
    """x^2 + c x^3, written without a unit coefficient when c = 1."""
    return "x^2+x^3" if c == 1 else "x^2+%d*x^3" % c


def _jets(rng):
    u = partial(_unit, rng)
    return [
        Op("zeta_trunc", (_germ(u(5)), 8, 5)),
        Op("zeta_trunc", (_germ(u(7)), 7, 7)),
        Op("zeta_trunc", ("%d*x*y" % u(5), 4, 5)),
        Op("zeta_trunc", ("x^2+%d*y^3+%d*x*y^2" % (u(5), u(5)), 4, 5)),
        Op("zeta_trunc", ("x^2+%d*y^3+%d*x*y^2" % (u(3), u(3)), 6, 3)),
        Op("pullback_hist", (_germ(u(5)), "%d*y*z" % u(5), 4, 5)),
        Op("multizeta", ((_germ(u(5)), "y^2+%d*y^3" % u(5)), 9, 5)),
    ]


def _burnside_args(rng, a, b, q):
    """conv(mu_a - k, mu_b - m) at q; the seed picks k, m and the operand order."""
    k, m = (rng.randint(1, 3), rng.randint(1, 3)) if rng else (1, 1)
    if rng and rng.random() < 0.5:
        return (b, m, a, k, q)
    return (a, k, b, m, q)


def _twisted(rng):
    u = partial(_unit, rng)
    # b = +-a keeps -b/a a square mod 5, so a x^2 + b y^2 splits into u*v.
    a = u(5)
    b = a if not rng or rng.random() < 0.5 else 5 - a
    return [
        Op("twisted_count", (_germ(u(7)), 16, 7)),
        Op("twisted_count", (_germ(u(7)), 24, 7)),
        Op("twisted_count", ("%d*x^2+%d*y^2" % (a, b), 6, 5)),
        Op("quotient_count", ("x^3+%d*x^4" % u(7), 6, 7)),
        Op("quotient_count", (_germ(u(5)), 8, 5)),
        Op("burnside", _burnside_args(rng, 2, 3, 7)),
        Op("burnside", _burnside_args(rng, 2, 3, 13)),
        Op("burnside", _burnside_args(rng, 2, 3, 19)),
        Op("burnside", _burnside_args(rng, 2, 3, 31)),
        Op("burnside", _burnside_args(rng, 2, 5, 11)),
    ]


# For each exponent pair, primes at which it fits at the same LADDER rung and
# at comparable cost (larger q means larger Fractions): (2,3) fits at 48,
# (2,2) at 48 for q = 1 mod 4, (3,3) at 16, (2,4) at 24.  Seed 0 takes the
# primes in order; other seeds draw with replacement.
NEARBY_PRIMES = {
    (2, 3): (7, 13, 19, 31),
    (2, 2): (5, 13, 17),
    (3, 3): (7, 13, 19, 31),
    (2, 4): (5, 13, 17),
}
NEARBY_SLOTS = ((2, 3), (2, 3), (2, 3), (2, 3), (2, 2), (2, 2), (3, 3), (3, 3), (2, 4))


def _nearby(rng):
    ops = []
    for i, pair in enumerate(NEARBY_SLOTS):
        primes = NEARBY_PRIMES[pair]
        q = rng.choice(primes) if rng else primes[NEARBY_SLOTS[:i].count(pair)]
        a, b = pair
        if rng and rng.random() < 0.5:
            a, b = b, a
        ops.append(Op("nearby", (a, b, q)))
    return ops


def _family(rng, first, rest):
    """Exponents of a monomial family: ``first`` leads, then ``rest`` in an
    order the seed draws.  The support, and so the cost, depends only on the
    leading exponent; the trailing ones only change coefficient values."""
    return (first,) + (tuple(rng.sample(rest, len(rest))) if rng else tuple(rest))


def _pair(rng, first, trailing):
    return (first, rng.choice(trailing) if rng else trailing[0])


def _symbolic(rng):
    return [
        Op("multizeta_sym", (_family(rng, 2, (3, 5)), 45)),
        Op("multizeta_sym", (_family(rng, 2, (3, 4, 5)), 45)),
        Op("chain_roundtrip", (_family(rng, 2, (3, 5)), 45)),
        Op("v_hadamard", (_pair(rng, 2, (3, 5)), _pair(rng, 3, (2, 4)), 40)),
        Op("hadamard_conv", (_pair(rng, 2, (3, 5)), _pair(rng, 3, (2, 4)), 30)),
    ]


WORKLOADS = {"jets": _jets, "twisted": _twisted, "nearby": _nearby, "symbolic": _symbolic}

# The calibration kernel (calibrate.py) whose speed tracks each workload's:
# jet tables are vectorised numpy, the rest is interpreted Python.
CALIBRATION = {"jets": "numpy", "twisted": "python", "nearby": "python", "symbolic": "python"}

# Ops that fail today, each with a reference from an independent route.  They
# run once per run, outside the timed passes, so that the timed op lists have
# no failing op; ``probe.refused`` reports how many are still refused.
PROBES = {
    # q divides the level: the splitting-field setup refuses it.
    "twisted": [Op("twisted_count", ("x^2+x^3", 14, 7))],
    # FitFailed on every rung up to D=128.
    "nearby": [Op("nearby", (2, 5, 11))],
}


def plan(workload, seed):
    """The op list of ``workload`` for ``seed`` (seed 0: the canonical list)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random(seed) if seed else None
    return WORKLOADS[workload](rng)


def probes(workload):
    return list(PROBES.get(workload, ()))


# ---------------------------------------------------------------------------
# timed inputs (workload process)
# ---------------------------------------------------------------------------


def _entries(s):
    return dict(s.entries)


def _scalar(v):
    return {(): Fraction(v)}


def _mu(a):
    return SymbolicClass.from_atom(Atom("mu%d" % a, a))


def _burnside_class(a, k, b, m):
    def one(c):
        return SymbolicClass.scalar(LocRat.from_int(c))

    return motclass.conv(_mu(a) - one(k), _mu(b) - one(m))


def _mu_table(*orders):
    return zeta.standard_atom_sets(tuple("mu%d" % a for a in orders))


def _nearby_psi(f, g, q):
    """Count, fit, close and read nearby cycles, climbing LADDER; returns
    (rung, psi).  Raises the last refusal when no rung fits."""
    real = count_realization(q)
    period = math.lcm(f.total_degree(), g.total_degree())
    for D in LADDER:
        s = zeta.sum_zeta_pullback(f, g, D, real)
        samples = {n: s.coeff((n,)) for n in range(1, D + 1)}
        try:
            closed = series.closed_from_fit(series.strand_fit(real, samples, period=period))
            return D, zeta.nearby_cycles(closed)
        except MotzetaError:
            if D == LADDER[-1]:
                raise


def _sym_multizeta_inputs(exps, names="xyzw"):
    return tuple(parse_poly("%s^%d" % (v, a)) for v, a in zip(names, exps))


@dataclass
class Prepared:
    """A prepared op: ``run()`` is timed, ``extract(result)`` gives the exact
    values to check, ``meters`` are the WorkMeters the op charges, and
    ``units(result)`` any work units the benchmark reads off the result."""

    run: object
    extract: object = _entries
    meters: tuple = ()
    units: object = None


def prepare(op):
    """Build ``op``'s inputs (untimed) and return a Prepared.  Library
    functions are looked up when the op runs, so traced runs see wrappers."""
    k, a = op.kind, op.args
    if k == "zeta_trunc":
        f, D, real = parse_poly(a[0]), a[1], count_realization(a[2])
        return Prepared(lambda: zeta.zeta_trunc(f, D, real))
    if k == "pullback_hist":
        f, g, D, real = parse_poly(a[0]), parse_poly(a[1]), a[2], count_realization(a[3])
        return Prepared(lambda: zeta.sum_zeta_pullback(f, g, D, real, mode="hist"))
    if k == "multizeta":
        fs, D, real = tuple(parse_poly(f) for f in a[0]), a[1], count_realization(a[2])
        return Prepared(lambda: zeta.multizeta_trunc(fs, D, real))
    if k in ("twisted_count", "quotient_count"):
        gs, q = zeta.jet_set(parse_poly(a[0]), a[1]), a[2]
        meter = geomset.WorkMeter()
        return Prepared(lambda: getattr(geomset, k)(gs, q, meter=meter), _scalar, (meter,))
    if k == "burnside":
        oa, ka, ob, kb, q = a
        c = _burnside_class(oa, ka, ob, kb)
        binding = motclass.Binding(_mu_table(oa, ob), q)
        return Prepared(lambda: motclass.bind_and_count(c, binding), _scalar, (binding.meter,))
    if k == "nearby":
        f, g, q = parse_poly("x^%d" % a[0]), parse_poly("y^%d" % a[1]), a[2]
        return Prepared(
            lambda: _nearby_psi(f, g, q),
            lambda r: _scalar(r[1]),
            units=lambda r: {"series.samples_to_fit": r[0]},
        )
    sym = symbolic_realization()
    if k == "multizeta_sym":
        fs, D = _sym_multizeta_inputs(a[0]), a[1]
        return Prepared(lambda: zeta.multizeta_trunc(fs, D, sym))
    if k == "chain_roundtrip":
        fs, D = _sym_multizeta_inputs(a[0]), a[1]
        return Prepared(lambda: zeta.multizeta_separable(fs, sym).phi_inv().phi().expand(D))
    if k in ("v_hadamard", "hadamard_conv"):
        left, right = _hadamard_operands(op, sym)
        return Prepared(lambda: getattr(series, k)(left, right))
    raise ValueError("unknown op kind %r" % k)


def _hadamard_operands(op, sym):
    ea, eb, D = op.args
    if op.kind == "v_hadamard":
        va, vb = ("T", "V"), ("V", "U")
    else:
        va = vb = ("T", "U")
    left = zeta.multizeta_trunc(_sym_multizeta_inputs(ea, "xy"), D, sym, vars=va)
    right = zeta.multizeta_trunc(_sym_multizeta_inputs(eb, "zw"), D, sym, vars=vb)
    return left, right


# ---------------------------------------------------------------------------
# references (parent process, independent routes)
# ---------------------------------------------------------------------------


class References:
    """Memoized independent routes: s=0 DFS counts over F_q (no histograms,
    no extension fields), closed forms, and direct Fermat counts."""

    def __init__(self):
        self._dfs = {}

    def dfs(self, f, n, q, exact=True):
        """s=0 count of the level-n jet locus by GeomSet DFS over F_q."""
        key = (f, n, q, exact)
        if key not in self._dfs:
            gs = zeta.jet_set(parse_poly(f), n, exact=exact, action_order=1)
            self._dfs[key] = geomset.twisted_count(gs, q)
        return self._dfs[key]

    def normalized(self, f, n, q, exact=True):
        d = len(parse_poly(f).vars)
        return Fraction(self.dfs(f, n, q, exact), q ** (d * n))


def fermat_diff(a, b, q):
    """#{u^a + v^b = 0} - #{u^a + v^b = 1} over (F_q^*)^2, by enumeration."""
    pa = [pow(u, a, q) for u in range(1, q)]
    pb = [pow(v, b, q) for v in range(1, q)]
    return sum((x + y) % q == 0 for x in pa for y in pb) - sum(
        (x + y) % q == 1 for x in pa for y in pb
    )


def burnside_reference(a, k, b, m, q):
    """Count of conv(mu_a - k, mu_b - m) at q, expanded bilinearly into
    Fermat counts (mu_1 is the point)."""
    return (
        fermat_diff(a, b, q)
        - m * fermat_diff(a, 1, q)
        - k * fermat_diff(1, b, q)
        + k * m * fermat_diff(1, 1, q)
    )


def _chains(r, D):
    for ns in itertools.combinations(range(1, D + 1), r):
        if sum(ns) <= D:
            yield ns


def _mono_class(a):
    return _mu(a) if a > 1 else SymbolicClass.unit()


def _chain_power(exps, ns):
    return sum(n // a for a, n in zip(exps, ns))


def _chain_class(exps, ns):
    """Closed-form symbolic coefficient of the monomial family zeta at a chain:
    [mu_a1] L^{-(n1/a1 + sum floor(n_i/a_i))}, zero unless a1 | n1."""
    if ns[0] % exps[0]:
        return None
    return _mono_class(exps[0]).scale(LocRat.L(-_chain_power(exps, ns)))


def _sym_family(exps, D):
    out = {}
    for ns in _chains(len(exps), D):
        c = _chain_class(exps, ns)
        if c is not None:
            out[ns] = c
    return out


def reference(op, refs=None):
    """Expected exact values of ``op``, from a route independent of the timed one."""
    refs = refs or References()
    k, a = op.kind, op.args
    if k == "zeta_trunc":
        f, D, q = a
        vals = {(n,): refs.normalized(f, n, q) for n in range(1, D + 1)}
        return {e: v for e, v in vals.items() if v}
    if k == "pullback_hist":
        f, g, D, q = a
        h = "%s+%s" % (f, g)
        vals = {(n,): refs.normalized(h, n, q) for n in range(1, D + 1)}
        return {e: v for e, v in vals.items() if v}
    if k == "multizeta":
        fs, D, q = a
        out = {}
        for ns in _chains(len(fs), D):
            v = refs.normalized(fs[0], ns[0], q)
            for f, n in zip(fs[1:], ns[1:]):
                v *= refs.normalized(f, n, q, exact=False)
            if v:
                out[ns] = v
        return out
    if k == "twisted_count":
        f, n, q = a
        p = parse_poly(f)
        if len(p.vars) == 2:
            # a x^2 + b y^2 with -b/a a square is u*v after a linear change:
            # orders i + j = n, leading coefficients with product 1.
            return _scalar((n - 1) * (q - 1) * q**n)
        # x^2 + c x^3: order n/2 with leading coefficient +-1, upper half free.
        return _scalar(2 * q ** (n // 2) if n % 2 == 0 else 0)
    if k == "quotient_count":
        # The locus is mu_a x A^(n - n/a) with mu_n transitive on the mu_a
        # factor; every twisted form of affine space has q^dim points.
        f, n, q = a
        lead = min(sum(e) for e in parse_poly(f).terms)
        return _scalar(q ** (n - n // lead))
    if k == "burnside":
        return _scalar(burnside_reference(*a))
    if k == "nearby":
        # Thom-Sebastiani: 1 - psi(x^a + y^b) = count of conv(mu_a - 1, mu_b - 1).
        x, y, q = a
        return _scalar(1 - burnside_reference(x, 1, y, 1, q))
    if k in ("multizeta_sym", "chain_roundtrip"):
        exps, D = a
        return _sym_family(exps, D)
    if k == "v_hadamard":
        ea, eb, D = a
        left, right = _sym_family(ea, D), _sym_family(eb, D)
        by_v = {}
        for (v, u), c in right.items():
            by_v.setdefault(v, []).append((u, c))
        out = {}
        for (t, v), ca in left.items():
            for u, cb in by_v.get(v, ()):
                if t + u + v <= D:
                    out[(t, u, v)] = motclass.external_mul(ca, cb)
        return out
    if k == "hadamard_conv":
        ea, eb, D = a
        left, right = _sym_family(ea, D), _sym_family(eb, D)
        out = {e: motclass.conv(left[e], right[e]) for e in left if e in right}
        _realize_conv_reference(out, ea, eb)
        return out
    raise ValueError("unknown op kind %r" % k)


def _realize_conv_reference(out, ea, eb, q=7):
    """Check the conv references against direct Fermat counts at q = 7
    (1 mod 6): conv(L^-x mu_a, L^-y mu_b) counts to q^-(x+y) times the
    Fermat difference, x and y being the chain exponents of _chain_class."""
    binding = motclass.Binding(_mu_table(ea[0], eb[0]), q)
    base = fermat_diff(ea[0], eb[0], q)
    for e, c in out.items():
        want = Fraction(q) ** -(_chain_power(ea, e) + _chain_power(eb, e)) * base
        got = motclass.bind_and_count(c, binding)
        if got != want:
            raise AssertionError("conv reference at %s counts to %s, expected %s" % (e, got, want))


def check(got, expected):
    """First mismatch between two exact-value dicts, or None when equal."""
    for key in sorted(set(got) | set(expected), key=repr):
        if key not in got or key not in expected or not (got[key] == expected[key]):
            return "%s: got %r, expected %r" % (key, got.get(key), expected.get(key))
    return None
