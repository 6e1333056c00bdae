"""Explicit presentations of equivariant varieties and exact point counts.

A GeomSet is an affine presentation: named coordinates, each possibly
constrained nonzero, integer polynomial equations, and a diagonal action of
the group of N-th roots of unity given by a weight per coordinate
(xi . x_i = xi^{w_i} x_i).

Counting is exact over F_q (q prime), in int arithmetic mod q.  The twisted
count of a GeomSet against a group element xi^s is the number of solutions x
over the algebraic closure with Frob_q(x) = xi^{-s} . x.  Coordinatewise this
pins x_i to zero or to t_i F_q^*, with t_i = zeta_K^{e_i}, e_i = -s w_i, a
power of one fixed primitive K-th root of unity, K = N (q - 1).  Writing
x_i = t_i u_i with u_i in F_q, a monomial x^a becomes zeta_K^{E(a)} u^a,
E(a) = sum a_i e_i = -s w(a), w(a) = sum a_i w_i its weight.  On a
semi-invariant equation E(a) mod N is one residue r on every non-constant
monomial (r = 0 if there is a constant term), so dividing by zeta_K^r leaves
an equation over F_q in the u_i with coefficients c_a g^{(E(a) - r)/N}, where
g = zeta_K^N.  zeta_K is fixed by taking g to be the least primitive root mod
q; individual twisted counts depend on that choice, Burnside sums do not.
Untwisted coordinates (e_i = 0 mod K) are plain F_q coordinates.  Quotient
counts follow by averaging twisted counts over the group (Burnside-Frobenius;
all quotients taken here are by free actions).

Each GeomSet holds its equations in one sparse form, built once at
construction with everything that does not depend on a twist: an equation
is (const, ((monomial, coeff, mask, weight), ...), once, twice) with integer
coefficients, a monomial a tuple of (coordinate index, exponent) sorted by
index, mask its coordinates as bits, weight w(a) over the reduced weights,
and once, resp. twice, the coordinates one, resp. two, monomials hold; the
nonzero constraint is kept as a mask too.  GeomSet(coords, equations)
builds it from Polys (_sparse_equation); the jet loci of zeta are built in
it directly from the digits of poly.JetExpansion, whose level pass maps
the masks with the indices, and their Poly view (GeomSet.equations) is
built only when read.  A sector only reduces and twists the coefficients
(_prepare): each becomes c_a g^{(E(a) - r)/N} mod q, E(a) read off the
stored weight with one pow per distinct weight of an equation, or just
c_a mod q in an untwisted sector; a coefficient that is 0 mod q drops its
monomial, and only then are once and twice rebuilt.

The twisted Fermat pairs of a convolution (fermat_twisted_count) reduce to
a diagonal equation g^e_u x^N + g^e_v y^N = c over F_q^*, which
_fermat_pass counts from the table of N-th powers of F_q^*, without a
search; fermat_counts is its untwisted pass.  Every other GeomSet is
counted by the DFS below, the one search over the twisted equations; it
counts points and lists none.

The DFS runs over the values F_q of each coordinate (F_q^* where the
nonzero mask has its bit) with partial evaluation of the
equations, pruning of contradictions, and dynamic detection of coordinates
no remaining equation mentions (those contribute a multiplicative factor
without branching).  Before it branches it solves what it can (see
_count_reduced): it eliminates a coordinate that ranges over F_q and occurs
only as c x_j, c constant, in just one equation; it counts the roots of a
binomial c v^k + d in a coordinate found nowhere else in closed form; it
branches only over the roots of any other one-coordinate equation; and it
pivots on a coordinate that leaves the chosen equation linear.  Its
bookkeeping reads coordinate bitmasks carried by each equation and monomial
(built at construction), and its free and unassigned coordinates are
bitmasks too, so it costs O(equations) per call.  A branch rewrites only
the monomials that hold its pivot: one value at a time when the pivot
tries one, else split once into the rest and the holders, which each value
only scales and adds back (_split, _substituted).  Work is metered against a
budget, default 10^8: one unit is one candidate value tried, either a value
the pivot takes in a branch or a candidate at which a one-coordinate
equation is evaluated.  A Fermat-pair count is charged q - 1 units, what
the DFS spends on it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BudgetExceeded, MotzetaError, VariableMismatch, require_choice, require_int
from .poly import Poly

DEFAULT_BUDGET = 10**8


@functools.cache
def _is_prime(n):
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def _require_prime(q, who):
    if not isinstance(q, int) or isinstance(q, bool) or not _is_prime(q):
        raise MotzetaError("%s needs a prime q, got %r" % (who, q))


@functools.cache
def _primitive_root(q):
    """The least primitive root mod the prime q."""
    m, primes, p = q - 1, [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return next(
        g for g in range(1, q)
        if all(pow(g, (q - 1) // p, q) != 1 for p in primes)
    )


class WorkMeter:
    """Counts candidate evaluations against a budget (an int >= 0, or None
    for DEFAULT_BUDGET)."""

    __slots__ = ("spent", "budget")

    def __init__(self, budget=DEFAULT_BUDGET):
        self.spent = 0
        self.budget = DEFAULT_BUDGET if budget is None else require_int(budget, "WorkMeter budget", 0)

    def spend(self, units=1):
        self.spent += units
        if self.spent > self.budget:
            raise self.exceeded("enumeration")

    def exceeded(self, what, level=None):
        """The BudgetExceeded saying that what ran over this meter's budget;
        level is the jet level of the count, when one is known."""
        return BudgetExceeded("%s exceeded the budget of %d candidates" % (what, self.budget), level=level)


class GeomSet:
    """Equivariant affine presentation; immutable by convention.

    equations is the tuple of Polys; the counts read the sparse form of the
    module docstring, built once here."""

    __slots__ = ("coords", "nonzero", "action_order", "weights", "_eqs", "_polys", "_nonzero_mask")

    def __init__(self, coords, equations=(), nonzero=(), action_order=1, weights=None):
        self._set_action(coords, action_order, weights)
        self._polys = tuple(equations)
        index = {c: i for i, c in enumerate(self.coords)}
        unknown = {v for eq in self._polys for v in eq.vars} - index.keys()
        if unknown:
            raise VariableMismatch("GeomSet equations mention unknown coords %s" % sorted(unknown))
        self._eqs = tuple(_sparse_equation(eq, index, self.weights) for eq in self._polys)
        self.nonzero = frozenset(nonzero)
        if not (self.nonzero <= set(self.coords)):
            raise VariableMismatch(
                "GeomSet nonzero names unknown coords %s" % sorted(self.nonzero - set(self.coords))
            )
        self._nonzero_mask = sum(1 << i for i, c in enumerate(self.coords) if c in self.nonzero)

    @classmethod
    def _from_sparse(cls, coords, eqs, action_order=1, weights=None):
        """A GeomSet with no nonzero constraint whose equations eqs are
        already in the sparse form over coords, masks, weights (over the
        reduced weights) and once/twice included; its Polys are built when
        first read."""
        gs = cls.__new__(cls)
        gs._set_action(coords, action_order, weights)
        gs._eqs = tuple(eqs)
        gs._polys = None
        gs.nonzero = frozenset()
        gs._nonzero_mask = 0
        return gs

    def _set_action(self, coords, action_order, weights):
        """Set and check the coordinates, the action order and the weights."""
        self.coords = tuple(coords)
        self.action_order = require_int(action_order, "GeomSet action_order", 1)
        if weights is None:
            weights = (0,) * len(self.coords)
        self.weights = tuple(require_int(w, "GeomSet weights: weight") % action_order for w in weights)
        if len(self.weights) != len(self.coords):
            raise VariableMismatch(
                "GeomSet weights: %d weights for %d coords" % (len(self.weights), len(self.coords))
            )

    @property
    def equations(self):
        """The equations as Polys in the coordinate names."""
        if self._polys is None:
            self._polys = tuple(Poly.from_sparse(self.coords, eq) for eq in self._eqs)
        return self._polys

    def __repr__(self):
        return "GeomSet(coords=%r, eqs=%d, order=%d)" % (
            self.coords,
            len(self._eqs),
            self.action_order,
        )


# --- reduction to F_q ----------------------------------------------------------


def _sparse_equation(eq, index, weights):
    """A Poly as (const, ((monomial, coeff, mask, weight), ...), once, twice)
    in the coordinate indices index, its terms in the Poly's order; weights
    are the coordinates' reduced weights."""
    const, terms = 0, []
    for e, c in eq.terms.items():
        mono = tuple(sorted((index[v], x) for v, x in zip(eq.vars, e) if x))
        if mono:
            mask = sum(1 << i for i, _x in mono)
            terms.append((mono, c, mask, sum(x * weights[i] for i, x in mono)))
        else:
            const = c
    return (const, tuple(terms), *_once_twice(t[2] for t in terms))


def _once_twice(masks):
    """(once, twice): the bits that one, resp. two, of the masks have."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once, twice


def _specialize(eq, i, value, q):
    """Substitute x_i = value into a reduced equation that holds x_i, for a
    pivot that tries this one value: 0 drops the monomials that hold x_i,
    with the once/twice masks built in the same pass; any other value is
    _substituted into the equation's _split."""
    if value:
        return _substituted(_split(eq, i), value, q)
    const, terms, _, _ = eq
    bit = 1 << i
    out = {}
    once = twice = 0
    for mono, cm in terms.items():
        m = cm[1]
        if not m & bit:
            out[mono] = cm
            twice |= once & m
            once |= m
    return const, out, once, twice


def _split(eq, i):
    """A reduced equation that holds x_i, split once for the values of its
    pivot x_i: (const, rest, once, twice, holders, e_max) with rest
    the terms without x_i and their once/twice masks, and holders
    (residual, exponent, coeff, residual mask) for the monomials that hold
    x_i, e_max their largest exponent (see _substituted)."""
    const, terms, _, _ = eq
    bit = 1 << i
    rest, holders = {}, []
    once = twice = e_max = 0
    for mono, cm in terms.items():
        m = cm[1]
        if m & bit:
            k = (m & (bit - 1)).bit_count()  # x_i's place in the sorted mono
            e = mono[k][1]
            holders.append((mono[:k] + mono[k + 1 :], e, cm[0], m ^ bit))
            if e > e_max:
                e_max = e
        else:
            rest[mono] = cm
            twice |= once & m
            once |= m
    return const, rest, once, twice, holders, e_max


def _substituted(part, value, q):
    """The reduced equation of a _split at x_i = value: value 0 is the terms
    without x_i; any other value scales each holder by value^e and adds it
    into the monomial its residual lands on, or into the constant, a zero
    sum dropped and the masks then rebuilt (a scaled holder alone stays
    nonzero mod q).  The terms come in another order than a rewrite in
    place gives them; the search's pivots, values and units do not depend
    on that order."""
    const, rest, once, twice, holders, e_max = part
    if not value:
        return const, rest, once, twice
    powers = [1]
    for _ in range(e_max):
        powers.append(powers[-1] * value % q)
    out = dict(rest)
    dropped = False
    for res, e, c, m in holders:
        c = c * powers[e] % q
        if not res:
            const += c
            continue
        old = out.get(res)
        if old is None:
            out[res] = c, m
            twice |= once & m
            once |= m
        else:
            c = (old[0] + c) % q
            if c:
                out[res] = c, m
            else:
                del out[res]
                dropped = True
    if dropped:
        once, twice = _once_twice(m for _c, m in out.values())
    return const % q, out, once, twice


def _root_count(k, t, q):
    """#{v in F_q^* : v^k = t} for t != 0: gcd(k, q - 1) if t is a gcd-th
    power, else 0."""
    d = math.gcd(k, q - 1)
    return d if pow(t, (q - 1) // d, q) == 1 else 0


def _solve_alone(eq, alone, nonzero, q):
    """(j, n) when the equation leaves n values of a coordinate j, which no
    other monomial of the system mentions, for every value of the rest;
    else None.  alone masks the coordinates that just one monomial of the
    live equations holds, one of which the equation holds; nonzero masks
    those constrained nonzero."""
    const, terms, _, _ = eq
    if len(terms) == 1:
        ((mono, (c, _m)),) = terms.items()
        if len(mono) == 1:
            j, k = mono[0]
            if const:  # c v^k + d with d != 0: v^k = -d/c
                return j, _root_count(k, -const * pow(c, q - 2, q) % q, q)
            return j, int(not nonzero >> j & 1)  # c v^k = 0: v = 0
    for mono in terms:
        j, x = mono[0]
        if len(mono) == 1 and x == 1 and alone >> j & 1 and not nonzero >> j & 1:
            return j, 1  # c x_j + rest = 0 has one root x_j over F_q
    return None


def _combined(eqs):
    """(ONCE, TWICE): the coordinates one, resp. two, monomials of eqs hold."""
    once = twice = 0
    for eq in eqs:
        twice |= eq[3] | once & eq[2]
        once |= eq[2]
    return once, twice


def _count_reduced(eqs, unassigned, nonzero, q, meter):
    """DFS point count.

    eqs: reduced equations (_prepare), specialized in assigned coordinates.
    unassigned: the mask of the coordinates still free; a lower index is
    preferred.  nonzero: the mask of the coordinates constrained nonzero;
    coordinate i takes the candidate values range(nonzero >> i & 1, q), in
    that order.

    Before it branches, the search applies three rules:

    1. Elimination: an equation in which a coordinate x_j occurs only as the
       monomial c x_j, when no other equation mentions x_j and x_j ranges
       over all of F_q, fixes x_j for every value of the rest.  The
       equation and x_j are dropped with factor 1.
    2. Univariate roots: an equation c v^k + d in a coordinate v that no
       other equation mentions is dropped with its root count: gcd(k, q - 1)
       if -d/c is a gcd-th power and d != 0, else 0; and 1 (v = 0) or 0 if
       d = 0.  When the equation with the fewest coordinates is some other
       univariate equation, the search branches only over its roots among
       the candidates: the one root of a linear equation, else the
       candidates at which the equation alone evaluates to zero.
    3. Pivot choice: otherwise the pivot is a coordinate of that equation
       that does not occur in it only as c x_j, so the equation ends linear
       and rule 2 solves it.

    One meter unit is one candidate value tried: a value the pivot takes in
    a branch, or a candidate at which a univariate equation is evaluated.
    Dropped equations and coordinates no equation mentions cost nothing.

    The rules read the masks of the live system (_combined): a coordinate
    just one monomial holds is a bit of ONCE & ~TWICE, one still mentioned a
    bit of ONCE.  The free coordinates (unassigned, mentioned by no live
    equation, not solved) multiply in by popcount, and the pivot is the
    lowest bit of the coordinates it may take.  A branch passes the
    equations without its pivot on as they are.  A pivot that tries one
    value rewrites the monomials that hold it (_specialize); one that tries
    several splits each equation that holds it once (_split), and each
    value only scales the holders and adds them into the rest
    (_substituted).  The search is that of a scan of every term, with the
    same pivots, values and units (tests/brute.count_reduced_brute).
    """
    live = []
    for eq in eqs:
        if eq[1]:
            live.append(eq)
        elif eq[0]:
            return 0  # a nonzero constant = 0
    once, twice = _combined(live)
    multiplier = 1
    solved = 0
    changed = True
    while changed:
        changed = False
        kept = []
        alone = once & ~twice
        for k, eq in enumerate(live):
            hit = _solve_alone(eq, alone, nonzero, q) if eq[2] & alone else None
            if hit is None:
                kept.append(eq)
                continue
            j, n = hit
            if not n:
                return 0
            multiplier *= n
            solved |= 1 << j
            once, twice = _combined(kept + live[k + 1 :])
            alone = once & ~twice
            changed = True
        live = kept
    branching = unassigned & once
    free = unassigned & ~once & ~solved
    if free:
        units = (free & nonzero).bit_count()
        multiplier *= q ** (free.bit_count() - units) * (q - 1) ** units
    if not live:
        return multiplier
    # The equation with the fewest distinct coordinates, so triangular
    # systems resolve level by level.
    widths = [eq[2].bit_count() for eq in live]
    const, terms, eq_once, _ = live[widths.index(min(widths))]
    if eq_once & (eq_once - 1) == 0:
        bit = eq_once
        pivot = bit.bit_length() - 1
        nz = nonzero >> pivot & 1
        c = terms.get(((pivot, 1),))
        if len(terms) == 1 and c is not None:
            meter.spend()
            root = -const * pow(c[0], q - 2, q) % q
            values = [root] if root or not nz else []
        else:
            meter.spend(q - nz)
            powers = [(c, mono[0][1]) for mono, (c, _m) in terms.items()]
            values = [
                v for v in range(nz, q)
                if (const + sum(c * pow(v, k, q) for c, k in powers)) % q == 0
            ]
    else:
        other = 0  # the coordinates held other than as c x_j
        for mono, (_c, m) in terms.items():
            if len(mono) > 1 or mono[0][1] > 1:
                other |= m
        in_eq = branching & eq_once
        preferred = in_eq & other or in_eq
        bit = preferred & -preferred
        pivot = bit.bit_length() - 1
        nz = nonzero >> pivot & 1
        values = range(nz, q)
        meter.spend(q - nz)
    rest = branching & ~bit
    if len(values) > 1:
        parts = [_split(eq, pivot) if eq[2] & bit else None for eq in live]
        total = 0
        for value in values:
            next_eqs = [eq if part is None else _substituted(part, value, q) for eq, part in zip(live, parts)]
            total += _count_reduced(next_eqs, rest, nonzero, q, meter)
    elif values:
        next_eqs = [_specialize(eq, pivot, values[0], q) if eq[2] & bit else eq for eq in live]
        total = _count_reduced(next_eqs, rest, nonzero, q, meter)
    else:
        return 0
    return multiplier * total


def _check_twist(N, q, exps):
    """Refuse a twisted count at a q that is not prime, or with a twist
    exponent nonzero mod K = N (q - 1) when q | N."""
    _require_prime(q, "twisted count")
    if N % q == 0 and any(e % (N * (q - 1)) for e in exps):
        raise MotzetaError(
            "twisted count at q=%d needs the N=%d-th roots of unity, "
            "which do not exist in characteristic %d" % (q, N, q)
        )


def _prepare(gs, q, g_exp):
    """The twisted count of gs in sector g_exp as an F_q count, in one pass
    over the sparse form (see the module docstring).  The masks and weights
    come from construction; a sector only reduces the coefficients mod q
    and, when it twists, scales each by g^((E - r)/N), E = -g_exp w(a) mod K
    read off the monomial's weight, with one pow per distinct weight of an
    equation; once and twice are rebuilt only when a coefficient is 0 mod
    q.  Returns the equations in the u_i, each
    (const, {monomial: (coeff, mask)}, once, twice) with zero coefficients
    dropped (mask has bit j when the monomial holds x_j; once, resp. twice,
    the coordinates one, resp. two, monomials hold), and the mask of the
    coordinates constrained nonzero.  Raises MotzetaError if an equation is
    not semi-invariant under the twist."""
    N, weights = gs.action_order, gs.weights
    _check_twist(N, q, [g_exp * w for w in weights])
    K = N * (q - 1)
    g = _primitive_root(q) if any(g_exp * w % K for w in weights) else None
    eqs = []
    for k, (const, terms, once, twice) in enumerate(gs._eqs):
        const %= q
        out = {}
        if g is None:
            for mono, c, m, _w in terms:
                c %= q
                if c:
                    out[mono] = c, m
        else:
            r = 0 if const else None  # a constant forces r = 0
            scale = {}  # weight -> g^((E - r)/N)
            for mono, c, m, w in terms:
                c %= q
                if not c:
                    continue
                s = scale.get(w)
                if s is None:
                    E = -g_exp * w % K
                    if r is None:
                        r = E % N
                    elif E % N != r:
                        raise MotzetaError(
                            "equation %s is not semi-invariant under the twist" % gs.equations[k].render()
                        )
                    s = scale[w] = pow(g, (E - r) // N, q)
                out[mono] = c * s % q, m
        if len(out) < len(terms):  # a coefficient is 0 mod q
            once, twice = _once_twice(m for _c, m in out.values())
        eqs.append((const, out, once, twice))
    return eqs, gs._nonzero_mask


def twisted_count(gs, q, g_exp=0, meter=None):
    """#{x : equations, nonzero, Frob_q(x) = xi^{-g_exp} . x}.

    xi = zeta_K^{q-1} is the fixed primitive N-th root of unity
    (N = gs.action_order); the coordinatewise condition is
    x_i^q = xi^{-g_exp * w_i} x_i.  meter (default: a fresh WorkMeter with
    DEFAULT_BUDGET) is charged for the candidates tried.
    """
    require_int(g_exp, "twisted_count g_exp")
    if meter is None:
        meter = WorkMeter()
    eqs, nonzero = _prepare(gs, q, g_exp)
    return _count_reduced(eqs, (1 << len(gs.coords)) - 1, nonzero, q, meter)


def quotient_count(gs, q, meter=None):
    """Number of F_q-points of the free quotient by the full mu_N action;
    one meter (default as in twisted_count) caps all N twisted counts."""
    if meter is None:
        meter = WorkMeter()
    N = gs.action_order
    return Fraction(sum(twisted_count(gs, q, s, meter=meter) for s in range(N)), N)


# --- stock presentations -----------------------------------------------------


def torus():
    """G_m with trivial action."""
    return GeomSet(("u",), (), ("u",), 1, (0,))


def mu_n(n):
    """The group of n-th roots of unity with its translation action."""
    require_int(n, "mu_n n", 1)
    return GeomSet(("u",), (Poly.var("u", n) - 1,), ("u",), n, (1,))


def fermat_pair(kind, N):
    """F_0^N: u^N + v^N = 0, or F_1^N: u^N + v^N = 1, inside G_m^2.

    Carries the diagonal mu_N action with weight 1 on both coordinates.
    """
    require_choice("fermat_pair kind", kind, (0, 1))
    require_int(N, "fermat_pair N", 1)
    eq = Poly.var("u", N) + Poly.var("v", N) - kind
    return GeomSet(("u", "v"), (eq,), ("u", "v"), N, (1, 1))


def point():
    """A single point with trivial action."""
    return GeomSet((), (), (), 1, ())


@functools.cache
def _power_histogram(a, q):
    """h[z] = #{x in F_q^* : x^a = z} for z in F_q (h[0] = 0)."""
    h = [0] * q
    for x in range(1, q):
        h[pow(x, a, q)] += 1
    return tuple(h)


def fermat_counts(a, b, q):
    """(#{x^a + y^b = 0}, #{x^a + y^b = 1}) over (F_q^*)^2: the untwisted
    _fermat_pass, once a and b are checked as ints >= 1 and q as a prime."""
    require_int(a, "fermat_counts a", 1)
    require_int(b, "fermat_counts b", 1)
    _require_prime(q, "fermat_counts")
    return _fermat_pass(a, b, q, 0, 0)


@functools.lru_cache(maxsize=4096)
def _fermat_pass(a, b, q, e_u, e_v):
    """(#{g^e_u x^a + g^e_v y^b = 0}, #{g^e_u x^a + g^e_v y^b = 1}) over
    (F_q^*)^2, g the least primitive root mod q, on checked arguments with
    the twists reduced mod q - 1.

    Each count is sum_z h_a[z] h_b[(c - g^e_u z) g^-e_v] over the histograms
    of a-th and b-th powers of F_q^*: O(q) int operations (Weil 1949 counts
    diagonal equations from the same tables).  Both counts come from one
    pass, kept per reduced twists, so the two kinds of a twisted Fermat pair
    cost one.
    """
    h_a, h_b = _power_histogram(a, q), _power_histogram(b, q)
    g = _primitive_root(q)
    su = pow(g, e_u, q)
    sv_inv = pow(g, -e_v % (q - 1), q)
    f0 = f1 = 0
    for z, n in enumerate(h_a):
        if n:
            t = su * z % q
            f0 += n * h_b[-t * sv_inv % q]
            f1 += n * h_b[(1 - t) * sv_inv % q]
    return f0, f1


def fermat_twisted_count(kind, N, q, e_u, e_v, meter=None):
    """Twisted count of F_kind^N with independent coordinate twists.

    Conditions: u^q = zeta_N^{e_u} u and v^q = zeta_N^{e_v} v.  This is the
    inner term of the convolution counting formula, where the two Fermat
    coordinates receive different group twists.  Writing u = zeta_K^{e_u} x
    and v = zeta_K^{e_v} y with x, y in F_q^* (the module docstring's
    reduction, two exponents where _prepare has one sector) leaves
    g^e_u x^N + g^e_v y^N = kind over F_q, which _fermat_pass counts from
    the N-th power table.  The count charges meter (default as in
    twisted_count) q - 1 units, what the DFS spends on fermat_pair(kind, N)
    with these twists.  A twist nonzero mod K = N (q - 1) needs q prime to N.
    kind is 0 or 1, N an int >= 1 and the twists ints; both kinds at one
    pair of twists share one _fermat_pass.
    """
    require_choice("fermat_twisted_count kind", kind, (0, 1))
    require_int(N, "fermat_twisted_count N", 1)
    require_int(e_u, "fermat_twisted_count e_u")
    require_int(e_v, "fermat_twisted_count e_v")
    if meter is None:
        meter = WorkMeter()
    _check_twist(N, q, (e_u, e_v))
    meter.spend(q - 1)
    return _fermat_pass(N, N, q, e_u % (q - 1), e_v % (q - 1))[kind]
