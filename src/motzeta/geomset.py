"""Explicit presentations of equivariant varieties and exact point counts.

A GeomSet is an affine presentation: named coordinates, each possibly
constrained nonzero, integer polynomial equations, and a diagonal action of
the group of N-th roots of unity given by a weight per coordinate
(xi . x_i = xi^{w_i} x_i).

Counting is exact over F_q (q prime), in int arithmetic mod q.  The twisted
count of a GeomSet against a group element xi^s is the number of solutions x
over the algebraic closure with Frob_q(x) = xi^{-s} . x.  Coordinatewise this
pins x_i to zero or to t_i F_q^*, with t_i = zeta_K^{e_i} a power of one fixed
primitive K-th root of unity, K = N (q - 1).  Writing x_i = t_i u_i with u_i
in F_q, a monomial x^a becomes zeta_K^{E(a)} u^a, E(a) = sum a_i e_i.  On a
semi-invariant equation E(a) mod N is one residue r on every non-constant
monomial (r = 0 if there is a constant term), so dividing by zeta_K^r leaves
an equation over F_q in the u_i with coefficients c_a g^{(E(a) - r)/N}, where
g = zeta_K^N.  zeta_K is fixed by taking g to be the least primitive root mod
q; individual twisted counts depend on that choice, Burnside sums do not.
Untwisted coordinates (e_i = 0 mod K) are plain F_q coordinates.  Quotient
counts follow by averaging twisted counts over the group (Burnside-Frobenius;
all quotients taken here are by free actions).

The twisted Fermat pairs of a convolution (fermat_twisted_count) reduce to
a diagonal equation g^e_u x^N + g^e_v y^N = c over F_q^*, which
fermat_counts counts from the table of N-th powers of F_q^*, without a
search.  Every other GeomSet is counted by the DFS below, the one search
over the compiled equations; it counts points and lists none.

The DFS runs over per-coordinate candidate sets with partial evaluation of
the equations, pruning of contradictions, and dynamic detection of
coordinates no remaining equation mentions (those contribute a
multiplicative factor without branching).  Before it branches it solves what
it can (see _count_reduced): it eliminates a coordinate that ranges over F_q
and occurs only as c x_j, c constant, in just one equation; it counts the
roots of a binomial c v^k + d in a coordinate found nowhere else in closed
form; it branches only over the roots of any other one-coordinate equation;
and it pivots on a coordinate that leaves the chosen equation linear.  Work is
metered against a budget, default 10^8: one unit is one candidate value
tried, either a value the pivot takes in a branch or a candidate at which a
one-coordinate equation is evaluated.  A Fermat-pair count is charged q - 1
units, what the DFS spends on it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BudgetExceeded, MotzetaError, VariableMismatch
from .poly import Poly

DEFAULT_BUDGET = 10**8


def _is_prime(n):
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def _require_prime(q, who):
    if not _is_prime(q):
        raise MotzetaError("%s needs a prime q, got %d" % (who, q))


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
    """Counts candidate evaluations against a budget."""

    __slots__ = ("spent", "budget")

    def __init__(self, budget=DEFAULT_BUDGET):
        self.spent = 0
        self.budget = budget if budget is not None else DEFAULT_BUDGET

    def spend(self, units=1):
        self.spent += units
        if self.spent > self.budget:
            raise BudgetExceeded(
                "enumeration exceeded budget of %d candidates" % self.budget
            )


class GeomSet:
    """Equivariant affine presentation; immutable by convention."""

    __slots__ = ("coords", "equations", "nonzero", "action_order", "weights")

    def __init__(self, coords, equations=(), nonzero=(), action_order=1, weights=None):
        self.coords = tuple(coords)
        self.equations = tuple(equations)
        self.nonzero = frozenset(nonzero)
        self.action_order = int(action_order)
        if self.action_order < 1:
            raise MotzetaError("GeomSet action_order must be >= 1, not %d" % self.action_order)
        if weights is None:
            weights = (0,) * len(self.coords)
        self.weights = tuple(w % self.action_order for w in weights)
        if len(self.weights) != len(self.coords):
            raise VariableMismatch(
                "GeomSet weights: %d weights for %d coords" % (len(self.weights), len(self.coords))
            )
        unknown = set()
        for eq in self.equations:
            unknown |= set(eq.vars) - set(self.coords)
        if unknown:
            raise VariableMismatch("GeomSet equations mention unknown coords %s" % sorted(unknown))
        if not (self.nonzero <= set(self.coords)):
            raise VariableMismatch(
                "GeomSet nonzero names unknown coords %s" % sorted(self.nonzero - set(self.coords))
            )

    @property
    def dim(self):
        return len(self.coords)

    def check_action_invariance(self):
        """Symbolic invariance: each equation's non-constant monomials share
        one weight mod N, and a constant term forces that weight to be 0."""
        N = self.action_order
        if N == 1:
            return True
        widx = {c: w for c, w in zip(self.coords, self.weights)}
        for eq in self.equations:
            weight = None
            has_const = False
            for e in eq.terms:
                if not any(e):
                    has_const = True
                    continue
                w = sum(x * widx[v] for v, x in zip(eq.vars, e)) % N
                if weight is None:
                    weight = w
                elif weight != w:
                    return False
            if has_const and weight not in (None, 0):
                return False
        return True

    def __repr__(self):
        return "GeomSet(coords=%r, eqs=%d, order=%d)" % (
            self.coords,
            len(self.equations),
            self.action_order,
        )


# --- reduction to F_q ----------------------------------------------------------


def _compile_equation(eq, coord_index, exps, N, q, g):
    """Poly -> (const, {monomial: coeff}) over F_q in the coordinates u_i of
    x_i = zeta_K^{exps[i]} u_i, divided by zeta_K^r (see the module docstring).

    A monomial is a sorted tuple of (coordinate index, exponent).  Raises
    MotzetaError if the equation is not semi-invariant under the twist.
    """
    const = 0
    terms = {}
    r = None
    for e, c in eq.terms.items():
        if c % q == 0:
            continue
        mono = tuple(sorted((coord_index[v], x) for v, x in zip(eq.vars, e) if x))
        if not mono:
            const = c % q
            continue
        E = sum(x * exps[i] for i, x in mono)
        if r is None:
            r = E % N
        elif E % N != r:
            raise MotzetaError(
                "equation %s is not semi-invariant under the twist" % eq.render()
            )
        terms[mono] = c * pow(g, (E - r) // N, q) % q
    if const and r:
        raise MotzetaError(
            "equation %s is not semi-invariant under the twist" % eq.render()
        )
    return const, terms


def _specialize(eq, i, value, q):
    """Substitute coordinate i = value into a compiled equation."""
    const, terms = eq
    new_terms = {}
    for mono, coeff in terms.items():
        for k, (j, x) in enumerate(mono):
            if j == i:
                coeff = coeff * pow(value, x, q) % q
                mono = mono[:k] + mono[k + 1 :]
                break
        if not coeff:
            continue
        if mono:
            new_terms[mono] = new_terms.get(mono, 0) + coeff
        else:
            const += coeff
    return const % q, {m: c % q for m, c in new_terms.items() if c % q}


def _root_count(k, t, q):
    """#{v in F_q^* : v^k = t} for t != 0: gcd(k, q - 1) if t is a gcd-th
    power, else 0."""
    d = math.gcd(k, q - 1)
    return d if pow(t, (q - 1) // d, q) == 1 else 0


def _solve_alone(eq, uses, candidates, q):
    """(j, n) when the equation leaves n values of a coordinate j, which no
    other monomial of the system mentions, for every value of the rest;
    else None.  uses[j] counts the monomials of the live equations that
    mention j."""
    const, terms = eq
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        if len(mono) == 1 and uses[mono[0][0]] == 1:
            j, k = mono[0]
            if const:  # c v^k + d with d != 0: v^k = -d/c
                return j, _root_count(k, -const * pow(c, q - 2, q) % q, q)
            return j, int(len(candidates[j]) == q)  # c v^k = 0: v = 0
    for mono in terms:
        j, x = mono[0]
        if len(mono) == 1 and x == 1 and uses[j] == 1 and len(candidates[j]) == q:
            return j, 1  # c x_j + rest = 0 has one root x_j over F_q
    return None


def _count_reduced(eqs, unassigned, candidates, q, meter):
    """DFS point count.

    eqs: compiled equations, already specialized in assigned coordinates.
    unassigned: list of coordinate indices still free, in preference order.
    candidates: per coordinate index, the list of values in F_q.

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
    """
    live = []
    for const, terms in eqs:
        if not terms:
            if const:
                return 0
        else:
            live.append((const, terms))
    uses = {}
    for _, terms in live:
        for mono in terms:
            for j, _x in mono:
                uses[j] = uses.get(j, 0) + 1
    multiplier = 1
    solved = set()
    changed = True
    while changed:
        changed = False
        kept = []
        for eq in live:
            hit = _solve_alone(eq, uses, candidates, q)
            if hit is None:
                kept.append(eq)
                continue
            j, n = hit
            if not n:
                return 0
            multiplier *= n
            solved.add(j)
            for mono in eq[1]:
                for i, _x in mono:
                    uses[i] -= 1
            changed = True
        live = kept
    branching = []
    for i in unassigned:
        if uses.get(i):
            branching.append(i)
        elif i not in solved:
            multiplier *= len(candidates[i])
    if not live:
        return multiplier
    # The equation with the fewest distinct coordinates, so triangular
    # systems resolve level by level.
    const, terms = min(live, key=lambda e: len({j for mono in e[1] for j, _ in mono}))
    eq_vars = {j for mono in terms for j, _ in mono}
    if len(eq_vars) == 1:
        (pivot,) = eq_vars
        c = terms.get(((pivot, 1),))
        if len(terms) == 1 and c is not None:
            meter.spend()
            root = -const * pow(c, q - 2, q) % q
            values = [root] if root or len(candidates[pivot]) == q else []
        else:
            meter.spend(len(candidates[pivot]))
            powers = [(c, mono[0][1]) for mono, c in terms.items()]
            values = [
                v for v in candidates[pivot]
                if (const + sum(c * pow(v, k, q) for c, k in powers)) % q == 0
            ]
    else:
        alone = {mono[0][0] for mono in terms if len(mono) == 1 and mono[0][1] == 1}
        for mono in terms:
            if len(mono) > 1 or mono[0][1] > 1:
                alone.difference_update(j for j, _x in mono)
        in_eq = [i for i in branching if i in eq_vars]
        pivot = next((i for i in in_eq if i not in alone), in_eq[0])
        values = candidates[pivot]
        meter.spend(len(values))
    rest = [i for i in branching if i != pivot]
    total = 0
    for value in values:
        next_eqs = [_specialize(eq, pivot, value, q) for eq in live]
        total += _count_reduced(next_eqs, rest, candidates, q, meter)
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


def _prepare(gs, q, exps):
    """Reduce a twisted count of gs to an F_q count.

    exps[i] is the twist exponent e_i of coordinate i: the twisted points
    have x_i = t_i u_i with t_i = zeta_K^{e_i}, K = N (q - 1), and u_i in
    F_q (nonzero where x_i is constrained nonzero).  zeta_K is fixed by
    zeta_K^N = g, g the least primitive root mod q.  Returns the equations in
    the u_i, compiled and rescaled over F_q, and the candidate values of each
    u_i.
    """
    N = gs.action_order
    _check_twist(N, q, exps)
    K = N * (q - 1)
    exps = [e % K for e in exps]
    g = _primitive_root(q)
    coord_index = {c: i for i, c in enumerate(gs.coords)}
    eqs = [_compile_equation(eq, coord_index, exps, N, q, g) for eq in gs.equations]
    units = list(range(1, q))
    with_zero = [0] + units
    candidates = [units if c in gs.nonzero else with_zero for c in gs.coords]
    return eqs, candidates


def _sector_exps(gs, g_exp):
    # x_i^{q-1} = zeta_N^{-g w_i} = zeta_K^{-(q-1) g w_i}; a solution
    # generator is t_i = zeta_K^{-g w_i}.
    return [-g_exp * w for w in gs.weights]


def twisted_count(gs, q, g_exp=0, meter=None):
    """#{x : equations, nonzero, Frob_q(x) = xi^{-g_exp} . x}.

    xi = zeta_K^{q-1} is the fixed primitive N-th root of unity
    (N = gs.action_order); the coordinatewise condition is
    x_i^q = xi^{-g_exp * w_i} x_i.  meter (default: a fresh WorkMeter with
    DEFAULT_BUDGET) is charged for the candidates tried.
    """
    if meter is None:
        meter = WorkMeter()
    eqs, candidates = _prepare(gs, q, _sector_exps(gs, g_exp))
    return _count_reduced(eqs, list(range(len(gs.coords))), candidates, q, meter)


def quotient_count(gs, q, meter=None):
    """Number of F_q-points of the free quotient by the full mu_N action;
    one meter (default as in twisted_count) caps all N twisted counts."""
    if meter is None:
        meter = WorkMeter()
    N = gs.action_order
    return Fraction(sum(twisted_count(gs, q, s, meter=meter) for s in range(N)), N)


# --- stock presentations -----------------------------------------------------


def torus(name="u"):
    """G_m with trivial action."""
    return GeomSet((name,), (), (name,), 1, (0,))


def mu_n(n, name="u"):
    """The group of n-th roots of unity with its translation action."""
    return GeomSet(
        (name,),
        (Poly.var(name, n) - 1,),
        (name,),
        n,
        (1,),
    )


def fermat_pair(kind, N, unames=("u", "v")):
    """F_0^N: u^N + v^N = 0, or F_1^N: u^N + v^N = 1, inside G_m^2.

    Carries the diagonal mu_N action with weight 1 on both coordinates.
    """
    u, v = unames
    rhs = 0 if kind == 0 else 1
    eq = Poly.var(u, N) + Poly.var(v, N) - rhs
    return GeomSet((u, v), (eq,), (u, v), N, (1, 1))


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


def fermat_counts(a, b, q, e_u=0, e_v=0):
    """(#{g^e_u x^a + g^e_v y^b = 0}, #{g^e_u x^a + g^e_v y^b = 1}) over
    (F_q^*)^2, g the least primitive root mod q.

    Each count is sum_z h_a[z] h_b[(c - g^e_u z) g^-e_v] over the histograms
    of a-th and b-th powers of F_q^*: O(q) int operations (Weil 1949 counts
    diagonal equations from the same tables).
    """
    _require_prime(q, "fermat_counts")
    h_a, h_b = _power_histogram(a, q), _power_histogram(b, q)
    g = _primitive_root(q)
    su = pow(g, e_u % (q - 1), q)
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
    and v = zeta_K^{e_v} y with x, y in F_q^* (the reduction of _prepare)
    leaves g^e_u x^N + g^e_v y^N = kind over F_q, which fermat_counts counts
    from the N-th power table.  The count charges meter (default as in
    twisted_count) q - 1 units, what the DFS spends on fermat_pair(kind, N)
    with these twists.  A twist nonzero mod K = N (q - 1) needs q prime to N.
    """
    if meter is None:
        meter = WorkMeter()
    _check_twist(N, q, (e_u, e_v))
    meter.spend(q - 1)
    return fermat_counts(N, N, q, e_u, e_v)[kind]
