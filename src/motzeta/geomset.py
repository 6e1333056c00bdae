"""Explicit presentations of equivariant varieties and exact point counts.

A GeomSet is an affine presentation: named coordinates, each possibly
constrained nonzero, integer polynomial equations, and a diagonal action of
the group of N-th roots of unity given by a weight per coordinate
(xi . x_i = xi^{w_i} x_i).

Counting is exact over F_q (q prime).  The twisted count of a GeomSet against
a group element xi^s is the number of solutions x over the algebraic closure
with Frob_q(x) = xi^{-s} . x; coordinatewise this pins x_i to zero or to the
coset t_i F_q^* inside F_{q^M}, where t_i is a fixed (q-1)N-th root of unity
power.  Quotient counts follow by averaging twisted counts over the group
(Burnside-Frobenius; all quotients taken here are by free actions).

Enumeration is a depth-first search over per-coordinate candidate sets with
partial evaluation of the equations, pruning of contradictions, and dynamic
detection of coordinates no remaining equation mentions (those contribute a
multiplicative factor without branching).  Work is metered: every candidate
tried costs one unit against a budget, default 10^8.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldTooLarge, MotzetaError
from .gf import get_field, splitting_field
from .poly import Poly, parse_poly

DEFAULT_BUDGET = 10**8


class WorkMeter:
    """Counts candidate evaluations against a budget."""

    __slots__ = ("spent", "budget")

    def __init__(self, budget=DEFAULT_BUDGET):
        self.spent = 0
        self.budget = budget if budget is not None else DEFAULT_BUDGET

    def spend(self, units=1):
        self.spent += units
        if self.spent > self.budget:
            raise FieldTooLarge(
                "enumeration exceeded budget of %d candidates" % self.budget
            )


class GeomSet:
    """Equivariant affine presentation; immutable by convention."""

    __slots__ = (
        "coords",
        "equations",
        "nonzero",
        "action_order",
        "weights",
        "base_coords",
    )

    def __init__(
        self,
        coords,
        equations=(),
        nonzero=(),
        action_order=1,
        weights=None,
        base_coords=(),
    ):
        self.coords = tuple(coords)
        self.equations = tuple(equations)
        self.nonzero = frozenset(nonzero)
        self.action_order = int(action_order)
        if weights is None:
            weights = (0,) * len(self.coords)
        self.weights = tuple(w % self.action_order for w in weights)
        self.base_coords = frozenset(base_coords)
        if len(self.weights) != len(self.coords):
            raise ValueError("weights and coords length mismatch")
        unknown = set()
        for eq in self.equations:
            unknown |= set(eq.vars) - set(self.coords)
        if unknown:
            raise ValueError("equations mention unknown coordinates: %s" % unknown)
        if not (self.nonzero <= set(self.coords)):
            raise ValueError("nonzero constraint on unknown coordinate")

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

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "coords": list(self.coords),
            "equations": [eq.render() for eq in self.equations],
            "nonzero": sorted(self.coords.index(c) for c in self.nonzero),
            "order": self.action_order,
            "weights": list(self.weights),
            "base_coords": sorted(self.coords.index(c) for c in self.base_coords),
        }

    @classmethod
    def from_json_dict(cls, d):
        coords = tuple(d["coords"])
        return cls(
            coords,
            tuple(parse_poly(s) for s in d["equations"]),
            frozenset(coords[i] for i in d["nonzero"]),
            d["order"],
            tuple(d["weights"]),
            frozenset(coords[i] for i in d["base_coords"]),
        )

    def __repr__(self):
        return "GeomSet(coords=%r, eqs=%d, order=%d)" % (
            self.coords,
            len(self.equations),
            self.action_order,
        )


# --- equation reduction ------------------------------------------------------


def _compile_equation(eq, coord_index, field):
    """Poly -> (const, {monomial: coeff}) with field coefficients.

    A monomial is a sorted tuple of (coordinate index, exponent).
    """
    const = field.zero
    terms = {}
    for e, c in eq.terms.items():
        cf = field.from_int(c)
        mono = tuple(
            (coord_index[v], x) for v, x in zip(eq.vars, e) if x
        )
        mono = tuple(sorted(mono))
        if not mono:
            const = field.add(const, cf)
        else:
            prev = terms.get(mono, field.zero)
            s = field.add(prev, cf)
            if field.is_zero(s):
                terms.pop(mono, None)
            else:
                terms[mono] = s
    return const, terms


def _specialize(eq, i, value, field):
    """Substitute coordinate i = value into a compiled equation."""
    const, terms = eq
    new_terms = {}
    zero_val = field.is_zero(value)
    for mono, coeff in terms.items():
        hit = None
        for k, (j, x) in enumerate(mono):
            if j == i:
                hit = k
                break
        if hit is None:
            prev = new_terms.get(mono, field.zero)
            s = field.add(prev, coeff)
            if field.is_zero(s):
                new_terms.pop(mono, None)
            else:
                new_terms[mono] = s
            continue
        if zero_val:
            continue
        j, x = mono[hit]
        coeff = field.mul(coeff, field.pow(value, x))
        rest = mono[:hit] + mono[hit + 1 :]
        if rest:
            prev = new_terms.get(rest, field.zero)
            s = field.add(prev, coeff)
            if field.is_zero(s):
                new_terms.pop(rest, None)
            else:
                new_terms[rest] = s
        else:
            const = field.add(const, coeff)
    return const, new_terms


def _count_reduced(eqs, unassigned, candidates, field, meter):
    """DFS point count.

    eqs: compiled equations, already specialized in assigned coordinates.
    unassigned: list of coordinate indices still free, in preference order.
    candidates: dict index -> list of field values.
    """
    live = []
    for const, terms in eqs:
        if not terms:
            if not field.is_zero(const):
                return 0
        else:
            live.append((const, terms))
    if not live:
        total = 1
        for i in unassigned:
            total *= len(candidates[i])
        return total
    occurring = set()
    for _, terms in live:
        for mono in terms:
            for j, _x in mono:
                occurring.add(j)
    multiplier = 1
    branching = []
    for i in unassigned:
        if i in occurring:
            branching.append(i)
        else:
            multiplier *= len(candidates[i])
    # Pivot: a variable from an equation with the fewest distinct variables,
    # so triangular systems resolve level by level.
    best_eq = min(
        live, key=lambda e: len({j for mono in e[1] for j, _ in mono})
    )
    eq_vars = {j for mono in best_eq[1] for j, _ in mono}
    pivot = next(i for i in branching if i in eq_vars)
    rest = [i for i in branching if i != pivot]
    total = 0
    for value in candidates[pivot]:
        meter.spend()
        next_eqs = [_specialize(eq, pivot, value, field) for eq in live]
        sub = _count_reduced(next_eqs, rest, candidates, field, meter)
        total += sub
    return multiplier * total


def _prepare(gs, q, twist_exp_fn, meter):
    """Common setup: field, per-coordinate candidate sets.

    twist_exp_fn(i) gives the exponent e_i with condition
    x_i^q = zeta_K^{e_i (order/N ... already scaled)} x_i expressed directly:
    candidates are {0} (unless nonzero) plus t_i F_q^* with
    t_i = zeta_K^{e_i}, K = N (q - 1).
    """
    N = gs.action_order
    K = N * (q - 1)
    # Untwisted (every t_i = 1): the points are F_q-points, whatever N is.
    if all(twist_exp_fn(i) % K == 0 for i in range(len(gs.coords))):
        field = get_field(q)
        base = [field.from_int(k) for k in range(1, q)]
        candidates = {}
        for i, c in enumerate(gs.coords):
            cand = list(base)
            if c not in gs.nonzero:
                cand = [field.zero] + cand
            candidates[i] = cand
        return field, candidates
    if N % q == 0:
        raise MotzetaError(
            "twisted count at q=%d needs the N=%d-th roots of unity, "
            "which do not exist in characteristic %d" % (q, N, q)
        )
    field = splitting_field(q, K)
    if field.order > 10**12:
        raise FieldTooLarge(
            "splitting field F_%d^%d too large" % (q, field.m)
        )
    zK = field.root_of_unity(K)
    units = [field.from_int(k) for k in range(1, q)]
    candidates = {}
    for i, c in enumerate(gs.coords):
        e = twist_exp_fn(i) % K
        t = field.pow(zK, e)
        cand = [field.mul(t, u) for u in units]
        if c not in gs.nonzero:
            cand = [field.zero] + cand
        candidates[i] = cand
    return field, candidates


def twisted_count(gs, q, g_exp=0, budget=None, meter=None):
    """#{x : equations, nonzero, Frob_q(x) = xi^{-g_exp} . x}.

    xi is the fixed primitive N-th root of unity (N = gs.action_order);
    the coordinatewise condition is x_i^q = xi^{-g_exp * w_i} x_i.
    """
    if meter is None:
        meter = WorkMeter(budget)
    N = gs.action_order
    # x^{q-1} = zeta_N^{-g w_i} = zeta_K^{-(q-1) g w_i}; a solution generator
    # is t_i = zeta_K^{-g w_i}.
    field, candidates = _prepare(
        gs, q, lambda i: (-g_exp * gs.weights[i]) % (N * (q - 1)), meter
    )
    coord_index = {c: i for i, c in enumerate(gs.coords)}
    eqs = [_compile_equation(eq, coord_index, field) for eq in gs.equations]
    order = list(range(len(gs.coords)))
    return _count_reduced(eqs, order, candidates, field, meter)


def quotient_count(gs, q, budget=None, meter=None):
    """Number of F_q-points of the free quotient by the full mu_N action."""
    if meter is None:
        meter = WorkMeter(budget)
    N = gs.action_order
    total = sum(twisted_count(gs, q, s, meter=meter) for s in range(N))
    out = Fraction(total, N)
    return out


def enumerate_points(gs, q, g_exp=0, budget=None, limit=200000):
    """All twisted points, as coordinate tuples (for spot checks)."""
    meter = WorkMeter(budget)
    N = gs.action_order
    field, candidates = _prepare(
        gs, q, lambda i: (-g_exp * gs.weights[i]) % (N * (q - 1)), meter
    )
    coord_index = {c: i for i, c in enumerate(gs.coords)}
    eqs = [_compile_equation(eq, coord_index, field) for eq in gs.equations]
    out = []

    def rec(i, assignment, current):
        if len(out) > limit:
            raise FieldTooLarge("point enumeration exceeded limit")
        if i == len(gs.coords):
            for const, terms in current:
                if terms or not field.is_zero(const):
                    return
            out.append(tuple(assignment))
            return
        for value in candidates[i]:
            meter.spend()
            nxt = [_specialize(eq, i, value, field) for eq in current]
            bad = False
            for const, terms in nxt:
                if not terms and not field.is_zero(const):
                    bad = True
                    break
            if not bad:
                rec(i + 1, assignment + [value], nxt)

    rec(0, [], eqs)
    return field, out


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


def fermat_twisted_count(kind, N, q, e_u, e_v, meter=None):
    """Twisted count of F_kind^N with independent coordinate twists.

    Conditions: u^q = zeta_N^{e_u} u and v^q = zeta_N^{e_v} v.  This is the
    inner term of the convolution counting formula, where the two Fermat
    coordinates receive different group twists.
    """
    if meter is None:
        meter = WorkMeter()
    gs = fermat_pair(kind, N)
    K = N * (q - 1)
    # x^{q-1} = zeta_N^e = zeta_K^{e(q-1)} has solution generator zeta_K^e.
    exps = {0: e_u % K, 1: e_v % K}
    field, candidates = _prepare(gs, q, lambda i: exps[i], meter)
    coord_index = {c: i for i, c in enumerate(gs.coords)}
    eqs = [_compile_equation(eq, coord_index, field) for eq in gs.equations]
    return _count_reduced(eqs, [0, 1], candidates, field, meter)
