"""Jet loci of polynomial germs, their counting routes, and the series
built from them.

A level-n jet of a polynomial f is a tuple of truncated power series
vanishing at the origin, one per variable; the objects of interest are
the loci

    exact hit:    f(phi(t)) = t^n  mod t^{n+1}
    order beyond: ord f(phi(t)) > n

together with the root-of-unity action phi(t) -> phi(xi t), which puts
weight j on the t^j jet coefficient.  This module provides

  * jet_set: the locus as a GeomSet (equations + action data), suitable
    for twisted point counts and symbolic invariance checks;
  * AxisCounts, the exact-hit and order-beyond counts of one function by
    the F_q DFS of twisted_count on its jet loci, and the pair splits of a
    direct sum (histogram_pair_counts) by the same DFS, both checked
    against the brute-force enumeration in tests/brute.py.  The loci of
    one function are built from one expansion of f(phi)
    (poly.JetExpansion), sliced per level;
  * per-axis streams, decided in one place (_axis_stream): a germ that a
    change of coordinates fixing the origin carries onto x^a, found by
    shape_exponent (a smooth germ with a = 1, or x^a times a unit of
    constant term 1 in one variable), has the one strand [mu_a] L^{-k}
    T^{ak} of x^a and its closed stream, read off a alone; any other germ
    has the stream of its AxisCounts counts when counting, and no stream
    (FitFailed) symbolically;
  * generating series: zeta_trunc / zeta_closed for one function,
    multizeta_trunc / multizeta_separable for an ordered family with
    order conditions on the trailing functions, sum_zeta_pullback for a
    direct sum f(x) + g(y) on a product space, with diagnostic splits of
    each coefficient by the two leading orders.  Every truncated family
    series, one function included, is series.expand_chains over the
    per-axis streams, in both realizations;
  * evaluators for user-supplied resolution data (dl_eval returns the
    closed series of a resolution, over the full orthant or supplied cone
    pieces) and nearby_cycles as minus the limit of a diagonal
    substitution.

Counting here is exact integer arithmetic throughout; normalized series
coefficients are Fractions (count realization) or classes with localized
scalars (symbolic realization).  The budget of zeta_trunc, multizeta_trunc
or sum_zeta_pullback caps the DFS candidates of the whole call: it becomes
one WorkMeter that every count below it charges, across the functions of
a family, the zeros of a global zeta and the levels of a split sum.
dl_eval counts through a motclass.Binding, whose own meter caps it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    ConeNotDecomposed,
    FitFailed,
    MotzetaError,
    NotLimitNormal,
    VariableMismatch,
    require_choice,
    require_int,
)
from .geomset import (
    GeomSet,
    WorkMeter,
    _is_prime,
    _power_histogram,
    _require_prime,
    fermat_counts,
    mu_n,
    point,
    torus,
    twisted_count,
)
from .locring import L_MINUS_1, LocRat
from .motclass import Atom, Binding, SymbolicClass, bind_and_count
from .poly import JetExpansion, Poly, parse_poly
from .series import (
    ClosedSeries,
    SeparableSeries,
    Strand,
    TruncSeries,
    _solve_exact,
    expand_chains,
    lim_infty,
)
from .egseq import EGSeq

def _as_poly(f):
    if isinstance(f, Poly):
        return f
    if isinstance(f, str):
        return parse_poly(f)
    raise MotzetaError("germ f must be a Poly or its text, not %s %r" % (type(f).__name__, f))


# ---------------------------------------------------------------------------
# jet presentations
# ---------------------------------------------------------------------------


def jet_set(f, n, exact=True, action_order=None):
    """The level-n jet locus of f, jets based at the origin, as a GeomSet.

    exact=True carves out f(phi) = t^n mod t^{n+1}; exact=False carves out
    ord f(phi) > n.  The action has order n for exact loci (weight j on
    the t^j coefficient) and is trivial for order-beyond loci unless
    action_order overrides.  The global zeta function sums these loci
    over the zeros of f instead (zeta_trunc with base="global").
    """
    f = _as_poly(f)
    require_int(n, "jet order n", 1)
    if action_order is None:
        order = n if exact else 1
    else:
        order = require_int(action_order, "GeomSet action_order", 1)
    return _jet_locus(f.vars, JetExpansion(f).level(n, order=order), n, exact, order)


def _jet_locus(vars, digits, n, exact, order):
    """jet_set from the sparse digits of f(phi) over the level-n jet
    coordinates of the variables vars, their masks and weights read at the
    action order order (JetExpansion.level; digits[j] the t^j digit, digits
    past t^n not read), built as a GeomSet in its sparse form with no Poly
    in between."""
    coords = tuple("%s_%d" % (v, j) for v in vars for j in range(1, n + 1))
    weights = tuple(j for _ in vars for j in range(1, n + 1))
    eqs = [d for d in digits[:n] if d[0] or d[1]]
    const, terms, once, twice = digits[n]
    if exact:
        eqs.append((const - 1, terms, once, twice))
    elif const or terms:
        eqs.append(digits[n])
    return GeomSet._from_sparse(coords, eqs, order, weights)


# ---------------------------------------------------------------------------
# pair splits of a direct sum
# ---------------------------------------------------------------------------


def histogram_pair_counts(f, g, n, q, meter=None):
    """Level-n jet pairs (phi, psi) with f(phi) + g(psi) = t^n mod t^{n+1},
    split by the two leading orders, plus the opposite-leading pair count.

    Returns {"total", "A1", "A2", "A3", "A3_by_l", "Bpair"}:
      A1    - both orders exactly n,
      A2    - orders differ (one exact hit, one beyond n),
      A3    - common order l < n (A3_by_l gives each l),
      Bpair - pairs with f(phi) = t^n and g(psi) = -t^n exactly.

    Every number is an F_q DFS count of a jet locus, and every locus is
    read off one expansion each of f and g: the digits of f + g are their
    sums, those of -g their negatives.  Orders are read from
    the t^1 digit up, so the constant digit enters only the hit equation.
    Below n the digits of f and g cancel on a hit, so f's leading order
    l < n is g's too: with N(l) the hits whose f-digits below l vanish,
    A3_by_l[l] = N(l) - N(l+1), and A2 counts the hits with all of f's or
    all of g's digits through t^n zero.  meter (default: a fresh WorkMeter
    with geomset.DEFAULT_BUDGET) is charged for the candidates of every
    count, so one meter passed at each level caps them all.
    """
    f, g = _as_poly(f), _as_poly(g)
    require_int(n, "jet order n", 1)
    if meter is None:
        meter = WorkMeter()
    vars = f.direct_sum_vars(g)
    return _pair_counts(JetExpansion(f), JetExpansion(g), vars, n, q, meter)


def _hit_locus(cf, cg, vars, n):
    """The level-n locus f(phi) + g(psi) = t^n mod t^{n+1}, with the trivial
    action, from the digits cf, cg of f and g over the jet coordinates of
    vars (JetExpansion.level at order 1): f and g share no variable, so a
    digit of f + g is the constants added and the terms of f's digit
    followed by those of g's, its masks the union of theirs."""
    digits = [(a + b, s + t, o | p, u | v) for (a, s, o, u), (b, t, p, v) in zip(cf, cg)]
    return _jet_locus(vars, digits, n, True, 1)


def _pair_counts(ef, eg, vars, n, q, meter):
    """histogram_pair_counts at level n from the expansions ef, eg of f, g
    and the variables of f + g (Poly.direct_sum_vars, checked by the caller).
    The hit loci read _hit_locus; -g negates each coefficient."""
    f, g = ef.f, eg.f
    cf, cg = ef.level(n, vars), eg.level(n, vars)
    hit = _hit_locus(cf, cg, vars, n)

    def count(gs, *extra):
        eqs = gs._eqs + tuple(d for d in extra if d[0] or d[1])
        return twisted_count(GeomSet._from_sparse(gs.coords, eqs), q, meter=meter)

    neg_g = [
        (-c, tuple([(mono, -x, m, w) for mono, x, m, w in terms]), once, twice)
        for c, terms, once, twice in eg.level(n)
    ]
    try:
        N = [None] + [count(hit, *cf[1:l]) for l in range(1, n + 1)]
        a2 = count(hit, *cf[1 : n + 1]) + count(hit, *cg[1 : n + 1])
        bpair = count(_jet_locus(f.vars, ef.level(n), n, True, 1)) * count(
            _jet_locus(g.vars, neg_g, n, True, 1)
        )
    except BudgetExceeded as exc:
        raise meter.exceeded("pair counts at level %d" % n) from exc
    by_l = {l: N[l] - N[l + 1] for l in range(1, n) if N[l] != N[l + 1]}
    return {
        "total": N[1],
        "A1": N[n] - a2,
        "A2": a2,
        "A3": N[1] - N[n],
        "A3_by_l": by_l,
        "Bpair": bpair,
    }


# ---------------------------------------------------------------------------
# closed-form counting for recognized shapes
# ---------------------------------------------------------------------------


def shape_exponent(f, q=None):
    """The exponent a of the one strand [mu_a] L^{-k} T^{ak} of a germ that
    a change of coordinates fixing the origin carries onto x^a, or None.

    Such a change leaves every jet locus, and its root-of-unity action, as
    it is, so the germ has the closed stream of x^a.  The rule reads f, at a
    prime q (None: symbolic, where "prime to q" reads "nonzero"):

      * 1 for a smooth germ: constant term 0 and some degree-one
        coefficient prime to q, since f itself is then a coordinate;
      * a for a one-variable germ x^a u(x) with u(0) = 1 and a prime to q,
        since x -> x u(x)^{1/a} carries it onto x^a;
      * None otherwise: a nonzero constant term, a lowest coefficient other
        than 1 with a >= 2, q dividing a, or no linear part in two or more
        variables.

    q other than None or a prime is refused, naming it.
    """
    f = _as_poly(f)
    if q is not None and (type(q) is not int or not _is_prime(q)):
        raise MotzetaError("shape_exponent q must be None or a prime, not %r" % (q,))
    if not f.vars or f.constant_term():
        return None
    if any(sum(e) == 1 and (q is None or c % q) for e, c in f.terms.items()):
        return 1
    if len(f.vars) != 1:
        return None
    a = min(e for e, in f.terms)
    if f.terms[(a,)] != 1 or (q is not None and a % q == 0):
        return None
    return a


def _lead_coeff(a, real):
    """Class of the leading locus of the exponent-a strand: [mu_a] (the unit
    for a = 1), or its point count gcd(a, q - 1) when counting."""
    if a == 1:
        return real.one
    if real.tag == "symbolic":
        return SymbolicClass.from_atom(Atom("mu%d" % a, a), base=real.zero.base)
    return Fraction(math.gcd(a, real.q - 1))


def _strand_exponent(f, real):
    """shape_exponent at the realization's prime, which a counted series
    needs to be one; FitFailed when f has no closed strand there."""
    if real.tag == "count":
        _require_prime(real.q, "a counted zeta series")
    a = shape_exponent(f, real.q)
    if a is None:
        at = "" if real.q is None else " at q=%d" % real.q
        raise FitFailed(
            "no closed form for %s%s: no change of coordinates found that "
            "carries it onto x^a with a prime to q (a smooth germ, or x^a "
            "times a unit of constant term 1 in one variable)"
            % (_as_poly(f).render(), at)
        )
    return a


def _require_prime_to(q, **exponents):
    """Refuse an exponent that shares a factor with q, naming it."""
    for name, a in exponents.items():
        if math.gcd(a, q) != 1:
            raise MotzetaError(
                "exponent %s=%d must be prime to q=%d" % (name, a, q)
            )


@functools.cache
def fermat_affine_counts(a, b, q):
    """(#{u^a + v^b = 0}, #{u^a + v^b = 1}, #{v^b = -1}) over (F_q^*)^2,
    resp. F_q^* for the last; from the power tables of geomset.fermat_counts
    at zero twists (no meter), once per (a, b, q)."""
    f0, f1 = fermat_counts(a, b, q)
    return f0, f1, _power_histogram(b, q)[q - 1]


# the order of the counts in each level of _monomial_pair_levels
_PAIR_KEYS = ("total", "A1", "A2", "A3", "Bpair")


def monomial_pair_counts(a, b, n, q):
    """Closed-form counterpart of histogram_pair_counts for the pair
    (x^a, y^b), with the same dict: the zero set and each leading
    coefficient reduce to root counts, and every condition above the
    leading position is linear in a fresh coordinate pair and contributes
    a factor q.  It is level n of _monomial_pair_levels; A3_by_l[l] is the
    term of common order l, which enters the A3 sum at level l + 1 and
    gains a factor q per level after it."""
    levels = _monomial_pair_levels(a, b, n, q)
    require_int(n, "monomial_pair_counts: n", 1)
    born, a3 = {}, 0
    for l, (total, a1, a2, now, bpair) in enumerate(levels):
        born[l], a3 = now - q * a3, now
    by_l = {l: t * q ** (n - 1 - l) for l, t in born.items() if t}
    return {"total": total, "A1": a1, "A2": a2, "A3": a3, "A3_by_l": by_l, "Bpair": bpair}


def _monomial_pair_levels(a, b, D, q):
    """The levels 1..D of monomial_pair_counts(a, b, n, q), from
    _closed_pair_levels.  q, a and b are checked and the Fermat triple
    taken here, once, before the first level is asked for."""
    _require_prime(q, "monomial_pair_counts")
    for name, v in (("a", a), ("b", b)):
        require_int(v, "monomial_pair_counts: " + name, 1)
    _require_prime_to(q, a=a, b=b)
    return _closed_pair_levels(a, b, D, q, *fermat_affine_counts(a, b, q))


def _closed_pair_levels(a, b, D, q, f0, f1, negb):
    """The closed pair counts of (x^a, y^b) at levels 1..D, in O(D), one
    tuple per level in the order of _PAIR_KEYS.

    A hit with both orders n (A1, Bpair) or one of them (A2) pins the
    leading digits and leaves 2n - n/a - n/b free ones.  A common order
    l < n (a multiple of lcm(a, b)) adds f0 q^(n + l - l/a - l/b), a factor
    q more at each later level, so A3 is kept as a running sum: times q,
    plus the term of l = n - 1."""
    ga, gb, step = math.gcd(a, q - 1), math.gcd(b, q - 1), math.lcm(a, b)
    a3 = 0
    for n in range(1, D + 1):
        a3 *= q
        l = n - 1
        if l and l % step == 0:
            a3 += f0 * q ** (n + l - l // a - l // b)
        a1 = a2 = bpair = 0
        if n % a == 0 or n % b == 0:
            free = q ** (2 * n - n // a - n // b)
            if n % a == 0:
                a2 += ga * free
            if n % b == 0:
                a2 += gb * free
            if n % step == 0:
                a1, bpair = f1 * free, ga * negb * free
        yield a1 + a2 + a3, a1, a2, a3, bpair


# ---------------------------------------------------------------------------
# per-axis counters
# ---------------------------------------------------------------------------


class AxisCounts:
    """Exact-hit and order-beyond counts of level-n jets of one function at
    one prime, by the F_q DFS of twisted_count on the level-n jet locus.

    The loci are built from one expansion of f that grows with the deepest
    level asked: each digit is expanded and grouped once, and a level only
    maps the digits it reads onto its own jet coordinates
    (JetExpansion.level), so no Poly is built or scanned; the exact and
    ordgt loci of one level read one such map, the last one kept.  The
    count at each (kind, n) is kept; a level that is not an int >= 1 is
    refused before the lookup.  Every count charges
    meter (default: a fresh WorkMeter with geomset.DEFAULT_BUDGET), which
    the caller may share with other counts, and BudgetExceeded names the
    level that exceeded it.
    """

    def __init__(self, f, q, meter=None):
        self.f = _as_poly(f)
        _require_prime(q, "AxisCounts")
        self.q = q
        self.dim = len(self.f.vars)
        self.meter = WorkMeter() if meter is None else meter
        self._jets = JetExpansion(self.f)
        self._level = None, None  # (n, JetExpansion.level(n)) last read
        self._counts = {}

    def _count(self, kind, n):
        require_int(n, "jet order n", 1)
        if (kind, n) not in self._counts:
            if self._level[0] != n:
                self._level = n, self._jets.level(n)
            locus = _jet_locus(self.f.vars, self._level[1], n, kind == "exact", 1)
            try:
                self._counts[kind, n] = twisted_count(locus, self.q, meter=self.meter)
            except BudgetExceeded as exc:
                raise self.meter.exceeded("jet counts of %s at level %d" % (self.f.render(), n), level=n) from exc
        return self._counts[kind, n]

    def exact(self, n):
        return self._count("exact", n)

    def ordgt(self, n):
        return self._count("ordgt", n)


# ---------------------------------------------------------------------------
# per-axis streams
# ---------------------------------------------------------------------------


class _CountedStream:
    """n -> count(n) / scale^n: the per-axis stream of a germ without a
    closed form, with count the exact or ordgt of its AxisCounts and
    scale = q^d.  It offers only what expand_chains reads."""

    __slots__ = ("count", "scale")
    dom_min = 1

    def __init__(self, count, scale):
        self.count = count
        self.scale = scale

    def value(self, n):
        return Fraction(self.count(n), self.scale**n)


def _axis_stream(f, real, kind, meter):
    """The per-axis stream of f, for the exact-hit (kind "exact") or
    order-beyond ("ordgt") loci, normalized by L^{-nd} at its own level.

    A germ that shape_exponent carries onto x^a has the closed stream of
    x^a.  Any other germ is counted under the count realization, by the
    F_q DFS of one AxisCounts charging the caller's meter, and raises
    FitFailed under the symbolic one.
    """
    if real.tag == "count":
        _require_prime(real.q, "a counted zeta series")
        a = shape_exponent(f, real.q)
        if a is None:
            ax = AxisCounts(f, real.q, meter)
            return _CountedStream(getattr(ax, kind), real.q**ax.dim)
        return _closed_stream(a, real, kind)
    return _closed_stream(_strand_exponent(f, real), real, kind)


def _closed_stream(a, real, kind):
    """The stream of the exponent-a strand as an EGSeq: the exact-hit value
    at a*t is [leading locus] * L^{-t}, zero off the multiples of a; the
    order-beyond value at n is L^{-floor(n/a)}."""
    ratio = real.from_locrat(LocRat.L(-1))
    if kind == "exact":
        return EGSeq.single_residue(real, a, 0, ratio, _lead_coeff(a, real))
    return EGSeq(real, a, [[(ratio, (real.one,))] for _ in range(a)])


def _unit_masks(r):
    return tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r))


# ---------------------------------------------------------------------------
# zeta series
# ---------------------------------------------------------------------------


def _default_vars(r):
    return tuple("TUV"[:r]) if r <= 3 else tuple("T%d" % i for i in range(1, r + 1))


def zeta_trunc(f, D, real, var="T", base="origin", budget=None):
    """Truncated zeta series through degree D: the coefficient at n is the
    exact-hit class of level-n jets normalized by L^{-nd}.

    At base="origin" it is the one-function family, multizeta_trunc((f,),
    ..): the closed stream of a germ shape_exponent recognizes, else the
    F_q DFS counts of AxisCounts, or FitFailed when symbolic.
    base="global" (counting only) sums the origin series of f shifted to
    each F_q-zero of f.  budget caps the DFS candidates of the whole call,
    every zero together; BudgetExceeded names f, the zero and the level
    that exceeded it.
    """
    require_choice("base", base, ("origin", "global"))
    if base == "origin":
        return multizeta_trunc((f,), D, real, (var,), budget)
    if real.tag == "symbolic":
        raise MotzetaError("symbolic zeta is local at the origin")
    f = _as_poly(f)
    q = real.q
    _require_prime(q, "global zeta")
    meter = WorkMeter(budget)
    out = TruncSeries(real, (var,), D)
    for b in itertools.product(range(q), repeat=len(f.vars)):
        point = dict(zip(f.vars, b))
        if _eval_point(f, point, q) == 0:
            try:
                out = out.add(_family_trunc((_shift_poly(f, point),), D, real, (var,), meter))
            except BudgetExceeded as exc:
                zero = ", ".join("%s=%d" % vb for vb in point.items())
                raise meter.exceeded(
                    "jet counts of %s at level %d of the zero %s" % (f.render(), exc.level, zero), level=exc.level
                ) from exc
    return out


def _eval_point(f, point, q):
    """f mod q at point (var -> integer)."""
    val = 0
    for e, c in f.terms.items():
        for v, x in zip(f.vars, e):
            c *= pow(point[v], x, q)
        val += c
    return val % q


def _shift_poly(f, shift):
    """f with each variable v replaced by v + shift[v] (integer shifts)."""
    out = Poly.const(0)
    for e, c in f.terms.items():
        term = Poly.const(c)
        for v, x in zip(f.vars, e):
            term = term * ((Poly.var(v) + Poly.const(shift.get(v, 0))) ** x)
        out = out + term
    return out


def zeta_closed(f, real, var="T"):
    """Closed zeta series of a germ that shape_exponent carries onto x^a.

    The exponent-a strand is the leading-locus class times L^{-k} T^{a k}
    summed over k >= 1.  Any other germ, at the realization's prime, raises
    FitFailed (fit a truncation instead).
    """
    a = _strand_exponent(f, real)
    strand = Strand(_lead_coeff(a, real), (0,), ((-1, (a,)),))
    return ClosedSeries(real, (var,), (strand,))


def _family(fs, vars):
    """The family as Polys and its variables (default _default_vars).  Its
    functions live on disjoint variables, each with its own jets; a family
    whose functions share a variable is refused, naming it."""
    fs = tuple(_as_poly(f) for f in fs)
    if not fs:
        raise MotzetaError("the family fs needs at least one function")
    seen = set()
    for f in fs:
        shared = seen.intersection(f.vars)
        if shared:
            raise VariableMismatch("a family needs disjoint variables; shared: %s" % ", ".join(sorted(shared)))
        seen.update(f.vars)
    return fs, tuple(_default_vars(len(fs)) if vars is None else vars)


def multizeta_separable(fs, real, vars=None):
    """The ordered-family zeta as a separable chain block: first axis the
    exact-hit stream, trailing axes the order-beyond streams, each
    normalized at its own level (see multizeta_trunc).  Every function
    needs a closed stream, since phi and phi_inv shift and tail-sum them:
    a germ without one raises FitFailed, also when counting."""
    fs, vars = _family(fs, vars)
    streams = tuple(
        _closed_stream(_strand_exponent(f, real), real, "ordgt" if i else "exact")
        for i, f in enumerate(fs)
    )
    return SeparableSeries(real, vars, _unit_masks(len(fs)), streams)


def multizeta_trunc(fs, D, real, vars=None, budget=None):
    """Truncated ordered-family zeta: coefficient at a strict chain
    n_1 < .. < n_r is the class of the family locus at level |n|,
    normalized by L^{-|n| d}.

    It is series.expand_chains over one stream per function: the exact-hit
    stream of the first, the order-beyond streams of the others, each
    normalized at its own level.  That is exact: at level |n| the count of
    function i at n_i is padded by q^{d_i (|n| - n_i)}, one factor q per
    free digit, and the family normalization divides by q^{d |n|}, so the
    padding cancels axis by axis.  A germ shape_exponent recognizes takes
    its closed stream; any other germ is counted by one AxisCounts, or
    raises FitFailed when symbolic.  budget caps the DFS candidates of the
    whole family together.
    """
    fs, vars = _family(fs, vars)
    return _family_trunc(fs, D, real, vars, WorkMeter(budget))


def _family_trunc(fs, D, real, vars, meter):
    """multizeta_trunc of the Polys fs, every count charging meter."""
    streams = [
        _axis_stream(f, real, "ordgt" if i else "exact", meter) for i, f in enumerate(fs)
    ]
    return expand_chains(real, vars, _unit_masks(len(fs)), streams, D)


def sum_zeta_pullback(f, g, D, real, var="S", mode="auto", split=False, budget=None):
    """Zeta series of the direct sum f(x) + g(y) restricted to the product
    base point, in one variable; the caller substitutes the variable by a
    monomial when embedding into a larger exponent space.

    split=True additionally returns the per-coefficient decomposition by
    leading orders: A1 (both orders n), A2 (orders differ), A3 (common
    order below n), and Bpair (opposite exact hits), all normalized the
    same way.

    mode picks the counted route: "strata" (closed counts of the pair
    x^a, y^b, for two one-variable summands that shape_exponent carries
    onto them at q), "hist" (any pair) or "auto" (strata where it applies,
    else hist).  A change of coordinates in x alone keeps the values
    f(phi), so the pair counts of f, g are those of x^a, y^b: c*x + x^2
    counts as x, x^2 + x^3 as x^2.  Strata reads every level
    from one stream of the closed counts of monomial_pair_counts, in O(D)
    with q, a and b checked once (_monomial_pair_levels).  Without split,
    hist is zeta_trunc of f + g, one F_q DFS count per level from one
    expansion; with split it is histogram_pair_counts at every level, read
    off one expansion each of f and g.  Either way budget caps the DFS
    candidates of all levels together (strata counts none, but a bad
    budget is still refused).  A symbolic series is zeta_trunc of f + g.
    f and g must share no variable (VariableMismatch naming them, checked
    once per call); the Poly f + g is built only on the two routes that
    expand it as one germ, symbolic and hist without split.
    """
    require_choice("mode", mode, ("auto", "strata", "hist"))
    require_int(D, "truncation bound", 0, VariableMismatch)
    f, g = _as_poly(f), _as_poly(g)
    fg_vars = f.direct_sum_vars(g)
    if real.tag == "symbolic":
        if split:
            raise MotzetaError("symbolic splits are not provided")
        return zeta_trunc(f + g, D, real, var)
    q = real.q
    exps = [shape_exponent(h, q) if len(h.vars) == 1 else None for h in (f, g)]
    if mode == "auto":
        mode = "hist" if None in exps else "strata"
    elif mode == "strata" and None in exps:
        h = (f, g)[exps.index(None)]
        raise MotzetaError(
            "strata mode counts one-variable germs that a change of "
            "coordinates carries onto x^a with a prime to q; summand %s "
            "is not one at q=%d" % (h.render(), q)
        )
    if mode == "hist" and not split:
        return zeta_trunc(f + g, D, real, var, budget=budget)
    meter = WorkMeter(budget)
    # one series per count kept, in the order of _PAIR_KEYS; each level adds
    # a nonzero entry within the bound, so it goes into the entries as is
    out = [TruncSeries(real, (var,), D) for _ in (_PAIR_KEYS if split else _PAIR_KEYS[:1])]
    if mode == "strata":
        levels = _monomial_pair_levels(exps[0], exps[1], D, q)
    else:
        ef, eg = JetExpansion(f), JetExpansion(g)
        counts = (_pair_counts(ef, eg, fg_vars, n, q, meter) for n in range(1, D + 1))
        levels = ([c[k] for k in _PAIR_KEYS] for c in counts)
    scale, den = q ** len(fg_vars), 1
    for n, level in enumerate(levels, 1):
        den *= scale
        for s, c in zip(out, level):
            if c:
                s.entries[(n,)] = Fraction(c, den)
    if not split:
        return out[0]
    return out[0], dict(zip(_PAIR_KEYS[1:], out[1:]))


# ---------------------------------------------------------------------------
# resolution-data evaluators
# ---------------------------------------------------------------------------


class Stratum:
    """One stratum of supplied resolution data: its label set, the class
    atom of its cover, and per-member multiplicity vectors and twists.
    labels, N, each row of N and nu are lists or tuples."""

    __slots__ = ("labels", "atom", "N", "nu")

    def __init__(self, labels, atom, N, nu):
        if atom is not None and not isinstance(atom, Atom):
            raise MotzetaError("Stratum atom: need an Atom or None, not %r" % (atom,))
        for field, value in (("labels", labels), ("N", N), ("nu", nu)):
            if not isinstance(value, (list, tuple)):
                raise MotzetaError("Stratum %s: need a list, not %r" % (field, value))
        for row in N:
            if not isinstance(row, (list, tuple)):
                raise MotzetaError("Stratum N: need a list per member, not %r" % (row,))
        self.labels = tuple(str(x) for x in labels)
        self.atom = atom
        self.N = tuple(tuple(require_int(x, "Stratum N: multiplicity", 0) for x in row) for row in N)
        self.nu = tuple(require_int(v, "Stratum nu: twist", 1) for v in nu)
        k = len(self.labels)
        if k == 0:
            raise MotzetaError("Stratum labels: empty stratum")
        if len(self.N) != k:
            raise MotzetaError("Stratum N: need one multiplicity row per member")
        if len(self.nu) != k:
            raise MotzetaError("Stratum nu: need one twist per member")
        width = len(self.N[0])
        for row in self.N:
            if len(row) != width:
                raise MotzetaError("Stratum N: ragged multiplicity rows")
            if not any(row):
                raise MotzetaError("Stratum N: every member needs a positive multiplicity")

    @property
    def width(self):
        return len(self.N[0])


class ResolutionData:
    __slots__ = ("strata",)

    def __init__(self, strata):
        self.strata = tuple(strata)
        if not self.strata:
            raise MotzetaError("ResolutionData strata: need at least one stratum")
        w = self.strata[0].width
        if any(s.width != w for s in self.strata):
            raise MotzetaError("ResolutionData strata: strata disagree on the output arity")

    @property
    def width(self):
        return self.strata[0].width


def parse_resolution(obj):
    """Resolution data from JSON-shaped input: a list of
    {"I": [...labels], "atom": {"name":…, "order":…} | "unit" | null,
     "N": [[...]], "nu": [...]}."""
    if not isinstance(obj, (list, tuple)):
        raise MotzetaError("parse_resolution: need a list of strata, not %r" % (obj,))
    strata = []
    for i, d in enumerate(obj):
        if not isinstance(d, dict):
            raise MotzetaError("parse_resolution: stratum %d is not a dict: %r" % (i, d))
        missing = [k for k in ("I", "N", "nu") if k not in d]
        if missing:
            raise MotzetaError("parse_resolution: stratum %d has no %r" % (i, missing[0]))
        spec = d.get("atom")
        try:
            if spec in (None, "unit", "pt"):
                atom = None
            elif isinstance(spec, str):
                if spec.startswith("mu") and spec[2:].isdecimal():
                    atom = Atom(spec, int(spec[2:]))
                else:
                    atom = Atom(spec, 1)
            elif isinstance(spec, dict) and "name" in spec:
                atom = Atom(str(spec["name"]), spec.get("order", 1))
            else:
                raise MotzetaError("atom must be a name, a dict with a 'name' or null, not %r" % (spec,))
            strata.append(Stratum(d["I"], atom, d["N"], d["nu"]))
        except MotzetaError as err:
            raise MotzetaError("parse_resolution: stratum %d: %s" % (i, err)) from None
    return ResolutionData(strata)


def standard_atom_sets(names):
    """Binding table for the builtin atom names: mu<k>, unit/pt, torus."""
    table = {}
    for name in names:
        if name in ("unit", "pt"):
            table[name] = point()
        elif name == "torus":
            table[name] = torus()
        elif name.startswith("mu") and name[2:].isdecimal():
            table[name] = mu_n(int(name[2:]))
        else:
            raise MotzetaError("no builtin presentation for atom %r" % name)
    return table


def _stratum_class(st, base):
    """[atom] (L-1)^(k-1) over base, k the member count of the stratum."""
    scalar = SymbolicClass.scalar(L_MINUS_1 ** (len(st.labels) - 1), base)
    return scalar if st.atom is None else SymbolicClass.from_atom(st.atom, base=base) * scalar


def _stratum_coeffs(res, real, binding):
    """The coefficient of each stratum: its class, or when counting the
    bind_and_count of it through binding (default: one Binding of the
    builtin presentations of the atoms, standard_atom_sets)."""
    if real.tag == "symbolic":
        return [_stratum_class(st, real.zero.base) for st in res.strata]
    if binding is None:
        names = sorted({st.atom.name for st in res.strata if st.atom is not None})
        binding = Binding(standard_atom_sets(names), real.q)
    elif not isinstance(binding, Binding) or binding.q != real.q:
        raise MotzetaError(
            "binding must be a motclass.Binding at q=%d, not %r" % (real.q, binding)
        )
    return [bind_and_count(_stratum_class(st, "pt"), binding) for st in res.strata]


def _cone_for(stratum_index, cone):
    """The cone pieces of one stratum (None: the full orthant)."""
    if isinstance(cone, (list, tuple)):
        cone = cone[stratum_index]
    if cone is None or isinstance(cone, ConePieces):
        return cone
    raise ConeNotDecomposed(
        "cone must be a ConePieces or a per-stratum list of them, not %r"
        % (cone,)
    )


class ConePieces:
    """A lattice set given as disjoint simplicial pieces.

    Each piece lists nonnegative integer generators, all of one length and
    linearly independent (some maximal minor is nonzero), and an open flag
    per generator.  The piece is the set of integer combinations of its
    generators with coefficient >= 1 on an open generator and >= 0 on a
    closed one (a closed flag attaches the face spanned without that
    generator).  The generators need not be unimodular: (1,0),(1,2) is
    the set of its integer combinations, not every lattice point of its
    real cone.  That set is what dl_eval sums, and what the oracles
    tests/brute.validate_cone and tests/brute.lattice_sum check it
    against, each point once because the generators are independent.
    origin=True adds the single point 0.  A malformed piece raises
    ConeNotDecomposed naming its index."""

    __slots__ = ("pieces", "origin")

    def __init__(self, pieces, origin=False):
        if not isinstance(pieces, (list, tuple)):
            raise ConeNotDecomposed("ConePieces pieces: need a list of (generators, flags), not %r" % (pieces,))
        norm = []
        for i, piece in enumerate(pieces):
            if not isinstance(piece, (list, tuple)) or len(piece) != 2:
                raise ConeNotDecomposed("piece %d: needs a (generators, flags) pair, not %r" % (i, piece))
            gens, flags = piece
            if not isinstance(gens, (list, tuple)) or not all(isinstance(g, (list, tuple)) for g in gens):
                raise ConeNotDecomposed("piece %d generators: need integer vectors, not %r" % (i, gens))
            entry = "piece %d generators: entry" % i
            gens = tuple(tuple(require_int(x, entry, 0, ConeNotDecomposed) for x in g) for g in gens)
            if not isinstance(flags, (list, tuple)) or not all(isinstance(b, bool) for b in flags):
                raise ConeNotDecomposed("piece %d flags: need one flag per generator, not %r" % (i, flags))
            flags = tuple(flags)
            if len(gens) != len(flags) or not gens:
                raise ConeNotDecomposed("piece %d needs generators with flags" % i)
            for g in gens:
                if not any(g):
                    raise ConeNotDecomposed("piece %d has a zero generator" % i)
            if len({len(g) for g in gens}) != 1:
                raise ConeNotDecomposed("piece %d: generators %r differ in length" % (i, gens))
            # independent iff no generator is a combination of those before it
            if any(
                _solve_exact(list(zip(*gens[:t])), gens[t]) is not None
                for t in range(1, len(gens))
            ):
                raise ConeNotDecomposed("piece %d: generators %r are linearly dependent" % (i, gens))
            norm.append((gens, flags))
        self.pieces = tuple(norm)
        self.origin = bool(origin)


def dl_eval(res, real, vars=None, cone=None, binding=None):
    """Evaluate supplied resolution data to its closed zeta series; expand
    the result for a truncation.

    Without a cone the lattice sum runs over all positive integer vectors
    of each stratum and closes into one product of geometric factors per
    stratum.  With a cone the sum runs over the supplied pieces, given as
    a ConePieces or a per-stratum list of them; anything else raises
    ConeNotDecomposed.  A stratum of k members has the coefficient
    [atom] (L-1)^(k-1); when counting, its bind_and_count through binding,
    a motclass.Binding at the realization's prime whose meter caps every
    count (default: one Binding of standard_atom_sets).
    """
    if not isinstance(res, ResolutionData):
        res = parse_resolution(res)
    r = res.width
    if vars is None:
        vars = _default_vars(r)
    if isinstance(cone, (list, tuple)) and len(cone) != len(res.strata):
        raise ConeNotDecomposed(
            "cone lists %d strata for %d" % (len(cone), len(res.strata))
        )
    strands = []
    coeffs = _stratum_coeffs(res, real, binding)
    for si, (st, coeff) in enumerate(zip(res.strata, coeffs)):
        pieces = _cone_for(si, cone)
        if pieces is None:
            factors = tuple((-st.nu[i], st.N[i]) for i in range(len(st.labels)))
            strands.append(Strand(coeff, (0,) * r, factors))
            continue
        for gens, flags in pieces.pieces:
            if any(len(g) != len(st.labels) for g in gens):
                raise ConeNotDecomposed(
                    "stratum %d (%s): generators need one entry per member, %d, not %r"
                    % (si, ",".join(st.labels), len(st.labels), gens)
                )
            open_idx = [i for i, b in enumerate(flags) if b]
            closed_idx = [i for i, b in enumerate(flags) if not b]
            for sub in itertools.chain.from_iterable(
                itertools.combinations(closed_idx, k)
                for k in range(len(closed_idx) + 1)
            ):
                chosen = sorted(open_idx + list(sub))
                factors = []
                for gi in chosen:
                    g = gens[gi]
                    nv = tuple(
                        sum(g[i] * st.N[i][j] for i in range(len(g)))
                        for j in range(r)
                    )
                    mv = -sum(g[i] * st.nu[i] for i in range(len(g)))
                    if not any(nv):
                        raise ConeNotDecomposed("a generator maps to exponent zero")
                    factors.append((mv, nv))
                strands.append(Strand(coeff, (0,) * r, tuple(factors)))
        if pieces.origin:
            strands.append(Strand(coeff, (0,) * r, ()))
    return ClosedSeries(real, tuple(vars), tuple(strands))


# ---------------------------------------------------------------------------
# nearby cycles
# ---------------------------------------------------------------------------


def diagonal_closed(s, var="T"):
    """Diagonal substitution of a closed series: every variable becomes
    the same one; factor exponent vectors collapse to their totals."""
    if not isinstance(s, ClosedSeries):
        raise NotLimitNormal("diagonal substitution needs a closed series")
    strands = []
    for st in s.strands:
        b = (sum(st.b),)
        factors = tuple((m, (sum(nv),)) for m, nv in st.factors)
        strands.append(Strand(st.coeff, b, factors))
    return ClosedSeries(s.real, (var,), tuple(strands))


def nearby_cycles(s):
    """Minus the limit of the diagonal substitution; closed input only."""
    if not isinstance(s, ClosedSeries):
        raise NotLimitNormal(
            "nearby cycles need a closed series; fit a closed form first"
        )
    return -lim_infty(diagonal_closed(s))
