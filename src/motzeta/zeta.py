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
  * per-axis streams, decided in one place (_axis_stream): a recognized
    shape, found by shape_exponent (x^a, or a sum of distinct linear
    variables with a = 1), has the one strand [mu_a] L^{-k} T^{ak} and
    its closed stream, read off a and its leading coefficient; any other
    germ has the stream of its AxisCounts counts when counting, and no
    stream (FitFailed) symbolically;
  * generating series: zeta_trunc / zeta_closed for one function,
    multizeta_trunc / multizeta_separable for an ordered family with
    order conditions on the trailing functions, sum_zeta_pullback for a
    direct sum f(x) + g(y) on a product space, with diagnostic splits of
    each coefficient by the two leading orders.  Every truncated family
    series, one function included, is series.expand_chains over the
    per-axis streams, in both realizations;
  * evaluators for user-supplied resolution data (dl_eval returns the
    closed series of a resolution, over the full orthant or supplied cone
    pieces; cone_euler, validate_cone) and nearby_cycles as minus the
    limit of a diagonal substitution.

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
    return parse_poly(f)


def _choice(param, value, allowed):
    """Refuse an argument outside its accepted values, naming both."""
    if value not in allowed:
        names = [repr(a) for a in allowed]
        listed = ", ".join(names[:-1]) + " or " + names[-1]
        raise MotzetaError("%s must be %s, not %r" % (param, listed, value))


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
    return _jet_locus(f.vars, JetExpansion(f).digits(n), n, exact, action_order)


def _jet_locus(vars, cs, n, exact=True, action_order=None):
    """jet_set from the digits cs of f(phi) (cs[j] the t^j digit; digits
    past t^n are not read) in the jet coordinates of the variables vars."""
    if n < 1:
        raise MotzetaError("jet order n must be >= 1, not %r" % (n,))
    coords = tuple("%s_%d" % (v, j) for v in vars for j in range(1, n + 1))
    weights = tuple(j for _ in vars for j in range(1, n + 1))
    eqs = [c for c in cs[:n] if not c.is_zero()]
    if exact:
        eqs.append(cs[n] - 1)
        order = n if action_order is None else action_order
    else:
        if not cs[n].is_zero():
            eqs.append(cs[n])
        order = 1 if action_order is None else action_order
    return GeomSet(coords, tuple(eqs), (), order, weights)


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
    if meter is None:
        meter = WorkMeter()
    return _pair_counts(JetExpansion(f), JetExpansion(g), n, q, meter)


def _pair_counts(ef, eg, n, q, meter):
    """histogram_pair_counts at level n from the expansions ef, eg of f, g."""
    f, g = ef.f, eg.f
    cf, cg = ef.digits(n), eg.digits(n)
    hit = _jet_locus(
        f.direct_sum(g).vars, [a + b for a, b in zip(cf, cg)], n, action_order=1
    )

    def count(gs, *extra):
        eqs = gs.equations + tuple(c for c in extra if not c.is_zero())
        return twisted_count(GeomSet(gs.coords, eqs), q, meter=meter)

    try:
        N = [None] + [count(hit, *cf[1:l]) for l in range(1, n + 1)]
        a2 = count(hit, *cf[1 : n + 1]) + count(hit, *cg[1 : n + 1])
        bpair = count(_jet_locus(f.vars, cf, n)) * count(
            _jet_locus(g.vars, [-c for c in cg], n)
        )
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            "pair counts at level %d exceed the budget of %d candidates"
            % (n, meter.budget)
        ) from exc
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
    """The exponent a of a recognized shape's one strand [mu_a] L^{-k} T^{ak}:
    a for a monic x^a, 1 for a sum of distinct linear variables (c*x among
    them), None for any other germ.  At a prime q (None: symbolic) it is
    also None when q shares a factor with a or divides a linear
    coefficient, since the closed streams need both invertible mod q."""
    f = _as_poly(f)
    mono = f.as_monomial()
    if mono is not None and mono[0] == 1 and mono[2] >= 1:
        a = mono[2]
        return a if q is None or math.gcd(a, q) == 1 else None
    # degree-one exponent vectors are unit vectors: distinct keys, one per
    # variable, make a sum of distinct linear variables
    if not f.vars or len(f.terms) != len(f.vars):
        return None
    if any(sum(e) != 1 for e in f.terms):
        return None
    if q is not None and any(c % q == 0 for c in f.terms.values()):
        return None
    return 1


def _lead_coeff(a, real):
    """Class of the leading locus of the exponent-a strand: [mu_a] (the unit
    for a = 1), or its point count gcd(a, q - 1) when counting."""
    if a == 1:
        return real.one
    if real.tag == "symbolic":
        return SymbolicClass.from_atom(Atom("mu%d" % a, a), base=real.zero.base)
    return Fraction(math.gcd(a, real.q - 1))


def _strand_exponent(f, real):
    """shape_exponent at the realization's prime; FitFailed when f has no
    closed strand there."""
    a = shape_exponent(f, real.q)
    if a is None:
        at = "" if real.q is None else " at q=%d" % real.q
        raise FitFailed(
            "no closed form for %s%s: not x^a or a sum of distinct linear "
            "variables with a and the coefficients prime to q"
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
    at zero twists (no meter), once per (a, b, q) (monomial_pair_counts asks
    the same triple at every level)."""
    f0, f1 = fermat_counts(a, b, q)
    return f0, f1, _power_histogram(b, q)[q - 1]


def monomial_pair_counts(a, b, n, q):
    """Closed-form counterpart of histogram_pair_counts for the pair
    (x^a, y^b): the zero set and each leading coefficient reduce to root
    counts, and every condition above the leading position is linear in a
    fresh coordinate pair and contributes a factor q."""
    _require_prime(q, "monomial_pair_counts")
    _require_prime_to(q, a=a, b=b)
    f0, f1, negb = fermat_affine_counts(a, b, q)
    ga = math.gcd(a, q - 1)
    gb = math.gcd(b, q - 1)
    out = {"total": 0, "A1": 0, "A2": 0, "A3": 0, "A3_by_l": {}, "Bpair": 0}
    if n % a == 0 and n % b == 0:
        out["A1"] = f1 * q ** (2 * n - n // a - n // b)
        out["Bpair"] = ga * negb * q ** (2 * n - n // a - n // b)
    if n % a == 0:
        out["A2"] += ga * q ** (2 * n - n // a - n // b)
    if n % b == 0:
        out["A2"] += gb * q ** (2 * n - n // b - n // a)
    step = a * b // math.gcd(a, b)
    for l in range(step, n, step):
        cl = f0 * q ** (n + l - l // a - l // b)
        if cl:
            out["A3_by_l"][l] = cl
            out["A3"] += cl
    out["total"] = out["A1"] + out["A2"] + out["A3"]
    return out


# ---------------------------------------------------------------------------
# per-axis counters
# ---------------------------------------------------------------------------


class AxisCounts:
    """Exact-hit and order-beyond counts of level-n jets of one function at
    one prime, by the F_q DFS of twisted_count on the level-n jet locus.

    The loci are built from one expansion of f that grows with the deepest
    level asked; the count at each (kind, n) is kept.  Every count charges
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
        self._counts = {}

    def _count(self, kind, n):
        if (kind, n) not in self._counts:
            locus = _jet_locus(
                self.f.vars, self._jets.digits(n), n, kind == "exact", action_order=1
            )
            try:
                self._counts[kind, n] = twisted_count(locus, self.q, meter=self.meter)
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    "jet counts of %s at level %d exceed the budget of %d candidates"
                    % (self.f.render(), n, self.meter.budget),
                    level=n,
                ) from exc
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

    A recognized shape (shape_exponent) has its closed stream.  Any other
    germ is counted under the count realization, by the F_q DFS of one
    AxisCounts charging the caller's meter, and raises FitFailed under the
    symbolic one.
    """
    if real.tag == "count":
        _require_prime(real.q, "a counted zeta series")
        if shape_exponent(f, real.q) is None:
            ax = AxisCounts(f, real.q, meter)
            return _CountedStream(getattr(ax, kind), real.q**ax.dim)
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
    ..): the closed stream of a recognized shape, else the F_q DFS counts
    of AxisCounts, or FitFailed when symbolic.  base="global" (counting
    only) sums the origin series of f shifted to each F_q-zero of f.
    budget caps the DFS candidates of the whole call, every zero together;
    BudgetExceeded names f, the zero and the level that exceeded it.
    """
    _choice("base", base, ("origin", "global"))
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
                raise BudgetExceeded(
                    "jet counts of %s at level %d of the zero %s exceed the "
                    "budget of %d candidates"
                    % (f.render(), exc.level, zero, meter.budget),
                    level=exc.level,
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
    """Closed zeta series for recognized shapes.

    The exponent-a strand (see shape_exponent) is the leading-locus class
    times L^{-k} T^{a k} summed over k >= 1.  Any other germ, or one
    whose a or linear coefficients q divides, raises FitFailed (fit a
    truncation instead).
    """
    a = _strand_exponent(f, real)
    strand = Strand(_lead_coeff(a, real), (0,), ((-1, (a,)),))
    return ClosedSeries(real, (var,), (strand,))


def _family(fs, vars):
    """The family as Polys and its variables (default _default_vars)."""
    fs = tuple(_as_poly(f) for f in fs)
    if not fs:
        raise MotzetaError("the family fs needs at least one function")
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
    padding cancels axis by axis.  A recognized shape takes its closed
    stream; any other germ is counted by one AxisCounts, or raises
    FitFailed when symbolic.  budget caps the DFS candidates of the whole
    family together.
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
    x^a, y^b, or c*x for either, with a, b prime to q), "hist" (any pair)
    or "auto" (strata where it applies, else hist).  c*x counts as x:
    u -> c*u permutes the jets of each order.  Without split, hist is
    zeta_trunc of f + g, one F_q DFS count per level from one expansion;
    with split it is histogram_pair_counts at every level, read off one
    expansion each of f and g.  Either way budget caps the DFS candidates
    of all levels together.  A symbolic series is zeta_trunc of f + g.
    """
    _choice("mode", mode, ("auto", "strata", "hist"))
    f, g = _as_poly(f), _as_poly(g)
    fg = f.direct_sum(g)
    if real.tag == "symbolic":
        if split:
            raise MotzetaError("symbolic splits are not provided")
        return zeta_trunc(fg, D, real, var)
    q = real.q
    exps = [shape_exponent(h, q) if len(h.vars) == 1 else None for h in (f, g)]
    if mode == "auto":
        mode = "hist" if None in exps else "strata"
    elif mode == "strata" and None in exps:
        h = (f, g)[exps.index(None)]
        raise MotzetaError(
            "strata mode counts x^a or c*x with a prime to q; summand %s "
            "is not one at q=%d" % (h.render(), q)
        )
    if mode == "hist" and not split:
        return zeta_trunc(fg, D, real, var, budget=budget)
    meter = WorkMeter(budget)
    if mode == "hist":
        ef, eg = JetExpansion(f), JetExpansion(g)
    ent = {}
    splits = {"A1": {}, "A2": {}, "A3": {}, "Bpair": {}}
    for n in range(1, D + 1):
        if mode == "strata":
            c = monomial_pair_counts(exps[0], exps[1], n, q)
        else:
            c = _pair_counts(ef, eg, n, q, meter)
        den = q ** (len(fg.vars) * n)
        if c["total"]:
            ent[(n,)] = Fraction(c["total"], den)
        for k in splits:
            if c[k]:
                splits[k][(n,)] = Fraction(c[k], den)
    out = TruncSeries(real, (var,), D, ent)
    if not split:
        return out
    parts = {
        k: TruncSeries(real, (var,), D, v) for k, v in splits.items()
    }
    return out, parts


# ---------------------------------------------------------------------------
# resolution-data evaluators
# ---------------------------------------------------------------------------


class Stratum:
    """One stratum of supplied resolution data: its label set, the class
    atom of its cover, and per-member multiplicity vectors and twists."""

    __slots__ = ("labels", "atom", "N", "nu")

    def __init__(self, labels, atom, N, nu):
        self.labels = tuple(str(x) for x in labels)
        self.atom = atom

        def ints(field, row):
            try:
                return tuple(int(x) for x in row)
            except (TypeError, ValueError):
                raise MotzetaError("Stratum %s: entries must be integers, not %r" % (field, row)) from None

        self.N = tuple(ints("N", row) for row in N)
        self.nu = ints("nu", nu)
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
            if any(x < 0 for x in row):
                raise MotzetaError("Stratum N: multiplicities must be >= 0")
            if not any(row):
                raise MotzetaError("Stratum N: every member needs a positive multiplicity")
        if any(v < 1 for v in self.nu):
            raise MotzetaError("Stratum nu: twists must be >= 1")

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
    strata = []
    for i, d in enumerate(obj):
        missing = [k for k in ("I", "N", "nu") if k not in d]
        if missing:
            raise MotzetaError("parse_resolution: stratum %d has no %r" % (i, missing[0]))
        spec = d.get("atom")
        if spec in (None, "unit", "pt"):
            atom = None
        elif isinstance(spec, str):
            if spec.startswith("mu") and spec[2:].isdigit():
                atom = Atom(spec, int(spec[2:]))
            else:
                atom = Atom(spec, 1)
        else:
            atom = Atom(str(spec["name"]), int(spec.get("order", 1)))
        strata.append(Stratum(d["I"], atom, d["N"], d["nu"]))
    return ResolutionData(strata)


def standard_atom_sets(names):
    """Binding table for the builtin atom names: mu<k>, unit/pt, torus."""
    table = {}
    for name in names:
        if name in ("unit", "pt"):
            table[name] = point()
        elif name == "torus":
            table[name] = torus()
        elif name.startswith("mu") and name[2:].isdigit():
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
    real cone.  That set is what dl_eval, validate_cone and the lattice
    sum of tests/brute.py all sum, each point once because the generators
    are independent.  origin=True adds the single point 0.  A malformed
    piece raises ConeNotDecomposed naming its index."""

    __slots__ = ("pieces", "origin")

    def __init__(self, pieces, origin=False):
        norm = []
        for i, (gens, flags) in enumerate(pieces):
            gens = tuple(tuple(int(x) for x in g) for g in gens)
            flags = tuple(bool(b) for b in flags)
            if len(gens) != len(flags) or not gens:
                raise ConeNotDecomposed("piece %d needs generators with flags" % i)
            for g in gens:
                if all(x == 0 for x in g):
                    raise ConeNotDecomposed("piece %d has a zero generator" % i)
                if any(x < 0 for x in g):
                    raise ConeNotDecomposed("piece %d: generators must be nonnegative" % i)
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

    @classmethod
    def from_json(cls, obj):
        pieces = []
        for i, p in enumerate(obj.get("pieces", [])):
            if "gens" not in p:
                raise ConeNotDecomposed("ConePieces.from_json: piece %d has no 'gens'" % i)
            pieces.append((p["gens"], p.get("open", [True] * len(p["gens"]))))
        return cls(pieces, origin=obj.get("origin", False))

    def to_json(self):
        return {
            "pieces": [
                {"gens": [list(g) for g in gens], "open": list(flags)}
                for gens, flags in self.pieces
            ],
            "origin": self.origin,
        }


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


def cone_euler(spec):
    """Signed piece count of a relatively open decomposition: each open
    piece contributes (-1)^{number of generators}; the origin point adds
    +1.  Closed face flags mean the decomposition is not relatively open."""
    if not isinstance(spec, ConePieces):
        spec = ConePieces.from_json(spec)
    total = 1 if spec.origin else 0
    for gens, flags in spec.pieces:
        if not all(flags):
            raise ConeNotDecomposed(
                "euler evaluation needs relatively open pieces"
            )
        total += (-1) ** len(gens)
    return total


def validate_cone(spec, member, bound, dim=None):
    """Check the supplied decomposition against a membership predicate on
    every lattice point of the [0, bound]^dim box: each member must lie in
    exactly one piece (or be the origin with the origin flag), each
    non-member in none.  A point lies in a piece when its coordinates in
    the piece's generators, unique because they are independent, are
    integers, >= 1 on the open and >= 0 on the closed generators.  Raises
    ConeNotDecomposed with a witness."""
    if not isinstance(spec, ConePieces):
        spec = ConePieces.from_json(spec)
    if dim is None:
        if not spec.pieces:
            raise MotzetaError("dim is needed when there are no pieces")
        dim = len(spec.pieces[0][0][0])
    for i, (gens, _) in enumerate(spec.pieces):
        if len(gens[0]) != dim:
            raise ConeNotDecomposed(
                "piece %d: generators of length %d in dimension %d" % (i, len(gens[0]), dim)
            )
    for pt in itertools.product(range(bound + 1), repeat=dim):
        hits = 0
        if spec.origin and not any(pt):
            hits += 1
        for gens, flags in spec.pieces:
            c = _solve_exact(list(zip(*gens)), pt)
            if c is not None and all(
                x.denominator == 1 and x >= (1 if b else 0) for x, b in zip(c, flags)
            ):
                hits += 1
        want = 1 if member(pt) else 0
        if hits != want:
            raise ConeNotDecomposed(
                "point %r covered %d times, membership %d" % (pt, hits, want)
            )
    return True


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


# ---------------------------------------------------------------------------
# prime selection
# ---------------------------------------------------------------------------


def default_q(orders=(), avoid=()):
    """Smallest prime q with every listed order dividing q-1 and q
    coprime to every listed integer."""
    need = 1
    for o in orders:
        if o < 1:
            raise MotzetaError("default_q orders must be >= 1, not %r" % (o,))
        need = need * o // math.gcd(need, o)
    q = 2
    while True:
        if (
            _is_prime(q)
            and (q - 1) % need == 0
            and all(math.gcd(q, a) == 1 for a in avoid if a)
        ):
            return q
        q += 1


def required_orders(fs):
    """Action orders and characteristic exclusions for a family (used for
    automatic prime selection): every term's degree is an order to split
    and, with every coefficient, a factor to keep prime to q."""
    orders = set()
    avoid = set()
    for f in fs:
        for e, c in _as_poly(f).terms.items():
            avoid.add(abs(c))
            orders.add(max(sum(e), 1))
            avoid.add(max(sum(e), 1))
    return sorted(orders), sorted(avoid)
