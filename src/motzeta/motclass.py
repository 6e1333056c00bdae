"""The monodromic class algebra: symbolic normal forms and count realization.

An element is a finite sum of terms; each term is a scalar from the localized
ring times a commutative product of factors.  A factor is either an Atom (a
named equivariant class with a finite-order root-of-unity action) or a
ConvNode recording an unevaluated convolution of two factor products.

Rewrites applied at construction, to fixpoint:
  - full bilinear distribution (convolution operands are never sums),
  - commutativity: factor multisets and convolution operand pairs sorted,
  - trivial-action reduction: a *0 b -> (L-1)(a x b) and
    a *1 b -> (L-2)(a x b) when both operands have effective order 1,
  - augmentation marks dropped on effective-order-1 factors,
  - term-level augmentation pushed onto the unique factor with a live action
    when there is exactly one,
  - R1: in a binary atom product with exactly one augmented factor, the mark
    moves to the canonically smaller atom.  (Sound for the normal form's
    syntactic equality; the count realization evaluates whatever normal form
    it is handed and never constructs symbolic forms internally.)

Equality of classes is syntactic equality of normal forms; it is sound but
not complete for the underlying ring.

Scaling by a nonzero scalar keeps the normal form: it changes no term's
factors or marks, hence no key and no sort order, and in the integral domain
of scalars it makes no coefficient zero.  So scale, negation (scaling by -1)
and an external product with a pure scalar class (the unit times a scalar)
reuse the term layout instead of normalizing again.  Sums keep the normal
form too: the terms of each summand are already normalized and sorted by
key, so + and - merge the two sorted tuples, add the coefficients of equal
keys and drop the zero sums, giving the constructor's terms without
normalizing any term again.  A monomial scalar c*L^k goes through the
scalar ring's one monomial path (locring), coefficient by coefficient.

The count realization maps a class to exact rationals: L goes to q, an atom
goes to a twisted point count of a bound GeomSet, a convolution goes to the
double Burnside sum over the two lifted group actions with a Fermat-pair
inner count, and an augmented class goes to the plain average over its group
(the underlying non-equivariant class).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import BaseMismatch, BudgetExceeded, MotzetaError, UnboundAtom, require_int
from .geomset import (  # noqa: F401  (re-exported: GeomSet lives with its counts)
    GeomSet,
    WorkMeter,
    fermat_twisted_count,
    quotient_count,
    twisted_count,
)
from .locring import L_MINUS_1, LocRat, ONE as SC_ONE

_L_MINUS_2 = L_MINUS_1 - 1
_SC_MINUS_ONE = LocRat.from_int(-1)


class Atom:
    """A named equivariant class; aug marks the underlying plain class.

    Immutable: sort_key, the canonical ordering key, is built once here."""

    __slots__ = ("name", "base", "order", "aug", "sort_key")

    def __init__(self, name, order=1, base="pt", aug=False):
        self.name = name
        self.order = require_int(order, "Atom %r order" % (name,), 1)
        self.base = base
        self.aug = bool(aug)
        self.sort_key = ("atom", name, base, self.order, self.aug)

    def effective_order(self):
        return 1 if self.aug else self.order

    def with_aug(self, aug):
        return Atom(self.name, self.order, self.base, aug)

    def __eq__(self, other):
        return isinstance(other, Atom) and self.sort_key == other.sort_key

    def __hash__(self):
        return hash(self.sort_key)

    def render(self):
        return self.name + ("'" if self.aug else "")

    def __repr__(self):
        return "Atom(%s, order=%d)" % (self.render(), self.order)


class ConvNode:
    """Unevaluated convolution of two factor products.

    kind 0 is the additive Fermat convolution (u^N + v^N = 0), kind 1 the
    affine one (u^N + v^N = 1).  Operands are sorted factor tuples.
    Immutable: the order and sort_key are built once here.
    """

    __slots__ = ("kind", "left", "right", "aug", "order", "sort_key")

    def __init__(self, kind, left, right, aug=False):
        left = tuple(sorted(left, key=_sort_key))
        right = tuple(sorted(right, key=_sort_key))
        lkey, rkey = _factors_key(left), _factors_key(right)
        if rkey < lkey:
            left, right, lkey, rkey = right, left, rkey, lkey
        self.kind = kind
        self.left = left
        self.right = right
        self.aug = bool(aug)
        self.order = math.lcm(*(f.effective_order() for f in left + right))
        self.sort_key = ("conv", kind, lkey, rkey, self.aug)

    def effective_order(self):
        return 1 if self.aug else self.order

    def with_aug(self, aug):
        return ConvNode(self.kind, self.left, self.right, aug)

    def __eq__(self, other):
        return isinstance(other, ConvNode) and self.sort_key == other.sort_key

    def __hash__(self):
        return hash(self.sort_key)

    def render(self):
        op = "*0" if self.kind == 0 else "*1"
        body = "(%s %s %s)" % (_render_factors(self.left), op, _render_factors(self.right))
        return body + ("'" if self.aug else "")

    def __repr__(self):
        return "ConvNode(%s)" % self.render()


_sort_key = operator.attrgetter("sort_key")


def _factors_key(factors):
    return tuple([f.sort_key for f in factors])


def _render_factors(factors):
    if not factors:
        return "1"
    return " x ".join(f.render() for f in factors)


def _normalize_term(factors, aug_term):
    """Apply factor-level rewrites; returns (factors sorted, aug_term)."""
    out = []
    for f in factors:
        if f.aug and f.order == 1:
            f = f.with_aug(False)
        out.append(f)
    live = [i for i, f in enumerate(out) if f.effective_order() > 1]
    if aug_term:
        if not live:
            aug_term = False
        elif len(live) == 1:
            out[live[0]] = out[live[0]].with_aug(True)
            aug_term = False
    # R1: augmentation marks on live atoms slide to a canonical position,
    # the k marks resting on the k canonically smallest live atoms of the
    # product.  Each slide is an instance of the binary exchange
    # a x b' = a' x b; making the placement a function of the multiset alone
    # keeps normalization confluent under associativity and commutativity.
    # Order-1 atoms never carry marks (dropped above) and are never targets;
    # marks on convolution nodes stay where they are.
    if not aug_term:
        live = [
            i
            for i, f in enumerate(out)
            if isinstance(f, Atom) and f.order > 1
        ]
        k = sum(1 for i in live if out[i].aug)
        if k:
            live.sort(key=lambda i: out[i].with_aug(False).sort_key)
            for rank, i in enumerate(live):
                out[i] = out[i].with_aug(rank < k)
    out.sort(key=_sort_key)
    return tuple(out), aug_term


class SymbolicClass:
    """Normal-form element of the class algebra over a named base."""

    __slots__ = ("base", "terms")

    def __init__(self, terms=(), base="pt"):
        # terms: iterable of (factors tuple, aug_term bool, LocRat coeff)
        merged = {}
        store = {}
        for factors, aug_term, coeff in terms:
            factors, aug_term = _normalize_term(factors, aug_term)
            key = (_factors_key(factors), aug_term)
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
                store[key] = (factors, aug_term)
        final = []
        for key in sorted(merged):
            coeff = merged[key]
            if not coeff.is_zero():
                factors, aug_term = store[key]
                final.append((factors, aug_term, coeff))
        self.terms = tuple(final)
        self.base = base

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, c, base="pt"):
        return cls((((), False, _as_scalar(c)),), base)

    @classmethod
    def unit(cls, base="pt"):
        return cls.scalar(1, base)

    @classmethod
    def zero(cls, base="pt"):
        return cls((), base)

    @classmethod
    def from_atom(cls, atom, base=None):
        return cls(
            (((atom,), False, SC_ONE),),
            base if base is not None else atom.base,
        )

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymbolicClass):
            return NotImplemented
        if self.base != other.base or len(self.terms) != len(other.terms):
            return False
        for (f1, a1, c1), (f2, a2, c2) in zip(self.terms, other.terms):
            if f1 != f2 or a1 != a2 or not (c1 == c2):
                return False
        return True

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, SymbolicClass):
            return NotImplemented
        if self.base != other.base:
            raise BaseMismatch(
                "cannot add classes over %r and %r" % (self.base, other.base)
            )
        return _merged(self.terms, other.terms, self.base)

    def __neg__(self):
        return _scaled(self, _SC_MINUS_ONE, self.base)

    def __sub__(self, other):
        if not isinstance(other, SymbolicClass):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return _scaled(self, _as_scalar(c), self.base)

    def __rmul__(self, c):
        """The scalar action of an int or a LocRat; NotImplemented on any
        other operand, as + and - do."""
        return self.scale(c) if type(c) is int or isinstance(c, LocRat) else NotImplemented

    def __mul__(self, other):
        """External product with a class, scalar action otherwise."""
        if isinstance(other, SymbolicClass):
            c = _scalar_of(other) if other.base == self.base else None
            return external_mul(self, other) if c is None else _scaled(self, c, self.base)
        return self.__rmul__(other)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for factors, aug_term, coeff in self.terms:
            body = _render_factors(factors)
            if aug_term:
                body = "(%s)'" % body
            parts.append("[%s]*%s" % (coeff.render(), body))
        return " + ".join(parts)

    __str__ = render

    def __repr__(self):
        return "SymbolicClass(%s)" % self.render()


def _as_scalar(c):
    """c as a scalar of the class algebra: an int is lifted to a LocRat,
    and any type but int and LocRat is refused."""
    if type(c) is int:
        return LocRat.from_int(c)
    if not isinstance(c, LocRat):
        raise MotzetaError(
            "SymbolicClass scalar must be an int or a LocRat, not %s %r" % (type(c).__name__, c)
        )
    return c


def _scaled(a, c, base):
    """a scaled by the scalar c, over base, in normal form without
    renormalizing (see the module docstring); c = 0 gives the zero class.
    A monomial c = c0*L^k scales each coefficient by _times_monomial."""
    out = SymbolicClass.__new__(SymbolicClass)
    m = c._monomial() if isinstance(c, LocRat) else None
    if m is not None:
        out.terms = tuple([(f, x, coeff._times_monomial(*m)) for f, x, coeff in a.terms])
    else:
        out.terms = tuple((f, x, coeff * c) for f, x, coeff in a.terms) if c else ()
    out.base = base
    return out


def _merged(a, b, base):
    """The sum of the normal-form term tuples a and b, in normal form
    without renormalizing (see the module docstring): the two sorted tuples
    are merged by term key, equal keys add their coefficients (a's term
    first, as the constructor does) and a zero sum is dropped."""
    ka = [(_factors_key(f), x) for f, x, _c in a]
    kb = [(_factors_key(f), x) for f, x, _c in b]
    terms = []
    i = j = 0
    while i < len(a) and j < len(b):
        if ka[i] < kb[j]:
            terms.append(a[i])
            i += 1
        elif kb[j] < ka[i]:
            terms.append(b[j])
            j += 1
        else:
            f, x, c = a[i]
            c = c + b[j][2]
            if c:
                terms.append((f, x, c))
            i += 1
            j += 1
    out = SymbolicClass.__new__(SymbolicClass)
    out.terms = tuple(terms) + a[i:] + b[j:]
    out.base = base
    return out


def _scalar_of(a):
    """The coefficient of a pure scalar class (one term, no factors), else
    None."""
    if len(a.terms) == 1 and not a.terms[0][0]:
        return a.terms[0][2]
    return None


def _joint_base(a, b):
    """The base of a product of classes over a.base and b.base."""
    return a.base if a.base == b.base else "%s*%s" % (a.base, b.base)


def external_mul(a, b):
    """External product; bilinear, commutative, unit = scalar 1."""
    base = _joint_base(a, b)
    c = _scalar_of(b)
    if c is not None:
        return _scaled(a, c, base)
    c = _scalar_of(a)
    if c is not None:
        return _scaled(b, c, base)

    def side(factors, aug_term):
        if not aug_term:
            return factors
        live = sum(1 for f in factors if f.effective_order() > 1)
        if live > 1:
            # A jointly-augmented product of several live actions cannot be
            # expressed by per-factor marks (the diagonal average differs
            # from independent averages); no pipeline here produces one.
            raise MotzetaError(
                "external_mul: a term augmented jointly over %d live actions "
                "has no per-factor form to multiply by a non-scalar class" % live
            )
        return tuple(f.with_aug(True) for f in factors)

    terms = []
    for fa, aa, ca in a.terms:
        for fb, ab, cb in b.terms:
            terms.append((side(fa, aa) + side(fb, ab), False, ca * cb))
    return SymbolicClass(terms, base)


def augment(a):
    """The underlying plain class (action forgotten); linear, idempotent."""
    return SymbolicClass(
        tuple((f, True, c) for f, _aug, c in a.terms), a.base
    )


def _conv_terms(kind, a, b):
    terms = []
    for fa, aa, ca in a.terms:
        for fb, ab, cb in b.terms:
            coeff = ca * cb
            # Effective order of each operand (term-level aug kills actions).
            oa = 1 if aa else math.lcm(*(f.effective_order() for f in fa))
            ob = 1 if ab else math.lcm(*(f.effective_order() for f in fb))
            fa2 = fa if not aa else tuple(f.with_aug(True) for f in fa)
            fb2 = fb if not ab else tuple(f.with_aug(True) for f in fb)
            if oa == 1 and ob == 1:
                scalar = L_MINUS_1 if kind == 0 else _L_MINUS_2
                terms.append((fa2 + fb2, False, coeff * scalar))
            else:
                terms.append(((ConvNode(kind, fa2, fb2),), False, coeff))
    return terms


def conv0(a, b):
    return SymbolicClass(_conv_terms(0, a, b), _joint_base(a, b))


def conv1(a, b):
    return SymbolicClass(_conv_terms(1, a, b), _joint_base(a, b))


def conv(a, b):
    """Full convolution: conv0 - conv1."""
    return conv0(a, b) - conv1(a, b)


# --- count realization -------------------------------------------------------


class Binding:
    """Maps atom names to GeomSet presentations for counting at the prime
    q.  One WorkMeter (budget) caps every count the binding makes, and the
    binding caches each atom and Fermat-pair count it has made."""

    def __init__(self, table, q, budget=None):
        self.table = dict(table)
        self.q = q
        self.meter = WorkMeter(budget)
        self._atom_cache = {}
        self._fermat_cache = {}

    def geomset_for(self, atom):
        gs = self.table.get(atom.name)
        if gs is None:
            raise UnboundAtom("atom %r has no bound geometry" % atom.name)
        if gs.action_order != atom.order:
            raise UnboundAtom(
                "atom %r has order %d but its geometry has order %d"
                % (atom.name, atom.order, gs.action_order)
            )
        return gs

    def atom_twisted(self, atom, s):
        """Twisted count of the atom's geometry at group exponent s."""
        gs = self.geomset_for(atom)
        n = gs.action_order
        key = (atom.name, s % n)
        if key not in self._atom_cache:
            try:
                self._atom_cache[key] = twisted_count(
                    gs, self.q, s % n, meter=self.meter
                )
            except BudgetExceeded as exc:
                raise self.meter.exceeded("the count of atom %r at twist %d" % (atom.name, s % n)) from exc
        return self._atom_cache[key]

    def fermat_twisted(self, kind, N, e_u, e_v):
        """Twisted count of the Fermat pair F_kind^N; it depends on each
        twist only mod N."""
        key = (kind, N, e_u % N, e_v % N)
        if key not in self._fermat_cache:
            try:
                self._fermat_cache[key] = fermat_twisted_count(
                    kind, N, self.q, e_u, e_v, meter=self.meter
                )
            except BudgetExceeded as exc:
                raise self.meter.exceeded(
                    "the count of F_%d^%d at twists (%d, %d)" % (kind, N, e_u % N, e_v % N)
                ) from exc
        return self._fermat_cache[key]


def _average(total, n):
    """total / n: an int when n divides an int total, else a Fraction."""
    if isinstance(total, int) and total % n == 0:
        return total // n
    return Fraction(total, n)


def _factor_value(binding, f, s):
    """Realization of one factor against group exponent s: an int while the
    counts and averages stay integral, else a Fraction."""
    if isinstance(f, Atom):
        if f.aug:
            n = binding.geomset_for(f).action_order
            return _average(sum(binding.atom_twisted(f, h) for h in range(n)), n)
        return binding.atom_twisted(f, s)
    # ConvNode
    N = f.order
    if f.aug:
        return _average(sum(_conv_value(binding, f, h, N) for h in range(N)), N)
    return _conv_value(binding, f, s, N)


def _operand_value(binding, factors, s):
    out = 1
    for f in factors:
        out *= _factor_value(binding, f, s)
    return out


def _conv_value(binding, node, s, N):
    """Burnside realization of a convolution node at group exponent s."""
    right = [_operand_value(binding, node.right, beta) for beta in range(N)]
    total = 0
    for alpha in range(N):
        va = _operand_value(binding, node.left, alpha)
        if va == 0:
            continue
        for beta, vb in enumerate(right):
            if vb == 0:
                continue
            total += binding.fermat_twisted(node.kind, N, alpha - s, beta - s) * va * vb
    return _average(total, N * N)


def bind_and_count(c, binding, s=0):
    """Exact rational realization of a symbolic class against a Binding.

    L evaluates to binding.q; atoms to twisted counts of their bound
    geometry; convolutions to the double Burnside sum; augmented parts to
    plain group averages.  s picks the group-twist component (0 = plain
    counts).
    """
    total = Fraction(0)
    for factors, aug_term, coeff in c.terms:
        cval = coeff.eval_at(binding.q)
        if aug_term:
            # Diagonal average over the joint group of the live factors.
            N = math.lcm(*(f.effective_order() for f in factors))
            tval = _average(sum(_operand_value(binding, factors, h) for h in range(N)), N)
        else:
            tval = _operand_value(binding, factors, s)
        total += cval * tval
    return total
