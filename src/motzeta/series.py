"""Multivariate formal series over the class algebra.

Two interchangeable shapes cover the calculus.  A TruncSeries is a
total-degree-truncated table of exponent -> coefficient entries; a
ClosedSeries is a finite sum of strands, each a coefficient times a
monomial times a product of open geometric factors
L^m X^n / (1 - L^m X^n).  Expansion converts closed to truncated exactly;
strand_fit finds the minimal recurrence of each residue of a counted stream
(Berlekamp-Massey) and closed_from_fit reads the closed form off one exact
solve for its numerator over the q-power denominator B the fit fixes.  Its
candidate strands come from the factorization of B (a shape divides B iff
it uses no root more often than B does), not from trial division, and the
closed form is validated by B's recurrence on the stream, not by expanding
it.

On top of the two shapes sit the operations the zeta machinery needs:
Hadamard products (coefficientwise, external or convolution flavored, and
the partial variant over a shared variable block), the limit functional on
monomial-free strand forms, ordered-cell decomposition of exponent space,
coefficient-base projection, and separable chain series carrying one
coefficient sequence per axis together with the forward and inverse chain
transforms that exchange strict-chain generating series with their
compressed normal forms.  expand_chains is the one walk over strict
chains: it expands a separable block, and every truncated zeta series of
zeta.py is its expansion over per-axis streams.

Coefficients are the values of a Realization (realize.py): SymbolicClass
over LocRat scalars, or Fraction over Fraction.  The code here touches them
only through their shared operators: + and - add, scalar * value is the
scalar action, value * value the external product, bool is false exactly on
zero (zero entries and strands are never stored) and str renders a value
for display and for CSV text.

JSON (series_to_json) carries the structure of each coefficient, not its
text: a counted one as the text of its Fraction, a symbolic one as its
terms, each with its factor trees (atoms with their order, base and mark;
convolutions with their kind and operands), its mark and its LocRat scalar
as numerator pairs [exp, coeff] and denominator factors.  Decoding goes
through the Atom, ConvNode, LocRat and SymbolicClass constructors, which
normalize.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from fractions import Fraction

from .egseq import EGSeq
from .errors import (
    BaseMismatch,
    FitFailed,
    MotzetaError,
    NotLimitNormal,
    VariableMismatch,
)
from .locring import L_MINUS_1, LaurentPoly, LocRat
from .motclass import Atom, ConvNode, SymbolicClass, augment, conv, conv0, conv1
from .realize import count_realization, symbolic_realization

def _L_pow(real, e):
    """Scalar image of the Tate power L^e (q^e under counting)."""
    return real.from_locrat(LocRat.L(e))


def _Lm1_pow(real, e):
    return real.from_locrat(L_MINUS_1) ** e


def _check_same_real(a, b):
    if a.real.tag != b.real.tag or a.real.q != b.real.q:
        raise BaseMismatch(
            "operands live over different realizations: %s vs %s"
            % (_real_name(a.real), _real_name(b.real))
        )


def _real_name(real):
    return real.tag if real.q is None else "%s at q=%d" % (real.tag, real.q)


def _check_same_shape(a, b):
    if a.vars != b.vars:
        raise VariableMismatch(
            "variable lists differ: %s vs %s" % (list(a.vars), list(b.vars))
        )
    _check_same_real(a, b)


# ---------------------------------------------------------------------------
# truncated tables
# ---------------------------------------------------------------------------


class TruncSeries:
    """Total-degree truncated series.

    Entries of total degree beyond the bound are dropped at construction
    (truncation is part of the data, not an error) and zero coefficients
    are never stored.
    """

    __slots__ = ("real", "vars", "bound", "entries")

    def __init__(self, real, vars, bound, entries=()):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise VariableMismatch("duplicate variable names: %s" % list(vars))
        bound = int(bound)
        if bound < 0:
            raise VariableMismatch("truncation bound must be >= 0, not %d" % bound)
        items = entries.items() if isinstance(entries, dict) else entries
        merged = {}
        for exp, val in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(vars):
                raise VariableMismatch(
                    "exponent %s does not match %d variables" % (list(exp), len(vars))
                )
            if any(e < 0 for e in exp):
                raise VariableMismatch("TruncSeries entries: exponent %s is negative" % (list(exp),))
            if sum(exp) > bound:
                continue
            merged[exp] = merged[exp] + val if exp in merged else val
        self.real = real
        self.vars = vars
        self.bound = bound
        self.entries = {e: v for e, v in merged.items() if v}

    def coeff(self, exp):
        exp = tuple(int(e) for e in exp)
        if len(exp) != len(self.vars):
            raise VariableMismatch("exponent arity %d, series arity %d" % (len(exp), len(self.vars)))
        return self.entries.get(exp, self.real.zero)

    def support(self):
        return sorted(self.entries)

    def is_zero(self):
        return not self.entries

    def add(self, other):
        _check_same_shape(self, other)
        bound = min(self.bound, other.bound)
        out = dict(self.entries)
        for e, v in other.entries.items():
            out[e] = out[e] + v if e in out else v
        return TruncSeries(self.real, self.vars, bound, out)

    def neg(self):
        return self.map_coeffs(operator.neg)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, s):
        return self.map_coeffs(lambda v: s * v)

    def map_coeffs(self, fn):
        return TruncSeries(
            self.real, self.vars, self.bound, {e: fn(v) for e, v in self.entries.items()}
        )

    def truncate(self, bound):
        return TruncSeries(self.real, self.vars, bound, self.entries)

    def permuted(self, order):
        """Reorder variables: position i of the result is variable order[i]."""
        order = tuple(order)
        if sorted(order) != list(range(len(self.vars))):
            raise VariableMismatch("not a permutation: %s" % (list(order),))
        vars2 = tuple(self.vars[i] for i in order)
        ent = {tuple(e[i] for i in order): v for e, v in self.entries.items()}
        return TruncSeries(self.real, vars2, self.bound, ent)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if (
            self.real.tag != other.real.tag
            or self.real.q != other.real.q
            or self.vars != other.vars
            or self.bound != other.bound
        ):
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(v == other.entries[e] for e, v in self.entries.items())

    def agrees_with(self, other, through=None):
        """Entrywise equality up to total degree `through` (default: the
        smaller bound)."""
        _check_same_shape(self, other)
        if through is None:
            through = min(self.bound, other.bound)
        keys = {e for e in self.entries if sum(e) <= through}
        keys |= {e for e in other.entries if sum(e) <= through}
        return all(self.coeff(e) == other.coeff(e) for e in keys)

    def __repr__(self):
        return "TruncSeries(vars=%s, bound=%d, %d entries)" % (
            list(self.vars),
            self.bound,
            len(self.entries),
        )


def extend_const(a, names):
    """Extend by directions the coefficients do not depend on.

    The result, over a.vars + names, has entry c at (e, u) for every u
    with total degree within the bound whenever a has entry c at e.
    """
    names = tuple(names)
    vars2 = a.vars + names
    if len(set(vars2)) != len(vars2):
        raise VariableMismatch("extension names collide with existing variables")
    k = len(names)
    ent = {}

    def tails(room):
        stack = [((), room)]
        while stack:
            prefix, rem = stack.pop()
            if len(prefix) == k:
                yield prefix
                continue
            for u in range(rem + 1):
                stack.append((prefix + (u,), rem - u))

    for e, v in a.entries.items():
        for tail in tails(a.bound - sum(e)):
            ent[e + tail] = v
    return TruncSeries(a.real, vars2, a.bound, ent)


def monomial_substitute(a, new_vars, images, bound=None):
    """Substitute each variable by a monomial in fresh variables.

    images[i] is the exponent vector over new_vars replacing variable i;
    exponents map linearly and colliding entries merge.
    """
    new_vars = tuple(new_vars)
    images = tuple(tuple(int(x) for x in img) for img in images)
    if len(images) != len(a.vars):
        raise VariableMismatch("need one image per variable")
    for img in images:
        if len(img) != len(new_vars):
            raise VariableMismatch("image arity does not match the new variables")
    if bound is None:
        bound = a.bound
    ent = {}
    for e, v in a.entries.items():
        out = [0] * len(new_vars)
        for i, ei in enumerate(e):
            for j, w in enumerate(images[i]):
                out[j] += ei * w
        key = tuple(out)
        if sum(key) > bound:
            continue
        ent[key] = ent[key] + v if key in ent else v
    return TruncSeries(a.real, new_vars, bound, ent)


# ---------------------------------------------------------------------------
# Hadamard products
# ---------------------------------------------------------------------------


def hadamard_ext(a, b):
    """Coefficientwise product, coefficients multiplying externally.

    Truncated operands multiply entrywise down to the smaller bound;
    closed operands must be sums of single-factor monomial-free strands,
    where the product is again such a strand (or zero when the two ray
    supports only share the origin).
    """
    return _hadamard(a, b, operator.mul)


def hadamard_conv(a, b, kind=None):
    """Coefficientwise product in the convolution flavor.

    kind None is the full convolution (kind 0 minus kind 1); 0 and 1 pick
    one flavor.  Needs class coefficients: counted values have already
    forgotten the action data a convolution depends on.
    """
    fn = {None: conv, 0: conv0, 1: conv1}.get(kind)
    if fn is None:
        raise MotzetaError("hadamard_conv kind must be None, 0 or 1, not %r" % (kind,))
    if a.real.tag != "symbolic":
        raise BaseMismatch(
            "hadamard_conv operands must have class coefficients, not %s" % _real_name(a.real)
        )
    return _hadamard(a, b, fn)


def _hadamard(a, b, mulfn):
    """Coefficientwise product with mulfn on coefficients: entrywise down
    to the smaller bound for truncated operands, by strands for closed
    ones (_closed_hadamard)."""
    if isinstance(a, ClosedSeries) and isinstance(b, ClosedSeries):
        return _closed_hadamard(a, b, mulfn)
    if isinstance(a, ClosedSeries) or isinstance(b, ClosedSeries):
        raise VariableMismatch(
            "Hadamard operands must both be closed or both truncated, not %s and %s; expand first"
            % (type(a).__name__, type(b).__name__)
        )
    _check_same_shape(a, b)
    bound = min(a.bound, b.bound)
    ent = {}
    for e, va in a.entries.items():
        if sum(e) > bound:
            continue
        vb = b.entries.get(e)
        if vb is not None:
            ent[e] = mulfn(va, vb)
    return TruncSeries(a.real, a.vars, bound, ent)


def _primitive(vec):
    from math import gcd

    g = 0
    for x in vec:
        g = gcd(g, x)
    return g, tuple(x // g for x in vec)


def _closed_hadamard(a, b, mulfn):
    _check_same_shape(a, b)
    from math import gcd

    out = []
    for sa in a.strands:
        for sb in b.strands:
            for s in (sa, sb):
                if any(s.b) or len(s.factors) != 1:
                    raise MotzetaError(
                        "closed Hadamard products cover single-factor "
                        "monomial-free strands, not %r; expand instead" % (s,)
                    )
            m1, n1 = sa.factors[0]
            m2, n2 = sb.factors[0]
            l1, p1 = _primitive(n1)
            l2, p2 = _primitive(n2)
            if p1 != p2:
                continue  # the two ray supports only meet at the origin
            lc = l1 * l2 // gcd(l1, l2)
            m = m1 * (lc // l1) + m2 * (lc // l2)
            nv = tuple(lc * x for x in p1)
            out.append(Strand(mulfn(sa.coeff, sb.coeff), (0,) * len(a.vars), [(m, nv)]))
    return ClosedSeries(a.real, a.vars, out)


def v_hadamard(a, b):
    """Partial Hadamard product over the variables the operands share.

    Variables are matched by name and must appear in the same relative
    order on both sides.  Coefficients multiply externally; the result is
    indexed by a's own variables, then b's own, then the shared block.
    With no shared names this is the external product of series; with all
    names shared it is the full Hadamard product.
    """
    _check_same_real(a, b)
    shared = tuple(v for v in a.vars if v in set(b.vars))
    if tuple(v for v in b.vars if v in set(a.vars)) != shared:
        raise VariableMismatch(
            "shared variables appear in different orders: %s" % (list(shared),)
        )
    a_only = tuple(i for i, v in enumerate(a.vars) if v not in set(shared))
    b_only = tuple(i for i, v in enumerate(b.vars) if v not in set(shared))
    a_shared = tuple(a.vars.index(v) for v in shared)
    b_shared = tuple(b.vars.index(v) for v in shared)
    vars2 = (
        tuple(a.vars[i] for i in a_only)
        + tuple(b.vars[i] for i in b_only)
        + shared
    )
    bound = min(a.bound, b.bound)
    b_by_key = {}
    for eb, vb in b.entries.items():
        key = tuple(eb[i] for i in b_shared)
        b_by_key.setdefault(key, []).append((tuple(eb[i] for i in b_only), vb))
    ent = {}
    for ea, va in a.entries.items():
        key_a = tuple(ea[i] for i in a_shared)
        head = tuple(ea[i] for i in a_only)
        for tail, vb in b_by_key.get(key_a, ()):
            exp = head + tail + key_a
            if sum(exp) > bound:
                continue
            v = va * vb
            ent[exp] = ent[exp] + v if exp in ent else v
    return TruncSeries(a.real, vars2, bound, ent)


# ---------------------------------------------------------------------------
# ordered cells
# ---------------------------------------------------------------------------


class CellSpec:
    """Ordered cell of exponent space: which axes are tied, and how the
    tied groups compare.

    order lists the axes group by group (ascending inside each group);
    breaks holds the cumulative group sizes.  The cell contains exactly
    the points whose axes, grouped by equal value in increasing value
    order, produce this grouping.
    """

    __slots__ = ("order", "breaks")

    def __init__(self, order, breaks):
        self.order = tuple(order)
        self.breaks = tuple(breaks)
        if sorted(self.order) != list(range(len(self.order))):
            raise MotzetaError(
                "CellSpec order: %s is not a permutation of the axes"
                % list(self.order)
            )
        if not self.breaks or self.breaks[-1] != len(self.order):
            raise MotzetaError(
                "CellSpec breaks: %s must end at the axis count %d"
                % (list(self.breaks), len(self.order))
            )
        prev = 0
        for b in self.breaks:
            if b <= prev:
                raise MotzetaError(
                    "CellSpec breaks: %s must be strictly increasing"
                    % list(self.breaks)
                )
            prev = b

    @classmethod
    def from_point(cls, exp):
        by_val = {}
        for i, x in enumerate(exp):
            by_val.setdefault(x, []).append(i)
        order = []
        breaks = []
        for val in sorted(by_val):
            order.extend(sorted(by_val[val]))
            breaks.append(len(order))
        return cls(order, breaks)

    def groups(self):
        out = []
        lo = 0
        for b in self.breaks:
            out.append(self.order[lo:b])
            lo = b
        return out

    def masks(self, nvars=None):
        """One 0/1 vector per group: the exponent contribution of the
        group's common value."""
        if nvars is None:
            nvars = len(self.order)
        out = []
        for grp in self.groups():
            m = [0] * nvars
            for i in grp:
                m[i] = 1
            out.append(tuple(m))
        return out

    def contains(self, exp):
        return CellSpec.from_point(exp) == self

    def __eq__(self, other):
        if not isinstance(other, CellSpec):
            return NotImplemented
        return self.order == other.order and self.breaks == other.breaks

    def __hash__(self):
        return hash((self.order, self.breaks))

    def __repr__(self):
        return "CellSpec(%s)" % " < ".join(
            " = ".join(str(i) for i in grp) for grp in self.groups()
        )


def cell_decompose(a):
    """Split a truncated series along the ordered cells of its support.

    The parts use the same variables and bound; they sum to the input and
    their supports partition it.
    """
    parts = {}
    for e, v in a.entries.items():
        spec = CellSpec.from_point(e)
        parts.setdefault(spec, {})[e] = v
    return {
        spec: TruncSeries(a.real, a.vars, a.bound, ent) for spec, ent in parts.items()
    }


# ---------------------------------------------------------------------------
# coefficient-base projection
# ---------------------------------------------------------------------------


def project(a, i):
    """Push the coefficients forward to factor i of a product base.

    Class coefficients are retagged onto the named factor (the class data
    itself is unchanged: pushforwards along projections keep the fiber
    classes).  Counted coefficients already carry total masses, so the
    projection is the identity on values.
    """
    if not isinstance(a, (TruncSeries, ClosedSeries)):
        raise MotzetaError("project expects a TruncSeries or ClosedSeries, not %s" % type(a).__name__)
    if a.real.tag == "count":
        return a
    base = a.real.zero.base
    parts = base.split("*")
    if not (0 <= i < len(parts)):
        raise BaseMismatch("base %r has no factor %d" % (base, i))
    real2 = symbolic_realization(parts[i])

    def retag(c):
        return SymbolicClass(c.terms, parts[i])

    if isinstance(a, TruncSeries):
        return TruncSeries(real2, a.vars, a.bound, {e: retag(v) for e, v in a.entries.items()})
    return ClosedSeries(
        real2,
        a.vars,
        [Strand(retag(s.coeff), s.b, s.factors) for s in a.strands],
    )


# ---------------------------------------------------------------------------
# closed (rational) forms
# ---------------------------------------------------------------------------


class Strand:
    """One rational building block:

        coeff * X^b * prod_j  L^{m_j} X^{n_j} / (1 - L^{m_j} X^{n_j})

    with every n_j a nonzero exponent vector.
    """

    __slots__ = ("coeff", "b", "factors")

    def __init__(self, coeff, b, factors):
        b = tuple(int(x) for x in b)
        if any(x < 0 for x in b):
            raise MotzetaError("Strand b: monomial exponent %s is negative" % list(b))
        fs = []
        for m, nv in factors:
            nv = tuple(int(x) for x in nv)
            if len(nv) != len(b):
                raise VariableMismatch("factor exponent arity differs from the monomial")
            if any(x < 0 for x in nv) or not any(nv):
                raise MotzetaError(
                    "Strand factors: exponent vector %s must be nonzero and "
                    "nonnegative" % list(nv)
                )
            fs.append((int(m), nv))
        fs.sort(key=lambda f: (f[1], f[0]))
        self.coeff = coeff
        self.b = b
        self.factors = tuple(fs)

    def key(self):
        return (self.b, self.factors)

    def __repr__(self):
        return "Strand(b=%s, factors=%s)" % (
            list(self.b),
            [(m, list(n)) for m, n in self.factors],
        )


class ClosedSeries:
    """Finite sum of strands over a fixed variable list."""

    __slots__ = ("real", "vars", "strands")

    def __init__(self, real, vars, strands=()):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise VariableMismatch("duplicate variable names: %s" % list(vars))
        merged = {}
        for s in strands:
            if len(s.b) != len(vars):
                raise VariableMismatch("strand arity differs from the variable list")
            k = s.key()
            merged[k] = merged[k] + s.coeff if k in merged else s.coeff
        out = []
        for k in sorted(merged):
            c = merged[k]
            if c:
                out.append(Strand(c, k[0], k[1]))
        self.real = real
        self.vars = vars
        self.strands = tuple(out)

    def is_zero(self):
        return not self.strands

    def add(self, other):
        _check_same_shape(self, other)
        return ClosedSeries(self.real, self.vars, self.strands + other.strands)

    def neg(self):
        return ClosedSeries(
            self.real,
            self.vars,
            [Strand(-s.coeff, s.b, s.factors) for s in self.strands],
        )

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, sc):
        return ClosedSeries(
            self.real,
            self.vars,
            [Strand(sc * s.coeff, s.b, s.factors) for s in self.strands],
        )

    def __eq__(self, other):
        if not isinstance(other, ClosedSeries):
            return NotImplemented
        if (
            self.real.tag != other.real.tag
            or self.real.q != other.real.q
            or self.vars != other.vars
            or len(self.strands) != len(other.strands)
        ):
            return False
        return all(
            sa.key() == sb.key() and sa.coeff == sb.coeff
            for sa, sb in zip(self.strands, other.strands)
        )

    def classify(self):
        """int / ssr / sr by the worst twist exponent of any open factor."""
        has_zero = False
        has_pos = False
        for s in self.strands:
            for m, _ in s.factors:
                if m > 0:
                    has_pos = True
                elif m == 0:
                    has_zero = True
        if has_pos:
            return "sr"
        if has_zero:
            return "ssr"
        return "int"

    def expand(self, bound):
        powers = {}  # mtot -> scalar of L^mtot, shared by the strands
        ent = {}
        for s in self.strands:
            for exp, val in _strand_terms(self.real, s, bound, powers):
                ent[exp] = ent[exp] + val if exp in ent else val
        return TruncSeries(self.real, self.vars, bound, ent)

    def __repr__(self):
        return "ClosedSeries(vars=%s, %d strands)" % (list(self.vars), len(self.strands))


def _strand_terms(real, strand, bound, powers):
    """Terms (exp, value) of one strand up to total degree bound; powers
    memoizes the scalars of L^mtot by mtot.  The exponents are walked
    factor by factor from an explicit stack, as in expand_chains."""
    out = []
    factors = strand.factors
    if sum(strand.b) > bound:
        return out
    stack = [(0, strand.b, 0)]
    while stack:
        i, exp, mtot = stack.pop()
        if i == len(factors):
            p = powers.get(mtot)
            if p is None:
                p = powers[mtot] = _L_pow(real, mtot)
            out.append((exp, p * strand.coeff))
            continue
        m, nv = factors[i]
        k = 1
        while True:
            exp2 = tuple(e + k * x for e, x in zip(exp, nv))
            if sum(exp2) > bound:
                break
            stack.append((i + 1, exp2, mtot + m * k))
            k += 1
    return out


def classify(s):
    """int / ssr / sr classification of a closed form."""
    return s.classify()


def lim_infty(a):
    """Value at infinity of a closed form along every variable at once.

    Defined on sums of monomial-free strands, where each open factor
    contributes -1; linear; a strand with a leftover monomial has no limit
    in this calculus.
    """
    if not isinstance(a, ClosedSeries):
        raise NotLimitNormal("the limit functional is defined on closed forms")
    total = a.real.zero
    for s in a.strands:
        num = sum(s.b) + sum(sum(n) for _, n in s.factors)
        den = sum(sum(n) for _, n in s.factors)
        if num > den:
            raise NotLimitNormal("strand with a leftover monomial has no limit: %r" % (s,))
        if num < den:
            continue
        total = total + (s.coeff if len(s.factors) % 2 == 0 else -s.coeff)
    return total


# ---------------------------------------------------------------------------
# fitting counted coefficient streams
# ---------------------------------------------------------------------------


def _q_valuation(q, n):
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def _q_log(q, x):
    """The integer k with x == q^k, or None when x is not a power of q."""
    x = Fraction(x)
    if x <= 0:
        return None
    k = _q_valuation(q, x.numerator) - _q_valuation(q, x.denominator)
    return k if x == Fraction(q) ** k else None


def _berlekamp_massey(s):
    """Shortest linear recurrence of the Fraction sequence s.

    Returns (C, L) with C = [1, c_1, .., c_L] such that
    s_n + c_1 s_{n-1} + .. + c_L s_{n-L} = 0 for every L <= n < len(s).
    """
    C, B = [Fraction(1)], [Fraction(1)]
    L, shift, b = 0, 1, Fraction(1)
    for n in range(len(s)):
        d = s[n] + sum(C[i] * s[n - i] for i in range(1, L + 1))
        if d == 0:
            shift += 1
            continue
        prev = list(C)
        C += [Fraction(0)] * (len(B) + shift - len(C))
        for i, x in enumerate(B):
            C[i + shift] -= d / b * x
        if 2 * L <= n:
            L, B, b, shift = n + 1 - L, prev, d, 1
        else:
            shift += 1
        C += [Fraction(0)] * (L + 1 - len(C))
    return C[: L + 1], L


def _q_power_roots(q, charpoly):
    """Roots q^k of a monic polynomial (highest coefficient first).

    Returns ({k: multiplicity}, cofactor left after dividing them out).
    Once denominators are cleared, the rational-root theorem bounds k
    between -v_q(leading coefficient) and v_q(lowest nonzero coefficient).
    """
    den = math.lcm(*(c.denominator for c in charpoly))
    ints = [int(c * den) for c in charpoly if c]
    roots = {}
    poly = list(charpoly)
    for k in range(-_q_valuation(q, ints[0]), _q_valuation(q, ints[-1]) + 1):
        rho = Fraction(q) ** k
        while len(poly) > 1:
            quo = [poly[0]]
            for c in poly[1:]:
                quo.append(c + rho * quo[-1])
            if quo.pop():
                break
            poly = quo
            roots[k] = roots.get(k, 0) + 1
    return roots, poly


def strand_fit(real, samples, period=1, dom_min=1, stable_from=None):
    """Exact per-residue exponential-polynomial fit of a counted stream.

    For each residue r mod period, Berlekamp-Massey over Q finds the minimal
    linear recurrence of the stable samples (n >= stable_from, consecutive);
    a recurrence of order L needs at least 2L+1 of them.  The roots of its
    characteristic polynomial must be powers of q, as the zeta series are
    rational with q-power poles: a root q^k of multiplicity d gives the mode
    ratio q^k with a t-polynomial of degree < d, and the L coefficients are
    solved from the first L samples.  Every supplied sample must be
    reproduced.  Otherwise FitFailed names the residue and what fell short.
    """
    if real.tag != "count":
        raise FitFailed("fitting runs over the count realization only")
    if stable_from is None:
        stable_from = dom_min
    q = real.q
    modes = []
    for r in range(period):
        ts = sorted(n // period for n in samples if n >= stable_from and n % period == r)
        if ts and ts[-1] - ts[0] + 1 != len(ts):
            raise FitFailed("residue %d: stable samples are not consecutive" % r)
        vals = [Fraction(samples[period * t + r]) for t in ts]
        conn, order = _berlekamp_massey(vals)
        if len(vals) < 2 * order + 1:
            raise FitFailed(
                "residue %d: recurrence of order %d needs %d stable samples, has %d"
                % (r, order, 2 * order + 1, len(vals))
            )
        roots, rest = _q_power_roots(q, conn)
        if len(rest) > 1:
            terms = ("(%s)z^%d" % (c, order - i) for i, c in enumerate(conn) if c)
            raise FitFailed(
                "residue %d: characteristic polynomial %s has roots that are not powers of q=%d"
                % (r, " + ".join(terms), q)
            )
        basis = [(Fraction(q) ** k, e) for k, d in sorted(roots.items()) for e in range(d)]
        sol = _solve_exact([[rho**t * t**e for rho, e in basis] for t in ts[:order]], vals[:order])
        res_modes = {}
        for (rho, e), c in zip(basis, sol):
            res_modes.setdefault(rho, []).append(c)
        modes.append(list(res_modes.items()))
    exc = {n: v for n, v in samples.items() if n < stable_from}
    fitted = EGSeq(real, period, modes, exc, dom_min, stable_from)
    checked = sorted(n for n in samples if n >= dom_min)
    if checked:
        values = fitted.values(checked[0], checked[-1])
        for n in checked:
            if values[n - checked[0]] != samples[n]:
                raise FitFailed("the fit disagrees with the sample at n=%d" % n)
    return fitted


def _pmul(a, b):
    """Product of polynomials given lowest coefficient first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _q_binomials(q, Q, powers):
    """prod_mu (1 - q^mu T^Q)^powers[mu], lowest coefficient first."""
    out = [Fraction(1)]
    for mu, k in powers.items():
        factor = [Fraction(1)] + [Fraction(0)] * (Q - 1) + [-Fraction(q) ** mu]
        for _ in range(k):
            out = _pmul(out, factor)
    return out


def _strand_candidates(q, Q, mult):
    """The candidate strands over B = prod_mu (1 - q^mu T^Q)^mult[mu], each
    with its numerator B * prod L^m T^N/(1 - L^m T^N), lowest coefficient
    first, len(B) entries.

    The open factors are the (m, N) with N | Q and mu = m Q / N in mult; the
    shapes are each factor, then each pair.  The roots of 1 - q^m T^N are
    simple roots of 1 - q^mu T^Q, and every factor with that mu shares the
    root T = q^(-mu/Q), so B / prod(shape) is a polynomial iff the shape uses
    no mu more than mult[mu] times.  Then it is
    prod_mu (1 - q^mu T^Q)^(mult[mu] - used[mu]) times, per factor,
    sum_{t < Q/N} q^(m t) T^(N t).
    """
    steps = [N for N in range(1, Q + 1) if Q % N == 0]
    factors = sorted({(mu * N // Q, N) for mu in mult for N in steps if mu * N % Q == 0})
    shapes = [(f,) for f in factors]
    shapes += [(f1, f2) for i, f1 in enumerate(factors) for f2 in factors[i:]]
    rests = {}  # the powers left of B -> their product
    cands = []
    for shape in shapes:
        left = dict(mult)
        for m, N in shape:
            left[m * Q // N] -= 1
        if min(left.values()) < 0:
            continue
        key = tuple(sorted(left.items()))
        if key not in rests:
            rests[key] = _q_binomials(q, Q, left)
        quo = rests[key]
        for m, N in shape:
            geo = [Fraction(0)] * (Q - N + 1)
            for t in range(Q // N):
                geo[N * t] = Fraction(q) ** (m * t)
            quo = _pmul(quo, geo)
        scale = Fraction(q) ** sum(m for m, _ in shape)
        cands.append((shape, [Fraction(0)] * sum(N for _, N in shape) + [scale * c for c in quo]))
    return cands


def closed_from_fit(seq, var="T"):
    """Recover a validated closed form from a fitted counted stream.

    Every mode ratio must be a power q^mu.  With k_mu its largest
    multiplicity (t-degree + 1) over the residues and Q the period, the
    stream is P(T)/B(T) with B = prod (1 - q^mu T^Q)^{k_mu}.  The open
    factors L^m T^N/(1 - L^m T^N) are fixed by the data: N | Q and
    m = mu N/Q.  The candidate strands are each such factor and each pair
    whose denominator divides B (_strand_candidates reads that, and each
    numerator B * prod x/(1-x), off the factorization of B); one exact solve
    matches them against (sum a_n T^n) * B truncated at deg B.  P/B then
    agrees with the stream below len(B), and past it wherever the stream
    keeps B's recurrence a_n + sum_{j>=1} B_j a_{n-j} = 0.  That is checked
    well past the stable threshold; FitFailed names the first n that breaks
    it and lists the candidate strands it solved over.
    """
    real = seq.real
    if real.tag != "count":
        raise FitFailed("closed-form recovery runs over the count realization")
    if seq.dom_min > 1:
        raise FitFailed("closed-form recovery needs the stream from n=1, not n=%d" % seq.dom_min)
    q = real.q
    Q = seq.period
    mult = {}
    for r in range(Q):
        for ratio, coeffs in seq.modes[r]:
            mu = _q_log(q, ratio)
            if mu is None:
                raise FitFailed("mode ratio %s is not a power of q=%d" % (ratio, q))
            mult[mu] = max(mult.get(mu, 0), len(coeffs))

    B = _q_binomials(q, Q, mult)
    cands = _strand_candidates(q, Q, mult)
    tried = "; ".join("x".join("(%d, %d)" % f for f in shape) for shape, _ in cands)

    hi = max(8 * Q, seq.stable_start + 4 * Q, 16)
    a = [real.zero] + seq.values(1, max(hi, len(B) - 1))  # a[n] is a_n
    terms = [(j, c) for j, c in enumerate(B) if c]
    target = [sum(c * a[n - j] for j, c in terms if j <= n) for n in range(len(B))]
    sol = _solve_exact([[num[j] for _, num in cands] for j in range(len(B))], target)
    if sol is None:
        raise FitFailed(
            "stream numerator is not a combination of the candidate strands (m, N): %s" % tried
        )
    for n in range(len(B), hi + 1):
        if sum(c * a[n - j] for j, c in terms):
            raise FitFailed(
                "reconstruction over the candidate strands (m, N) %s disagrees "
                "with the stream at n=%d" % (tried, n)
            )
    return ClosedSeries(
        real,
        (var,),
        [Strand(c, (0,), [(m, (N,)) for m, N in shape]) for c, (shape, _) in zip(sol, cands) if c],
    )


def _solve_exact(rows, rhs):
    """Particular solution of rows * x = rhs over Fractions, or None.

    Gauss-Jordan: a pivot row is zero left of its pivot column, so only its
    nonzero entries from there on are scaled and eliminated with."""
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        prow = aug[r]
        pv = prow[col]
        live = [j for j in range(col, n + 1) if prow[j]]
        for j in live:
            prow[j] /= pv
        for i, row in enumerate(aug):
            f = row[col]
            if i != r and f:
                for j in live:
                    row[j] -= f * prow[j]
        pivots.append(col)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


# ---------------------------------------------------------------------------
# separable chain series
# ---------------------------------------------------------------------------


def expand_chains(real, vars, masks, streams, bound):
    """Truncated table through total degree bound of the chain series whose
    coefficient at the strictly increasing axis values w_1 < .. < w_eta is
    the ordered product of streams[j].value(w_j), at the exponent
    sum_j w_j * masks[j].

    A stream needs only value(w) and dom_min: an EGSeq, or a counted
    stream.  The admissible points are walked axis by axis, from an
    explicit stack (a self-recursive closure would be a reference cycle
    that keeps the streams alive until the next garbage collection).  A
    stream's value at w does not depend on the chain prefix, so each
    stream is evaluated once per w, into tables local to this call, and a
    zero value skips the whole subtree below it: every product there is
    zero.
    """
    eta = len(streams)
    weights = [sum(m) for m in masks]
    tables = [{} for _ in range(eta)]
    ent = {}
    stack = [(0, 0, (0,) * len(vars), None)]
    while stack:
        j, wprev, exp, val = stack.pop()
        if j == eta:
            ent[exp] = ent[exp] + val if exp in ent else val
            continue
        stream, table = streams[j], tables[j]
        w = max(stream.dom_min, wprev + 1)
        while True:
            exp2 = tuple(e + w * x for e, x in zip(exp, masks[j]))
            # the cheapest completion: every later axis one step above the last
            if sum(exp2) + sum(weights[i] * (w + i - j) for i in range(j + 1, eta)) > bound:
                break
            v = table.get(w)
            if v is None:
                v = table[w] = stream.value(w)
            if v:
                stack.append((j + 1, w, exp2, v if val is None else val * v))
            w += 1
    return TruncSeries(real, vars, bound, ent)


class SeparableSeries:
    """Sum-free separable block over a chain: the coefficient at an
    admissible exponent is the ordered external product of one stream
    value per axis.

    The axis values (w_1, .., w_eta) are strictly increasing positive
    integers.  masks[j] converts axis value w_j into output exponents: the
    exponent of a point is sum_j w_j * masks[j].  The chain transforms read
    each later axis through its action-forgetting companion: the plain
    classes of a symbolic stream, or a counted stream itself, since counted
    values carry no action data; so a counted later axis must be
    action-free, as order-beyond streams and phi/phi_inv outputs are.
    """

    __slots__ = ("real", "vars", "masks", "streams")

    def __init__(self, real, vars, masks, streams):
        vars = tuple(vars)
        masks = tuple(tuple(int(x) for x in m) for m in masks)
        streams = tuple(streams)
        if not streams:
            raise MotzetaError("SeparableSeries streams: need at least one stream")
        if len(masks) != len(streams):
            raise MotzetaError(
                "SeparableSeries masks: %d masks for %d streams"
                % (len(masks), len(streams))
            )
        for m in masks:
            if len(m) != len(vars):
                raise VariableMismatch("mask arity differs from the variable list")
            if not any(m) or any(x < 0 for x in m):
                raise MotzetaError(
                    "SeparableSeries masks: %s must be nonzero and nonnegative"
                    % list(m)
                )
        self.real = real
        self.vars = vars
        self.masks = masks
        self.streams = streams

    def expand(self, bound):
        """Truncated table of the block through total degree bound."""
        return expand_chains(self.real, self.vars, self.masks, self.streams, bound)

    def phi(self):
        """Forward chain transform, normalizing a strict chain into
        compressed per-axis data: the first axis is rescaled by
        (L-1)^(1-eta) and every later axis becomes the backward difference
        of its action-forgetting companion."""
        return self._transformed(1 - len(self.streams), lambda a: a.shift(-1).sub(a))

    def phi_inv(self):
        """Inverse chain transform: the first axis is rescaled by
        (L-1)^(eta-1) and every later axis becomes the open tail sum of
        its action-forgetting companion.  Inverts phi on chains whose
        later-axis companions decay (no ratio-1 part); a non-decaying
        companion raises TailNotSummable."""
        return self._transformed(len(self.streams) - 1, EGSeq.tail_sum)

    def _transformed(self, k, later):
        """The first axis times (L-1)^k, every later axis later() of its
        action-forgetting companion; a one-axis block is its own image."""
        if len(self.streams) == 1:
            return self
        first = self.streams[0].scale(_Lm1_pow(self.real, k))
        rest = [
            later(seq.map_values(augment) if self.real.tag == "symbolic" else seq)
            for seq in self.streams[1:]
        ]
        return SeparableSeries(self.real, self.vars, self.masks, [first] + rest)

    def __repr__(self):
        return "SeparableSeries(vars=%s, axes=%d)" % (list(self.vars), len(self.streams))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _real_to_dict(real):
    if real.tag == "count":
        return {"tag": "count", "q": real.q}
    return {"tag": "symbolic", "base": real.zero.base}


def _require_keys(d, where, *keys):
    """Refuse a serialized dict that lacks one of keys, naming it."""
    if not isinstance(d, dict):
        raise MotzetaError("%s: expected a dict, not %r" % (where, d))
    for k in keys:
        if k not in d:
            raise MotzetaError("%s: the dict has no %r" % (where, k))


def _real_from_dict(d):
    _require_keys(d, "series_from_dict realization", "tag")
    if d["tag"] == "count":
        _require_keys(d, "series_from_dict realization", "q")
        return count_realization(d["q"])
    if d["tag"] != "symbolic":
        raise MotzetaError(
            "series_from_dict realization: tag must be 'count' or 'symbolic', "
            "not %r" % d["tag"]
        )
    return symbolic_realization(d.get("base", "pt"))


def _class_to_data(c):
    """The terms of a symbolic class as JSON data: factor trees, marks and
    LocRat scalars, so that decoding needs no text grammar."""
    return [
        {
            "factors": [_factor_to_data(f) for f in factors],
            "aug": aug,
            "coeff": {"num": sorted([e, v] for e, v in sc.num.c.items()), "den": list(sc.den)},
        }
        for factors, aug, sc in c.terms
    ]


def _factor_to_data(f):
    if isinstance(f, ConvNode):
        return {
            "conv": f.kind,
            "left": [_factor_to_data(x) for x in f.left],
            "right": [_factor_to_data(x) for x in f.right],
            "aug": f.aug,
        }
    return {"atom": f.name, "order": f.order, "base": f.base, "aug": f.aug}


def _list_field(d, where, key):
    v = d[key]
    if not isinstance(v, list):
        raise MotzetaError("%s: %r must be a list, not %r" % (where, key, v))
    return v


def _class_from_data(terms, base):
    out = []
    for t in terms:
        _require_keys(t, "series_from_dict term", "factors", "aug", "coeff")
        c = t["coeff"]
        _require_keys(c, "series_from_dict coeff", "num", "den")
        try:
            num = LaurentPoly({int(e): int(v) for e, v in c["num"]})
            den = [int(n) for n in c["den"]]
        except (TypeError, ValueError):
            raise MotzetaError(
                "series_from_dict coeff: num must list [exp, coeff] integer pairs "
                "and den integers, not %r" % (c,)
            ) from None
        factors = _list_field(t, "series_from_dict term", "factors")
        out.append((tuple(_factor_from_data(f) for f in factors), bool(t["aug"]), LocRat(num, den)))
    return SymbolicClass(out, base)


def _factor_from_data(d):
    if isinstance(d, dict) and "conv" in d:
        _require_keys(d, "series_from_dict conv", "left", "right", "aug")
        if d["conv"] not in (0, 1):
            raise MotzetaError("series_from_dict conv: kind must be 0 or 1, not %r" % (d["conv"],))
        left, right = (
            [_factor_from_data(x) for x in _list_field(d, "series_from_dict conv", k)]
            for k in ("left", "right")
        )
        return ConvNode(d["conv"], left, right, d["aug"])
    _require_keys(d, "series_from_dict atom", "atom", "order", "base", "aug")
    if not isinstance(d["order"], int) or d["order"] < 1:
        raise MotzetaError("series_from_dict atom: order must be an integer >= 1, not %r" % (d["order"],))
    return Atom(d["atom"], d["order"], d["base"], d["aug"])


def _fraction_from_data(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise MotzetaError("series_from_dict coeff: %r is not a fraction" % (text,)) from None


def series_to_dict(s):
    """JSON data of a series.  A counted coefficient is the text of its
    Fraction; a symbolic one is its list of terms (_class_to_data)."""
    if not isinstance(s, (TruncSeries, ClosedSeries)):
        raise MotzetaError("series_to_dict expects a TruncSeries or ClosedSeries, not %s" % type(s).__name__)
    enc = str if s.real.tag == "count" else _class_to_data
    d = {
        "vars": list(s.vars),
        "realization": _real_to_dict(s.real),
    }
    if isinstance(s, TruncSeries):
        d["mode"] = "trunc"
        d["bound"] = s.bound
        d["entries"] = [
            {"exp": list(e), "coeff": enc(s.entries[e])} for e in sorted(s.entries)
        ]
        return d
    d["mode"] = "closed"
    d["strands"] = [
        {
            "coeff": enc(st.coeff),
            "b": list(st.b),
            "factors": [{"m": m, "n": list(n)} for m, n in st.factors],
        }
        for st in s.strands
    ]
    return d


def series_from_dict(d):
    _require_keys(d, "series_from_dict", "realization", "vars", "mode")
    if d["mode"] not in ("trunc", "closed"):
        raise MotzetaError(
            "series_from_dict mode: must be 'trunc' or 'closed', not %r" % d["mode"]
        )
    real = _real_from_dict(d["realization"])
    vars = tuple(d["vars"])

    def coeff(e, where):
        if real.tag == "count":
            return _fraction_from_data(e["coeff"])
        return _class_from_data(_list_field(e, where, "coeff"), real.zero.base)

    if d["mode"] == "trunc":
        _require_keys(d, "series_from_dict", "bound", "entries")
        entries = {}
        for e in d["entries"]:
            _require_keys(e, "series_from_dict entries", "exp", "coeff")
            entries[tuple(e["exp"])] = coeff(e, "series_from_dict entries")
        return TruncSeries(real, vars, d["bound"], entries)
    _require_keys(d, "series_from_dict", "strands")
    strands = []
    for st in d["strands"]:
        _require_keys(st, "series_from_dict strands", "coeff", "b", "factors")
        for f in st["factors"]:
            _require_keys(f, "series_from_dict factors", "m", "n")
        strands.append(
            Strand(
                coeff(st, "series_from_dict strands"),
                tuple(st["b"]),
                [(f["m"], tuple(f["n"])) for f in st["factors"]],
            )
        )
    return ClosedSeries(real, vars, strands)


def series_to_json(s):
    return json.dumps(series_to_dict(s), sort_keys=True, separators=(",", ": "), indent=1)


def series_from_json(text):
    return series_from_dict(json.loads(text))


def series_to_csv(s):
    """CSV table of a truncated series: one row per entry, exponents then
    the rendered coefficient.  Closed forms should be expanded first."""
    if not isinstance(s, TruncSeries):
        raise MotzetaError(
            "series_to_csv covers truncated series, not %s; expand closed forms first"
            % type(s).__name__
        )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(s.vars) + ["coeff"])
    for e in sorted(s.entries):
        w.writerow(list(e) + [str(s.entries[e])])
    return buf.getvalue()
