"""Multivariate formal series over the class algebra.

Two interchangeable shapes cover the calculus.  A TruncSeries is a
total-degree-truncated table of exponent -> coefficient entries; a
ClosedSeries is a finite sum of strands, each a coefficient times a
monomial times a product of open geometric factors
L^m X^n / (1 - L^m X^n).  Expansion converts closed to truncated exactly;
strand_fit finds the minimal recurrence of each residue of a counted stream
(fraction-free Berlekamp-Massey on the stream scaled to integers) and
closed_from_fit reads the closed form off one exact solve for its
numerator over the q-power denominator B the fit fixes.  Its candidate
strands come from the factorization of B (a shape divides B iff it uses
no root more often than B does), not from trial division, and the closed
form needs no check by expansion: the fitted modes keep B's recurrence.

On top of the two shapes sit the operations the zeta machinery needs:
Hadamard products (coefficientwise, external or convolution flavored, and
the partial variant over a shared variable block), the limit functional on
monomial-free strand forms, ordered-cell decomposition of exponent space,
coefficient-base projection, and separable chain series carrying one
coefficient sequence per axis together with the forward and inverse chain
transforms that exchange strict-chain generating series with their
compressed normal forms.  expand_chains is the one walk over strict
chains: it expands a separable block, and every truncated zeta series of
zeta.py is its expansion over per-axis streams.  The walk and the Hadamard
join multiply each distinct pair of coefficient objects once per call: the
walk holds a run of equal stream values as one object, so the step-function
streams of later axes (L^{-floor(n/a)}) repeat operand pairs, and a memo
local to the call, keyed by the ids of both operands, computes each pair
once.  Entries may therefore share their (immutable) coefficient objects.

Coefficients are the values of a Realization (realize.py): SymbolicClass
over LocRat scalars, or Fraction over Fraction.  The code here touches them
only through their shared operators: + and - add, scalar * value is the
scalar action, value * value the external product, bool is false exactly on
zero (zero entries and strands are never stored) and str renders a value
for display.

JSON (series_to_json) carries the structure of each coefficient, not its
text: a counted one as the text of its Fraction, a symbolic one as its
terms, each with its factor trees (atoms with their order, base and mark;
convolutions with their kind and operands), its mark and its LocRat scalar
as numerator pairs [exp, coeff] and denominator factors.  Decoding goes
through the Atom, ConvNode, LocRat and SymbolicClass constructors, which
normalize.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from numbers import Rational

from .egseq import EGSeq
from .errors import (
    BaseMismatch,
    FitFailed,
    MotzetaError,
    NotLimitNormal,
    VariableMismatch,
    require_choice,
    require_int,
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


def _checked_vars(vars, who):
    """vars as a tuple of distinct names, each a str; VariableMismatch
    naming who and the value refused otherwise."""
    if not isinstance(vars, (list, tuple)):
        raise VariableMismatch("%s vars: need a list or tuple of names, not %r" % (who, vars))
    for v in vars:
        if not isinstance(v, str):
            raise VariableMismatch("%s vars: a variable name must be a str, not %r" % (who, v))
    if len(set(vars)) != len(vars):
        raise VariableMismatch("duplicate variable names: %s" % list(vars))
    return tuple(vars)


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
        vars = _checked_vars(vars, "TruncSeries")
        require_int(bound, "truncation bound", 0, VariableMismatch)
        items = entries.items() if isinstance(entries, dict) else entries
        merged = {}
        for exp, val in items:
            exp = tuple(require_int(e, "TruncSeries entries: exponent", 0, VariableMismatch) for e in exp)
            if len(exp) != len(vars):
                raise VariableMismatch(
                    "exponent %s does not match %d variables" % (list(exp), len(vars))
                )
            if sum(exp) > bound:
                continue
            merged[exp] = merged[exp] + val if exp in merged else val
        self.real = real
        self.vars = vars
        self.bound = bound
        self.entries = {e: v for e, v in merged.items() if v}

    def coeff(self, exp):
        exp = tuple(require_int(e, "TruncSeries coeff: exponent", error=VariableMismatch) for e in exp)
        if len(exp) != len(self.vars):
            raise VariableMismatch("exponent arity %d, series arity %d" % (len(exp), len(self.vars)))
        return self.entries.get(exp, self.real.zero)

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
    images = tuple(
        tuple(require_int(x, "monomial_substitute images: exponent", error=VariableMismatch) for x in img)
        for img in images
    )
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
    require_choice("hadamard_conv kind", kind, (None, 0, 1))
    if a.real.tag != "symbolic":
        raise BaseMismatch(
            "hadamard_conv operands must have class coefficients, not %s" % _real_name(a.real)
        )
    return _hadamard(a, b, {None: conv, 0: conv0, 1: conv1}[kind])


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
    return _join(a, b, mulfn)


def _closed_hadamard(a, b, mulfn):
    _check_same_shape(a, b)
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
            l1, l2 = math.gcd(*n1), math.gcd(*n2)
            p1 = tuple(x // l1 for x in n1)
            if p1 != tuple(x // l2 for x in n2):
                continue  # the two ray supports only meet at the origin
            lc = math.lcm(l1, l2)
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
    return _join(a, b, operator.mul)


def _join(a, b, mulfn):
    """The partial Hadamard product of v_hadamard with mulfn on
    coefficients, down to the smaller bound; on equal variable lists it
    is the full product, over the same variables in the same order.

    mulfn runs once per pair of operand objects: a memo local to the call,
    keyed by the ids of both and holding both (so no id is reused while
    it runs), serves the repeats.  Operands built by expand_chains share
    the objects of equal coefficients, so a repeated pair is computed once."""
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
    products = {}
    ent = {}
    for ea, va in a.entries.items():
        key_a = tuple(ea[i] for i in a_shared)
        head = tuple(ea[i] for i in a_only)
        for tail, vb in b_by_key.get(key_a, ()):
            exp = head + tail + key_a
            if sum(exp) > bound:
                continue
            memo = products.get((id(va), id(vb)))
            if memo is None:
                memo = products[id(va), id(vb)] = (va, vb, mulfn(va, vb))
            v = memo[2]
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

    def masks(self):
        """One 0/1 vector per group: the exponent contribution of the
        group's common value."""
        out = []
        for grp in self.groups():
            m = [0] * len(self.order)
            for i in grp:
                m[i] = 1
            out.append(tuple(m))
        return out

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
        b = tuple(require_int(x, "Strand b: monomial exponent", 0) for x in b)
        fs = []
        for m, nv in factors:
            nv = tuple(require_int(x, "Strand factors: exponent") for x in nv)
            if len(nv) != len(b):
                raise VariableMismatch("factor exponent arity differs from the monomial")
            if any(x < 0 for x in nv) or not any(nv):
                raise MotzetaError(
                    "Strand factors: exponent vector %s must be nonzero and "
                    "nonnegative" % list(nv)
                )
            fs.append((require_int(m, "Strand factors: L exponent m"), nv))
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
        vars = _checked_vars(vars, "ClosedSeries")
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


def _q_pow(q, e):
    """q^e exactly: an int for e >= 0, a Fraction below."""
    return q**e if e >= 0 else Fraction(1, q**-e)


def _berlekamp_massey(s):
    """Shortest linear recurrence of the integer sequence s, fraction-free.

    Returns (C, L), C = [c_0, .., c_L] of content 1 with c_0 > 0, such that
    c_0 s_n + .. + c_L s_{n-L} = 0 for L <= n < len(s); C / c_0 is the
    connection polynomial over Q.  Massey's update is taken times the
    discrepancy b of B, C <- b C - d x^shift B, then divided by its content.
    Scaling s by a constant, or by lambda^n (C(x) -> C(lambda x)), keeps L,
    and C too once 2L <= len(s), where the recurrence is unique.
    """
    C, B = [1], [1]
    L, shift, b = 0, 1, 1
    for n in range(len(s)):
        d = sum(C[i] * s[n - i] for i in range(L + 1))
        if d == 0:
            shift += 1
            continue
        prev = C
        C = [b * x for x in C] + [0] * (len(B) + shift - len(C))
        for i, x in enumerate(B):
            C[i + shift] -= d * x
        g = math.gcd(*C)
        if C[0] < 0:
            g = -g
        C = [x // g for x in C]
        if 2 * L <= n:
            L, B, b, shift = n + 1 - L, prev, d, 1
        else:
            shift += 1
        C += [0] * (L + 1 - len(C))
    return C[: L + 1], L


def _divide_root(poly, a, b):
    """poly / (b z - a) for an integer polynomial (highest coefficient
    first) and coprime a, b, or None when b z - a does not divide it (a
    quotient by a primitive divisor has integer coefficients)."""
    quo, carry = [], 0
    for c in poly[:-1]:
        carry, rem = divmod(c + a * carry, b)
        if rem:
            return None
        quo.append(carry)
    return quo if poly[-1] + a * carry == 0 else None


def _q_power_roots(q, charpoly):
    """Roots q^k of an integer polynomial (highest coefficient first).

    Returns ({k: multiplicity}, cofactor left after dividing them out).
    The rational-root theorem bounds k between -v_q(leading coefficient)
    and v_q(lowest nonzero coefficient).
    """
    ends = [c for c in charpoly if c]
    roots = {}
    poly = list(charpoly)
    for k in range(-_q_valuation(q, ends[0]), _q_valuation(q, ends[-1]) + 1):
        a, b = (q**k, 1) if k >= 0 else (1, q**-k)
        while len(poly) > 1:
            quo = _divide_root(poly, a, b)
            if quo is None:
                break
            poly = quo
            roots[k] = roots.get(k, 0) + 1
    return roots, poly


def _mode_values(q, modes, t0, t1):
    """[sum over modes (k, (c_0, ..)) of sum_e c_e t^e q^(k t) for t in t0..t1],
    each q^(k t) stepped by one multiplication."""
    pw = [_q_pow(q, k * t0) for k, _ in modes]
    steps = [_q_pow(q, k) for k, _ in modes]
    out = []
    for t in range(t0, t1 + 1):
        out.append(sum(p * sum(c * t**e for e, c in enumerate(cs)) for p, (_, cs) in zip(pw, modes)))
        pw = [p * s for p, s in zip(pw, steps)]
    return out


def strand_fit(real, samples, period=1):
    """Exact per-residue exponential-polynomial fit of a counted stream.

    The samples are indexed by n >= 1 (an index that is not such an int is
    refused), and the fit holds at every n >= 1.  For each residue r mod
    period, Berlekamp-Massey finds the minimal linear recurrence of its
    samples, which must be consecutive; a recurrence of order L needs at
    least 2L+1 of them.  The roots of its characteristic polynomial must
    be powers of q, as the zeta series are rational with q-power poles: a
    root q^k of multiplicity d gives the mode ratio q^k with a t-polynomial
    of degree < d, and the L coefficients are solved from the first L
    samples.  Every supplied sample must be reproduced.  Otherwise
    FitFailed names the residue and what fell short.

    It runs on integers: in residue r the samples are scaled to
    a_n q^(c n) m_r, with c >= 0 the least exponent clearing q from every
    denominator at n >= 1 and m_r the denominator left.  That multiplies
    each root by q^(c period) and keeps the recurrence (unique with 2L+1
    samples), so BM, the roots, the solve and the sample check run on the
    scaled stream, and only the final modes are scaled back.
    """
    if real.tag != "count":
        raise FitFailed("fitting runs over the count realization only")
    require_int(period, "strand_fit period", 1)
    for n, v in samples.items():
        require_int(n, "strand_fit sample index", 1)
        if not isinstance(v, Rational):
            raise MotzetaError("strand_fit sample at n=%r is not a rational number: %r" % (n, v))
    q = real.q
    c = 0
    for n in samples:
        while samples[n].denominator % q ** (c * n + 1) == 0:
            c += 1
    lam = c * period  # each scaled root is q^(k + lam)
    modes = []
    for r in range(period):
        ts = sorted(n // period for n in samples if n % period == r)
        if ts and ts[-1] - ts[0] + 1 != len(ts):
            raise FitFailed("residue %d: samples are not consecutive" % r)
        scaled = [samples[period * t + r] * _q_pow(q, c * (period * t + r)) for t in ts]
        m = math.lcm(*(x.denominator for x in scaled))
        vals = [x.numerator * (m // x.denominator) for x in scaled]
        conn, order = _berlekamp_massey(vals)
        if len(vals) < 2 * order + 1:
            raise FitFailed(
                "residue %d: recurrence of order %d needs %d samples, has %d"
                % (r, order, 2 * order + 1, len(vals))
            )
        roots, rest = _q_power_roots(q, conn)
        if len(rest) > 1:
            terms = (
                "(%s)z^%d" % (Fraction(x, conn[0] * q ** (lam * i)), order - i)
                for i, x in enumerate(conn)
                if x
            )
            raise FitFailed(
                "residue %d: characteristic polynomial %s has roots that are not powers of q=%d"
                % (r, " + ".join(terms), q)
            )
        basis = [(k, e) for k, d in sorted(roots.items()) for e in range(d)]
        sol = _solve_exact([[_q_pow(q, k * t) * t**e for k, e in basis] for t in ts[:order]], vals[:order])
        res = {}
        for (k, _), x in zip(basis, sol):
            res.setdefault(k, []).append(x)
        den = math.lcm(*(x.denominator for x in sol))
        ints = [(k, [x.numerator * (den // x.denominator) for x in xs]) for k, xs in res.items()]
        for t, v, fit in zip(ts, vals, _mode_values(q, ints, ts[0], ts[-1])):
            if fit != den * v:
                raise FitFailed("the fit disagrees with the sample at n=%d" % (period * t + r))
        back = m * q ** (c * r)
        modes.append([(Fraction(q) ** (k - lam), [x / back for x in xs]) for k, xs in res.items()])
    return EGSeq(real, period, modes)


def _pmul(a, b):
    """Product of integer polynomials given lowest coefficient first."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _q_binomials(q, Q, powers):
    """prod_mu (1 - q^mu T^Q)^powers[mu] for mu >= 0, lowest coefficient
    first."""
    out = [1]
    for mu, k in powers.items():
        factor = [1] + [0] * (Q - 1) + [-(q**mu)]
        for _ in range(k):
            out = _pmul(out, factor)
    return out


def _strand_candidates(q, Q, mult, c):
    """The candidate strands over B = prod_mu (1 - q^mu T^Q)^mult[mu], each
    with its numerator B * prod L^m T^N/(1 - L^m T^N) at q^c T, lowest
    coefficient first, len(B) integer entries.

    The open factors are the (m, N) with N | Q and mu = m Q / N in mult; the
    shapes are each factor, then each pair.  The roots of 1 - q^m T^N are
    simple roots of 1 - q^mu T^Q, and every factor with that mu shares the
    root T = q^(-mu/Q), so B / prod(shape) is a polynomial iff the shape uses
    no mu more than mult[mu] times.  Then it is
    prod_mu (1 - q^mu T^Q)^(mult[mu] - used[mu]) times, per factor,
    sum_{t < Q/N} q^(m t) T^(N t).  At q^c T every exponent mu becomes
    mu + c Q and every m becomes m + c N = N (mu + c Q) / Q, so with
    c >= ceil(-mu/Q) for every mu all of them are >= 0 and the numerators
    are integer polynomials.
    """
    steps = [N for N in range(1, Q + 1) if Q % N == 0]
    factors = sorted({(mu * N // Q, N) for mu in mult for N in steps if mu * N % Q == 0})
    shapes = [(f,) for f in factors]
    shapes += [(f1, f2) for i, f1 in enumerate(factors) for f2 in factors[i:]]
    rests = {}  # the powers left of B -> their product at q^c T
    cands = []
    for shape in shapes:
        left = dict(mult)
        for m, N in shape:
            left[m * Q // N] -= 1
        if min(left.values()) < 0:
            continue
        key = tuple(sorted(left.items()))
        if key not in rests:
            rests[key] = _q_binomials(q, Q, {mu + c * Q: k for mu, k in key})
        quo = rests[key]
        for m, N in shape:
            ratio = q ** (m + c * N)
            geo = [0] * (Q - N + 1)
            for t in range(Q // N):
                geo[N * t] = ratio**t
            quo = _pmul(quo, geo)
        scale = q ** sum(m + c * N for m, N in shape)
        cands.append((shape, [0] * sum(N for _, N in shape) + [scale * x for x in quo]))
    return cands


def closed_from_fit(seq):
    """The closed form of a fitted counted stream.

    Every mode ratio must be a power q^mu.  With k_mu its largest
    multiplicity (t-degree + 1) over the residues and Q the period, the
    stream is P(T)/B(T) with B = prod (1 - q^mu T^Q)^{k_mu}.  The open
    factors L^m T^N/(1 - L^m T^N) are fixed by the data: N | Q and
    m = mu N/Q.  The candidate strands are each such factor and each pair
    whose denominator divides B (_strand_candidates reads that, and each
    numerator B * prod x/(1-x), off the factorization of B); one exact solve
    matches them against (sum a_n T^n) * B truncated at deg B, a_0 = 0, or
    FitFailed lists the candidate strands it solved over.  P/B then agrees
    with the stream below len(B), and past it too: every residue's modes
    keep B's recurrence a_n + sum_{j>=1} B_j a_{n-j} = 0 at every
    n >= len(B), since B holds each q^mu to its largest multiplicity.  The
    series is in the one variable T.

    It runs on integers: at q^c T, c = max(0, ceil(-mu/Q)), B_j q^(c j),
    the ratios q^(mu + c Q) and the candidate numerators are integers, and
    so is M a_n q^(c n) for M the common denominator of the scaled modes.
    The modes are evaluated once on that scale, at n = 1 .. deg B.  Row n
    of the solve is then q^(c n) times its unscaled candidate row and M
    q^(c n) times its unscaled target, so the integer solve gives M times
    the strand coefficients, divided by M once.
    """
    real = seq.real
    if real.tag != "count":
        raise FitFailed("closed-form recovery runs over the count realization")
    if seq.dom_min > 1:
        raise FitFailed("closed-form recovery needs the stream from n=1, not n=%d" % seq.dom_min)
    q = real.q
    Q = seq.period
    mult = {}
    logs = []  # per residue: its modes as (mu, coefficients)
    for r in range(Q):
        logs.append([])
        for ratio, coeffs in seq.modes[r]:
            mu = _q_log(q, ratio)
            if mu is None:
                raise FitFailed("mode ratio %s is not a power of q=%d" % (ratio, q))
            mult[mu] = max(mult.get(mu, 0), len(coeffs))
            logs[r].append((mu, coeffs))

    c = max([0] + [-(mu // Q) for mu in mult])
    cands = _strand_candidates(q, Q, mult, c)
    B = _q_binomials(q, Q, {mu + c * Q: k for mu, k in mult.items()})

    scaled = [
        [(mu + c * Q, [Fraction(x) * q ** (c * r) for x in xs]) for mu, xs in logs[r]] for r in range(Q)
    ]
    M = math.lcm(*(x.denominator for res in scaled for _, xs in res for x in xs))
    a = [0] * len(B)  # a[n] is M a_n q^(c n)
    for r in range(Q):
        t0, t1 = -((r - 1) // Q), (len(B) - 1 - r) // Q
        ints = [(k, [x.numerator * (M // x.denominator) for x in xs]) for k, xs in scaled[r]]
        for t, v in zip(range(t0, t1 + 1), _mode_values(q, ints, t0, t1)):
            a[Q * t + r] = v
    terms = [(j, x) for j, x in enumerate(B) if x]
    # the coefficients of (sum a_n T^n) * B below len(B), at q^c T and times M
    target = [sum(x * a[n - j] for j, x in terms if j <= n) for n in range(len(B))]
    sol = _solve_exact([[num[j] for _, num in cands] for j in range(len(B))], target)
    if sol is None:
        tried = "; ".join("x".join("(%d, %d)" % f for f in shape) for shape, _ in cands)
        raise FitFailed("stream numerator is not a combination of the candidate strands (m, N): %s" % tried)
    return ClosedSeries(
        real,
        ("T",),
        [Strand(x / M, (0,), [(m, (N,)) for m, N in shape]) for x, (shape, _) in zip(sol, cands) if x],
    )


def _solve_exact(rows, rhs):
    """Particular solution of rows * x = rhs over Q, or None.

    rows and rhs hold ints or Fractions; the unknowns off the pivot columns
    are 0 and the rest come back as Fractions.  Fraction-free Gauss-Jordan
    (after Bareiss, Math. Comp. 22, 1968): each augmented row is cleared of
    denominators once, a pivot row eliminates its column from every other
    row as row <- pv row - f prow, and that row is divided by its content.
    Scaling a row keeps its zeros, so the pivots, and the solution
    pivot-row rhs / pivot, are those of the reduced echelon form.  A pivot
    row is zero left of its pivot column, so only its nonzero entries from
    there on are eliminated with."""
    n = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        row = [*row, b]
        den = math.lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        prow = aug[r]
        pv = prow[col]
        live = [(j, prow[j]) for j in range(col, n + 1) if prow[j]]
        for i, row in enumerate(aug):
            f = row[col]
            if i != r and f:
                row = [pv * x for x in row]
                for j, y in live:
                    row[j] -= f * y
                g = math.gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = Fraction(aug[i][n], aug[i][col])
    return sol


# ---------------------------------------------------------------------------
# separable chain series
# ---------------------------------------------------------------------------


def _checked_masks(vars, masks, streams, who):
    """masks as tuples of ints, one per stream, each of the arity of the
    checked vars (_checked_vars), nonzero and nonnegative; MotzetaError on
    a count mismatch, VariableMismatch on a bad mask."""
    entry = "%s masks: entry" % who
    out = tuple(tuple(require_int(x, entry, error=VariableMismatch) for x in m) for m in masks)
    if len(out) != len(streams):
        raise MotzetaError("%s masks: %d masks for %d streams" % (who, len(out), len(streams)))
    for m in out:
        if len(m) != len(vars):
            raise VariableMismatch("mask arity differs from the variable list")
        if not any(m) or any(x < 0 for x in m):
            raise VariableMismatch("%s masks: %s must be nonzero and nonnegative" % (who, list(m)))
    return out


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
    zero.  The table of axis j holds, per w, the value with its exponent
    offset w * masks[j], or an empty entry for a zero value, so a point's
    exponent is one elementwise sum.  A value equal to the table's value at
    w - 1 (or else w + 1) reuses that object, at one == per (axis, w), so a
    step-function stream such as L^{-floor(w/a)} holds one object per run
    of equal values (the walk widens each axis's range at both ends as the
    prefix shrinks, so a new w mostly has a filled neighbour; a zero
    between two equal values splits the run).  Per prefix, the axis's table
    is first filled over the prefix's range of w, in increasing order, and
    the range is then walked in one loop.  Each product prefix * value
    goes through a memo local to the call, keyed by the ids of both
    operands and holding both (so no id is reused while the call runs),
    and is looked up once per run of one value object along the loop:
    every distinct pair is multiplied once, and entries may share their
    (immutable) coefficient objects.

    The values axis j may take below the bound form one range: w fits when
    its cheapest completion (every later axis one step above the last)
    does, that is w <= (bound - deg - rest_j) // slope_j, with deg the total
    degree of the prefix, |m| the entry sum of a mask,
    slope_j = sum_{i>=j} |masks[i]| and rest_j = sum_{i>j} |masks[i]| (i - j).
    On the last axis each product is added into the table in place.  The
    variables, the bound and the masks are checked once per call
    (VariableMismatch), not once per entry; exponents that collide are
    summed, and an entry whose sum cancels is deleted.  A zero product is
    memoized as None and skipped by an identity test, with its subtree on an
    inner axis, so no entry is tested for zero at the end.
    """
    vars = _checked_vars(vars, "expand_chains")
    masks = _checked_masks(vars, masks, streams, "expand_chains")
    out = TruncSeries(real, vars, bound)
    bound, eta = out.bound, len(streams)
    weights = [sum(m) for m in masks]
    slope = [sum(weights[j:]) for j in range(eta)]
    rest = [sum(weights[i] * (i - j) for i in range(j + 1, eta)) for j in range(eta)]
    tables = [{} for _ in range(eta)]
    products = {}
    ent = {}

    def times(val, v):
        key = id(val), id(v)
        memo = products.get(key)
        if memo is None:
            prod = val * v
            memo = products[key] = (val, v, prod if prod else None)
        return memo[2]

    stack = [(0, 0, (0,) * len(out.vars), 0, None)] if eta else []
    while stack:
        j, wprev, exp, deg, val = stack.pop()
        stream, table, mask, step = streams[j], tables[j], masks[j], weights[j]
        last = j == eta - 1
        span = range(max(stream.dom_min, wprev + 1), (bound - deg - rest[j]) // slope[j] + 1)
        for w in span:
            if w not in table:
                v = stream.value(w)
                if v:
                    near = table.get(w - 1) or table.get(w + 1)
                    if near and near[0] == v:
                        v = near[0]
                    table[w] = (v, tuple([w * x for x in mask]))
                else:
                    table[w] = ()
        run = prod = None
        for w in span:
            hit = table[w]
            if not hit:
                continue
            v, off = hit
            if v is not run:
                run, prod = v, v if val is None else times(val, v)
            if prod is None:
                continue
            exp2 = tuple(map(operator.add, exp, off))
            if not last:
                stack.append((j + 1, w, exp2, deg + w * step, prod))
            elif exp2 not in ent:
                ent[exp2] = prod
            else:
                v = ent[exp2] + prod
                if v:
                    ent[exp2] = v
                else:
                    del ent[exp2]
    out.entries = ent
    return out


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
        vars = _checked_vars(vars, "SeparableSeries")
        streams = tuple(streams)
        if not streams:
            raise MotzetaError("SeparableSeries streams: need at least one stream")
        masks = _checked_masks(vars, masks, streams, "SeparableSeries")
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
    require_choice("series_from_dict realization: tag", d["tag"], ("count", "symbolic"))
    if d["tag"] == "count":
        _require_keys(d, "series_from_dict realization", "q")
        return count_realization(d["q"])
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
            num = dict(c["num"])
            den = list(c["den"])
        except (TypeError, ValueError):
            raise MotzetaError(
                "series_from_dict coeff: num must list [exp, coeff] integer pairs "
                "and den integers, not %r" % (c,)
            ) from None
        for e, v in num.items():
            require_int(e, "series_from_dict coeff: num exponent")
            require_int(v, "series_from_dict coeff: num coefficient")
        factors = _list_field(t, "series_from_dict term", "factors")
        out.append((tuple(_factor_from_data(f) for f in factors), bool(t["aug"]), LocRat(LaurentPoly(num), den)))
    return SymbolicClass(out, base)


def _factor_from_data(d):
    if isinstance(d, dict) and "conv" in d:
        _require_keys(d, "series_from_dict conv", "left", "right", "aug")
        require_choice("series_from_dict conv: kind", d["conv"], (0, 1))
        left, right = (
            [_factor_from_data(x) for x in _list_field(d, "series_from_dict conv", k)]
            for k in ("left", "right")
        )
        return ConvNode(d["conv"], left, right, d["aug"])
    _require_keys(d, "series_from_dict atom", "atom", "order", "base", "aug")
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
    require_choice("series_from_dict mode", d["mode"], ("trunc", "closed"))
    real = _real_from_dict(d["realization"])
    vars = d["vars"]

    def coeff(e, where):
        if real.tag == "count":
            return _fraction_from_data(e["coeff"])
        return _class_from_data(_list_field(e, where, "coeff"), real.zero.base)

    if d["mode"] == "trunc":
        _require_keys(d, "series_from_dict", "bound", "entries")
        entries = {}
        for e in _list_field(d, "series_from_dict", "entries"):
            _require_keys(e, "series_from_dict entries", "exp", "coeff")
            entries[tuple(_list_field(e, "series_from_dict entries", "exp"))] = coeff(e, "series_from_dict entries")
        return TruncSeries(real, vars, d["bound"], entries)
    _require_keys(d, "series_from_dict", "strands")
    strands = []
    for st in _list_field(d, "series_from_dict", "strands"):
        _require_keys(st, "series_from_dict strands", "coeff", "b", "factors")
        factors = _list_field(st, "series_from_dict strands", "factors")
        for f in factors:
            _require_keys(f, "series_from_dict factors", "m", "n")
        strands.append(
            Strand(
                coeff(st, "series_from_dict strands"),
                tuple(_list_field(st, "series_from_dict strands", "b")),
                [(f["m"], tuple(_list_field(f, "series_from_dict factors", "n"))) for f in factors],
            )
        )
    return ClosedSeries(real, vars, strands)


def series_to_json(s):
    return json.dumps(series_to_dict(s), sort_keys=True, separators=(",", ": "), indent=1)


def series_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise MotzetaError("series_from_json: not JSON: %s at position %d" % (err.msg, err.pos)) from None
    return series_from_dict(data)
