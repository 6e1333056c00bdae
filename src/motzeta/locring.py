"""Exact arithmetic in the localized scalar ring Z[L, L^-1, (1-L^n)^-1, n >= 1].

The distinguished invertible symbol L is the class of the affine line.  An
element is represented as a quotient

    num / prod_i (1 - L^{n_i})

where num is an integer Laurent polynomial in L and the denominator is a
multiset of positive integers, each entry n standing for one factor (1 - L^n).
Negative powers of L live in the numerator's Laurent exponents, so the
denominator stays homogeneous in (1 - L^n) factors.

Equality is decided exactly by cross-multiplication of Laurent polynomials;
two elements over the same denominator compare their numerators, and a sum
over the same denominator adds the numerators and keeps that denominator,
with no lcm (the constructor still cancels a factor the sum divides).
Normalization is lazy: a denominator factor is cancelled only when it divides
the numerator exactly, so every stored element keeps the invariant that no
stored denominator factor divides its numerator.  A product by a monomial
c*L^k (c != 0) relies on it: 1 - L^n is primitive and prime to L, so it divides
c*L^k*num exactly when it divides num, and the product only shifts and scales
the numerator.  It is built without renormalizing either part: every v*c is
nonzero, so the shifted numerator stores no zero coefficient and needs no
zero filter, and the denominator is kept as it is.  One test,
LocRat._monomial, recognizes c*L^k (an empty denominator and one numerator
term), and one product, LocRat._times_monomial, applies it: both sides of *,
negation (c = -1), the power c^k*L^(e*k) of a monomial under **, and the
scaling of a class's coefficients (motclass._scaled) take that path.

An exponent of ** must be an int (errors.require_int).  A negative power of a
monomial is itself a monomial only when c = +-1; any other negative power
goes through inverse(), so 2*L has none.  Zero is not a unit: inverting it,
or raising it to a negative power, raises NotInvertible.
Evaluation at L = q gives exact rationals and fails with
DenominatorVanishes when some q^n = 1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import DenominatorVanishes, MotzetaError, NotInvertible, require_int


class LaurentPoly:
    """Integer Laurent polynomial in one symbol L, as an exponent->coeff map.

    Invariant: no stored coefficient is zero.  Instances are immutable by
    convention; all operations return fresh objects.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def monomial(cls, coeff, exp):
        return cls({exp: coeff})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: v * other for e, v in self.c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        require_int(k, "LaurentPoly power: exponent", 0)
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k):
        """Multiply by L^k."""
        return LaurentPoly({e + k: v for e, v in self.c.items()})

    def degree(self):
        return max(self.c) if self.c else None

    def valuation(self):
        return min(self.c) if self.c else None

    def eval_at(self, q):
        """Exact value at L = q (int or Fraction, nonzero for negative exps)."""
        q = Fraction(q)
        total = Fraction(0)
        for e, v in self.c.items():
            if e >= 0:
                total += v * q**e
            else:
                if q == 0:
                    raise DenominatorVanishes("L^%d at L=0" % e)
                total += v / q ** (-e)
        return total

    def divexact(self, d):
        """Return self / d when the division is exact over Z, else None."""
        if d.is_zero():
            raise DenominatorVanishes("LaurentPoly divexact: the divisor is zero")
        if self.is_zero():
            return LaurentPoly()
        # Shift both to ordinary polynomials with valuation 0.
        sv, dv = self.valuation(), d.valuation()
        num = {e - sv: v for e, v in self.c.items()}
        den = {e - dv: v for e, v in d.c.items()}
        dd = max(den)
        lead = den[dd]
        quot = {}
        nd = max(num)
        while num:
            nd = max(num)
            if nd < dd:
                return None
            v = num[nd]
            if v % lead:
                return None
            qc, qe = v // lead, nd - dd
            quot[qe] = qc
            for e, w in den.items():
                ne = e + qe
                nw = num.get(ne, 0) - qc * w
                if nw:
                    num[ne] = nw
                else:
                    num.pop(ne, None)
        return LaurentPoly({e + sv - dv: v for e, v in quot.items()})

    def render(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            sign = "-" if v < 0 else "+"
            av = abs(v)
            if e == 0:
                body = str(av)
            else:
                lp = "L" if e == 1 else "L^%d" % e
                body = lp if av == 1 else "%d*%s" % (av, lp)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


ONE_P = LaurentPoly({0: 1})
ZERO_P = LaurentPoly()


def one_minus_L(n):
    """The Laurent polynomial 1 - L^n."""
    return LaurentPoly({0: 1, n: -1})


def _den_poly(den):
    p = ONE_P
    for n in den:
        p = p * one_minus_L(n)
    return p


_CYCLOTOMIC = {}


def _cyclotomic(d):
    """Monic cyclotomic polynomial Phi_d, with x^d - 1 = prod_{e|d} Phi_e."""
    if d in _CYCLOTOMIC:
        return _CYCLOTOMIC[d]
    p = LaurentPoly({d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            p = p.divexact(_cyclotomic(e))
    _CYCLOTOMIC[d] = p
    return p


def _totient(d):
    out, rest, p = 1, d, 2
    while p * p <= rest:
        if rest % p == 0:
            out *= p - 1
            rest //= p
            while rest % p == 0:
                out *= p
                rest //= p
        p += 1
    if rest > 1:
        out *= rest - 1
    return out


def _factor_cyclotomic(p):
    """Factor p = sign * L^k * prod Phi_d^{e_d}; None if not of that shape."""
    k = p.valuation()
    p = p.shift(-k)
    exps = {}
    d = 1
    while len(p.c) > 1:
        deg = p.degree()
        # Phi_d has degree totient(d), which exceeds sqrt(d) for d > 6, so
        # no Phi_d with d beyond max(6, deg^2) can divide p.
        if d > max(6, deg * deg):
            return None
        if _totient(d) > deg:
            d += 1
            continue
        q = p.divexact(_cyclotomic(d))
        if q is not None:
            exps[d] = exps.get(d, 0) + 1
            p = q
        else:
            d += 1
    sign = p.c[0]
    if sign not in (1, -1):
        return None
    return sign, k, exps


class LocRat:
    """Element of Z[L, L^-1, (1-L^n)^-1], as num / prod (1-L^n).

    Invariant: den is sorted, is empty when num is zero, and none of its
    factors (1 - L^n) divides num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        if type(num) is int:
            num = LaurentPoly.const(num)
        elif not isinstance(num, LaurentPoly):
            raise MotzetaError(
                "LocRat num must be an int or a LaurentPoly, not %s %r" % (type(num).__name__, num)
            )
        if not isinstance(den, (list, tuple)):
            raise MotzetaError("LocRat den must be a list or tuple, not %s %r" % (type(den).__name__, den))
        den = tuple(sorted([require_int(n, "LocRat den: n of a factor (1-L^n)", 1) for n in den]))
        if num.is_zero():
            den = ()
        else:
            # Lazy cancellation: strip factors dividing the numerator exactly.
            remaining = []
            for n in den:
                q = num.divexact(one_minus_L(n))
                if q is not None:
                    num = q
                else:
                    remaining.append(n)
            den = tuple(remaining)
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, v):
        return cls(LaurentPoly.const(v))

    @classmethod
    def L(cls, e=1):
        return cls(LaurentPoly.monomial(1, e))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if isinstance(other, int):
            other = LocRat.from_int(other)
        elif not isinstance(other, LocRat):
            return NotImplemented
        if self.den == other.den:
            return LocRat(self.num + other.num, self.den)
        # Common denominator: the multiset lcm, per-n maximum multiplicity.
        mine, theirs = Counter(self.den), Counter(other.den)
        lcm = mine | theirs
        num = self.num * _den_poly((lcm - mine).elements()) + other.num * _den_poly((lcm - theirs).elements())
        return LocRat(num, tuple(lcm.elements()))

    __radd__ = __add__

    def __neg__(self):
        return self._times_monomial(-1, 0)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LocRat.from_int(other)
        elif not isinstance(other, LocRat):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._times_monomial(other, 0)
        if not isinstance(other, LocRat):
            return NotImplemented
        m = other._monomial()
        if m is not None:
            return self._times_monomial(*m)
        m = self._monomial()
        if m is not None:
            return other._times_monomial(*m)
        return LocRat(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def _monomial(self):
        """(c, k) when self is c*L^k with c != 0, else None."""
        if not self.den and len(self.num.c) == 1:
            ((k, c),) = self.num.c.items()
            return c, k
        return None

    def _times_monomial(self, c, k):
        """self * c*L^k.  A nonzero c keeps both invariants (see the module
        docstring), so neither the numerator nor the denominator is
        renormalized."""
        if not c:
            return LocRat(ZERO_P)
        num = LaurentPoly.__new__(LaurentPoly)
        num.c = {e + k: v * c for e, v in self.num.c.items()}
        out = LocRat.__new__(LocRat)
        out.num = num
        out.den = self.den
        return out

    def __pow__(self, k):
        require_int(k, "LocRat power: exponent")
        m = self._monomial()
        if m is not None and (k >= 0 or m[0] in (1, -1)):
            # (c*L^e)^k = c^k * L^(e*k); c^k = c^|k| for c = +-1
            return ONE._times_monomial(m[0] ** abs(k), m[1] * k)
        if k < 0:
            return self.inverse() ** (-k)
        # 1 - L^n is squarefree, so it divides num^k only when it divides num
        return LocRat(self.num**k, self.den * k)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LocRat.from_int(other)
        if not isinstance(other, LocRat):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * _den_poly(other.den) == other.num * _den_poly(self.den)

    __hash__ = None  # representations are not canonical

    def eval_at(self, q):
        q = Fraction(q)
        val = self.num.eval_at(q)
        for n in self.den:
            d = 1 - q**n
            if d == 0:
                raise DenominatorVanishes("(1-L^%d) vanishes at L=%s" % (n, q))
            val /= d
        return val

    def inverse(self):
        """Invert a unit of the ring, i.e. +-L^k * prod (1-L^n)^{+-1}.

        The numerator is factored into cyclotomic polynomials; the combined
        cyclotomic exponent vector is then rewritten over (1 - L^n) factors
        by a triangular solve against divisor-indicator vectors.  Non-units
        raise NotInvertible.
        """
        if self.is_zero():
            raise NotInvertible("zero is not a unit")
        fac = _factor_cyclotomic(self.num)
        if fac is None:
            raise NotInvertible("not a unit: %s" % self.render())
        sign, k, exps = fac
        # self = sign * (-1)^{|den|} * L^k * prod Phi_d^{E_d} with
        # E_d = exps[d] - #{n in den : d | n}, using 1-L^n = -(L^n - 1).
        E = dict(exps)
        for n in self.den:
            d = 1
            while d <= n:
                if n % d == 0:
                    E[d] = E.get(d, 0) - 1
                d += 1
        sign *= (-1) ** len(self.den)
        # Solve sum_n a_n * chi_n = -E where chi_n[d] = [d | n], descending
        # over every n up to the largest target index (corrections can land
        # on divisors absent from the target).
        target = {d: -e for d, e in E.items() if e}
        a = {}
        for n in range(max(target, default=0), 0, -1):
            want = target.get(n, 0) - sum(a[m] for m in a if m % n == 0)
            if want:
                a[n] = want
        # Verify the solve: the achieved vector (over every divisor touched)
        # must equal the target exactly, zeros included.
        achieved = {}
        for n, e in a.items():
            for d in range(1, n + 1):
                if n % d == 0:
                    achieved[d] = achieved.get(d, 0) + e
        for d in set(achieved) | set(target):
            if achieved.get(d, 0) != target.get(d, 0):
                raise NotInvertible("not a unit: %s" % self.render())
        # prod Phi_d^{-E_d} = prod_n (L^n-1)^{a_n}
        #                   = (-1)^{sum a_n} prod_n (1-L^n)^{a_n}.
        sign *= (-1) ** (sum(a.values()) % 2)
        num = LaurentPoly.monomial(sign, -k)
        den = []
        for n, e in a.items():
            if e > 0:
                num = num * _den_poly([n] * e)
            else:
                den += [n] * (-e)
        return LocRat(num, tuple(sorted(den)))

    def render(self):
        num = self.num.render()
        if not self.den:
            return num
        den = "".join(
            "(1-L)" if n == 1 else "(1-L^%d)" % n for n in self.den
        )
        if len(self.num.c) > 1:
            num = "(%s)" % num
        return "%s / %s" % (num, den)

    __str__ = render

    def __repr__(self):
        return "LocRat(%s)" % self.render()


ZERO = LocRat.from_int(0)
ONE = LocRat.from_int(1)
L = LocRat.L(1)
L_MINUS_1 = L - ONE

