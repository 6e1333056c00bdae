"""Realization adapters: one series pipeline, two coefficient domains.

The symbolic realization works with LocRat scalars and SymbolicClass values;
the count realization fixes a prime q and works with exact Fractions for
both.  Series code is written against these small adapter interfaces so each
identity check can run over either domain.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible, TailNotSummable
from .locring import LocRat, ONE as LR_ONE, ZERO as LR_ZERO
from .motclass import SymbolicClass, external_mul


class SymbolicScalars:
    """Scalars = the localized ring Z[L, L^-1, (1-L^n)^-1]."""

    tag = "symbolic"
    zero = LR_ZERO
    one = LR_ONE

    @staticmethod
    def from_int(c):
        return LocRat.from_int(c)

    @staticmethod
    def from_locrat(c):
        return c

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def pow(a, e):
        return a**e

    @staticmethod
    def inv_one_minus(a):
        one_minus = LR_ONE - a
        if one_minus.is_zero():
            raise TailNotSummable("geometric ratio 1 has no summable tail")
        try:
            return one_minus.inverse()
        except NotInvertible:
            raise TailNotSummable(
                "1 - ratio is not invertible: %s" % one_minus.render()
            )

    @staticmethod
    def render(a):
        return a.render()


class RationalScalars:
    """Scalars = Q, the value domain of the count realization at a fixed q."""

    tag = "count"
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, q):
        self.q = q

    @staticmethod
    def from_int(c):
        return Fraction(c)

    def from_locrat(self, c):
        return c.eval_at(self.q)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def pow(a, e):
        return a**e

    @staticmethod
    def inv_one_minus(a):
        if a == 1:
            raise TailNotSummable("geometric ratio 1 has no summable tail")
        return 1 / (1 - a)

    @staticmethod
    def render(a):
        return str(a)


class SymbolicCoeffs:
    """Values = symbolic classes; scalar action by the localized ring."""

    tag = "symbolic"

    def __init__(self, base="pt"):
        self.zero = SymbolicClass.zero(base)
        self.one = SymbolicClass.unit(base)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def scale(s, v):
        return v.scale(s)

    @staticmethod
    def mul(a, b):
        return external_mul(a, b)

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def render(a):
        return a.render()


class RationalCoeffs:
    """Values = exact rationals (counts)."""

    tag = "count"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def scale(s, v):
        return s * v

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def eq(a, b):
        return a == b

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def render(a):
        return str(a)


class Realization:
    """Bundle of a scalar domain and a compatible value module."""

    __slots__ = ("scalars", "coeffs", "tag", "q")

    def __init__(self, scalars, coeffs, q=None):
        self.scalars = scalars
        self.coeffs = coeffs
        self.tag = scalars.tag
        self.q = q


def symbolic_realization(base="pt"):
    return Realization(SymbolicScalars(), SymbolicCoeffs(base))


def count_realization(q):
    return Realization(RationalScalars(q), RationalCoeffs(), q=q)
