"""Realizations: one series pipeline, two coefficient domains.

The symbolic realization takes LocRat scalars and SymbolicClass values;
the count realization fixes a prime q and takes exact Fractions for both.
Both domains share one operator protocol (+, -, *, **, ==, bool, str;
scalar * value is the scalar action), so series code is written once
against the operators.  A Realization records which domain is in use, its
zero and unit values, and maps localized-ring constants into its scalars.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import require_int
from .geomset import _require_prime
from .motclass import SymbolicClass


class Realization:
    """Tag, prime (None when symbolic) and the zero and unit values."""

    __slots__ = ("tag", "q", "zero", "one")

    def __init__(self, tag, q, zero, one):
        self.tag = tag
        self.q = q
        self.zero = zero
        self.one = one

    def from_locrat(self, c):
        """The scalar image of a LocRat: itself, or its value at q."""
        return c if self.q is None else c.eval_at(self.q)


def symbolic_realization(base="pt"):
    return Realization("symbolic", None, SymbolicClass.zero(base), SymbolicClass.unit(base))


def count_realization(q):
    """Counting over F_q; q must be a prime."""
    require_int(q, "count_realization q", 2)
    _require_prime(q, "count_realization")
    return Realization("count", q, Fraction(0), Fraction(1))
