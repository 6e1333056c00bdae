"""Exponential-polynomial sequences with exact closed-form summation.

An EGSeq models a sequence n -> value in a coefficient module, given by
finitely many "modes" per residue class r mod Q: writing n = Q*t + r, the
sequence is

    value(n) = sum over modes (ratio, (c_0, .., c_d)) of
               sum_e c_e * t^e * ratio^t

at every n from the domain start dom_min on.  Sums, scalings, shifts,
re-periodizations and tail sums are closed on this shape and exact; tails
of a mode use

    sum_{u>=0} u^j rho^u = sum_i S(j,i) i! rho^i / (1-rho)^(i+1)

with S(j,i) the Stirling partition numbers.
"""

from __future__ import annotations

import math
import operator

from .errors import BaseMismatch, MotzetaError, NotInvertible, TailNotSummable, require_int


def _stirling2_row(j):
    """Row j of the Stirling partition triangle: S(j, 0..j)."""
    row = [1] + [0] * j
    for n in range(1, j + 1):
        new = [0] * (j + 1)
        for k in range(1, n + 1):
            new[k] = k * row[k] + row[k - 1]
        row = new
    if j == 0:
        row = [1]
    return row


def _merge_modes(zero, modes):
    """Combine modes with equal ratios, strip zero coefficients."""
    out = []
    for ratio, coeffs in modes:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            continue
        for idx, (r2, c2) in enumerate(out):
            if ratio == r2:
                merged = list(c2)
                if len(cs) > len(merged):
                    merged.extend([zero] * (len(cs) - len(merged)))
                for e, c in enumerate(cs):
                    merged[e] = merged[e] + c
                while merged and not merged[-1]:
                    merged.pop()
                if merged:
                    out[idx] = (r2, merged)
                else:
                    out.pop(idx)
                break
        else:
            out.append((ratio, cs))
    return tuple((r, tuple(c)) for r, c in out)


def _eval_modes(zero, modes_for_residue, t):
    """Stable value at n = Q*t + r from the modes of residue r.  The sum
    starts at its first nonzero term, and a t^0 term takes ratio^t as it is."""
    val = None
    for ratio, coeffs in modes_for_residue:
        rt = ratio**t
        for e, c in enumerate(coeffs):
            if c:
                term = (rt * t**e if e else rt) * c
                val = term if val is None else val + term
    return zero if val is None else val


def _substitute(zero, modes, k, delta):
    """The modes of one residue under t -> k*t + delta: each mode
    (ratio, c) becomes (ratio^k, c') with
    sum_e c_e (k t + delta)^e ratio^(k t + delta) = sum_j c'_j t^j ratio^(k t)."""
    out = []
    for ratio, coeffs in modes:
        ratio_delta = ratio**delta
        new = [zero] * len(coeffs)
        for e, c in enumerate(coeffs):
            if not c:
                continue
            for j in range(e + 1):
                w = math.comb(e, j) * k**j * delta ** (e - j)
                if w:
                    new[j] = new[j] + (ratio_delta * w) * c
        out.append((ratio**k, tuple(new)))
    return out


class EGSeq:
    """Sequence with exponential-polynomial modes from dom_min on, exact
    throughout."""

    __slots__ = ("real", "period", "modes", "dom_min")

    def __init__(self, real, period, modes, dom_min=1):
        self.real = real
        self.period = require_int(period, "EGSeq period", 1)
        self.modes = tuple(_merge_modes(real.zero, modes[r]) for r in range(period))
        self.dom_min = require_int(dom_min, "EGSeq dom_min")

    # ----- constructors -----

    @classmethod
    def single_residue(cls, real, period, residue, ratio, coeff):
        """value(period*t + residue) = coeff * ratio^t, zero off the residue."""
        modes = [[] for _ in range(require_int(period, "EGSeq period", 1))]
        modes[require_int(residue, "EGSeq single_residue: residue") % period] = [(ratio, (coeff,))]
        return cls(real, period, modes)

    # ----- basic access -----

    def value(self, n):
        if require_int(n, "EGSeq value: n") < self.dom_min:
            raise MotzetaError("EGSeq value: n=%d is below the domain start dom_min=%d" % (n, self.dom_min))
        t, r = divmod(n, self.period)
        return _eval_modes(self.real.zero, self.modes[r], t)

    # ----- structural -----

    def re_period(self, new_period):
        """Re-express with a period that is a multiple of the current one."""
        Q = self.period
        require_int(new_period, "EGSeq re_period: new_period", 1)
        if new_period % Q != 0:
            raise MotzetaError(
                "EGSeq re_period: new_period=%d is not a multiple of the period %d" % (new_period, Q)
            )
        k = new_period // Q
        if k == 1:
            return self
        zero = self.real.zero
        new_modes = [_substitute(zero, self.modes[s % Q], k, s // Q) for s in range(new_period)]
        return EGSeq(self.real, new_period, new_modes, self.dom_min)

    # ----- linear ops -----

    def add(self, other):
        if self.real.tag != other.real.tag or self.real.q != other.real.q:
            raise BaseMismatch("sequences live over different realizations")
        P = math.lcm(self.period, other.period)
        a, b = self.re_period(P), other.re_period(P)
        modes = [list(a.modes[r]) + list(b.modes[r]) for r in range(P)]
        return EGSeq(self.real, P, modes, max(a.dom_min, b.dom_min))

    def neg(self):
        return self.map_values(operator.neg)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, s):
        return self.map_values(lambda v: s * v)

    def map_values(self, fn):
        """Apply a scalar-linear map to every value."""
        modes = [
            [(ratio, tuple(fn(c) for c in coeffs)) for ratio, coeffs in self.modes[r]]
            for r in range(self.period)
        ]
        return EGSeq(self.real, self.period, modes, self.dom_min)

    def shift(self, d):
        """New sequence n -> value(n + d)."""
        require_int(d, "EGSeq shift: d")
        Q, zero = self.period, self.real.zero
        modes = [_substitute(zero, self.modes[(r + d) % Q], 1, (r + d) // Q) for r in range(Q)]
        return EGSeq(self.real, Q, modes, self.dom_min - d)

    # ----- summation -----

    def _mode_tail_table(self, rho, deg):
        """M_j = sum_{u>=0} u^j rho^u for j = 0..deg; raises TailNotSummable
        when 1 - rho is zero or not a unit."""
        one_minus = 1 - rho
        if not one_minus:
            raise TailNotSummable("geometric ratio 1 has no summable tail")
        try:
            inv = one_minus**-1
        except NotInvertible:
            raise TailNotSummable("1 - ratio is not invertible: %s" % one_minus) from None
        return [
            sum(c * math.factorial(i) * rho**i * inv ** (i + 1) for i, c in enumerate(row) if c)
            for row in map(_stirling2_row, range(deg + 1))
        ]

    def tail_sum(self):
        """New sequence n -> sum_{l > n} value(l).  Exact; needs all ratios != 1.

        One tail table (_mode_tail_table, with its one inverse of
        1 - ratio) is built per distinct ratio, at the greatest degree any
        residue's mode of that ratio has, and every mode of that ratio in
        every target residue reads its prefix: a table's row j does not
        depend on the depth it is built to.  Tables are built in the order
        their ratios first appear, residue by residue and mode by mode, so
        the first ratio that is not summable raises."""
        zero = self.real.zero
        Q = self.period
        ratios, depths, which = [], [], []
        for r2 in range(Q):
            row = []
            for rho, coeffs in self.modes[r2]:
                i = next((k for k, known in enumerate(ratios) if rho == known), len(ratios))
                if i == len(ratios):
                    ratios.append(rho)
                    depths.append(0)
                depths[i] = max(depths[i], len(coeffs) - 1)
                row.append(i)
            which.append(row)
        tables = [self._mode_tail_table(rho, deg) for rho, deg in zip(ratios, depths)]
        new_modes = [[] for _ in range(Q)]
        for r in range(Q):
            acc = []
            for r2 in range(Q):
                theta = 1 if r2 <= r else 0
                for (rho, coeffs), i in zip(self.modes[r2], which[r2]):
                    Ms = tables[i]
                    rho_theta = rho**theta
                    out = [zero] * len(coeffs)
                    for e, c in enumerate(coeffs):
                        if not c:
                            continue
                        for j in range(e + 1):
                            for w in range(e - j + 1):
                                tp = theta ** (e - j - w)
                                if tp == 0:
                                    continue
                                k = math.comb(e, j) * math.comb(e - j, w) * tp
                                out[w] = out[w] + (rho_theta * (k * Ms[j])) * c
                    acc.append((rho, tuple(out)))
            new_modes[r] = acc
        return EGSeq(self.real, Q, new_modes, self.dom_min - 1)
