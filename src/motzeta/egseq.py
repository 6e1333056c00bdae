"""Exponential-polynomial sequences with exact closed-form summation.

An EGSeq models a sequence n -> value in a coefficient module, given by
finitely many "modes" per residue class r mod Q: writing n = Q*t + r, the
stable part of the sequence is

    value(n) = sum over modes (ratio, (c_0, .., c_d)) of
               sum_e c_e * t^e * ratio^t

with finitely many exceptional values below a stable threshold.  All the
series calculus (tails, prefix sums, geometric weights, pointwise products)
is closed on this shape and exact: tails of a mode use

    sum_{u>=0} u^j rho^u = sum_i S(j,i) i! rho^i / (1-rho)^(i+1)

with S(j,i) the Stirling partition numbers, and ratio-1 prefix sums go
through integer-valued Faulhaber polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def _faulhaber_coeffs(e):
    """Monomial coefficients (Fractions) of G_e(x) = sum_{u=0}^{x} u^e.

    Built from G_e(x) = sum_i S(e,i) i! C(x+1, i+1), which is exact for
    every integer x >= -1.
    """
    row = _stirling2_row(e)
    out = [Fraction(0)] * (e + 2)
    for i in range(e + 1):
        if row[i] == 0:
            continue
        # C(x+1, i+1) = prod_{k=0..i} (x+1-k) / (i+1)!
        poly = [Fraction(1)]
        for k in range(i + 1):
            shift = 1 - k
            nxt = [Fraction(0)] * (len(poly) + 1)
            for m, cm in enumerate(poly):
                nxt[m + 1] += cm
                nxt[m] += cm * shift
            poly = nxt
        scale = Fraction(row[i] * math.factorial(i), math.factorial(i + 1))
        for m, cm in enumerate(poly):
            out[m] += cm * scale
    return out


def _merge_modes(S, V, modes):
    """Combine modes with equal ratios, strip zero coefficients."""
    out = []
    for ratio, coeffs in modes:
        cs = list(coeffs)
        while cs and V.is_zero(cs[-1]):
            cs.pop()
        if not cs:
            continue
        for idx, (r2, c2) in enumerate(out):
            if S.eq(ratio, r2):
                merged = list(c2)
                if len(cs) > len(merged):
                    merged.extend([V.zero] * (len(cs) - len(merged)))
                for e, c in enumerate(cs):
                    merged[e] = V.add(merged[e], c)
                while merged and V.is_zero(merged[-1]):
                    merged.pop()
                if merged:
                    out[idx] = (r2, merged)
                else:
                    out.pop(idx)
                break
        else:
            out.append((ratio, cs))
    return tuple((r, tuple(c)) for r, c in out)


def _eval_modes(S, V, modes_for_residue, powers, t):
    """Stable value at n = Q*t + r; powers[i] is mode i's ratio^t."""
    val = V.zero
    for (_, coeffs), rt in zip(modes_for_residue, powers):
        for e, c in enumerate(coeffs):
            if V.is_zero(c):
                continue
            val = V.add(val, V.scale(S.mul(rt, S.from_int(t**e)), c))
    return val


class EGSeq:
    """Sequence with exponential-polynomial stable part, exact throughout."""

    __slots__ = ("real", "period", "modes", "exceptional", "dom_min", "stable_start")

    def __init__(self, real, period, modes, exceptional=None, dom_min=1, stable_start=None):
        if period < 1:
            raise ValueError("period must be >= 1")
        S, V = real.scalars, real.coeffs
        self.real = real
        self.period = period
        self.modes = tuple(_merge_modes(S, V, modes[r]) for r in range(period))
        exc = dict(exceptional or {})
        if stable_start is None:
            stable_start = max(exc) + 1 if exc else dom_min
        self.exceptional = {
            n: v for n, v in exc.items() if dom_min <= n < stable_start and not V.is_zero(v)
        }
        self.dom_min = dom_min
        self.stable_start = stable_start

    # ----- constructors -----

    @classmethod
    def zero(cls, real, period=1, dom_min=1):
        return cls(real, period, [[] for _ in range(period)], dom_min=dom_min)

    @classmethod
    def constant(cls, real, v, dom_min=1):
        return cls(real, 1, [[(real.scalars.one, (v,))]], dom_min=dom_min)

    @classmethod
    def single_residue(cls, real, period, residue, ratio, coeff, dom_min=1):
        """value(period*t + residue) = coeff * ratio^t, zero off the residue."""
        modes = [[] for _ in range(period)]
        modes[residue % period] = [(ratio, (coeff,))]
        return cls(real, period, modes, dom_min=dom_min)

    @classmethod
    def from_samples(cls, real, samples, dom_min=None):
        """Purely exceptional sequence: defined only where sampled."""
        if not samples:
            raise ValueError("empty sample set")
        if dom_min is None:
            dom_min = min(samples)
        return cls(
            real, 1, [[]], exceptional=dict(samples),
            dom_min=dom_min, stable_start=max(samples) + 1,
        )

    # ----- basic access -----

    def value(self, n):
        return self.values(n, n)[0]

    def values(self, lo, hi):
        """[value(n) for n in lo..hi]: each residue steps its ratio powers
        by one multiplication per period instead of raising them afresh."""
        if lo <= hi and lo < self.dom_min:
            raise ValueError("sequence not defined at n=%d (domain starts at %d)" % (lo, self.dom_min))
        S, V = self.real.scalars, self.real.coeffs
        powers = {}  # residue -> ratio^t of its modes at the last t visited
        out = []
        for n in range(lo, hi + 1):
            if n < self.stable_start:
                out.append(self.exceptional.get(n, V.zero))
                continue
            t, r = divmod(n, self.period)
            modes = self.modes[r]
            pw = powers.get(r)
            if pw is None:
                pw = [S.pow(ratio, t) for ratio, _ in modes]
            else:
                pw = [S.mul(p, ratio) for p, (ratio, _) in zip(pw, modes)]
            powers[r] = pw
            out.append(_eval_modes(S, V, modes, pw, t))
        return out

    def agrees_with(self, other, lo, hi):
        V = self.real.coeffs
        return all(V.eq(self.value(n), other.value(n)) for n in range(lo, hi + 1))

    def _check_compatible(self, other):
        if self.real.tag != other.real.tag or self.real.q != other.real.q:
            raise ValueError("sequences live over different realizations")

    # ----- structural -----

    def re_period(self, new_period):
        """Re-express with a period that is a multiple of the current one."""
        Q = self.period
        if new_period % Q != 0:
            raise ValueError("new period must be a multiple of the old one")
        k = new_period // Q
        if k == 1:
            return self
        S, V = self.real.scalars, self.real.coeffs
        new_modes = [[] for _ in range(new_period)]
        for rho_res in range(new_period):
            r = rho_res % Q
            delta = (rho_res - r) // Q
            for ratio, coeffs in self.modes[r]:
                deg = len(coeffs) - 1
                ratio_delta = S.pow(ratio, delta)
                out = [V.zero] * (deg + 1)
                for e, c in enumerate(coeffs):
                    if V.is_zero(c):
                        continue
                    for j in range(e + 1):
                        w = math.comb(e, j) * (k**j) * (delta ** (e - j))
                        if w == 0:
                            continue
                        sc = S.mul(ratio_delta, S.from_int(w))
                        out[j] = V.add(out[j], V.scale(sc, c))
                new_modes[rho_res].append((S.pow(ratio, k), tuple(out)))
        return EGSeq(
            self.real, new_period, new_modes, self.exceptional,
            self.dom_min, self.stable_start,
        )

    def _aligned(self, other):
        self._check_compatible(other)
        P = self.period * other.period // math.gcd(self.period, other.period)
        return self.re_period(P), other.re_period(P), P

    # ----- linear ops -----

    def add(self, other):
        a, b, P = self._aligned(other)
        V = self.real.coeffs
        dom = max(a.dom_min, b.dom_min)
        stable = max(a.stable_start, b.stable_start, dom)
        exc = {n: V.add(a.value(n), b.value(n)) for n in range(dom, stable)}
        modes = [list(a.modes[r]) + list(b.modes[r]) for r in range(P)]
        return EGSeq(self.real, P, modes, exc, dom, stable)

    def neg(self):
        return self.map_values(self.real.coeffs.neg)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, s):
        V = self.real.coeffs
        return self.map_values(lambda v: V.scale(s, v))

    def map_values(self, fn):
        """Apply a scalar-linear map to every value."""
        modes = [
            [(ratio, tuple(fn(c) for c in coeffs)) for ratio, coeffs in self.modes[r]]
            for r in range(self.period)
        ]
        exc = {n: fn(v) for n, v in self.exceptional.items()}
        return EGSeq(self.real, self.period, modes, exc, self.dom_min, self.stable_start)

    # ----- multiplicative ops -----

    def mul_geometric(self, sigma):
        """Multiply value(n) by sigma^n."""
        S = self.real.scalars
        V = self.real.coeffs
        Q = self.period
        sigma_q = S.pow(sigma, Q)
        modes = []
        for r in range(Q):
            sr = S.pow(sigma, r)
            modes.append(
                [
                    (S.mul(ratio, sigma_q), tuple(V.scale(sr, c) for c in coeffs))
                    for ratio, coeffs in self.modes[r]
                ]
            )
        exc = {n: V.scale(S.pow(sigma, n), v) for n, v in self.exceptional.items()}
        return EGSeq(self.real, Q, modes, exc, self.dom_min, self.stable_start)

    def pointwise(self, other, fn, out_real=None):
        """Pointwise combine with a scalar-bilinear map on values."""
        a, b, P = self._aligned(other)
        real = out_real or self.real
        S, V = real.scalars, real.coeffs
        dom = max(a.dom_min, b.dom_min)
        stable = max(a.stable_start, b.stable_start, dom)
        exc = {n: fn(a.value(n), b.value(n)) for n in range(dom, stable)}
        modes = [[] for _ in range(P)]
        for r in range(P):
            for r1, c1 in a.modes[r]:
                for r2, c2 in b.modes[r]:
                    prod = [V.zero] * (len(c1) + len(c2) - 1)
                    for e1, x in enumerate(c1):
                        for e2, y in enumerate(c2):
                            prod[e1 + e2] = V.add(prod[e1 + e2], fn(x, y))
                    modes[r].append((S.mul(r1, r2), tuple(prod)))
        return EGSeq(real, P, modes, exc, dom, stable)

    def mul(self, other):
        return self.pointwise(other, self.real.coeffs.mul)

    def shift(self, d):
        """New sequence n -> value(n + d)."""
        S, V = self.real.scalars, self.real.coeffs
        Q = self.period
        dom = self.dom_min - d
        stable = self.stable_start - d
        modes = [[] for _ in range(Q)]
        for r in range(Q):
            r2 = (r + d) % Q
            m = (r + d - r2) // Q
            for ratio, coeffs in self.modes[r2]:
                deg = len(coeffs) - 1
                ratio_m = S.pow(ratio, m)
                out = [V.zero] * (deg + 1)
                for e, c in enumerate(coeffs):
                    if V.is_zero(c):
                        continue
                    for j in range(e + 1):
                        w = math.comb(e, j) * (m ** (e - j))
                        if w == 0:
                            continue
                        out[j] = V.add(out[j], V.scale(S.mul(ratio_m, S.from_int(w)), c))
                modes[r].append((ratio, tuple(out)))
        exc = {n - d: v for n, v in self.exceptional.items()}
        return EGSeq(self.real, Q, modes, exc, dom, stable)

    def stretch(self, k):
        """Reindex onto multiples: value'(k*n) = value(n), zero elsewhere.

        The t-variable is untouched (k*(Q*t + r) = (k*Q)*t + k*r), so modes
        move to residue k*r with ratios and coefficients unchanged.
        """
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        if k == 1:
            return self
        Q = self.period
        modes = [[] for _ in range(k * Q)]
        for r in range(Q):
            modes[k * r] = list(self.modes[r])
        exc = {k * n: v for n, v in self.exceptional.items()}
        dom = k * (self.dom_min - 1) + 1
        stable = k * (self.stable_start - 1) + 1
        return EGSeq(self.real, k * Q, modes, exc, dom, stable)

    # ----- summation -----

    def _mode_tail_table(self, rho, deg):
        """M_j = sum_{u>=0} u^j rho^u for j = 0..deg; raises if rho = 1."""
        S = self.real.scalars
        inv = S.inv_one_minus(rho)
        out = []
        for j in range(deg + 1):
            row = _stirling2_row(j)
            acc = S.zero
            for i in range(j + 1):
                if row[i] == 0:
                    continue
                term = S.mul(S.pow(rho, i), S.pow(inv, i + 1))
                acc = S.add(acc, S.mul(S.from_int(row[i] * math.factorial(i)), term))
            out.append(acc)
        return out

    def tail_sum(self):
        """New sequence n -> sum_{l > n} value(l).  Exact; needs all ratios != 1."""
        S, V = self.real.scalars, self.real.coeffs
        Q = self.period
        s0 = self.stable_start
        dom2 = self.dom_min - 1
        new_modes = [[] for _ in range(Q)]
        for r in range(Q):
            acc = []
            for r2 in range(Q):
                theta = 1 if r2 <= r else 0
                for rho, coeffs in self.modes[r2]:
                    deg = len(coeffs) - 1
                    Ms = self._mode_tail_table(rho, deg)
                    rho_theta = S.pow(rho, theta)
                    out = [V.zero] * (deg + 1)
                    for e, c in enumerate(coeffs):
                        if V.is_zero(c):
                            continue
                        for j in range(e + 1):
                            for w in range(e - j + 1):
                                tp = theta ** (e - j - w)
                                if tp == 0:
                                    continue
                                k = math.comb(e, j) * math.comb(e - j, w) * tp
                                sc = S.mul(rho_theta, S.mul(S.from_int(k), Ms[j]))
                                out[w] = V.add(out[w], V.scale(sc, c))
                    acc.append((rho, tuple(out)))
            new_modes[r] = acc
        s0p = max(s0 - 1, dom2)
        result = EGSeq(self.real, Q, new_modes, None, s0p, s0p)
        if s0p > dom2:
            exc = {}
            cur = result.value(s0p)
            for n in range(s0p - 1, dom2 - 1, -1):
                cur = V.add(cur, self.value(n + 1))
                exc[n] = cur
            result = EGSeq(self.real, Q, new_modes, exc, dom2, s0p)
        return result

    def prefix_sum(self):
        """New sequence n -> sum_{dom_min <= l <= n} value(l).  Exact."""
        S, V = self.real.scalars, self.real.coeffs
        Q = self.period
        s0 = self.stable_start
        if s0 < 0:
            raise ValueError("prefix sums need a non-negative stable threshold")
        dom2 = self.dom_min - 1
        base = V.zero
        for n in range(self.dom_min, s0):
            base = V.add(base, self.value(n))
        new_modes = [[] for _ in range(Q)]
        for r in range(Q):
            acc = [(S.one, (base,))]
            for r2 in range(Q):
                psi = 0 if r2 > r else 1
                tau = -((r2 - s0) // Q)  # ceil((s0 - r2)/Q)
                for rho, coeffs in self.modes[r2]:
                    deg = len(coeffs) - 1
                    if S.is_one(rho):
                        # Faulhaber route: sum_{t'=tau}^{t-1+psi} t'^e
                        for e, c in enumerate(coeffs):
                            if V.is_zero(c):
                                continue
                            low = sum(u**e for u in range(0, tau))
                            g = _faulhaber_coeffs(e)
                            shift = psi - 1  # substitute x = t + (psi - 1)
                            poly = [Fraction(0)] * (e + 2)
                            for m, gm in enumerate(g):
                                if gm == 0:
                                    continue
                                for w in range(m + 1):
                                    poly[w] += gm * math.comb(m, w) * (shift ** (m - w))
                            poly[0] -= low
                            out = [V.zero] * (e + 2)
                            for w, fr in enumerate(poly):
                                if fr == 0:
                                    continue
                                out[w] = V.scale(S.from_fraction(fr), c)
                            acc.append((S.one, tuple(out)))
                        continue
                    Ms = self._mode_tail_table(rho, deg)
                    rho_psi = S.pow(rho, psi)
                    rho_tau = S.pow(rho, tau)
                    const = V.zero
                    out = [V.zero] * (deg + 1)
                    for e, c in enumerate(coeffs):
                        if V.is_zero(c):
                            continue
                        for j in range(e + 1):
                            tpow = tau ** (e - j)
                            if tpow != 0:
                                k = math.comb(e, j) * tpow
                                sc = S.mul(rho_tau, S.mul(S.from_int(k), Ms[j]))
                                const = V.add(const, V.scale(sc, c))
                            for w in range(e - j + 1):
                                pp = psi ** (e - j - w)
                                if pp == 0:
                                    continue
                                k = math.comb(e, j) * math.comb(e - j, w) * pp
                                sc = S.mul(rho_psi, S.mul(S.from_int(k), Ms[j]))
                                out[w] = V.sub(out[w], V.scale(sc, c))
                    acc.append((S.one, (const,)))
                    acc.append((rho, tuple(out)))
            new_modes[r] = acc
        s0p = max(s0 - 1, dom2)
        exc = {}
        if s0p > dom2:
            cur = V.zero
            for n in range(dom2 + 1, s0p):
                cur = V.add(cur, self.value(n))
                exc[n] = cur
            exc[dom2] = V.zero
        result = EGSeq(self.real, Q, new_modes, exc, dom2, s0p)
        return result

    def weighted_prefix(self, sigma):
        """New sequence n -> sum_{l <= n} sigma^(l-n) * value(l)."""
        S = self.real.scalars
        lifted = self.mul_geometric(sigma)
        summed = lifted.prefix_sum()
        return summed.mul_geometric(S.invert(sigma))
