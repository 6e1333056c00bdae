"""Multivariate integer polynomials over named variables.

One representation serves three jobs: CLI input parsing, equations of
geometric presentations, and the coefficient-extraction polynomials produced
by composing a polynomial with truncated jet expansions of its variables.

Variables are lowercase identifiers [a-z][a-z0-9]*.  Terms map exponent
vectors to integer coefficients; the variable tuple is kept sorted so equal
polynomials compare equal structurally.
"""

from __future__ import annotations

import operator

from .errors import ParseError, UnknownToken, VariableMismatch, require_int


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vars = tuple(vars)
        terms = {tuple(e): c for e, c in (terms or {}).items() if c != 0}
        # Keep variables sorted and drop unused ones for canonical form.
        used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
        if len(used) != len(vars) or list(vars) != sorted(vars):
            kept = sorted(used, key=lambda i: vars[i])
            new_vars = tuple(vars[i] for i in kept)
            new_terms = {}
            for e, c in terms.items():
                ne = tuple(e[i] for i in kept)
                new_terms[ne] = new_terms.get(ne, 0) + c
            vars, terms = new_vars, {e: c for e, c in new_terms.items() if c}
        self.vars = vars
        self.terms = terms

    @classmethod
    def const(cls, c):
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name, exp=1):
        if exp == 0:
            return cls.const(1)
        return cls((name,), {(exp,): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _aligned(self, other):
        av = sorted(set(self.vars) | set(other.vars))
        index = {v: i for i, v in enumerate(av)}
        k = len(av)

        def remap(p):
            pos = [index[v] for v in p.vars]
            out = {}
            for e, c in p.terms.items():
                ne = [0] * k
                for i, x in enumerate(e):
                    ne[pos[i]] = x
                out[tuple(ne)] = c
            return out

        return av, remap(self), remap(other)

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        av, a, b = self._aligned(other)
        for e, c in b.items():
            w = a.get(e, 0) + c
            if w:
                a[e] = w
            else:
                a.pop(e, None)
        return Poly(av, a)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        av, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                w = out.get(e, 0) + c1 * c2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return Poly(av, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        require_int(k, "Poly power: exponent", 0)
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    @classmethod
    def from_sparse(cls, names, eq):
        """The Poly of a sparse equation (const, ((monomial, coeff, ...), ...),
        ...), a monomial a tuple of (index into names, exponent); what the
        equation holds past its terms, and a term past its coefficient, is
        not read."""
        const, terms = eq[0], eq[1]
        used = sorted({i for mono, *_ in terms for i, _x in mono}, key=names.__getitem__)
        pos = {i: k for k, i in enumerate(used)}
        out = {(0,) * len(used): const}
        for mono, c, *_ in terms:
            e = [0] * len(used)
            for i, x in mono:
                e[pos[i]] = x
            out[tuple(e)] = c
        return cls([names[i] for i in used], out)

    def direct_sum_vars(self, other):
        """The variables of f(x) + g(y), sorted, without building the sum;
        VariableMismatch naming the shared ones if the sets meet."""
        overlap = set(self.vars) & set(other.vars)
        if overlap:
            raise VariableMismatch(
                "direct sum needs disjoint variables; shared: %s"
                % ", ".join(sorted(overlap))
            )
        return tuple(sorted(self.vars + other.vars))

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), t)):
            c = self.terms[e]
            factors = []
            for v, x in zip(self.vars, e):
                if x == 1:
                    factors.append(v)
                elif x > 1:
                    factors.append("%s^%d" % (v, x))
            body = "*".join(factors)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
            parts.append(("-" if c < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "Poly(%s)" % self.render()


class JetExpansion:
    """The digits of f(phi(t)) for a generic jet phi, each computed once.

    Each variable v of f is replaced by v_1*t + v_2*t^2 + ... (a jet based
    at the origin).  Digit m, the coefficient of t^m, involves only the v_j
    with j <= m, so a deeper expansion extends a shallower one: a call
    computes only the digits still missing.  The series phi^e of every
    exponent vector on the way to a term of f is built from a shorter one
    times one phi_i, on sparse polynomials: dicts from packed monomials to
    integer coefficients.  A packed monomial is an int holding the exponent
    of each coordinate in a field of its own (v_j of the i-th variable has
    id j * len(f.vars) + i, its field at bit width * id), so a product by
    v_j is one integer addition.  No exponent in phi^e exceeds deg f, so a
    field of deg f's bit length never carries into the next.

    Each digit is then grouped once, field by field, into a constant and a
    tuple of terms whose monomials are tuples of (i, j, exponent) sorted by
    variable i and then by j.  level(n) reads digits 0..n off that form as
    sparse equations over the level-n jet coordinates, where v_j of the p-th
    variable has index p*n + j - 1: the index order is the (i, j) order, so
    no monomial is sorted again at any level.
    """

    def __init__(self, f):
        self.f = f
        # e -> (e lowered by one at its last nonzero index i, i)
        steps = {}
        for e in f.terms:
            while any(e):
                i = max(k for k, x in enumerate(e) if x)
                prev = e[:i] + (e[i] - 1,) + e[i + 1 :]
                steps[e] = (prev, i)
                e = prev
        self._steps = sorted(steps.items(), key=lambda s: sum(s[0]))
        self._width = max(f.total_degree(), 1).bit_length()
        self._series = {(0,) * len(f.vars): []}  # e -> digits of phi^e
        # digit m as (const, ((((i, j, exponent), ...), coeff, jmasks, top), ...),
        # once, twice): jmasks[i] has bit j - 1 for each v_j of the i-th
        # variable, top is the largest j, and once[i], resp. twice[i], has the
        # bits of the i-th variable that one, resp. two, jmasks have
        self._digits = []

    def level(self, n, vars=None, order=1):
        """Digits 0..n of f(phi) as (const, ((monomial, coeff, mask, weight),
        ...), once, twice) over the level-n jet coordinates of vars: sorted
        names that include f's (default f.vars), v_j of the p-th one having
        index p*n + j - 1, a monomial a sorted tuple of (index, exponent),
        mask the bits of its indices, weight its weight when v_j weighs
        j mod order (a digit-m monomial weighs m when every j < order), and
        once, resp. twice, the indices that one, resp. two, monomials hold.
        Each variable's bits are those of the grouped digit shifted by p*n."""
        while len(self._digits) <= n:
            self._extend()
        pos = range(len(self.f.vars)) if vars is None else [vars.index(v) for v in self.f.vars]
        base = [p * n - 1 for p in pos]
        shift = [p * n for p in pos]
        # a monomial with every j < cut weighs w, one with a larger j is summed
        cut = n + 1 if order == 1 else order
        out = []
        for m, (const, terms, once, twice) in enumerate(self._digits[: n + 1]):
            w = 0 if order == 1 else m
            out.append((
                const,
                tuple([
                    (
                        tuple([(base[i] + j, x) for i, j, x in mono]),
                        c,
                        sum(map(operator.lshift, jmasks, shift)),
                        w if top < cut else sum([x * (j % order) for _i, j, x in mono]),
                    )
                    for mono, c, jmasks, top in terms
                ]),
                sum(map(operator.lshift, once, shift)),
                sum(map(operator.lshift, twice, shift)),
            ))
        return out

    def _extend(self):
        """Compute digit m of every phi^e from the digits below it."""
        m, k, width = len(self._digits), len(self.f.vars), self._width
        self._series[(0,) * k].append({0: 1} if m == 0 else {})
        for e, (prev, i) in self._steps:
            # phi^e = phi^prev * sum_j v_j t^j
            out = {}
            below = self._series[prev]
            for j in range(1, m + 1):
                v = 1 << width * (j * k + i)
                for mono, c in below[m - j].items():
                    key = mono + v
                    out[key] = out.get(key, 0) + c
            self._series.setdefault(e, []).append(out)
        total = {}
        for e, c in self.f.terms.items():
            for mono, v in self._series[e][m].items():
                total[mono] = total.get(mono, 0) + c * v
        const = total.pop(0, 0)
        field = (1 << width) - 1
        terms = []
        once, twice = [0] * k, [0] * k
        for key, c in total.items():
            mono, jmasks = [], [0] * k
            while key:
                at = ((key & -key).bit_length() - 1) // width * width
                x = key >> at & field
                key ^= x << at
                j, i = divmod(at // width, k)
                mono.append((i, j, x))
                jmasks[i] |= 1 << (j - 1)
            mono.sort()
            for i, jm in enumerate(jmasks):
                twice[i] |= once[i] & jm
                once[i] |= jm
            # ids rise with j, so the last field read holds the largest j
            terms.append((tuple(mono), c, tuple(jmasks), j))
        self._digits.append((const, tuple(terms), tuple(once), tuple(twice)))


# --- parsing (the CLI expression grammar) ------------------------------------


def _tokenize(src):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
        elif "a" <= ch <= "z":
            j = i + 1
            while j < len(src) and (src[j].isdecimal() or "a" <= src[j] <= "z"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise UnknownToken("unknown character %r" % ch, i)
    tokens.append(("end", None, len(src)))
    return tokens


def parse_poly(src):
    """Parse an integer polynomial expression.

    Grammar: variables [a-z][a-z0-9]*, integer literals, +, -, *, ^ with
    ^ binding tightest and right-associative, and parentheses.  Raises
    ParseError carrying the offending position.
    """
    parser = _Parser(_tokenize(src))
    out = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError("unexpected %r" % (tok[1],), tok[2])
    return out


class _Parser:
    """Recursive descent over a token list.  The rules are methods, so
    their mutual recursion goes through the class, not through closures
    that would reach each other in a reference cycle."""

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        return self.advance()

    def exponent(self):
        tok = self.peek()
        if tok[0] != "int":
            raise ParseError(
                "expected an integer exponent after '^', found %r" % (tok[1],), tok[2]
            )
        return self.advance()[1]

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return Poly.const(tok[1])
        if tok[0] == "ident":
            self.advance()
            return Poly.var(tok[1])
        if tok[0] == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError("expected a value, found %r" % (tok[1],), tok[2])

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        # Right-associative exponent chains fold in the integers.
        exps = []
        while self.peek()[0] == "^":
            self.advance()
            exps.append(self.exponent())
        e = exps[-1]
        for x in reversed(exps[:-1]):
            e = x**e
        return base**e

    def unary(self):
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                neg = not neg
        p = self.power()
        return -p if neg else p

    def term(self):
        p = self.unary()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.unary()
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "+":
                p = p + self.term()
            else:
                p = p - self.term()
        return p
