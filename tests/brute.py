"""Brute-force jet counters over F_q and the lattice sum of resolution
data: the test suite's reference.

Each counter enumerates every jet explicitly and evaluates f(phi) digit by
digit in pure Python, sharing nothing with the library's counting routes
(the closed streams of recognized shapes, and the F_q DFS on jet loci, which
counts the per-axis jets of every other germ and the pair splits of a
direct sum).
The cost is q^(d*level) per count, so DIRECT_BUDGET keeps them to small
cases; they exist only to check the library's routes on overlap.
mono_exact_count and mono_ordgt_count are the closed jet counts of x^a at
any level, the oracles for x^a past the counters' reach.
lattice_sum likewise adds up resolution data one lattice point at a time,
the reference for the closed strands of dl_eval, and validate_cone checks
a ConePieces point by point against a membership predicate.
count_reduced_brute is the F_q DFS as it was before its equations carried
coordinate masks: it rescans every term for the use counts and
specializes every equation at every branch.  It tries the same candidates
as geomset._count_reduced, the reference for its counts and its meter
units; mask_equation_brute gives a (const, {monomial: coeff}) equation the
masks that search reads.
fermat_twisted_dfs counts a twisted Fermat pair, reduced by prepare_brute
with its two independent twists, by the library's F_q DFS, and
fermat_affine_brute counts u^a + v^b = c pair by pair, the references for
the power-table kernel geomset.fermat_counts.
monomial_pair_brute computes the closed pair counts of (x^a, y^b) at one
level, each common-order term in its own power of q, the reference for
the running sums of the level stream zeta._closed_pair_levels.
compile_equation_brute reads a Poly equation's twisted form over F_q off
its dense exponent vectors, one twist exponent per coordinate, and
prepare_brute reduces a twisted count with it into candidate lists: at the
exponents -s w_i of a sector s, the reference for geomset._prepare, which
twists the sparse form each GeomSet builds once in one pass, reading each
monomial's twist off its weight, and returns a nonzero mask.  jet_equations_dense builds the equations of a jet
locus from the Poly digits of poly.JetExpansion, the reference for the
sparse loci of zeta.jet_set.
berlekamp_massey_brute is Massey's algorithm over Fractions, the reference
for the fraction-free series._berlekamp_massey.
strand_candidates_brute builds the candidate strands of closed_from_fit by
trial division of B by each shape's denominator, the reference for the
divisibility rule of series._strand_candidates.
solve_exact_brute is Gauss-Jordan elimination over Fractions, the
reference for the fraction-free solver series._solve_exact.
chains_brute multiplies the stream values along every strictly increasing
tuple of axis values, the reference for the chain walk
series.expand_chains.
"""

import itertools
import math
from fractions import Fraction

from motzeta.errors import BudgetExceeded, ConeNotDecomposed, MotzetaError
from motzeta.geomset import (
    _check_twist,
    _count_reduced,
    _primitive_root,
    _require_prime,
    _root_count,
    fermat_pair,
)
from motzeta.poly import JetExpansion
from motzeta.locring import LocRat
from motzeta.series import TruncSeries
from motzeta.zeta import (
    ResolutionData,
    _as_poly,
    _cone_for,
    _default_vars,
    _stratum_coeffs,
    parse_resolution,
)

# candidates for one brute-force count
DIRECT_BUDGET = 2_000_000


def _value_digits(f, jets, n, q):
    """Digits c_0..c_n of f(phi) mod t^{n+1} mod q, jets at the origin.

    jets: var -> list of level coefficients (c_1.., ints mod q).
    """
    out = [0] * (n + 1)
    for e, c in f.terms.items():
        term = [0] * (n + 1)
        term[0] = c % q
        for v, x in zip(f.vars, e):
            js = jets[v]
            for _ in range(x):
                new = [0] * (n + 1)
                for i in range(n + 1):
                    if term[i] == 0:
                        continue
                    for j in range(1, min(len(js), n - i) + 1):
                        if js[j - 1]:
                            new[i + j] = (new[i + j] + term[i] * js[j - 1]) % q
                term = new
        for m in range(n + 1):
            out[m] = (out[m] + term[m]) % q
    if not f.vars and f.terms:
        out[0] = f.constant_term() % q
    return out


def jet_count_direct(f, n, q, level=None, target="exact", budget=None):
    """Brute-force jet count over F_q (q prime), no GeomSet involved.

    target "exact": f(phi) = t^n mod t^{n+1}; "ordgt": ord f(phi) > n.
    Level defaults to n; larger levels enumerate the extra free digits.
    """
    f = _as_poly(f)
    _require_prime(q, "jet_count_direct")
    if level is None:
        level = n
    if level < n:
        raise ValueError("level must be at least the jet order")
    d = len(f.vars)
    cap = budget if budget is not None else DIRECT_BUDGET
    if q ** (d * level) > cap:
        raise BudgetExceeded(
            "direct enumeration of %d^%d jets exceeds the budget" % (q, d * level)
        )
    want = [0] * (n + 1)
    if target == "exact":
        want[n] = 1
    elif target != "ordgt":
        raise ValueError("target must be 'exact' or 'ordgt'")
    count = 0
    vars_ = sorted(f.vars)
    for flat in itertools.product(range(q), repeat=d * level):
        jets = {
            v: list(flat[i * level : (i + 1) * level]) for i, v in enumerate(vars_)
        }
        if _value_digits(f, jets, n, q) == want:
            count += 1
    return count


def mono_exact_count(a, n, q, level):
    """Closed count of level-`level` jets phi with phi^a = t^n mod
    t^{n+1}, a prime to q: gcd(a, q-1) leading digits, the digits past
    n/a free."""
    if math.gcd(a, q) != 1 or level < n:
        raise ValueError("need a prime to q and level >= n")
    if n % a:
        return 0
    return math.gcd(a, q - 1) * q ** (level - n // a)


def mono_ordgt_count(a, n, q, level):
    """Closed count of level-`level` jets phi with ord phi^a > n: the
    digits through n/a vanish, the others are free."""
    if math.gcd(a, q) != 1 or level < n // a:
        raise ValueError("need a prime to q and level >= n//a")
    return q ** (level - n // a)


def _specialize(eq, i, value, q):
    """Substitute coordinate i = value into a compiled equation."""
    const, terms = eq
    new_terms = {}
    for mono, coeff in terms.items():
        for k, (j, x) in enumerate(mono):
            if j == i:
                coeff = coeff * pow(value, x, q) % q
                mono = mono[:k] + mono[k + 1 :]
                break
        if not coeff:
            continue
        if mono:
            new_terms[mono] = new_terms.get(mono, 0) + coeff
        else:
            const += coeff
    return const % q, {m: c % q for m, c in new_terms.items() if c % q}


def _solve_alone(eq, uses, candidates, q):
    """(j, n) when the equation leaves n values of a coordinate j, which no
    other monomial of the system mentions, for every value of the rest;
    else None.  uses[j] counts the monomials of the live equations that
    mention j."""
    const, terms = eq
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        if len(mono) == 1 and uses[mono[0][0]] == 1:
            j, k = mono[0]
            if const:  # c v^k + d with d != 0: v^k = -d/c
                return j, _root_count(k, -const * pow(c, q - 2, q) % q, q)
            return j, int(len(candidates[j]) == q)  # c v^k = 0: v = 0
    for mono in terms:
        j, x = mono[0]
        if len(mono) == 1 and x == 1 and uses[j] == 1 and len(candidates[j]) == q:
            return j, 1  # c x_j + rest = 0 has one root x_j over F_q
    return None


def count_reduced_brute(eqs, unassigned, candidates, q, meter):
    """geomset._count_reduced on (const, {monomial: coeff}) equations, the
    use counts rescanned from every term at every call.

    Same rules, pivots and meter units; see geomset._count_reduced.
    """
    live = []
    for const, terms in eqs:
        if not terms:
            if const:
                return 0
        else:
            live.append((const, terms))
    uses = {}
    for _, terms in live:
        for mono in terms:
            for j, _x in mono:
                uses[j] = uses.get(j, 0) + 1
    multiplier = 1
    solved = set()
    changed = True
    while changed:
        changed = False
        kept = []
        for eq in live:
            hit = _solve_alone(eq, uses, candidates, q)
            if hit is None:
                kept.append(eq)
                continue
            j, n = hit
            if not n:
                return 0
            multiplier *= n
            solved.add(j)
            for mono in eq[1]:
                for i, _x in mono:
                    uses[i] -= 1
            changed = True
        live = kept
    branching = []
    for i in unassigned:
        if uses.get(i):
            branching.append(i)
        elif i not in solved:
            multiplier *= len(candidates[i])
    if not live:
        return multiplier
    # The equation with the fewest distinct coordinates, so triangular
    # systems resolve level by level.
    const, terms = min(live, key=lambda e: len({j for mono in e[1] for j, _ in mono}))
    eq_vars = {j for mono in terms for j, _ in mono}
    if len(eq_vars) == 1:
        (pivot,) = eq_vars
        c = terms.get(((pivot, 1),))
        if len(terms) == 1 and c is not None:
            meter.spend()
            root = -const * pow(c, q - 2, q) % q
            values = [root] if root or len(candidates[pivot]) == q else []
        else:
            meter.spend(len(candidates[pivot]))
            powers = [(c, mono[0][1]) for mono, c in terms.items()]
            values = [
                v for v in candidates[pivot]
                if (const + sum(c * pow(v, k, q) for c, k in powers)) % q == 0
            ]
    else:
        alone = {mono[0][0] for mono in terms if len(mono) == 1 and mono[0][1] == 1}
        for mono in terms:
            if len(mono) > 1 or mono[0][1] > 1:
                alone.difference_update(j for j, _x in mono)
        in_eq = [i for i in branching if i in eq_vars]
        pivot = next((i for i in in_eq if i not in alone), in_eq[0])
        values = candidates[pivot]
        meter.spend(len(values))
    rest = [i for i in branching if i != pivot]
    total = 0
    for value in values:
        next_eqs = [_specialize(eq, pivot, value, q) for eq in live]
        total += count_reduced_brute(next_eqs, rest, candidates, q, meter)
    return multiplier * total


def mask_equation_brute(const, terms):
    """(const, {monomial: (coeff, mask)}, once, twice) for an equation
    (const, {monomial: coeff}): mask has bit j when the monomial holds x_j,
    and once and twice have the coordinates that at least one, resp. two,
    of its monomials hold, counted one coordinate at a time."""
    uses = {}
    for mono in terms:
        for j, _x in mono:
            uses[j] = uses.get(j, 0) + 1
    masks = {mono: sum(2**j for j, _x in mono) for mono in terms}
    once = sum(2**j for j in uses)
    twice = sum(2**j for j, n in uses.items() if n > 1)
    return const, {mono: (c, masks[mono]) for mono, c in terms.items()}, once, twice


def fermat_twisted_dfs(kind, N, q, e_u, e_v, meter):
    """Twisted count of F_kind^N by the F_q DFS on fermat_pair(kind, N),
    reduced with the independent twists (e_u, e_v) by prepare_brute; both
    coordinates are nonzero (mask 0b11)."""
    eqs, _candidates = prepare_brute(fermat_pair(kind, N), q, (e_u, e_v))
    return _count_reduced(eqs, [0, 1], 0b11, q, meter)


def compile_equation_brute(eq, coord_index, exps, N, q, g):
    """Poly -> (const, {monomial: coeff}) over F_q in the coordinates u_i of
    x_i = zeta_K^{exps[i]} u_i, divided by zeta_K^r (see the geomset module
    docstring).

    A monomial is a sorted tuple of (coordinate index, exponent).  Raises
    MotzetaError if the equation is not semi-invariant under the twist.
    """
    const = 0
    terms = {}
    r = None
    for e, c in eq.terms.items():
        if c % q == 0:
            continue
        mono = tuple(sorted((coord_index[v], x) for v, x in zip(eq.vars, e) if x))
        if not mono:
            const = c % q
            continue
        E = sum(x * exps[i] for i, x in mono)
        if r is None:
            r = E % N
        elif E % N != r:
            raise MotzetaError(
                "equation %s is not semi-invariant under the twist" % eq.render()
            )
        terms[mono] = c * pow(g, (E - r) // N, q) % q
    if const and r:
        raise MotzetaError(
            "equation %s is not semi-invariant under the twist" % eq.render()
        )
    return const, terms


def prepare_brute(gs, q, exps):
    """A twisted count of gs with the twist exponent exps[i] on coordinate
    i, reduced to F_q: (equations, candidates), every Poly of gs.equations
    compiled by compile_equation_brute (zeta_K as in the geomset module
    docstring) and masked by mask_equation_brute, and per coordinate the
    list of its values in F_q.  At exps[i] = -s w_i, geomset._prepare(gs,
    q, s) with its nonzero mask read as those lists."""
    N = gs.action_order
    _check_twist(N, q, exps)
    K = N * (q - 1)
    exps = [e % K for e in exps]
    g = _primitive_root(q)
    coord_index = {c: i for i, c in enumerate(gs.coords)}
    eqs = [
        mask_equation_brute(*compile_equation_brute(eq, coord_index, exps, N, q, g))
        for eq in gs.equations
    ]
    units = list(range(1, q))
    with_zero = [0] + units
    candidates = [units if c in gs.nonzero else with_zero for c in gs.coords]
    return eqs, candidates


def jet_equations_dense(f, n, exact=True):
    """The equations of jet_set(f, n, exact) as Polys: the nonzero digits
    below t^n of JetExpansion(f).digits(n), then digit n minus 1 (exact) or
    digit n if nonzero (order beyond n)."""
    cs = JetExpansion(f).digits(n)
    eqs = [c for c in cs[:n] if not c.is_zero()]
    if exact:
        eqs.append(cs[n] - 1)
    elif not cs[n].is_zero():
        eqs.append(cs[n])
    return tuple(eqs)


def fermat_affine_brute(a, b, q):
    """(#{u^a + v^b = 0}, #{u^a + v^b = 1}, #{v^b = -1}) over (F_q^*)^2,
    resp. F_q^* for the last, one pair (u, v) at a time."""
    pow_a = [pow(u, a, q) for u in range(1, q)]
    pow_b = [pow(v, b, q) for v in range(1, q)]
    f0 = sum(1 for x in pow_a for y in pow_b if (x + y) % q == 0)
    f1 = sum(1 for x in pow_a for y in pow_b if (x + y) % q == 1)
    negb = sum(1 for y in pow_b if (y + 1) % q == 0)
    return f0, f1, negb


def monomial_pair_brute(a, b, n, q):
    """The closed pair counts of (x^a, y^b) at level n in the dict of
    histogram_pair_counts, every term computed at level n on its own: each
    common order l < n in its own power of q, with the Fermat triple of
    fermat_affine_brute."""
    f0, f1, negb = fermat_affine_brute(a, b, q)
    ga, gb = math.gcd(a, q - 1), math.gcd(b, q - 1)
    free = q ** (2 * n - n // a - n // b)
    both = n % a == 0 and n % b == 0
    out = {
        "A1": f1 * free if both else 0,
        "A2": (ga * free if n % a == 0 else 0) + (gb * free if n % b == 0 else 0),
        "A3_by_l": {
            l: f0 * q ** (n + l - l // a - l // b)
            for l in range(1, n)
            if f0 and l % a == 0 and l % b == 0
        },
        "Bpair": ga * negb * free if both else 0,
    }
    out["A3"] = sum(out["A3_by_l"].values())
    out["total"] = out["A1"] + out["A2"] + out["A3"]
    return out


def direct_pair_counts(f, g, n, q, budget=None):
    """Pure-Python counterpart of histogram_pair_counts (bucket join over
    explicit jet enumeration, where the library counts jet loci with the
    F_q DFS); same return shape.  Buckets are keyed on all digits c_0..c_n,
    so constant terms that cancel mod q pair up; orders are read from the
    t^1 digit up, as in histogram_pair_counts."""
    f, g = _as_poly(f), _as_poly(g)
    _require_prime(q, "direct_pair_counts")
    cap = budget if budget is not None else DIRECT_BUDGET
    if q ** (len(f.vars) * n) + q ** (len(g.vars) * n) > cap:
        raise BudgetExceeded("direct pair enumeration exceeds the budget")

    def buckets(h):
        vars_ = sorted(h.vars)
        d = len(vars_)
        out = {}
        for flat in itertools.product(range(q), repeat=d * n):
            jets = {v: list(flat[i * n : (i + 1) * n]) for i, v in enumerate(vars_)}
            key = tuple(_value_digits(h, jets, n, q))
            out[key] = out.get(key, 0) + 1
        return out

    bf = buckets(f)
    bg = buckets(g)
    out = {"total": 0, "A1": 0, "A2": 0, "A3": 0, "A3_by_l": {}, "Bpair": 0}

    def lead(key):
        for i, dig in enumerate(key[1:], start=1):
            if dig:
                return i
        return n + 1

    target = (0,) * n + (1,)
    for key, cf in bf.items():
        comp = tuple((t - k) % q for t, k in zip(target, key))
        cg = bg.get(comp)
        if not cg:
            continue
        pairs = cf * cg
        out["total"] += pairs
        lf, lg = lead(key), lead(comp)
        if lf == n and lg == n:
            out["A1"] += pairs
        elif lf != lg:
            out["A2"] += pairs
        else:
            out["A3"] += pairs
            out["A3_by_l"][lf] = out["A3_by_l"].get(lf, 0) + pairs
    neg = (0,) * n + ((-1) % q,)
    out["Bpair"] = bf.get(target, 0) * bg.get(neg, 0)
    return out


def multizeta_direct(fs, D, real, vars=None, budget=None):
    """Definitional route: enumerate the full product of level-|n| jets
    and test the family conditions jointly.  Exponential; oracle only."""
    fs = tuple(_as_poly(f) for f in fs)
    r = len(fs)
    if vars is None:
        vars = _default_vars(r)
    q = real.q
    _require_prime(q, "multizeta_direct")
    dims = [len(f.vars) for f in fs]
    dtot = sum(dims)
    cap = budget if budget is not None else DIRECT_BUDGET
    ent = {}

    def count_chain(exps):
        lvl = sum(exps)
        if q ** (dtot * lvl) > cap:
            raise BudgetExceeded("family enumeration exceeds the budget")
        cnt = 0
        for flat in itertools.product(range(q), repeat=dtot * lvl):
            ok = True
            off = 0
            for i, f in enumerate(fs):
                vars_ = sorted(f.vars)
                jets = {
                    v: list(flat[off + k * lvl : off + (k + 1) * lvl])
                    for k, v in enumerate(vars_)
                }
                off += dims[i] * lvl
                digs = _value_digits(f, jets, exps[i], q)
                want = [0] * (exps[i] + 1)
                if i == 0:
                    want[exps[0]] = 1
                if digs != want:
                    ok = False
                    break
            if ok:
                cnt += 1
        return cnt

    def rec(i, prev, used, exps):
        if i == r:
            c = count_chain(exps)
            if c:
                ent[tuple(exps)] = Fraction(c, q ** (dtot * used))
            return
        n = prev + 1
        while used + n + sum(n + j + 1 for j in range(r - i - 1)) <= D:
            rec(i + 1, n, used + n, exps + [n])
            n += 1

    rec(0, 0, 0, [])
    return TruncSeries(real, tuple(vars), D, ent)


def lattice_sum(res, real, D, vars=None, cone=None, binding=None):
    """Definitional route for resolution data: the lattice sum of each
    stratum over the positive integer vectors (or the points of the
    supplied cone pieces), term by term through total degree D.  The
    closed strands of dl_eval are checked against it.  binding is a
    motclass.Binding, as for dl_eval."""
    if not isinstance(res, ResolutionData):
        res = parse_resolution(res)
    r = res.width
    if vars is None:
        vars = _default_vars(r)
    ent = {}

    def add(exp, val):
        if sum(exp) > D:
            return
        ent[exp] = ent[exp] + val if exp in ent else val

    coeffs = _stratum_coeffs(res, real, binding)
    for si, (st, coeff) in enumerate(zip(res.strata, coeffs)):
        k = len(st.labels)

        def emit(kvec):
            exp = tuple(
                sum(kvec[i] * st.N[i][j] for i in range(k)) for j in range(r)
            )
            if sum(exp) > D:
                return False
            tw = -sum(kvec[i] * st.nu[i] for i in range(k))
            scal = LocRat.L(tw) if real.tag == "symbolic" else Fraction(real.q) ** tw
            add(exp, scal * coeff)

        pieces = _cone_for(si, cone)
        if pieces is None:

            def rec(i, kvec):
                if i == k:
                    emit(tuple(kvec))
                    return
                c = 1
                while True:
                    kvec.append(c)
                    exp_min = sum(
                        kvec[t] * sum(st.N[t]) for t in range(len(kvec))
                    ) + sum(sum(st.N[t]) for t in range(len(kvec), k))
                    if exp_min > D:
                        kvec.pop()
                        break
                    rec(i + 1, kvec)
                    kvec.pop()
                    c += 1

            rec(0, [])
        else:
            for gens, flags in pieces.pieces:
                m = len(gens)

                def recp(i, cvec):
                    if i == m:
                        kvec = tuple(
                            sum(cvec[t] * gens[t][i2] for t in range(m))
                            for i2 in range(len(gens[0]))
                        )
                        emit(kvec)
                        return
                    c = 1 if flags[i] else 0
                    while True:
                        cvec.append(c)
                        kmin = [
                            sum(
                                cvec[t] * gens[t][i2]
                                for t in range(len(cvec))
                            )
                            + sum(
                                (1 if flags[t] else 0) * gens[t][i2]
                                for t in range(len(cvec), m)
                            )
                            for i2 in range(len(gens[0]))
                        ]
                        dmin = sum(
                            kmin[i2] * sum(st.N[i2][j] for j in range(r))
                            for i2 in range(len(kmin))
                        )
                        if dmin > D:
                            cvec.pop()
                            break
                        recp(i + 1, cvec)
                        cvec.pop()
                        c += 1

                recp(0, [])
            if pieces.origin:
                add((0,) * r, coeff)
    return TruncSeries(real, tuple(vars), D, ent)


def validate_cone(spec, member, bound, dim=None):
    """Check a ConePieces against a membership predicate on every lattice
    point of the [0, bound]^dim box: each member must lie in exactly one
    piece (or be the origin with the origin flag), each non-member in none.
    A point lies in a piece when its coordinates in the piece's generators,
    unique because they are independent, are integers, >= 1 on the open
    and >= 0 on the closed generators; the coordinates come from
    solve_exact_brute, so this shares no solver with the independence
    check of ConePieces.  The reference for the cone pieces dl_eval sums.
    Raises ConeNotDecomposed with a witness."""
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
            c = solve_exact_brute(list(zip(*gens)), pt)
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


def _pmul(a, b):
    """Product of polynomials given lowest coefficient first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pquo(a, b):
    """Exact quotient a / b (b[0] == 1), or None when b does not divide a.

    The power series a / b is a polynomial of degree len(a) - len(b) iff its
    next len(b) - 1 coefficients vanish.
    """
    terms = [(j, c) for j, c in enumerate(b) if j and c]
    quo = []
    for i, x in enumerate(a):
        quo.append(x - sum(c * quo[i - j] for j, c in terms if j <= i))
    deg = len(a) - len(b) + 1
    return quo[:deg] if deg > 0 and not any(quo[deg:]) else None


def berlekamp_massey_brute(s):
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


def strand_candidates_brute(q, Q, mult):
    """[(shape, numerator)] over B = prod_mu (1 - q^mu T^Q)^mult[mu]: each
    factor (m, N) with N | Q and m Q / N in mult, then each pair, kept when
    the product of its 1 - q^m T^N divides B, with numerator
    B * prod q^m T^N / (1 - q^m T^N) lowest coefficient first."""

    def denom(factors):
        out = [Fraction(1)]
        for m, N in factors:
            out = _pmul(out, [Fraction(1)] + [Fraction(0)] * (N - 1) + [-Fraction(q) ** m])
        return out

    B = denom([(mu, Q) for mu, k in mult.items() for _ in range(k)])
    steps = [N for N in range(1, Q + 1) if Q % N == 0]
    factors = sorted({(mu * N // Q, N) for mu in mult for N in steps if mu * N % Q == 0})
    shapes = [(f,) for f in factors]
    shapes += [(f1, f2) for i, f1 in enumerate(factors) for f2 in factors[i:]]
    cands = []
    for shape in shapes:
        quo = _pquo(B, denom(shape))
        if quo is not None:
            scale = Fraction(q) ** sum(m for m, _ in shape)
            cands.append((shape, [Fraction(0)] * sum(N for _, N in shape) + [scale * c for c in quo]))
    return cands


def solve_exact_brute(rows, rhs):
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


def chains_brute(vars, masks, streams, bound):
    """Nonzero entries {exponent: value} of the chain series through total
    degree bound: every strictly increasing tuple w_1 < .. < w_eta with
    w_j >= streams[j].dom_min, at the exponent sum_j w_j * masks[j], adds
    the ordered product of the streams[j].value(w_j)."""
    ent = {}
    for ws in itertools.combinations(range(1, bound + 1), len(streams)):
        if any(w < s.dom_min for w, s in zip(ws, streams)):
            continue
        exp = tuple(sum(w * m[i] for w, m in zip(ws, masks)) for i in range(len(vars)))
        if sum(exp) > bound:
            continue
        val = streams[0].value(ws[0])
        for w, s in zip(ws[1:], streams[1:]):
            val = val * s.value(w)
        ent[exp] = ent[exp] + val if exp in ent else val
    return {e: v for e, v in ent.items() if v}
