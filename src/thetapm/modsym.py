"""Rational modular symbols for Gamma_0(N) via Manin symbols.

Generators are the points of P^1(Z/N), one per orbit of the units of Z/N,
found by enumerating the orbits; the quotient by the two- and three-term
relations is computed once by exact Gaussian elimination.  An
eigensymbol is a Hecke/involution eigenfunctional on the quotient, scaled
to integer generator values of content one, and path values {oo, a/m} are
produced by the continued-fraction (Manin) trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd

from .curves import is_fundamental_discriminant, kronecker_symbol
from .exceptions import (InvalidArgument, IsolationFailure, ResourceLimit)
from .padics import is_prime, prime_factors

LEVEL_BOUND = 10 ** 4


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - y * (a // b)


class P1Table:
    """Canonical representatives and a full lookup table for P^1(Z/N).

    Each point's orbit under the units of Z/N is enumerated once; the
    least point of the orbit is its representative, and the representatives
    are indexed in increasing order.
    """

    def __init__(self, N):
        if N < 1:
            raise InvalidArgument("level must be positive")
        if N > LEVEL_BOUND:
            raise ResourceLimit("level %d beyond bound %d" % (N, LEVEL_BOUND))
        self.N = N
        units = [s for s in range(N) if gcd(s, N) == 1]
        self.table = table = [-1] * (N * N)
        self.reps = reps = []
        for c in range(N):
            for d in range(N):
                if table[c * N + d] != -1 or gcd(gcd(c, d), N) != 1:
                    continue
                # every smaller point is indexed already, so (c : d) is the
                # least point of its orbit
                for s in units:
                    table[s * c % N * N + s * d % N] = len(reps)
                reps.append((c, d))

    def lookup(self, c, d):
        N = self.N
        i = self.table[(c % N) * N + (d % N)]
        if i < 0:
            raise InvalidArgument("not a point of P1")
        return i

    def __len__(self):
        return len(self.reps)


class ManinSymbolSpace:
    """Quotient of Q[P^1(Z/N)] by the Manin relations, with Hecke action."""

    def __init__(self, N):
        self.level = N
        self.p1 = P1Table(N)
        self.generators = self.p1.reps
        self.relation_rows = self._relations()
        self.reduction = self._eliminate(self.relation_rows)
        self.basis = sorted(i for i, e in enumerate(self.reduction) if e is None)
        self.bindex = {g: i for i, g in enumerate(self.basis)}
        self.dim = len(self.basis)

    # -- relations ------------------------------------------------------

    def _relations(self):
        N = self.level
        look = self.p1.lookup
        rows = []
        for i, (c, d) in enumerate(self.generators):
            r = {}
            for j in (i, look(d, -c)):
                r[j] = r.get(j, 0) + 1
            rows.append(r)
            r = {}
            for j in (i, look(d, -c - d), look(-c - d, c)):
                r[j] = r.get(j, 0) + 1
            rows.append(r)
        return rows

    def relations_vanish(self, values):
        """True when generator values satisfy both Manin relations exactly."""
        return all(sum(c * values[j] for j, c in row.items()) == 0
                   for row in self.relation_rows)

    def star_holds(self, values, sign):
        """True when values(-c:d) = sign * values(c:d) on every point."""
        look = self.p1.lookup
        return all(values[look(-c, d)] == sign * v
                   for (c, d), v in zip(self.generators, values))

    def hecke_holds(self, values, ell, a):
        """True when values, read on the basis, satisfy T_ell w = a w."""
        w = [values[g] for g in self.basis]
        return all(sum(t * x for t, x in zip(row, w)) == a * wi
                   for row, wi in zip(self.hecke_matrix(ell), w))

    def _eliminate(self, rows):
        n = len(self.generators)
        pivots = {}

        def substitute(r):
            r = dict(r)
            again = True
            while again:
                again = False
                for k in list(r):
                    if k in pivots:
                        c = r.pop(k)
                        for k2, v2 in pivots[k].items():
                            r[k2] = r.get(k2, Fraction(0)) + c * v2
                        again = True
                for k in [k for k, v in r.items() if v == 0]:
                    del r[k]
            return r

        for row in rows:
            r = substitute({k: Fraction(v) for k, v in row.items()})
            if not r:
                continue
            k = max(r)
            c = r.pop(k)
            expr = {k2: -v / c for k2, v in r.items()}
            pivots[k] = expr
            for kk, e in list(pivots.items()):
                if k in e:
                    c2 = e.pop(k)
                    for k3, v3 in expr.items():
                        e[k3] = e.get(k3, Fraction(0)) + c2 * v3
                    pivots[kk] = {a: b for a, b in e.items() if b != 0}
        return [pivots.get(i) for i in range(n)]

    # -- vectors over the basis ------------------------------------------

    def gen_vector(self, i):
        v = [Fraction(0)] * self.dim
        e = self.reduction[i]
        if e is None:
            v[self.bindex[i]] = Fraction(1)
        else:
            for k, c in e.items():
                v[self.bindex[k]] += c
        return v

    def path_gen_indices(self, a, b):
        """Generator indices (each coefficient +1) of {oo, a/b}."""
        N = self.level
        out = []
        if b == 0:
            return out
        g = gcd(a, b)
        if g > 1:
            a //= g
            b //= g
        if b < 0:
            a, b = -a, -b
        look = self.p1.table
        xx, yy = a, b
        pm1, qm1 = 1, 0
        pj = qj = 0
        sign = -1
        first = True
        while yy:
            q0, r = divmod(xx, yy)
            xx, yy = yy, r
            if first:
                pj, qj = q0, 1
                first = False
            else:
                pj, qj, pm1, qm1 = q0 * pj + pm1, q0 * qj + qm1, pj, qj
            out.append(look[((sign * qj) % N) * N + qm1 % N])
            sign = -sign
        return out

    def path_vector(self, a, b):
        v = [Fraction(0)] * self.dim
        for idx in self.path_gen_indices(a, b):
            e = self.reduction[idx]
            if e is None:
                v[self.bindex[idx]] += 1
            else:
                for k, c in e.items():
                    v[self.bindex[k]] += c
        return v

    def segment_vector(self, n1, d1, n2, d2):
        """{n1/d1, n2/d2} = {oo, n2/d2} - {oo, n1/d1}."""
        v2 = self.path_vector(n2, d2)
        v1 = self.path_vector(n1, d1)
        return [a - b for a, b in zip(v2, v1)]

    # -- operators --------------------------------------------------------

    def _lift_to_sl2(self, c, d):
        N = self.level
        c0, d0 = c % N, d % N
        if c0 == 0:
            return (1, 0, 0, 1)
        t = 0
        while gcd(c0, d0 + t * N) != 1:
            t += 1
        d0 += t * N
        g, x, y = _ext_gcd(d0, c0)
        assert g == 1
        return (x, -y, c0, d0)   # a*d - b*c = 1

    def star_matrix(self):
        """Involution induced by (c:d) -> (-c:d); rows are images of basis."""
        look = self.p1.lookup
        return [self.gen_vector(look(-self.generators[g][0], self.generators[g][1]))
                for g in self.basis]

    def hecke_matrix(self, ell):
        """T_ell for a good prime ell, via the degree-ell path correspondence."""
        if self.level % ell == 0:
            raise InvalidArgument("T_%d at a bad prime is not supported" % ell)
        mats = [(1, b, 0, ell) for b in range(ell)] + [(ell, 0, 0, 1)]
        rows = []
        for g in self.basis:
            c, d = self.generators[g]
            a0, b0, c0, d0 = self._lift_to_sl2(c, d)
            vec = [Fraction(0)] * self.dim
            for (A, B, C, Dd) in mats:
                n1, e1 = A * b0 + B * d0, C * b0 + Dd * d0
                n2, e2 = A * a0 + B * c0, C * a0 + Dd * c0
                seg = self.segment_vector(n1, e1, n2, e2)
                for i in range(self.dim):
                    vec[i] += seg[i]
            rows.append(vec)
        return rows


def _nullspace(rows, dim):
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(dim) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        out.append(v)
    return out


@dataclass
class EigenSymbol:
    """Integer-valued eigenfunctional on the Manin quotient, content one."""

    level: int
    sign: int
    values_on_generators: list
    normalization_content: Fraction
    label: str = ""
    ap_certificate: list = field(default_factory=list)
    _space: ManinSymbolSpace = None

    def evaluator(self):
        """Fast integer path evaluator (x, m) -> value on {oo, x/m}.

        The Manin trick sums the generator values at (-+q_j : q_(j-1)) over
        the convergent denominators of x/m, the sign alternating from -1.
        The denominators are carried mod N, so the point (-q : d) sits at
        index d - q*N of the P^1 table (row N - q, or row 0 when q is 0),
        and each loop turn takes one Euclid step of each sign.
        """
        N = self.level
        table = self._space.p1.table
        vals = self.values_on_generators
        start = vals[table[(N - 1) * N]]

        def ev(x, m):
            if m < 0:
                x, m = -x, -m
            if m == 0:
                return 0
            g = gcd(x, m)
            if g > 1:
                x //= g
                m //= g
            a, b = m, x % m
            q, qm = 1 % N, 0
            total = start
            while b:
                t, a = divmod(a, b)
                q, qm = (t * q + qm) % N, q
                total += vals[table[q * N + qm]]
                if not a:
                    break
                t, b = divmod(b, a)
                q, qm = (t * q + qm) % N, q
                total += vals[table[qm - q * N]]
            return total
        return ev

    def to_dict(self):
        return {
            "level": self.level,
            "sign": self.sign,
            "label": self.label,
            "values": list(self.values_on_generators),
            "content": str(self.normalization_content),
            "ap_certificate": [[int(l), int(a)] for l, a in self.ap_certificate],
        }


def build_space(N):
    if N < 1:
        raise InvalidArgument("level must be positive")
    space = ManinSymbolSpace(N)
    expected = N
    for q in prime_factors(N):
        expected += expected // q
    if N > 1 and len(space.generators) != expected:
        raise InvalidArgument("P1 enumeration produced %d points, expected %d"
                              % (len(space.generators), expected))
    return space


def extract_eigensymbol(space, curve, sign, ell_bound=60):
    """Isolate the one-dimensional (T_ell, star)-eigenfunctional for the curve.

    Good primes are used in increasing order until the space is a line; if
    it never becomes one, the failure is loud rather than arbitrary.
    """
    if curve.conductor != space.level:
        raise InvalidArgument("level %d != conductor %d" % (space.level, curve.conductor))
    if sign not in (1, -1):
        raise InvalidArgument("sign must be +1 or -1")
    dim = space.dim
    J = space.star_matrix()
    rows = []
    for i in range(dim):
        r = list(J[i])
        r[i] -= sign
        rows.append(r)
    V = _nullspace(rows, dim)
    certificate = []
    ell = 2
    while len(V) > 1:
        if ell > ell_bound:
            raise IsolationFailure(
                "eigenspace still %d-dimensional after ell <= %d" % (len(V), ell_bound))
        if space.level % ell == 0:
            ell = _next_prime(ell)
            continue
        a = curve.ap(ell)
        T = space.hecke_matrix(ell)
        rows2 = []
        for i in range(dim):
            rows2.append([sum(T[i][j] * vb[j] for j in range(dim)) - a * vb[i]
                          for vb in V])
        C = _nullspace(rows2, len(V))
        V = [[sum(c[k] * V[k][i] for k in range(len(V))) for i in range(dim)]
             for c in C]
        certificate.append((ell, a))
        ell = _next_prime(ell)
    if not V:
        raise IsolationFailure("eigenspace is empty; wrong sign or curve data")
    w = V[0]
    genvals = []
    for i in range(len(space.generators)):
        e = space.reduction[i]
        if e is None:
            genvals.append(w[space.bindex[i]])
        else:
            genvals.append(sum(c * w[space.bindex[k]] for k, c in e.items()))
    den = reduce(lambda x, y: x * y // gcd(x, y),
                 [f.denominator for f in genvals], 1)
    ints = [int(f * den) for f in genvals]
    content = reduce(gcd, ints, 0)
    if content == 0:
        raise IsolationFailure("eigenfunctional vanishes on all generators")
    ints = [x // content for x in ints]
    leading = next(x for x in ints if x)
    if leading < 0:
        ints = [-x for x in ints]
    scale = Fraction(den, content) * (1 if leading > 0 else -1)
    return EigenSymbol(space.level, sign, ints, Fraction(1) / scale,
                       label=curve.label, ap_certificate=certificate,
                       _space=space)


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def twist_symbol_value(symbol_pair, D, a, m):
    """Value on {oo, a/m} of the quadratic twist by D, as a Birch sum.

    ``symbol_pair`` is (plus symbol, minus symbol) of the base curve.  For
    D < 0 the twisted value of either sign is read off the opposite-sign
    base symbol; the result carries the family normalization of the base
    symbols (one global rational scalar away from the twisted curve's own
    unitized symbol).
    """
    plus, minus = symbol_pair
    if not is_fundamental_discriminant(D):
        raise InvalidArgument("%d is not a fundamental discriminant" % D)
    if D == 1:
        return plus.evaluator()(a, m), minus.evaluator()(a, m)
    if gcd(D, m) != 1:
        raise InvalidArgument("twist discriminant must be prime to the denominator")
    if D < 0:
        plus, minus = minus, plus
    return (make_twisted_evaluator(plus, D)(a, m),
            make_twisted_evaluator(minus, D)(a, m))


def make_twisted_evaluator(base_symbol, D):
    """Single-sign twisted path evaluator for the Birch-sum family.

    Returns f(a, m) -> integer, the twisted value whose sign is opposite to
    the base symbol's when D < 0 (and equal when D > 0).
    """
    if not is_fundamental_discriminant(D) or D == 0:
        raise InvalidArgument("need a fundamental discriminant")
    absD = abs(D)
    chi = [kronecker_symbol(D, u) for u in range(absD)]
    ev = base_symbol.evaluator()

    def tev(a, m):
        if gcd(D, m) != 1:
            raise InvalidArgument("denominator shares a factor with the discriminant")
        M = m * absD
        base = a * absD
        total = 0
        for u in range(1, absD):
            w = chi[u]
            if w:
                total += w * ev((base + u * m) % M, M)
        return total
    return tev
