"""Rational modular symbols for Gamma_0(N) via Manin symbols.

Generators are the points of P^1(Z/N), one per orbit of the units of Z/N,
found by enumerating the orbits.  One fraction-free sparse elimination,
``_echelon``, takes the quotient by the two- and three-term relations once
per space (each generator's class an integer row over one denominator) and
cuts the star and Hecke eigenspaces; for the cuts it runs on reversed
columns, so its largest-column pivots are the leftmost ones.  The star
involution and the Hecke operators are integer matrices scaled by the
denominator, built once per space and operator and kept on the space.  An
eigensymbol is scaled to integer generator values of content one; path
values {oo, a/m} are summed off rows of them by the Manin trick.  The
content is derived from the values; ``EigenSymbol.from_record`` checks records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .curves import is_fundamental_discriminant, kronecker_symbol
from .exceptions import (InvalidArgument, IsolationFailure, ResourceLimit)
from .padics import is_prime, prime_factors

LEVEL_BOUND = 10 ** 4
ELL_BOUND = 60       # the largest prime an eigenspace cut or certificate uses


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
    """Quotient of Q[P^1(Z/N)] by the Manin relations, with Hecke action.

    Generator i has class ``reduction[i]`` / ``den``, with ``reduction[i]`` a
    list of integer (basis position, coefficient) pairs.  The star and Hecke
    matrices are integer, scaled by ``den``, built once and shared.
    """

    def __init__(self, N):
        self.level = N
        self.p1 = P1Table(N)
        self.generators = self.p1.reps
        self.relation_rows = self._relations()
        self.basis, self.den, self.reduction = _echelon(self.relation_rows,
                                                        len(self.generators))
        self.dim = len(self.basis)
        self._star = None
        self._hecke = {}

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

    # -- vectors over the basis ------------------------------------------

    def gen_vector(self, i):
        """Class of generator i on the basis, scaled by ``den``."""
        v = [0] * self.dim
        for k, c in self.reduction[i]:
            v[k] += c
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
        qj, qm1 = 0, 1           # convergent denominators q_(j), q_(j-1)
        sign = -1
        while yy:
            q0, r = divmod(xx, yy)
            xx, yy = yy, r
            qj, qm1 = q0 * qj + qm1, qj
            out.append(look[((sign * qj) % N) * N + qm1 % N])
            sign = -sign
        return out

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
        a = pow(d0, -1, c0)
        return (a, (a * d0 - 1) // c0, c0, d0)   # a*d - b*c = 1

    def star_matrix(self):
        """Involution induced by (c:d) -> (-c:d), scaled by ``den``; rows
        are images of basis elements."""
        if self._star is None:
            look = self.p1.lookup
            self._star = [self.gen_vector(look(-self.generators[g][0],
                                               self.generators[g][1]))
                          for g in self.basis]
        return self._star

    def hecke_matrix(self, ell):
        """T_ell for a good prime ell, scaled by ``den``; rows are images of
        basis elements."""
        if ell not in self._hecke:
            self._hecke[ell] = self._build_hecke(ell)
        return self._hecke[ell]

    def _build_hecke(self, ell):
        """T_ell via the degree-ell path correspondence."""
        if self.level % ell == 0:
            raise InvalidArgument("T_%d at a bad prime is not supported" % ell)
        mats = [(1, b, 0, ell) for b in range(ell)] + [(ell, 0, 0, 1)]
        red = self.reduction
        rows = []
        for g in self.basis:
            c, d = self.generators[g]
            a0, b0, c0, d0 = self._lift_to_sl2(c, d)
            vec = [0] * self.dim
            for (A, B, C, Dd) in mats:
                # the segment {n1/e1, n2/e2} is {oo, n2/e2} - {oo, n1/e1}
                for s, x, y in ((1, a0, c0), (-1, b0, d0)):
                    for idx in self.path_gen_indices(A * x + B * y, C * x + Dd * y):
                        for k, v in red[idx]:
                            vec[k] += s * v
            rows.append(vec)
        return rows


def _echelon(rows, n):
    """(free, den, reduction) of sparse integer rows over columns 0..n-1 by
    fraction-free elimination, the largest column of each row its pivot.
    The pivot rows end as the reduced echelon form with columns in
    decreasing order, so the result depends on the row space alone; column
    i is ``reduction[i]`` / ``den``, (free position, coefficient) pairs."""
    pivots = {}
    for r in rows:
        for k in [k for k in r if k in pivots]:
            r = _clear(r, pivots[k], k)
        if not r:
            continue
        k = max(r)
        g = gcd(*r.values()) if r[k] > 0 else -gcd(*r.values())
        r = {j: v // g for j, v in r.items()}
        for kk, row in pivots.items():
            if k in row:
                pivots[kk] = _clear(row, r, k)
        pivots[k] = r
    free = [i for i in range(n) if i not in pivots]
    findex = {g: i for i, g in enumerate(free)}
    den = lcm(*(row[k] for k, row in pivots.items()))
    # pivot row r: r[k] x_k + sum of r[j] x_j over free columns j = 0
    reduction = [[(findex[i], den)] if i in findex else
                 sorted((findex[j], -v * (den // pivots[i][i]))
                        for j, v in pivots[i].items() if j != i)
                 for i in range(n)]
    return free, den, reduction


def _clear(r, pivot_row, k):
    """Sparse row r with column k cleared against pivot_row, divided by its
    content; the multiplier of r is pivot_row[k], so its sign is kept."""
    out = {j: pivot_row[k] * v for j, v in r.items()}
    for j, v in pivot_row.items():
        out[j] = out.get(j, 0) - r[k] * v
    out = {j: v for j, v in out.items() if v}
    g = gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def _primitive(v):
    """An integer vector divided by its content (the zero vector as is)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _nullspace(rows, dim):
    """(free, vectors): the free columns of the integer matrix ``rows``
    and for each a primitive kernel vector, positive there and zero at the
    other free columns.  ``_echelon`` pivots on a row's largest column; on
    reversed columns its pivots are the leftmost ones, so the free columns
    are those a left-to-right elimination leaves."""
    last = dim - 1
    free, _, red = _echelon([{last - j: x for j, x in enumerate(r) if x}
                             for r in rows], dim)
    vectors = [[0] * dim for _ in free]
    for i, terms in enumerate(red):
        for b, c in terms:
            vectors[b][last - i] = c
    return ([last - f for f in reversed(free)],
            [_primitive(v) for v in reversed(vectors)])


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
        the convergent denominators of x/m, carried mod N, the sign
        alternating from -1, one Euclid step of each sign a loop turn, off
        rows built once (``neg[c]`` the row of -c).  x/m is not reduced, as
        Euclid's quotients on (g m, g x) are those on (m, x).
        """
        N = self.level
        table = self._space.p1.table
        vals = self.values_on_generators
        rows = [[vals[i] for i in table[c * N:c * N + N]] for c in range(N)]
        neg = [rows[-c % N] for c in range(N)]
        start = rows[N - 1][0]

        def ev(x, m):
            if m <= 0:
                if not m:
                    return 0
                x, m = -x, -m
            b = x % m
            q, qm = 1 % N, 0
            total = start
            while b:
                q, qm = (m // b * q + qm) % N, q
                m %= b
                total += rows[q][qm]
                if not m:
                    break
                q, qm = (b // m * q + qm) % N, q
                b %= m
                total += neg[q][qm]
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

    @classmethod
    def from_record(cls, space, curve, record, p):
        """The curve's symbol a ``to_dict`` record holds, or None unless the
        record is that symbol: integer values on every generator, of content
        one, first nonzero value positive, satisfying the Manin relations,
        the star relation of its sign and T_ell w = a_ell w at p and at each
        certificate prime, a good prime <= ELL_BOUND; and the derived content."""
        values, cert, sign = (record.get(k) for k in ("values", "ap_certificate", "sign"))
        if not (record.get("level") == space.level == curve.conductor
                and record.get("label") == curve.label and sign in (1, -1)
                and isinstance(values, list) and len(values) == len(space.generators)
                and isinstance(cert, list)
                and all(isinstance(e, list) and len(e) == 2 for e in cert)
                and all(type(x) is int for e in (values, *cert) for x in e)):
            return None
        w = [values[g] for g in space.basis]
        if not (gcd(*values) == 1 and next(v for v in values if v) > 0
                and all(ell <= ELL_BOUND and is_prime(ell) and space.level % ell
                        and curve.ap(ell) == a for ell, a in cert)
                and all(sum(c * values[j] for j, c in row.items()) == 0
                        for row in space.relation_rows)
                and all(values[space.p1.lookup(-c, d)] == sign * v
                        for (c, d), v in zip(space.generators, values))
                and all(sum(map(mul, row, w)) == curve.ap(ell) * space.den * x
                        for ell in {ell for ell, _ in cert} | {p} if space.level % ell
                        for row, x in zip(space.hecke_matrix(ell), w))
                and str(content := _content(space, values)) == record.get("content")):
            return None
        return cls(space.level, int(sign), values, content, label=curve.label,
                   ap_certificate=[tuple(e) for e in cert], _space=space)


def _content(space, values):
    """Normalization content of a symbol's integer values: one over the
    value at the last basis generator they do not vanish at, as extraction's
    line vector is positive at the free column the cuts leave and zero past
    it (``_nullspace`` solves left to right, and each cut keeps that)."""
    return Fraction(1, next(values[g] for g in reversed(space.basis) if values[g]))


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


def extract_eigensymbol(space, curve, sign):
    """Isolate the one-dimensional (T_ell, star)-eigenfunctional for the curve.

    Good primes ell <= ELL_BOUND are used in increasing order until the
    space is a line; if it never becomes one, the failure is loud rather
    than arbitrary.
    """
    if curve.conductor != space.level:
        raise InvalidArgument("level %d != conductor %d" % (space.level, curve.conductor))
    if sign not in (1, -1):
        raise InvalidArgument("sign must be +1 or -1")
    den = space.den
    rows = [[x - sign * den if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(space.star_matrix())]
    V = _nullspace(rows, space.dim)[1]
    certificate = []
    ell = 2
    while len(V) > 1:
        if ell > ELL_BOUND:
            raise IsolationFailure(
                "eigenspace still %d-dimensional after ell <= %d" % (len(V), ELL_BOUND))
        if space.level % ell == 0:
            ell = _next_prime(ell)
            continue
        a = curve.ap(ell)
        T = space.hecke_matrix(ell)
        # column k is (T - a) applied to V[k]
        cols = [[sum(map(mul, row, vb)) - a * den * x for row, x in zip(T, vb)]
                for vb in V]
        C = _nullspace(list(zip(*cols)), len(V))[1]
        V = [_primitive([sum(map(mul, c, col)) for col in zip(*V)]) for c in C]
        certificate.append((ell, a))
        ell = _next_prime(ell)
    if not V:
        raise IsolationFailure("eigenspace is empty; wrong sign or curve data")
    w = V[0]
    values = [sum(c * w[k] for k, c in row) for row in space.reduction]
    content = gcd(*values)
    if content == 0:
        raise IsolationFailure("eigenfunctional vanishes on all generators")
    lead = 1 if next(x for x in values if x) > 0 else -1
    ints = [lead * (x // content) for x in values]
    return EigenSymbol(space.level, sign, ints, _content(space, ints),
                       label=curve.label, ap_certificate=certificate,
                       _space=space)


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def make_twisted_evaluator(base_symbol, D):
    """Single-sign twisted path evaluator for the Birch-sum family.

    Returns f(a, m) -> integer, the twisted value whose sign is opposite to
    the base symbol's when D < 0 (and equal when D > 0).  The u mod |D| with
    chi_D(u) != 0 are listed once; for D = 1 that is u = 0 alone.
    """
    if not is_fundamental_discriminant(D) or D == 0:
        raise InvalidArgument("need a fundamental discriminant")
    absD = abs(D)
    terms = [(u, w) for u in range(absD) if (w := kronecker_symbol(D, u))]
    ev = base_symbol.evaluator()

    def tev(a, m):
        if gcd(D, m) != 1:
            raise InvalidArgument("denominator shares a factor with the discriminant")
        if not m:
            return 0
        M = m * absD
        base = a * absD
        total = 0
        for u, w in terms:
            total += w * ev((base + u * m) % M, M)
        return total
    return tev
