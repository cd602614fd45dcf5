"""The Fraction extraction path that ``thetapm.modsym`` replaced, as an oracle.

This is ``ManinSymbolSpace``, ``_nullspace`` and ``extract_eigensymbol`` as
they were before extraction moved to integers: one ``Fraction`` per entry
of the Manin-quotient expressions, of the star and Hecke matrices and of
the eigenspace elimination, each matrix rebuilt on every call.  The tests
compare the integer path against it: same basis, the same matrices up to
the space's denominator, and the same symbols, ``normalization_content``
and certificates included.

``dense_nullspace`` is the dense integer elimination the eigenspace cuts
ran before they read ``thetapm.modsym._echelon``: leftmost pivots, rows
divided by their content.  The tests compare ``modsym._nullspace`` with it.

``evaluator`` and ``twisted_evaluator`` are the path evaluators as they were
before the value rows: the fraction reduced by its gcd, one ``divmod`` per
Euclid step, each point looked up in the flat P^1 table, and the Birch sum
scanning every u from 1 with the character read per term.  That scan drops
u = 0, right for |D| > 1 where chi(0) = 0 and wrong for D = 1.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from thetapm.curves import kronecker_symbol
from thetapm.exceptions import InvalidArgument, IsolationFailure
from p1_oracle import _ext_gcd
from thetapm.modsym import EigenSymbol, P1Table, _next_prime, _primitive


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


def dense_nullspace(rows, dim):
    """(free, vectors): the free columns of the integer matrix ``rows``
    and for each a primitive kernel vector, nonzero there and zero at the
    other free columns.  Fraction-free, rows divided by their content."""
    rows = [_primitive(list(r)) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = _primitive([pv * x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(dim) if c not in pivots]
    scale = lcm(*(rows[i][pc] for i, pc in enumerate(pivots)))
    out = []
    for fc in free:
        v = [0] * dim
        v[fc] = scale
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc] * (scale // rows[i][pc])
        out.append(_primitive(v))
    return free, out


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


def evaluator(symbol):
    """Integer path evaluator (x, m) -> value on {oo, x/m}: the point
    (-q : d) sits at index d - q*N of the P^1 table (row N - q, or row 0
    when q is 0), and each loop turn takes one Euclid step of each sign."""
    N = symbol.level
    table = symbol._space.p1.table
    vals = symbol.values_on_generators
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


def twisted_evaluator(base_symbol, D):
    """Birch-sum twisted evaluator over ``evaluator``, u from 1 to |D| - 1."""
    absD = abs(D)
    chi = [kronecker_symbol(D, u) for u in range(absD)]
    ev = evaluator(base_symbol)

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
