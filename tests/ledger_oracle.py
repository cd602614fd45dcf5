"""The replaced ledger kernels, kept as the test oracle.

These are the original bodies of the helpers that ``thetapm.polys``
replaced: the ``Fraction`` polynomial helpers and the Bareiss determinant
of ``thetapm.iwasawa``, the ``PadicScalar`` Gaussian elimination that took
the certificate resultant of ``thetapm.coprimality``, the F_p helpers that
reduce mod p after every term, the truncated series product and the
rational remainder of ``thetapm.chern``.  The elimination runs on the
precision-propagating sum, product and quotient of scalars below, which
the library no longer has (its scalars carry precision as data and do no
arithmetic): ``Fraction``-based, as functions of two scalars.  Slow, but
written term by term, so the integer kernels are checked against them.
"""

from fractions import Fraction

from thetapm.exceptions import InvalidArgument
from thetapm.padics import PadicScalar


def _floor_int(fr):
    fr = Fraction(fr)
    return fr.numerator // fr.denominator


# -- PadicScalar arithmetic ---------------------------------------------------

def _coerce(self, other):
    if isinstance(other, PadicScalar):
        if other.p != self.p:
            raise InvalidArgument("mixed primes")
        return other
    return PadicScalar(self.p, other)


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _truncate_abs(x, floor):
    """x re-expressed with absolute precision capped at floor."""
    if floor is None or x._zero:
        return x
    if x.val >= floor:
        return PadicScalar.zero(x.p, known_to=floor)
    rel = floor - x.val
    if x.precision is not None and x.precision <= rel:
        return x
    return PadicScalar.from_unit(x.p, x.val, x.num, x.den, precision=rel)


def padic_neg(x):
    if x._zero:
        return x
    return PadicScalar.from_unit(x.p, x.val, -x.num, x.den, precision=x.precision)


def padic_mul(self, other):
    other = _coerce(self, other)
    p = self.p
    if self._zero or other._zero:
        floors = []
        for s in (self, other):
            if s._zero:
                if s.precision is None:
                    return PadicScalar.zero(p)
                floors.append(Fraction(s.precision))
            else:
                floors.append(Fraction(s.val) + (Fraction(s.precision) if s.precision is not None else Fraction(10 ** 9)))
        bound = floors[0] + floors[1] if len(floors) == 2 else None
        # zero * nonzero: floor is zero-floor + other valuation
        if not self._zero:
            bound = Fraction(other.precision) + Fraction(self.val)
        elif not other._zero:
            bound = Fraction(self.precision) + Fraction(other.val)
        if bound is None:
            return PadicScalar.zero(p)
        return PadicScalar.zero(p, known_to=_floor_int(bound))
    prec = _min_prec(self.precision, other.precision)
    val = self.val + other.val
    num = self.num * other.num
    den = self.den * other.den
    if prec is not None:
        m = self.p ** (prec + 2)
        num = num % m or num
        den = den % m or den
    return PadicScalar.from_unit(p, val, num, den, precision=prec)


def padic_truediv(self, other):
    other = _coerce(self, other)
    if other._zero:
        raise InvalidArgument("division by zero scalar")
    inv = PadicScalar.from_unit(other.p, -other.val, other.den, other.num,
                                precision=other.precision)
    return padic_mul(self, inv)


def padic_add(self, other):
    other = _coerce(self, other)
    p = self.p
    # absolute precision floors
    fa = self._abs_floor()
    fb = other._abs_floor()
    floor = None
    if fa is not None or fb is not None:
        floor = min(x for x in (fa, fb) if x is not None)
    if self._zero and other._zero:
        if floor is None:
            return PadicScalar.zero(p)
        return PadicScalar.zero(p, known_to=_floor_int(floor))
    if self._zero:
        return _truncate_abs(other, floor)
    if other._zero:
        return _truncate_abs(self, floor)
    s = Fraction(self.num, self.den) * Fraction(p) ** int(self.val) + \
        Fraction(other.num, other.den) * Fraction(p) ** int(other.val)
    if s == 0:
        if floor is None:
            return PadicScalar.zero(p)
        return PadicScalar.zero(p, known_to=_floor_int(floor))
    return _truncate_abs(PadicScalar(p, s), floor)


# -- F_p polynomials (iwasawa) and series (chern) ---------------------------


def _fp_poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _fp_poly_trim(out)


def _fp_poly_divmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _fp_poly_trim(q), _fp_poly_trim(a)


def _fp_poly_bezout(a, b, p):
    """(s, t) with s*a + t*b = 1 in F_p[X] for coprime a, b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = _fp_poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp_poly_sub(s0, _fp_poly_mul(q, s1, p), p)
        t0, t1 = t1, _fp_poly_sub(t0, _fp_poly_mul(q, t1, p), p)
    if len(r0) != 1 or r0[0] == 0:
        raise InvalidArgument("polynomials are not coprime mod p")
    inv = pow(r0[0], -1, p)
    return ([x * inv % p for x in s0], [x * inv % p for x in t0])


def _fp_poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _fp_poly_trim([(x - y) % p for x, y in zip(a, b)])


def _fps_mul(a, b, p, s_trunc):
    out = [0] * s_trunc
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j >= s_trunc:
                    break
                out[i + j] = (out[i + j] + x * y) % p
    return out


# -- Z and Q polynomials, the Bareiss determinant -----------------------------


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _q_poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _q_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _q_poly_trim(out)


def _q_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _q_poly_trim([x - y for x, y in zip(a, b)])


def _q_poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    inv = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / inv
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return _q_poly_trim(q), _q_poly_trim(a)


def _bareiss_det(M):
    """Fraction-free determinant over Q[S] (entries as coefficient lists)."""
    n = len(M)
    M = [[_q_poly_trim([Fraction(c) for c in e]) for e in row] for row in M]
    sign = 1
    prev = [Fraction(1)]
    for k in range(n - 1):
        if _q_poly_trim(list(M[k][k])) == [0]:
            piv = None
            for r in range(k + 1, n):
                if _q_poly_trim(list(M[r][k])) != [0]:
                    piv = r
                    break
            if piv is None:
                return [Fraction(0)]
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _q_poly_sub(_q_poly_mul(M[i][j], M[k][k]),
                                  _q_poly_mul(M[i][k], M[k][j]))
                q, r = _q_poly_divmod(num, prev)
                if r != [Fraction(0)]:
                    raise InvalidArgument("exact division failed in Bareiss step")
                M[i][j] = q
            M[i][k] = [Fraction(0)]
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return [c * sign for c in det]


def _q_mod(a, b):
    a = list(a)
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    if all(x == 0 for x in b):
        return a
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / b[-1]
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return a[:db] if db else [Fraction(0)]


# -- the certificate resultant (coprimality) ----------------------------------


def _resultant_1var(f, g):
    """Resultant of two monic one-variable polynomials over Z_p (scalars)."""
    p = f.p
    a = list(f.coeffs)
    b = list(g.coeffs)
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for r in range(n):
        row = [PadicScalar.zero(p)] * size
        for c in range(m + 1):
            row[r + c] = a[m - c]
        rows.append(row)
    for r in range(m):
        row = [PadicScalar.zero(p)] * size
        for c in range(n + 1):
            row[r + c] = b[n - c]
        rows.append(row)
    # fraction-free elimination is overkill at these sizes; use division
    det = PadicScalar(p, 1)
    for k in range(size):
        piv = next((i for i in range(k, size)
                    if not rows[i][k].is_zero_within_precision()), None)
        if piv is None:
            return PadicScalar.zero(p, known_to=1)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = padic_neg(det)
        det = padic_mul(det, rows[k][k])
        inv_row = rows[k]
        for i in range(k + 1, size):
            c = rows[i][k]
            if c.is_zero_within_precision() and c.precision is None:
                continue
            factor = padic_truediv(c, inv_row[k])
            rows[i] = [padic_add(x, padic_neg(padic_mul(factor, y)))
                       for x, y in zip(rows[i], inv_row)]
    return det
