"""The replaced ledger kernels, kept as the test oracle.

These are the original bodies of the helpers that ``thetapm.polys``
replaced: the ``Fraction`` polynomial helpers and the Bareiss determinant
of ``thetapm.iwasawa``, the ``PadicScalar`` Gaussian elimination that took
the certificate resultant of ``thetapm.coprimality``, the F_p helpers that
reduce mod p after every term and the rational remainder of
``thetapm.chern``.  ``PadicScalar``, the one-variable coefficient type
before series became integers over one denominator, lives here too, with
the scalar ``newton_invariants`` and ``weierstrass_prepare`` that read it.
The determinant over Z[S] of ``thetapm.iwasawa`` before it packed its
entries into integers is here as well: Bareiss elimination on integer
coefficient lists, with the exact division of ``thetapm.polys`` it ran on.
So does the divisor of a Frobenius character as ``thetapm.chern`` took it
before the closed form: the character cut at a total degree, its S-content
split off and its T-factor Hensel-lifted over the S-adic digits, with a
label printer of its own.  The mod-p rows of a local length have their
first form here as well: ``p_split`` through the dense ``t_polynomial``
matrix, and the division by Pbar that composed one ``mod(sub(., mul(., .)))``
per update and tested every row with ``any``.
The dominance certificate of ``thetapm.mazurtate`` has its original form
here too: the polygons rebuilt with a lower hull from the valuations of
the representative and of the modulus polynomial itself, where the library
reads both off Newton profiles.
The elimination runs on the precision-propagating sum, product and
quotient of scalars below, which the scalar class itself never had (it
carries precision as data and does no arithmetic): ``Fraction``-based, as
functions of two scalars.  Slow, but written term by term, so the integer
kernels are checked against them.
"""

from fractions import Fraction
from functools import lru_cache
from operator import sub as _int_sub

from thetapm import polys
from thetapm.chern import S_TRUNC, PrimeDescriptor, binomial_series_mod_p
from thetapm.cyclotomic import cyclotomic_poly_shifted
from thetapm.exceptions import (InvalidArgument, NotPseudoNull, PrecisionError,
                                TruncationError, UnsupportedShape)
from thetapm.iwasawa import (DEFAULT_PRECISION, InvariantProfile, hull_value,
                             lower_hull)
from thetapm.padics import is_prime, vp


class PadicScalar:
    """Immutable p-adic scalar with its precision; it does no arithmetic.

    The value is p^val * num/den with num and den integers prime to p: an
    exact scalar keeps num/den in lowest terms with den > 0.
    ``unit_part(digits)`` gives the canonical integer residue.
    """

    __slots__ = ("p", "val", "num", "den", "precision", "_zero")

    def __init__(self, p, value, precision=None):
        if not is_prime(p) or p == 2:
            raise InvalidArgument("p must be an odd prime, got %r" % (p,))
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        num, den = value.numerator, value.denominator
        self.p, self.precision = p, precision
        if num == 0:
            self.val, self.num, self.den, self._zero = 0, 0, 1, True
            return
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        self.val, self.num, self.den, self._zero = v, num, den, False
        if precision is not None and precision < 1:
            raise InvalidArgument("precision must be >= 1 for a nonzero scalar")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p, known_to=None):
        """Exact zero (known_to=None) or zero-within-precision marker."""
        return cls(p, 0, precision=known_to)

    @classmethod
    def from_unit(cls, p, val, num, den=1, precision=None):
        if not is_prime(p) or p == 2:
            raise InvalidArgument("p must be an odd prime, got %r" % (p,))
        if num % p == 0 or den % p == 0:
            raise InvalidArgument("unit part must be prime to p")
        out = object.__new__(cls)
        out.p, out.val, out.num, out.den = p, val, num, den
        out.precision, out._zero = precision, False
        return out

    # -- predicates ---------------------------------------------------

    def is_zero_within_precision(self):
        return self._zero

    # -- views --------------------------------------------------------

    def valuation(self):
        """Valuation, or None for an exact zero.

        For a zero-within-precision marker this is only a lower bound and
        PrecisionError is raised instead of guessing.
        """
        if self._zero:
            if self.precision is None:
                return None
            raise PrecisionError("valuation unknown: zero to precision %s" % self.precision)
        return self.val

    def unit_part(self, digits=DEFAULT_PRECISION):
        if self._zero:
            raise PrecisionError("zero scalar has no unit part")
        if self.precision is not None:
            digits = min(digits, self.precision)
        m = self.p ** digits
        return self.num * pow(self.den, -1, m) % m

    def as_fraction(self):
        if self._zero:
            return Fraction(0)
        if self.val < 0:
            return Fraction(self.num, self.den * self.p ** -self.val)
        return Fraction(self.num * self.p ** self.val, self.den)

    def lift(self, digits=None):
        """Integer lift modulo p^digits (nonnegative valuation required)."""
        if self._zero:
            return 0
        if self.val < 0:
            raise InvalidArgument("negative valuation has no integral lift")
        digits = digits or (self.precision if self.precision is not None else DEFAULT_PRECISION)
        m = self.p ** digits
        return self.p ** self.val * self.unit_part(digits) % m

    def _abs_floor(self):
        """Absolute precision: the value is known modulo p^floor (None if exact)."""
        if self.precision is None:
            return None
        if self._zero:
            return self.precision
        return self.val + self.precision

    # -- misc ---------------------------------------------------------

    def __eq__(self, other):
        """Equality of exact scalars; finite-precision comparison is by digits."""
        if isinstance(other, (int, Fraction)):
            other = PadicScalar(self.p, other)
        if not isinstance(other, PadicScalar) or other.p != self.p:
            return NotImplemented
        if self._zero and other._zero:
            return True
        if self._zero != other._zero:
            return False
        if self.precision is None and other.precision is None:
            return self.as_fraction() == other.as_fraction()
        if self.val != other.val:
            return False
        d = min(x for x in (self.precision, other.precision) if x is not None)
        return self.unit_part(d) == other.unit_part(d)

    def __hash__(self):
        return hash((self.p, self._zero, self.val if not self._zero else 0))

    def __repr__(self):
        if self._zero:
            if self.precision is None:
                return "0 (exact)"
            return "O(%d^%s)" % (self.p, self.precision)
        prec = "exact" if self.precision is None else "prec %d" % self.precision
        return "%d^%s * (%d/%d) [%s]" % (self.p, self.val, self.num, self.den, prec)


def scalars(el):
    """The coefficients of an ``IwasawaElement1`` as scalars, with the same
    absolute precisions."""
    out = []
    for x, a in zip(el.rationals(), el.precisions()):
        if a is None or x == 0:
            out.append(PadicScalar(el.p, x, precision=a))
        else:
            out.append(PadicScalar(el.p, x, precision=a - vp(x, el.p)))
    return out


# -- Newton polygon and Weierstrass preparation on scalars --------------------


def newton_invariants(coeffs):
    """The scalar profile of a coefficient list (the replaced reader)."""
    known = []
    unknown = []
    for i, c in enumerate(coeffs):
        if c.is_zero_within_precision():
            if c.precision is not None:
                unknown.append((i, c.precision))
            continue
        known.append((i, c.valuation()))
    if not known:
        raise PrecisionError("all coefficients are zero within precision")
    mu = min(v for _, v in known)
    for i, bound in unknown:
        if bound <= mu:
            raise PrecisionError(
                "coefficient %d known only to O(p^%s); mu = %s not certified"
                % (i, bound, mu))
    lam = min(i for i, v in known if v == mu)
    pts = [(i, v) for i, v in known if i <= lam]
    hull = lower_hull(pts)
    slopes = []
    if hull[0][0] > 0:
        slopes.append((hull[0][0], None))     # exact zeros: roots at X = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((x2 - x1, Fraction(y1 - y2, x2 - x1)))
    stabilized = True
    for i, bound in unknown:
        if i <= lam and (i < hull[0][0] or bound < hull_value(hull, i)):
            stabilized = False
    return InvariantProfile(mu, lam, tuple(slopes), stabilized)


def weierstrass_prepare(p, coeffs, exact_tail):
    """(unit, distinguished, mu) as scalar lists (the replaced preparation)."""
    prof = newton_invariants(coeffs)
    lam, mu = prof.lam, prof.mu
    D = len(coeffs) - 1
    if lam >= D and not exact_tail:
        raise TruncationError("lambda = %d exceeds truncation %d" % (lam, D))
    precs = [c.precision for c in coeffs]
    finite = [x for x in precs if x is not None]
    base = min(finite) if finite else DEFAULT_PRECISION
    if finite and mu >= base:
        raise TruncationError("mu = %d exhausts coefficient precision %d" % (mu, base))
    floors = [c._abs_floor() for c in coeffs if c._abs_floor() is not None]
    digits = min([max(base - mu, 1)] + [a - mu for a in floors])
    mod = p ** digits
    fb = []
    for c in coeffs:
        if c.is_zero_within_precision():
            fb.append(0)
        else:
            if c.val < mu:
                raise InvalidArgument("inconsistent mu")
            shifted = PadicScalar.from_unit(p, c.val - mu, c.num, c.den,
                                            precision=c.precision)
            fb.append(shifted.lift(digits))
    A = [0] * lam + [1]                      # X^lambda
    B = polys.trim([x % p for x in fb[lam:]]) or [0]
    if B == [0] or B[0] % p == 0:
        raise InvalidArgument("leading unit coefficient missing")
    _, t = polys.bezout_mod(A, B, p)
    P = list(A)                              # lifted monic factor
    U = list(B)                              # lifted unit cofactor, a series mod X^(D+1)
    for m in range(1, digits):
        pm = p ** m
        E = polys.mod([x // pm for x in polys.sub(fb, polys.mul(P, U))[:len(fb)]], p)
        if E == [0]:
            continue
        dP = polys.mod(polys.mul(t[:lam], E[:lam])[:lam], p)
        dU = polys.mod(polys.sub(E, polys.mul(B, dP))[lam:], p) or [0]
        P = polys.add(P, [x * pm for x in dP])
        U = polys.add(U, [x * pm for x in dU])
        P = [x % (mod * p) for x in P][:lam + 1]
        U = [x % (mod * p) for x in U][:D + 1 - lam] or [1]
    P = [x % mod for x in P[:lam]] + [1]
    U = [x % mod for x in U]

    def wrap(x):
        if x % mod == 0:
            return PadicScalar.zero(p, known_to=digits)
        v = vp(x, p)
        return PadicScalar.from_unit(p, v, x // p ** v, precision=digits - v)
    dist = [wrap(x) for x in P]
    dist[-1] = PadicScalar(p, 1)             # monic exactly
    return [wrap(x) for x in U], dist, mu


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


def exact_div(a, b):
    """a / b over Z for trimmed nonzero b; raises unless b divides a exactly."""
    if b == [1]:
        return polys.trim(list(a))
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 1)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i]:
            c, rem = divmod(r[i], b[-1])
            if rem:
                raise InvalidArgument("exact division failed: remainder is nonzero")
            q[i - db] = c
            r[i - db:i + 1] = map(_int_sub, r[i - db:i + 1], [c * y for y in b])
    if any(r[:db]):
        raise InvalidArgument("exact division failed: remainder is nonzero")
    return polys.trim(q)


def int_bareiss_det(M):
    """Determinant over Z[S] of a square matrix whose entries are trimmed
    integer coefficient lists; fraction-free Bareiss elimination on the
    lists, each division an ``exact_div``."""
    n = len(M)
    if not n:
        return [1]
    rows = [list(row) for row in M]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if rows[k][k] == [0]:
            piv = next((r for r in range(k + 1, n) if rows[r][k] != [0]), None)
            if piv is None:
                return [0]
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = polys.sub(polys.mul(rows[i][j], pivot),
                                polys.mul(rows[i][k], rows[k][j]))
                rows[i][j] = exact_div(num, prev)
            rows[i][k] = [0]
        prev = pivot
    return [sign * c for c in rows[n - 1][n - 1]]


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


def _resultant_1var(a, b):
    """Resultant of two monic one-variable polynomials over Z_p, given as
    scalar coefficient lists."""
    p = a[0].p
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


def obviously_equal(f, g):
    """``coprimality._obviously_equal`` on one ``Fraction`` per coefficient
    (the replaced reading)."""
    if f.trunc_degree != g.trunc_degree:
        return False
    for a, b, pa, pb in zip(f.rationals(), g.rationals(),
                            f.precisions(), g.precisions()):
        if (a == 0) != (b == 0):
            return False
        known = [x for x in (pa, pb) if x is not None]
        if a != b and (not known or vp(a - b, f.p) < min(known)):
            return False
    return True


# -- the Frobenius character and its divisor (chern) ---------------------------

def _fp2_s_content(h):
    return min((i for (i, _) in h), default=0)


def _fp2_shift_s(h, e):
    return {(i - e, j): c for (i, j), c in h.items()}


def _fp2_rows(h, p):
    """The nonempty terms (i, j) -> c as F_p[S] rows by T-degree j, lowest
    S-degree first, each trimmed, with no zero top row."""
    rows = [[0] * (max(i for i, _ in h) + 1) for _ in range(max(j for _, j in h) + 1)]
    for (i, j), c in h.items():
        rows[j][i] = c % p
    rows = [polys.trim(r) for r in rows]
    while len(rows) > 1 and rows[-1] == [0]:
        rows.pop()
    return rows


def _hensel_weierstrass_t(h, p):
    """Distinguished T-factor of h in F_p[[S]][T] with h(0, T) != 0.

    S-adic Hensel lift of h(0,T) = T^d * (unit): returns the monic degree-d
    factor W with W = T^d mod S, as a T-polynomial over F_p[S]/(S^S_TRUNC).
    """
    h0 = polys.trim([c[0] % p for c in h])
    d = next((j for j, x in enumerate(h0) if x), None)
    if d is None:
        raise InvalidArgument("h(0, T) = 0; extract the S-content first")
    if d == 0:
        return [[1] + [0] * (S_TRUNC - 1)]
    A = [0] * d + [1]
    B = polys.trim(h0[d:])
    _, t = polys.bezout_mod(A, B, p)
    W = [A]                       # S-digit expansions of the factors
    U = [B]
    # digits 1.. packed as integers (a Kronecker substitution in T), so an
    # error term is one sum of integer products over the nonzero W-digits
    block = (len(h) * S_TRUNC * p * p).bit_length() // 8 + 1
    Wk, Uk = [0], [0]
    for m in range(1, S_TRUNC):
        # E = coefficient of S^m in h - W*U; digits m of W and U are unknown
        conv = polys.unpack(sum(Wk[i] * Uk[m - i] for i in range(1, m) if Wk[i]),
                            block, len(h))
        E = polys.mod(polys.sub([c[m] if m < len(c) else 0 for c in h], conv), p)
        if E == [0]:
            dW = dU = [0]
        else:
            # E = T^d*dU + B*dW with deg dW < d: dW = t*E mod T^d, then a shift
            dW = polys.mod(polys.mul(t[:d], E[:d])[:d], p)
            dU = polys.mod(polys.sub(E, polys.mul(B, dW))[d:], p) or [0]
        W.append(dW)
        U.append(dU)
        Wk.append(polys.pack(dW, block))
        Uk.append(polys.pack(dU, block))
    out = []
    for j in range(d + 1):
        col = [0] * S_TRUNC
        for m in range(min(len(W), S_TRUNC)):
            if j < len(W[m]):
                col[m] = W[m][j] % p
        out.append(col)
    out[d] = [1] + [0] * (S_TRUNC - 1)
    return out


def frobenius_character_mod_p(a, b, p, trunc):
    """(1+S)^(-a) (1+T)^(-b) - 1 mod p, cut at total degree ``trunc``, as a
    term dict."""
    A = binomial_series_mod_p(-a, p, trunc)
    B = binomial_series_mod_p(-b, p, trunc)
    out = {}
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                if y and i + j <= trunc:
                    out[(i, j)] = (out.get((i, j), 0) + x * y) % p
    out[(0, 0)] = (out.get((0, 0), 0) - 1) % p
    return {k: v for k, v in out.items() if v}


def vertical_divisor_mod_p(hbar, p):
    """Divisor of a nonzero series mod p as (descriptor, multiplicity) terms.

    The S-content splits off as (p, S); the remaining Weierstrass factor in
    T is emitted whole, resolved when its degree is one.
    """
    if not hbar:
        raise InvalidArgument("series vanishes mod p")
    terms = []
    e0 = _fp2_s_content(hbar)
    h1 = _fp2_shift_s(hbar, e0) if e0 else dict(hbar)
    if e0:
        terms.append((PrimeDescriptor("vertical", ("p", "S")), e0))
    if any(i == 0 for (i, _) in h1):
        tpoly = _fp2_rows(h1, p)
        d = next((j for j, c in enumerate(tpoly) if c[0] % p != 0), None)
        if d is None:
            raise UnsupportedShape("no pure T-order after removing S-content")
        if d > 0:
            W = _hensel_weierstrass_t(tpoly, p)
            label = fp2_label(W, p)
            terms.append((PrimeDescriptor("vertical", ("p", label),
                                          resolved=(d == 1)), 1 if d == 1 else d))
    return terms


def fp2_label(W, p):
    """A T-polynomial over F_p[S] as ``thetapm.chern`` prints it, written
    from its own term dict (i, j) -> c: T-degrees ascending, each one's
    S-terms ascending, and bracketed when there are several."""
    terms = {(i, j): c % p for j, row in enumerate(W) for i, c in enumerate(row)
             if c % p}
    out = []
    for j in sorted({j for _, j in terms}):
        inner = []
        for i in sorted(i for i, t in terms if t == j):
            c, s = terms[(i, j)], "S" if i == 1 else "S^%d" % i
            inner.append(str(c) if i == 0 else s if c == 1 else "%d*%s" % (c, s))
        co = "(%s)" % "+".join(inner) if len(inner) > 1 else inner[0]
        out.append("%s*T^%d" % (co, j) if j else co)
    return " + ".join(out) or "0"


# -- the mod-p rows of a local length (chern) ----------------------------------

def p_split_dense(el):
    """``IwasawaElement2.p_split`` through the dense ``t_polynomial`` matrix:
    one valuation per term, then every row reduced and trimmed."""
    if not el.coeffs:
        return None, [[0]]
    p = el.p
    w = min(vp(c, p) for c in el.coeffs.values())
    e = vp(el.den, p)
    inv = pow(el.den // p ** e, -1, p)
    q = p ** w
    rows = [polys.trim([c // q * inv % p for c in row]) for row in el.t_polynomial()]
    while rows[-1] == [0]:
        rows.pop()
    return w - e, rows


def t_divmod(f, w, p):
    """Division by monic w in F_p[S][T] that tests every row for zero and
    composes mod(sub(., mul(., .))) for each update."""
    f = list(f)
    dw = len(w) - 1
    q = [[0]] * max(len(f) - dw, 1)
    for i in range(len(f) - 1, dw - 1, -1):
        c = f[i]
        if not any(c):
            continue
        q[i - dw] = c
        f[i] = [0]
        for j, wj in enumerate(w[:dw], i - dw):
            if any(wj):
                f[j] = polys.mod(polys.sub(f[j], polys.mul(c, wj)), p)
    while len(f) > 1 and not any(f[-1]):
        f.pop()
    return q, f


def t_multiplicity(g, w, p, cap=None):
    """Multiplicity of monic w in g over F_p[S], on rows as given."""
    mult = 0
    cur = g
    while mult != cap:
        if len(cur) - 1 < len(w) - 1:
            break
        q, r = t_divmod(cur, w, p)
        if any(map(any, r)):
            break
        mult += 1
        cur = q
        if not any(map(any, cur)):
            raise NotPseudoNull("generator vanishes after exact divisions")
    return mult


@lru_cache(maxsize=None)
def modulus_hull(p, ks):
    """Lower hull of the valuations of the coefficients of the product of
    Phi_{p^k}(1+X) over k in ks, multiplied out."""
    co = [1]
    for k in ks:
        co = polys.mul(co, cyclotomic_poly_shifted(p, k))
    return lower_hull([(i, vp(c, p)) for i, c in enumerate(co) if c])


def dominance_certified(profile, rep, p, ks):
    """The certificate read from the hulls of the valuations of the
    representative through lambda and of the modulus (the replaced
    reader): True when the modulus hull strictly dominates the
    representative's, for mu = 0 profiles with a nonzero constant term."""
    if profile is None or profile.mu != 0:
        return False
    hullpts = [(i, v) for i, v in enumerate(rep.valuations()[:profile.lam + 1])
               if v is not None]
    if not hullpts or hullpts[0][0] != 0:
        return False
    hull = lower_hull(hullpts)
    mod_hull = modulus_hull(p, tuple(ks))
    for i in range(profile.lam + 1):
        if hull_value(mod_hull, i) <= hull_value(hull, i):
            return False
    return True
