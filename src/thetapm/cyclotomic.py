"""Exact cyclotomic arithmetic and the Eisenstein quotient embedding.

Elements of Q(zeta_m) are kept in the power basis 1, zeta, ..., zeta^(d-1)
with d = phi(m), reduced modulo the m-th cyclotomic polynomial, with
Fraction coefficients, so every ring operation is exact.  For prime-power m
the reduction uses the sparse shape of Phi_{p^k}; general m falls back to
polynomial division.

The hot kernels (products, the change to the X = zeta - 1 basis and the
evaluation of an X-polynomial at zeta - 1) clear denominators once and work
on integer vectors with one common denominator: a Taylor shift by +-1 by
synthetic division, then one fold of the exponents mod m and one reduction
pass modulo Phi_m.

The p-adic side is the quotient Z_p[X]/Phi_{p^k}(1+X), a totally ramified
local ring with uniformizer X = zeta - 1.  In the power basis sum c_i X^i
the valuation is min_i (d*v_p(c_i) + i) and the minimum is attained at a
unique index, so valuations of embedded values are read off exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add, sub

from .exceptions import InvalidArgument, PrecisionError
from .padics import PadicScalar, is_prime, vp
from .polys import clear_denominators, mul as poly_mul


def euler_phi(m):
    out = m
    n = m
    f = 2
    while f * f <= n:
        if n % f == 0:
            out -= out // f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out -= out // n
    return out


def fraction_poly_mul(a, b):
    """Exact product of Fraction coefficient lists, fast at scale."""
    if not a or not b:
        return []
    A, da = clear_denominators(a)
    B, db = clear_denominators(b)
    return [Fraction(x, da * db) for x in poly_mul(A, B)]


def _taylor_shift(a, sign=1):
    """Integer coefficients of a(X + sign) for sign = +1 or -1.

    Synthetic division by X - sign: n - 1 suffix-sum passes over one
    working vector, O(n^2) integer additions.  The shift by -1 is the shift
    by +1 conjugated by X -> -X.
    """
    a = list(a)
    while a and not a[-1]:
        a.pop()
    if sign < 0:
        a[1::2] = [-c for c in a[1::2]]
    r = a[::-1]
    for j in range(len(r), 1, -1):
        r[:j] = accumulate(r[:j])
    r.reverse()
    if sign < 0:
        r[1::2] = [-c for c in r[1::2]]
    return r


def _fold_reduce(v, m):
    """Power-basis integer coefficients of sum_e v_e zeta_m^e.

    Exponents fold mod m, then one pass reduces modulo Phi_m: for m = p^k,
    zeta^(d+j) = -sum_{i<p-1} zeta^(j+i*s) with s = p^(k-1), d = (p-1)s and
    j < s, so no term needs reducing twice.
    """
    out = [0] * m
    for start in range(0, len(v), m):
        chunk = v[start:start + m]
        out[:len(chunk)] = map(add, out, chunk)
    pk = _prime_power(m)
    if pk is None:
        d = euler_phi(m)
        _, rem = _poly_divmod_monic(out, cyclotomic_polynomial(m))
        return rem + [0] * (d - len(rem))
    s = m // pk[0]
    d = m - s
    top = out[d:]
    for lo in range(0, d, s):
        out[lo:lo + s] = map(sub, out[lo:lo + s], top)
    del out[d:]
    return out


def _poly_divmod_monic(a, b):
    """Divide a by monic b; exact coefficient arithmetic."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j, y in enumerate(b):
                a[i - db + j] -= c * y
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


_cyclo_cache = {}


def cyclotomic_polynomial(m):
    """Integer coefficient list of Phi_m, ascending degree."""
    if m in _cyclo_cache:
        return list(_cyclo_cache[m])
    if m == 1:
        out = [-1, 1]
    else:
        num = [-1] + [0] * (m - 1) + [1]       # x^m - 1
        den = [1]
        for d in range(1, m):
            if m % d == 0:
                den = poly_mul(den, cyclotomic_polynomial(d))
        out, rem = _poly_divmod_monic(num, den)
        assert all(r == 0 for r in rem)
    _cyclo_cache[m] = out
    return list(out)


def cyclotomic_poly_shifted(p, k):
    """Phi_{p^k}(1 + X) as an integer coefficient list (Eisenstein at p)."""
    if not is_prime(p) or p == 2:
        raise InvalidArgument("p must be an odd prime")
    if k < 1:
        raise InvalidArgument("level k must be >= 1")
    deg = (p - 1) * p ** (k - 1)
    co = [0] * (deg + 1)
    step = p ** (k - 1)
    for i in range(p):
        e = i * step
        b = 1
        for j in range(e + 1):
            co[j] += b
            b = b * (e - j) // (j + 1)
    return co


class CyclotomicInt:
    """Exact element of Q(zeta_m) in the power basis modulo Phi_m.

    The name reflects the main use (integral cyclotomic values and Gauss
    sums); rational coefficients are allowed and denominators are tracked
    explicitly.
    """

    __slots__ = ("m", "co")

    def __init__(self, m, co=None):
        self.m = m
        d = euler_phi(m)
        if co is None:
            co = [Fraction(0)] * d
        elif len(co) != d:
            raise InvalidArgument("coefficient vector must have length phi(m)")
        self.co = co

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def one(cls, m):
        return cls.root_of_unity(m, 0)

    @classmethod
    def from_rational(cls, m, value):
        z = cls(m)
        z.co[0] = Fraction(value)
        return z

    @classmethod
    def root_of_unity(cls, m, exponent, coeff=1):
        """coeff * zeta_m^exponent."""
        z = cls(m)
        z._add_monomial(exponent, Fraction(coeff))
        return z

    # -- reduction ----------------------------------------------------

    def _add_monomial(self, e, c):
        m = self.m
        e %= m
        d = len(self.co)
        if e < d:
            self.co[e] += c
            return
        pk = _prime_power(m)
        if pk is not None:
            p, _ = pk
            step = m // p
            t = e - d
            for i in range(p - 1):
                self._add_monomial(i * step + t, -c)
            return
        phi = cyclotomic_polynomial(m)
        # zeta^e = zeta^e mod Phi_m: subtract zeta^(e-d) * Phi_m tail
        t = e - d
        for j in range(d):
            if phi[j]:
                self._add_monomial(t + j, -c * phi[j])

    # -- ring operations ----------------------------------------------

    def copy(self):
        return CyclotomicInt(self.m, list(self.co))

    def __add__(self, other):
        other = self._coerce(other)
        return CyclotomicInt(self.m, [a + b for a, b in zip(self.co, other.co)])

    def __sub__(self, other):
        other = self._coerce(other)
        return CyclotomicInt(self.m, [a - b for a, b in zip(self.co, other.co)])

    def __neg__(self):
        return CyclotomicInt(self.m, [-a for a in self.co])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicInt(self.m, [a * other for a in self.co])
        other = self._coerce(other)
        a, da = clear_denominators(self.co)
        b, db = clear_denominators(other.co)
        v = _fold_reduce(poly_mul(a, b), self.m)
        den = da * db
        return CyclotomicInt(self.m, [Fraction(x, den) for x in v])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicInt.from_rational(self.m, other)
        if not isinstance(other, CyclotomicInt) or other.m != self.m:
            return NotImplemented
        return self.co == other.co

    def __hash__(self):
        return hash((self.m, tuple(self.co)))

    def is_zero(self):
        return all(c == 0 for c in self.co)

    def is_rational(self):
        return all(c == 0 for c in self.co[1:])

    def galois(self, s):
        """Image under zeta -> zeta^s; s must be prime to m."""
        if gcd(s, self.m) != 1:
            raise InvalidArgument("galois exponent must be prime to m")
        z = CyclotomicInt(self.m)
        for e, c in enumerate(self.co):
            if c:
                z._add_monomial(e * s % self.m, c)
        return z

    def conjugate(self):
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(self.m - 1)

    def norm_abs_squared(self):
        """|z|^2 = z * conj(z) when that product is rational."""
        w = self * self.conjugate()
        if not w.is_rational():
            raise InvalidArgument("z * conj(z) is not rational")
        return w.co[0]

    def denominator(self):
        den = 1
        for c in self.co:
            den = den * c.denominator // gcd(den, c.denominator)
        return den

    def embed(self, m2):
        """Image in Q(zeta_{m2}) under zeta_m -> zeta_{m2}^(m2/m); m | m2."""
        if m2 % self.m != 0:
            raise InvalidArgument("target level must be a multiple of m")
        step = m2 // self.m
        z = CyclotomicInt(m2)
        for e, c in enumerate(self.co):
            if c:
                z._add_monomial(e * step, c)
        return z

    def descend_to_odd(self):
        """Rewrite at level m/2 when m = 2r with r odd (same field).

        Uses zeta_{2r} = -zeta_r^((r+1)/2); phi(2r) = phi(r), so this is an
        isomorphism of representations, not a subfield test.
        """
        m = self.m
        if m % 2 != 0 or (m // 2) % 2 == 0:
            raise InvalidArgument("level is not twice an odd number")
        r = m // 2
        h = (r + 1) // 2
        z = CyclotomicInt(r)
        for e, c in enumerate(self.co):
            if c:
                z._add_monomial(e * h % r, c * (-1) ** e)
        return z

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicInt.from_rational(self.m, other)
        if not isinstance(other, CyclotomicInt):
            raise InvalidArgument("cannot combine with %r" % (other,))
        if other.m == self.m:
            return other
        raise InvalidArgument("mixed cyclotomic levels; embed into a common one first")

    def __repr__(self):
        terms = ["%s*z^%d" % (c, e) for e, c in enumerate(self.co) if c]
        return "Cyc(%d: %s)" % (self.m, " + ".join(terms) or "0")


def _prime_power(m):
    """(p, k) if m = p^k for an odd prime p, else None."""
    if m < 3 or m % 2 == 0:
        return None
    p = _smallest_factor(m)
    k = 0
    n = m
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _smallest_factor(n):
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def root_of_unity_minus_one_inverse(m, t):
    """Exact 1/(zeta_m^t - 1) for zeta_m^t != 1.

    Uses 1/(w - 1) = (1/q) * sum_{i=1}^{q-1} i w^i for w of exact order q,
    obtained by differentiating (x^q - 1)/(x - 1) at x = w.
    """
    t %= m
    if t == 0:
        raise InvalidArgument("zeta^t = 1 is not invertible after subtracting 1")
    q = m // gcd(t, m)
    z = CyclotomicInt(m)
    for i in range(1, q):
        z._add_monomial(t * i, Fraction(i, q))
    return z


def phi_value_at_root(p, j, k):
    """Phi_{p^j}(zeta) for zeta of order p^k, as an exact CyclotomicInt.

    For j < k this is Phi_p(zeta^(p^(j-1))), a sum of p roots of unity of
    valuation 1/p^(k-j); for j > k it is p; at j = k it vanishes.
    """
    m = p ** k
    if j == k:
        return CyclotomicInt.zero(m)
    if j > k:
        return CyclotomicInt.from_rational(m, p)
    z = CyclotomicInt(m)
    e = p ** (j - 1)
    for i in range(p):
        z._add_monomial(i * e, Fraction(1))
    return z


def phi_value_at_root_inverse(p, j, k):
    """Exact 1/Phi_{p^j}(zeta_{p^k}) for j < k.

    Phi_p(w) = (w^p - 1)/(w - 1) with w = zeta^(p^(j-1)), so the inverse is
    (w - 1) * (w^p - 1)^(-1), both factors explicit.
    """
    if j >= k:
        raise InvalidArgument("inverse formula needs j < k")
    m = p ** k
    e = p ** (j - 1)
    num = CyclotomicInt.root_of_unity(m, e) - CyclotomicInt.one(m)
    return num * root_of_unity_minus_one_inverse(m, e * p)


# ---------------------------------------------------------------------------
# Dirichlet characters on (Z/p^c)^* whose values are roots of unity


class WildCharacter:
    """Character of (Z/p^(n+1))^* trivial on the Teichmueller part.

    Determined by psi(u0) = zeta^t for the generator u0 = 1 + p of the
    principal units, where zeta has order p^n.  These are exactly the
    characters of the cyclotomic Z_p-quotient of conductor dividing
    p^(n+1); t prime to p gives exact conductor p^(n+1).
    """

    def __init__(self, p, n, t=1):
        if n < 1:
            raise InvalidArgument("wild character needs level n >= 1")
        self.p = p
        self.n = n
        self.t = t % p ** n
        self.q = p ** (n + 1)
        self._dlog = principal_unit_dlog(p, n)

    def order(self):
        return self.p ** self.n // gcd(self.t, self.p ** self.n)

    def conductor(self):
        if self.t == 0:
            return 1
        h = self.p ** self.n // gcd(self.t, self.p ** self.n)
        return h * self.p

    def exponent_at(self, a):
        """e with psi(a) = zeta^(t*e), for a prime to p; None otherwise."""
        p, q = self.p, self.q
        if a % p == 0:
            return None
        a %= q
        w = pow(a, p ** self.n, q)          # Teichmueller representative
        principal = a * pow(w, -1, q) % q
        return self._dlog[principal]

    def value(self, a, m=None):
        """psi(a) as a CyclotomicInt of level m (default p^n)."""
        m = m or self.p ** self.n
        e = self.exponent_at(a)
        if e is None:
            return CyclotomicInt.zero(m)
        step = m // self.p ** self.n
        if m % self.p ** self.n != 0:
            raise InvalidArgument("level must be a multiple of p^n")
        return CyclotomicInt.root_of_unity(m, self.t * e * step)


def principal_unit_dlog(p, n):
    """Discrete logs base (1+p) on the principal units of Z/p^(n+1)."""
    q = p ** (n + 1)
    u0 = 1 + p
    table = {}
    x = 1
    for j in range(p ** n):
        table[x] = j
        x = x * u0 % q
    return table


class TameCharacter:
    """Character of (Z/p^c)^* given by its value exponent on a generator.

    chi(g) = zeta_e^t where g is the smallest primitive root mod p^c and
    e = phi(p^c).  General enough to enumerate every character of a
    prime-power modulus; values live in Q(zeta_e).
    """

    def __init__(self, p, c, t):
        if c < 1:
            raise InvalidArgument("modulus exponent must be >= 1")
        self.p = p
        self.c = c
        self.q = p ** c
        self.e = euler_phi(self.q)
        self.t = t % self.e
        self.g = primitive_root_prime_power(p, c)
        self._dlog = _unit_dlog(self.q, self.g)

    def order(self):
        return self.e // gcd(self.t, self.e)

    def conductor(self):
        """Smallest p^f such that the character factors through (Z/p^f)^*."""
        if self.t == 0:
            return 1
        for f in range(1, self.c):
            # trivial on the kernel of (Z/p^c)^* -> (Z/p^f)^*, generated by 1 + p^f
            gen = (1 + self.p ** f) % self.q
            if (self.t * self._dlog[gen]) % self.e == 0:
                return self.p ** f
        return self.q

    def exponent_at(self, a):
        a %= self.q
        if a % self.p == 0:
            return None
        return self._dlog[a] * self.t % self.e

    def is_primitive(self):
        return self.conductor() == self.q

    def value(self, a, m=None):
        m = m or self.e
        ex = self.exponent_at(a)
        if ex is None:
            return CyclotomicInt.zero(m)
        if m % self.e != 0:
            raise InvalidArgument("level must be a multiple of the value order")
        return CyclotomicInt.root_of_unity(m, ex * (m // self.e))

    def inverse(self):
        return TameCharacter(self.p, self.c, (-self.t) % self.e)

    def parity(self):
        """chi(-1), always +1 or -1."""
        ex = self.exponent_at(self.q - 1)
        return 1 if ex == 0 else -1


def primitive_root_prime_power(p, c):
    q = p ** c
    phi = euler_phi(q)
    fac = _factorize(phi)
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, phi // f, q) != 1 for f in fac):
            return g
    raise InvalidArgument("no primitive root found")


def _factorize(n):
    out = set()
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def _unit_dlog(q, g):
    table = {}
    x = 1
    for j in range(euler_phi(q)):
        table[x] = j
        x = x * g % q
    return table


def gauss_sum(chi):
    """tau(chi) = sum_a chi(a) zeta_q^a for a primitive character mod q = p^c.

    The value lives in Q(zeta_m) with m = lcm(q, order of chi); for wild
    characters this is just Q(zeta_q).
    """
    if isinstance(chi, WildCharacter):
        if chi.conductor() != chi.q:
            raise InvalidArgument("gauss sum needs a primitive character")
        q = chi.q
        z = CyclotomicInt(q)
        step = q // chi.p ** chi.n
        for a in range(1, q):
            e = chi.exponent_at(a)
            if e is None:
                continue
            # chi(a) * zeta_q^a, both exponents at level q
            z._add_monomial(a + chi.t * e * step, Fraction(1))
        return z
    if isinstance(chi, TameCharacter):
        if not chi.is_primitive():
            raise InvalidArgument("gauss sum needs a primitive character")
        q = chi.q
        e = chi.e
        m = q * e // gcd(q, e)
        z = CyclotomicInt(m)
        for a in range(1, q):
            ex = chi.exponent_at(a)
            if ex is None:
                continue
            z._add_monomial(a * (m // q) + ex * (m // e), Fraction(1))
        return z
    raise InvalidArgument("unsupported character type %r" % type(chi))


# ---------------------------------------------------------------------------
# Eisenstein quotient Z_p[X]/Phi_{p^k}(1+X)


class EisensteinElement:
    """Element of Z_p[X]/Phi_{p^k}(1+X) with coefficients known mod p^N.

    Coefficients are exact Fractions when constructed from exact data;
    ``precision`` records the declared coefficient precision for reporting.
    """

    __slots__ = ("p", "k", "co", "precision")

    def __init__(self, p, k, co, precision):
        self.p = p
        self.k = k
        d = (p - 1) * p ** (k - 1)
        if len(co) != d:
            raise InvalidArgument("need phi(p^k) coefficients")
        self.co = co
        self.precision = precision

    @property
    def degree(self):
        return (self.p - 1) * self.p ** (self.k - 1)

    def valuation(self):
        """pi-adic valuation normalized so v(p) = 1; None if zero mod p^N."""
        d = self.degree
        best = None
        for i, c in enumerate(self.co):
            if c == 0:
                continue
            v = vp(c, self.p)
            if v >= self.precision:
                continue
            cand = Fraction(d * v + i, d)
            if best is None or cand < best:
                best = cand
        return best

    def is_zero_within_precision(self):
        return self.valuation() is None

    def __eq__(self, other):
        if not isinstance(other, EisensteinElement):
            return NotImplemented
        if (self.p, self.k) != (other.p, other.k):
            return False
        n = min(self.precision, other.precision)
        m = self.p ** n
        return all((a - b) % m == 0 for a, b in zip(self.co, other.co))

    def __mul__(self, other):
        if not isinstance(other, EisensteinElement) or (self.p, self.k) != (other.p, other.k):
            raise InvalidArgument("mixed Eisenstein quotients")
        big = fraction_poly_mul(self.co, other.co)
        mod = cyclotomic_poly_shifted(self.p, self.k)
        co = _reduce_mod_shifted(big, mod)
        return EisensteinElement(self.p, self.k, co, min(self.precision, other.precision))

    def __repr__(self):
        return "Eisenstein(p=%d, k=%d, prec=%d, val=%s)" % (
            self.p, self.k, self.precision, self.valuation())


def _reduce_mod_shifted(co, mod):
    co = [Fraction(c) for c in co]
    d = len(mod) - 1
    for i in range(len(co) - 1, d - 1, -1):
        c = co[i]
        if c:
            for j in range(d + 1):
                co[i - d + j] -= c * mod[j]
    out = co[:d]
    out += [Fraction(0)] * (d - len(out))
    return out


def zeta_to_x_basis(z, p=None, k=None):
    """Rewrite an element of Q(zeta_{p^k}) as a polynomial in X = zeta - 1.

    Returns coefficients of degree < phi(p^k).  This is the binomial
    transform c'_j = sum_i c_i * C(i, j), i.e. the Taylor shift of the
    power-basis coefficients by +1, done on integers over one denominator.
    """
    if p is None:
        pk = _prime_power(z.m)
        if pk is None:
            raise InvalidArgument("prime-power level required")
        p, k = pk
    d = (p - 1) * p ** (k - 1)
    ints, den = clear_denominators(z.co)
    out = _taylor_shift(ints, 1)
    out += [0] * (d - len(out))
    return [Fraction(x, den) for x in out]


def x_poly_at_zeta_minus_one(poly, p, k):
    """Evaluate a polynomial in X at X = zeta_{p^k} - 1, exactly.

    poly(zeta - 1) is the Taylor shift of poly by -1 read at zeta, so the
    shifted integer coefficients fold into the power basis of Q(zeta_{p^k});
    the polynomial may be longer than phi(p^k).
    """
    m = p ** k
    ints, den = clear_denominators(poly)
    v = _fold_reduce(_taylor_shift(ints, -1), m)
    return CyclotomicInt(m, [Fraction(x, den) for x in v])


def embed_padic(z, p, precision):
    """Embed an exact cyclotomic value into Z_p[X]/Phi_{p^k}(1+X).

    The level of z must be p^k (or 1, giving a scalar).  Denominators prime
    to p are inverted; a p-power denominator shifts the valuation and is
    rejected once it exceeds the requested precision.
    """
    if z.m % 2 == 0 and (z.m // 2) % 2 == 1:
        z = z.descend_to_odd()
    pk = _prime_power(z.m) if z.m > 1 else (p, 0)
    if pk is None or pk[0] != p:
        raise InvalidArgument("element must live at a level p^k")
    k = pk[1]
    if k == 0:
        val = z.co[0]
        if vp(val, p) is not None and vp(val, p) <= -precision:
            raise PrecisionError("denominator exhausts the requested precision")
        return PadicScalar(p, val, precision=precision)
    den_v = min((vp(c, p) for c in z.co if c != 0), default=0)
    if den_v is not None and den_v <= -precision:
        raise PrecisionError("denominator exhausts the requested precision")
    co = zeta_to_x_basis(z, p, k)
    return EisensteinElement(p, k, co, precision)
