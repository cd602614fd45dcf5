"""Exact cyclotomic arithmetic in Q(zeta_{p^k}) and the X = zeta - 1 basis.

An element of Q(zeta_m), m = p^k for an odd prime p, is an integer vector
``co`` in the power basis 1, zeta, ..., zeta^(d-1), d = phi(m), over one
positive denominator ``den``, kept in lowest terms: equal elements have
equal (co, den) and every ring operation is exact.  Any other m raises
InvalidArgument.

Every element is built the same way: an integer vector indexed by exponent,
of any length, over one denominator; its exponents fold mod m and one pass
reduces modulo Phi_m.  Roots of unity, Galois images, products, the
inverses 1/(zeta^t - 1) and 1/Phi_{p^j}(zeta), Mazur-Tate character sums
and the evaluation of an X-polynomial at zeta - 1 (an integer Taylor shift
by -1 before the fold) all go through that one fold.  The change to the X
basis is the Taylor shift by +1 of the numerators, by synthetic division.
X-polynomials are stored the same way, integer numerators over one
denominator, in and out of both basis changes and their products; no
coefficient becomes a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub

from .exceptions import InvalidArgument
from .padics import is_prime
from .polys import mul as poly_mul, taylor_shift


def fraction_poly_mul(a, b):
    """Product of two (integer numerators, denominator) polynomials, as one.

    The name predates the integer representation: the benchmark tracer
    hooks this function as ``cyclotomic.poly_mul`` and its tests require
    that hook to be present and called on the ``table`` workload, so the
    name changes only together with the benchmark.
    """
    (A, da), (B, db) = a, b
    return poly_mul(A, B), da * db


def _level(m):
    """(p, s) with m = p^k and s = p^(k-1) for an odd prime p.

    Any other m raises InvalidArgument.
    """
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
        raise InvalidArgument("level must be a power of an odd prime, got %r" % (m,))
    p = next((f for f in range(3, isqrt(m) + 1, 2) if m % f == 0), m)
    n = m
    while n % p == 0:
        n //= p
    if n != 1:
        raise InvalidArgument("level must be a power of an odd prime, got %d" % m)
    return p, m // p


def _fold_reduce(v, m):
    """Power-basis integer coefficients of sum_e v_e zeta_m^e, m = p^k.

    Exponents fold mod m, then one pass reduces modulo Phi_m:
    zeta^(d+j) = -sum_{i<p-1} zeta^(j+i*s) with s = p^(k-1), d = (p-1)s and
    j < s, so no term needs reducing twice.
    """
    _, s = _level(m)
    out = [0] * m
    for start in range(0, len(v), m):
        chunk = v[start:start + m]
        out[:len(chunk)] = map(add, out, chunk)
    d = m - s
    top = out[d:]
    for lo in range(0, d, s):
        out[lo:lo + s] = map(sub, out[lo:lo + s], top)
    del out[d:]
    return out


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
    """Exact element co/den of Q(zeta_m), m = p^k, in the power basis.

    ``co`` holds phi(m) integers and ``den`` > 0 with gcd(den, *co) = 1.
    The name reflects the main use (integral cyclotomic values such as
    Birch sums); denominators such as 1/(p - 1) are carried in ``den``.
    """

    __slots__ = ("m", "co", "den")

    def __init__(self, m, co=None, den=1):
        _, s = _level(m)
        if co is None:
            co = [0] * (m - s)
        elif len(co) != m - s:
            raise InvalidArgument("coefficient vector must have length phi(m)")
        if den <= 0:
            raise InvalidArgument("denominator must be positive")
        g = gcd(den, *co)
        if g > 1:
            co = [c // g for c in co]
            den //= g
        self.m = m
        self.co = co
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_exponents(cls, m, v, den=1):
        """sum_e v[e] zeta_m^e / den for an integer vector v of any length."""
        return cls(m, _fold_reduce(v, m), den)

    @classmethod
    def one(cls, m):
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m, value):
        return cls.root_of_unity(m, 0, value)

    @classmethod
    def root_of_unity(cls, m, exponent, coeff=1):
        """coeff * zeta_m^exponent."""
        _level(m)
        c = Fraction(coeff)
        e = exponent % m
        v = [0] * (e + 1)
        v[e] = c.numerator
        return cls.from_exponents(m, v, c.denominator)

    # -- ring operations ----------------------------------------------

    def _aligned(self, other):
        """Numerators of self and other over their least common denominator."""
        other = self._coerce(other)
        if self.den == other.den:
            return self.co, other.co, self.den
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return [c * a for c in self.co], [c * b for c in other.co], den

    def __add__(self, other):
        a, b, den = self._aligned(other)
        return CyclotomicInt(self.m, list(map(add, a, b)), den)

    def __sub__(self, other):
        a, b, den = self._aligned(other)
        return CyclotomicInt(self.m, list(map(sub, a, b)), den)

    def __neg__(self):
        return CyclotomicInt(self.m, [-c for c in self.co], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicInt(self.m, [x * c.numerator for x in self.co],
                                 self.den * c.denominator)
        other = self._coerce(other)
        return CyclotomicInt.from_exponents(self.m, poly_mul(self.co, other.co),
                                            self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicInt.from_rational(self.m, other)
        if not isinstance(other, CyclotomicInt) or other.m != self.m:
            return NotImplemented
        return self.den == other.den and self.co == other.co

    def __hash__(self):
        return hash((self.m, self.den, tuple(self.co)))

    def is_zero(self):
        return not any(self.co)

    def galois(self, s):
        """Image under zeta -> zeta^s; s must be prime to m."""
        m = self.m
        if gcd(s, m) != 1:
            raise InvalidArgument("galois exponent must be prime to m")
        v = [0] * m
        for e, c in enumerate(self.co):
            v[e * s % m] = c
        return CyclotomicInt.from_exponents(m, v, self.den)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicInt.from_rational(self.m, other)
        if not isinstance(other, CyclotomicInt):
            raise InvalidArgument("cannot combine with %r" % (other,))
        if other.m == self.m:
            return other
        raise InvalidArgument("mixed cyclotomic levels")

    def __repr__(self):
        terms = ["%s*z^%d" % (Fraction(c, self.den), e)
                 for e, c in enumerate(self.co) if c]
        return "Cyc(%d: %s)" % (self.m, " + ".join(terms) or "0")


def phi_value_at_root_inverse(p, j, k):
    """Exact 1/Phi_{p^j}(zeta_{p^k}) for j < k.

    Phi_p(w) = (w^p - 1)/(w - 1) with w = zeta^(p^(j-1)), so the inverse is
    (w - 1)/(u - 1) with u = w^p of order q = p^(k-j), and
    1/(u - 1) = (1/q) * sum_{i<q} i u^i, the derivative of
    (x^q - 1)/(x - 1) at x = u: the exponents e*p*i + e and e*p*i,
    e = p^(j-1), stay below p^k.
    """
    if j >= k:
        raise InvalidArgument("inverse formula needs j < k")
    e = p ** (j - 1)
    q = p ** (k - j)
    v = [0] * p ** k
    for i in range(1, q):
        u = e * p * i
        v[u + e] += i
        v[u] -= i
    return CyclotomicInt.from_exponents(p ** k, v, q)


def zeta_to_x_basis(z, p=None, k=None):
    """Rewrite an element of Q(zeta_{p^k}) as a polynomial in X = zeta - 1.

    Returns (numerators, z.den): phi(p^k) integers, lowest degree first,
    over the element's one denominator.  This is the binomial transform
    c'_j = sum_i c_i * C(i, j), i.e. the Taylor shift of the power-basis
    numerators by +1.  The level is z.m; p and k, when given, must name it.
    """
    if None not in (p, k) and p ** k != z.m:
        raise InvalidArgument("element level %d is not %d^%d" % (z.m, p, k))
    out = taylor_shift(z.co, 1)
    out += [0] * (len(z.co) - len(out))
    return out, z.den


def x_poly_at_zeta_minus_one(nums, p, k, den=1):
    """Evaluate the polynomial nums/den in X at X = zeta_{p^k} - 1, exactly.

    poly(zeta - 1) is the Taylor shift of poly by -1 read at zeta, so the
    shifted integer numerators fold into the power basis of Q(zeta_{p^k});
    the polynomial may be longer than phi(p^k).
    """
    return CyclotomicInt.from_exponents(p ** k, taylor_shift(nums, -1), den)
