"""p-adic scalars over an odd prime p: a value and how far it is known.

A scalar lives in Q_p: either an exact zero, or p^val * u with val an
integer and u a p-adic unit.  ``precision`` counts known unit digits beyond
the valuation; ``None`` means the value is exact (constructed from a
rational number, so all digits are determined).  A zero known only
modulo p^precision is a "zero within precision" marker.

Precision is data here, not arithmetic: scalars carry the digits of
one-variable series (input files, Weierstrass output, the signed
logarithms) to the Newton polygon and the certificate resultant, which read
valuations and integer lifts.  Exact computations run on integer
polynomials in ``thetapm.polys``.
"""

from __future__ import annotations

from fractions import Fraction

from .exceptions import InvalidArgument, PrecisionError

DEFAULT_PRECISION = 30


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """The distinct primes of a positive integer, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def vp(x, p):
    """p-adic valuation of an int or Fraction; None for 0."""
    if x == 0:
        return None
    if isinstance(x, Fraction):
        v = 0
        n = x.numerator
        while n % p == 0:
            n //= p
            v += 1
        d = x.denominator
        while d % p == 0:
            d //= p
            v -= 1
        return v
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


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
