"""Fixed-precision p-adic scalars over an odd prime p.

A scalar lives in Q_p: either an exact zero, or p^val * u with val an
integer and u a p-adic unit.  ``precision`` counts known unit digits beyond
the valuation; ``None`` means the value is exact (constructed from a
rational number, so all digits are determined).

Arithmetic never reports digits beyond what propagation allows.  A sum
whose leading digits cancel below the precision floor degrades to a
"zero within precision" marker rather than silently claiming exactness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    """Immutable p-adic scalar with tracked precision.

    The value is p^val * num/den with num and den integers prime to p, so
    ring operations run on integers: an exact scalar keeps num/den in
    lowest terms with den > 0, a precision-tracked one keeps them modulo
    p^(precision + 2).  ``unit_part(digits)`` gives the canonical integer
    residue.
    """

    __slots__ = ("p", "val", "num", "den", "precision", "_zero")

    def __init__(self, p, value=None, precision=None):
        if not is_prime(p) or p == 2:
            raise InvalidArgument("p must be an odd prime, got %r" % (p,))
        if value is None:
            raise InvalidArgument("missing value")
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
        return _new(p, val, num, den, precision)

    # -- predicates ---------------------------------------------------

    def is_exact_zero(self):
        return self._zero and self.precision is None

    def is_zero_within_precision(self):
        return self._zero

    def is_exact(self):
        return self.precision is None

    def is_unit(self):
        return (not self._zero) and self.val == 0

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

    def valuation_lower_bound(self):
        if not self._zero:
            return self.val
        return self.precision if self.precision is not None else None

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

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.p != self.p:
                raise InvalidArgument("mixed primes")
            return other
        return PadicScalar(self.p, other)

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.p
        if self._zero or other._zero:
            if self.is_exact_zero() or other.is_exact_zero():
                return _new_zero(p, None)
            # O(p^a) * p^v u is O(p^(a + v)), and O(p^a) * O(p^b) is O(p^(a + b))
            a = self.precision if self._zero else self.val
            b = other.precision if other._zero else other.val
            return _new_zero(p, a + b)
        return _unit_product(p, self.val + other.val, self.num * other.num,
                             self.den * other.den,
                             _min_prec(self.precision, other.precision))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other._zero:
            raise InvalidArgument("division by zero scalar")
        return self * _new(other.p, -other.val, other.den, other.num,
                           other.precision)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        if self._zero:
            return self
        return _new(self.p, self.val, -self.num, self.den, self.precision)

    def __add__(self, other):
        other = self._coerce(other)
        p = self.p
        # absolute precision floors
        fa = self._abs_floor()
        fb = other._abs_floor()
        floor = fb if fa is None else fa if fb is None else min(fa, fb)
        if self._zero:
            if other._zero:
                return _new_zero(p, floor)
            return other._truncate_abs(floor)
        if other._zero:
            return self._truncate_abs(floor)
        v, w = self.val, other.val
        if v <= w:
            num = self.num * other.den + other.num * self.den * p ** (w - v)
        else:
            num = self.num * other.den * p ** (v - w) + other.num * self.den
            v = w
        if num == 0:
            return _new_zero(p, floor)
        while num % p == 0:       # only when the valuations were equal
            num //= p
            v += 1
        return _unit_product(p, v, num, self.den * other.den, None)._truncate_abs(floor)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __radd__(self, other):
        return self._coerce(other) + self

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _abs_floor(self):
        if self.precision is None:
            return None
        if self._zero:
            return self.precision
        return self.val + self.precision

    def _truncate_abs(self, floor):
        """Re-express with absolute precision capped at floor."""
        if floor is None or self._zero:
            return self
        if self.val >= floor:
            return _new_zero(self.p, floor)
        rel = floor - self.val
        if self.precision is not None and self.precision <= rel:
            return self
        return _new(self.p, self.val, self.num, self.den, rel)

    # -- misc ---------------------------------------------------------

    def __eq__(self, other):
        """Equality of exact scalars; finite-precision comparison is by digits."""
        try:
            other = self._coerce(other)
        except InvalidArgument:
            return NotImplemented
        if self._zero and other._zero:
            return True
        if self._zero != other._zero:
            return False
        if self.is_exact() and other.is_exact():
            return self.as_fraction() == other.as_fraction()
        if self.val != other.val:
            return False
        d = _min_prec(self.precision, other.precision) or DEFAULT_PRECISION
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


def _new(p, val, num, den, precision):
    """Scalar from parts already checked: p an odd prime, num and den units."""
    out = object.__new__(PadicScalar)
    out.p, out.val, out.num, out.den = p, val, num, den
    out.precision, out._zero = precision, False
    return out


def _new_zero(p, known_to):
    out = _new(p, 0, 0, 1, known_to)
    out._zero = True
    return out


def _unit_product(p, val, num, den, precision):
    """p^val * num/den in lowest terms when exact, else mod p^(precision+2)."""
    if precision is None:
        g = gcd(num, den)
        if den < 0:
            g = -g
        return _new(p, val, num // g, den // g, None)
    m = p ** (precision + 2)
    return _new(p, val, num % m or num, den % m or den, precision)


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
