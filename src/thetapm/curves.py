"""Elliptic curve data: point counts, twists, local reduction invariants.

Curves are given by their five Weierstrass coefficients.  Point counting is
naive (quadratic character sums over F_ell), good for ell up to the
configured bound; Hecke eigenvalues obtained this way are cached on the
curve object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .exceptions import BadReduction, InvalidArgument, ResourceLimit
from .padics import is_prime, prime_factors, vp

POINT_COUNT_BOUND = 10 ** 5


def kronecker_symbol(a, n):
    """Kronecker symbol (a|n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker_symbol(a, -n)
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        k = 0
        while n % 2 == 0:
            n //= 2
            k += 1
        s = (1 if a % 8 in (1, 7) else -1) ** k
        return s * kronecker_symbol(a, n)
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(D):
    if D == 1:
        return True
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n):
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


@dataclass
class CurveData:
    """A rational elliptic curve with cached Hecke eigenvalues."""

    label: str
    a_invariants: tuple
    conductor: int
    ap_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        self.a_invariants = tuple(int(a) for a in self.a_invariants)
        if len(self.a_invariants) != 5:
            raise InvalidArgument("need five Weierstrass coefficients")
        if self.discriminant() == 0:
            raise InvalidArgument("singular Weierstrass model")

    # -- standard covariants -------------------------------------------

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a_invariants
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (a1 * a1) * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    # -- point counting -------------------------------------------------

    def count_points(self, ell):
        """a_ell = ell + 1 - #E(F_ell) by exhaustive enumeration."""
        if not is_prime(ell):
            raise InvalidArgument("%d is not prime" % ell)
        if self.conductor % ell == 0:
            raise BadReduction("curve %s has bad reduction at %d" % (self.label, ell))
        if ell > POINT_COUNT_BOUND:
            raise ResourceLimit("naive counting bounded at %d" % POINT_COUNT_BOUND)
        a1, a2, a3, a4, a6 = self.a_invariants
        if ell == 2:
            n = 1
            for x in range(2):
                for y in range(2):
                    if (y * y + a1 * x * y + a3 * y
                            - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                        n += 1
            a = 2 + 1 - n
        else:
            # complete the square: (2y + a1 x + a3)^2 = h(x)
            sq = bytearray(ell)
            for t in range(1, (ell + 1) // 2):
                sq[t * t % ell] = 1
            n = 1
            for x in range(ell):
                h = ((a1 * x + a3) ** 2
                     + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % ell
                if h == 0:
                    n += 1
                elif sq[h]:
                    n += 2
            a = ell + 1 - n
        if a * a > 4 * ell:
            raise InvalidArgument("Hasse bound violated; corrupt model")
        return a

    def ap(self, ell):
        if ell not in self.ap_cache:
            self.ap_cache[ell] = self.count_points(ell)
        return self.ap_cache[ell]

    def require_supersingular(self, p):
        if self.conductor % p == 0:
            raise BadReduction("p = %d divides the conductor of %s" % (p, self.label))
        if self.ap(p) != 0:
            raise InvalidArgument(
                "a_%d(%s) = %d != 0: outside the supported supersingular setting"
                % (p, self.label, self.ap(p)))

    # -- twisting --------------------------------------------------------

    def quadratic_twist(self, D):
        """Twist by a fundamental discriminant, as a new CurveData.

        Valid for D coprime to the conductor; the twisted conductor is then
        N * D^2.  The model is the reduced short form of the c4/c6 twist.
        """
        if D == 1:
            return self
        if not is_fundamental_discriminant(D):
            raise InvalidArgument("%d is not a fundamental discriminant" % D)
        if gcd(D, self.conductor) != 1:
            raise InvalidArgument("twist discriminant must be prime to the conductor")
        c4, c6 = self.c_invariants()
        A = -27 * c4 * D * D
        B = -54 * c6 * D ** 3
        for u in (2, 3):
            while A % u ** 4 == 0 and B % u ** 6 == 0:
                A //= u ** 4
                B //= u ** 6
        return CurveData("%s(%d)" % (self.label, D), (0, 0, 0, A, B),
                         self.conductor * D * D)


# ---------------------------------------------------------------------------
# Local reduction data at a prime ell


@dataclass(frozen=True)
class LocalType:
    """Reduction type of a curve over Q_ell from an ell-minimal model."""
    kind: str            # good | split-mult | nonsplit-mult | additive
    v_disc: int          # valuation of the minimal discriminant
    v_c4: int
    v_j: Fraction        # valuation of j (negative for potentially multiplicative)


def local_reduction_type(curve, ell):
    """Classify reduction of the curve over Q_ell.

    Minimality at ell is reached by u-descaling of (c4, c6, Delta); the
    (4, 6, 12) criterion is exact away from 2 and 3 and correct for every
    model handled by this workbench (verified against the fixtures).
    """
    c4, c6 = curve.c_invariants()
    disc = curve.discriminant()
    vd = vp(disc, ell)
    v4 = vp(c4, ell) if c4 else 10 ** 9
    v6 = vp(c6, ell) if c6 else 10 ** 9
    while v4 >= 4 and v6 >= 6 and vd >= 12:
        c4 //= ell ** 4
        c6 //= ell ** 6
        disc //= ell ** 12
        v4 -= 4
        v6 -= 6
        vd -= 12
    vj = Fraction(3 * v4 - vd) if c4 else Fraction(10 ** 9)
    if vd == 0:
        return LocalType("good", 0, v4, vj)
    if v4 == 0:
        split = _is_local_square(-c6, ell)
        return LocalType("split-mult" if split else "nonsplit-mult", vd, v4, vj)
    return LocalType("additive", vd, v4, vj)


def check_conductor(curve):
    """Raise InvalidArgument unless the conductor fits the model.

    A prime divides N exactly when the reduction there is bad, over the
    primes of N and of the discriminant; for ell >= 5, v_ell(N) = 1 exactly
    when the reduction is multiplicative.  Away from N the reduction must be
    good, so what is left of the discriminant is a 12th power (the scaling
    of a non-minimal model) and only its 12th root needs factoring.
    """
    N = curve.conductor
    if N < 1:
        raise InvalidArgument("conductor must be positive, got %d" % N)
    primes = prime_factors(N)
    rest = abs(curve.discriminant())
    for ell in primes:
        while rest % ell == 0:
            rest //= ell
    lo, hi = 0, 1 << (rest.bit_length() // 12 + 1)       # 12th root by bisection
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid ** 12 <= rest else (lo, mid - 1)
    if lo ** 12 != rest:
        raise InvalidArgument("%s has bad reduction at a prime not dividing "
                              "its conductor %d" % (curve.label, N))
    for ell in sorted(set(primes) | set(prime_factors(lo))):
        kind = local_reduction_type(curve, ell).kind
        e = vp(N, ell)
        if (e > 0) != (kind != "good") or (
                ell >= 5 and e > 0 and (e == 1) != kind.endswith("mult")):
            raise InvalidArgument("conductor %d of %s does not fit its %s "
                                  "reduction at %d" % (N, curve.label, kind, ell))


def _is_local_square(a, ell):
    """Is the integer a a square in Q_ell?  (a nonzero)"""
    if a == 0:
        raise InvalidArgument("zero has no square class")
    v = vp(a, ell)
    if v % 2 == 1:
        return False
    u = a // ell ** v
    if ell == 2:
        return u % 8 == 1
    return kronecker_symbol(u, ell) == 1


def unit_square_class(a, ell):
    """Square class of the unit part of a in Q_ell^* (for odd ell): +1/-1."""
    v = vp(a, ell)
    u = a // ell ** v
    return kronecker_symbol(u, ell)
