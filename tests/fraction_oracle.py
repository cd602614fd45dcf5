"""The Fraction-per-coefficient cyclotomic arithmetic, kept as the test oracle.

This is the original ``CyclotomicInt`` of ``thetapm.cyclotomic``: one
``Fraction`` per power-basis coefficient, any level m, reduced one monomial
at a time (the recursive ``_add_monomial``, with division by Phi_m off the
prime powers), together with the original bodies of the inverses, the
change to the X = zeta - 1 basis, its evaluation at zeta - 1 and the
Mazur-Tate character sum.  Slow, but written term by term, so the integer
kernels of ``thetapm.cyclotomic`` are checked against it; the composite
levels of the tame Gauss sums in ``characters`` live here only.  The
group projection of Mazur-Tate elements, which only the norm-compatibility
checks use, lives here too.

The signed reconstruction has its original form here as well: the Garner
lift on a list of one ``Fraction`` per X-coefficient, with its product of
``Fraction`` lists, its Newton profile and the dominance certificate of
``ledger_oracle`` at each level, so the integer representative of
``thetapm.mazurtate`` and its history are checked against it.
"""

from fractions import Fraction
from math import gcd

import ledger_oracle
from thetapm import cyclotomic
from thetapm.exceptions import InvalidArgument, PrecisionError
from thetapm.iwasawa import IwasawaElement1, newton_invariants
from thetapm.mazurtate import MazurTateElement, interpolation_value
from thetapm.polys import clear_denominators, mul as poly_mul


def fraction_poly_mul(a, b):
    """Exact product of Fraction coefficient lists."""
    if not a or not b:
        return []
    A, da = clear_denominators(a)
    B, db = clear_denominators(b)
    return [Fraction(x, da * db) for x in poly_mul(A, B)]


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


class CyclotomicInt:
    """Exact element of Q(zeta_m) in the power basis modulo Phi_m.

    The name reflects the main use (integral cyclotomic values such as
    Birch sums); rational coefficients are allowed and denominators are
    tracked explicitly.
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
        big = fraction_poly_mul(self.co, other.co)
        z = CyclotomicInt(self.m)
        for e, c in enumerate(big):
            if c:
                z._add_monomial(e, c)
        return z

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

    def galois(self, s):
        """Image under zeta -> zeta^s; s must be prime to m."""
        if gcd(s, self.m) != 1:
            raise InvalidArgument("galois exponent must be prime to m")
        z = CyclotomicInt(self.m)
        for e, c in enumerate(self.co):
            if c:
                z._add_monomial(e * s % self.m, c)
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


def zeta_to_x_basis(z, p=None, k=None):
    """Rewrite an element of Q(zeta_{p^k}) as a polynomial in X = zeta - 1.

    Returns coefficients of degree < phi(p^k).  This is the binomial
    transform c'_j = sum_i c_i * C(i, j).
    """
    if p is None:
        pk = _prime_power(z.m)
        if pk is None:
            raise InvalidArgument("prime-power level required")
        p, k = pk
    d = (p - 1) * p ** (k - 1)
    out = [Fraction(0)] * d
    for i, c in enumerate(z.co):
        if c:
            b = 1
            for j in range(i + 1):
                out[j] += c * b
                b = b * (i - j) // (j + 1)
    return out


def x_poly_at_zeta_minus_one(poly, p, k):
    """Evaluate a polynomial in X at X = zeta_{p^k} - 1, exactly (Horner)."""
    m = p ** k
    z = CyclotomicInt(m)
    for c in reversed(poly):
        w = CyclotomicInt(m)
        for e, co in enumerate(z.co):
            if co:
                w._add_monomial(e + 1, co)
                w.co[e] -= co
        if c:
            w.co[0] += Fraction(c)
        z = w
    return z


def mazur_tate_evaluate(el, t=1, level=None):
    """Character sum sum_j (c_j / (p - 1)) zeta^(t*j) of a Mazur-Tate element."""
    k = el.level if level is None else level
    m = el.p ** k
    z = CyclotomicInt(m)
    for j, c in enumerate(el.coeffs):
        if c:
            z._add_monomial((t * j) % m, Fraction(c, el.p - 1))
    return z


def mazur_tate_project(el, level):
    """Image of a Mazur-Tate element at a lower level under the natural
    group projection: coefficients folded mod p^level."""
    if not 1 <= level <= el.level:
        raise InvalidArgument("cannot project to level %s" % level)
    size = el.p ** level
    co = [0] * size
    for j, c in enumerate(el.coeffs):
        co[j % size] += c
    return MazurTateElement(el.p, level, co, el.raw_content)


def from_int(z):
    """The oracle element equal to an integer-vector ``thetapm`` element."""
    return CyclotomicInt(z.m, [Fraction(c, z.den) for c in z.co])


# ---------------------------------------------------------------------------
# the signed reconstruction on Fraction lists


def x_basis_fractions(z, p, k):
    """The X-basis coefficients of a thetapm element, one Fraction each."""
    nums, den = cyclotomic.zeta_to_x_basis(z, p, k)
    return [Fraction(c, den) for c in nums]


def crt_extend(theta, mod_coeffs, prev_ks, v_k, p, k):
    """One Garner step on a Fraction list: theta + mod_coeffs * dx, with dx
    the X-basis image of (v_k - theta(zeta - 1)) / prod Phi_{p^j}(zeta)."""
    nums, den = clear_denominators(theta)
    diff = v_k - cyclotomic.x_poly_at_zeta_minus_one(nums, p, k, den)
    inv = cyclotomic.CyclotomicInt.one(p ** k)
    for j in prev_ks:
        inv = inv * cyclotomic.phi_value_at_root_inverse(p, j, k)
    prod = fraction_poly_mul(mod_coeffs, x_basis_fractions(diff * inv, p, k))
    out = list(theta) + [Fraction(0)] * (len(prod) - len(theta))
    for i, c in enumerate(prod):
        out[i] += c
    return out


def newton_profile(coeffs, p):
    """Profile of an exact rational coefficient list (None when zero)."""
    try:
        return newton_invariants(IwasawaElement1.from_rationals(p, coeffs))
    except PrecisionError:
        return None


def reconstruct_fractions(target, sign, levels):
    """(representative, profiles, certified): the Garner lift of the signed
    data of ``target`` over ``levels`` as one Fraction per coefficient,
    before the content normalization, its Newton profile after each level
    and the dominance verdict of each level, read from the hull of the
    representative's valuations."""
    p = target.p
    theta = None
    mod_coeffs = [1]
    used = []
    profiles = []
    certified = []
    for k in levels:
        v_k = interpolation_value(target, sign, k)
        if theta is None:
            theta = x_basis_fractions(v_k, p, k)
        else:
            theta = crt_extend(theta, mod_coeffs, used, v_k, p, k)
        mod_coeffs = poly_mul(mod_coeffs, cyclotomic.cyclotomic_poly_shifted(p, k))
        used.append(k)
        prof = newton_profile(theta, p)
        profiles.append(prof)
        certified.append(ledger_oracle.dominance_certified(
            prof, IwasawaElement1.from_rationals(p, theta), p, used))
    return theta, profiles, certified
