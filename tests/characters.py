"""Dirichlet characters of prime-power modulus and their Gauss sums.

Only the tests use these: the pipeline reaches its characters by walking
the units as Teichmueller lifts times powers of 1 + p and never forms a
Gauss sum, since the Gauss sums cancel against the character sums.  Values are
elements of the ``Fraction`` oracle class of ``fraction_oracle``, which
works at any level: a tame character of modulus p^c takes values in
Q(zeta_e) with e = phi(p^c), which is not a prime power.  The helpers below
(conjugation, embedding into a larger level, absolute value squared) serve
the Gauss-sum identities only.
"""

from fractions import Fraction
from math import gcd

from fraction_oracle import CyclotomicInt, euler_phi
from thetapm.exceptions import InvalidArgument


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


def conjugate(z):
    """Complex conjugation zeta -> zeta^(-1)."""
    return z.galois(z.m - 1)


def norm_abs_squared(z):
    """|z|^2 = z * conj(z) when that product is rational."""
    w = z * conjugate(z)
    if not all(c == 0 for c in w.co[1:]):
        raise InvalidArgument("z * conj(z) is not rational")
    return w.co[0]


def embed(z, m2):
    """Image in Q(zeta_{m2}) under zeta_m -> zeta_{m2}^(m2/m); m | m2."""
    if m2 % z.m != 0:
        raise InvalidArgument("target level must be a multiple of m")
    step = m2 // z.m
    out = CyclotomicInt(m2)
    for e, c in enumerate(z.co):
        if c:
            out._add_monomial(e * step, c)
    return out


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
