"""Canonical representatives of P^1(Z/N) without orbit enumeration.

These are the original ``_lift_unit`` and ``P1Table.normalize`` of
``thetapm.modsym`` (``normalize`` as a function of the level), which built
the table above level 600 until the orbit enumeration took over at every
level.  They compute each representative from (u : v) alone, so the table
of ``P1Table`` is checked against them point by point.  The recursive
extended gcd that they, and the SL2 lift of ``modsym_oracle``, read is the
one ``thetapm.modsym`` had before its lift took a modular inverse.
"""

from math import gcd

from thetapm.exceptions import InvalidArgument


def _ext_gcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, by recursion."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - y * (a // b)


def _lift_unit(t, d, N):
    """Lift a unit t mod d (d | N) to a unit mod N."""
    t %= d
    if t == 0:
        t = d
    if gcd(t, N) == 1:
        return t % N
    # push in the factors of N missing from t via CRT with 1
    u, v = 1, N
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    # now N = u*v with v coprime to d and u supported on primes of d
    g, x, y = _ext_gcd(u, v)
    lifted = (t * y * v + u * x) % N
    return lifted if lifted else N - 1


def normalize(N, u, v):
    """Canonical representative of (u : v), without orbit enumeration."""
    u %= N
    v %= N
    if u == 0:
        if gcd(v, N) != 1:
            raise InvalidArgument("(0:%d) not a point of P1(Z/%d)" % (v, N))
        return (0, 1)
    g = gcd(u, N)
    if gcd(g, v) != 1 and gcd(gcd(u, v), N) != 1:
        raise InvalidArgument("(%d:%d) not a point of P1(Z/%d)" % (u, v, N))
    t = pow(u // g, -1, N // g)
    t = _lift_unit(t, N // g, N)
    v1 = t * v % N
    best = None
    step = N // g
    for j in range(g):
        s = (1 + j * step) % N
        if gcd(s, N) != 1:
            continue
        cand = s * v1 % N
        if best is None or cand < best:
            best = cand
    return (g, best)
