"""Primes and p-adic valuations.

One-variable series keep their coefficients as integers over one
denominator with the precision as data (``thetapm.iwasawa``); what they and
the other modules need of p-adic numbers is here: primality, the distinct
prime factors and the valuation of an integer or a ``Fraction``.
``odd_prime`` is the one place that decides whether p is an odd prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exceptions import InvalidArgument


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


@lru_cache(maxsize=None)
def odd_prime(p):
    """p itself when it is an odd prime; InvalidArgument otherwise."""
    if not is_prime(p) or p == 2:
        raise InvalidArgument("p must be an odd prime, got %r" % (p,))
    return p


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
    # an exact int skips isinstance, whose ABC dispatch costs more than the loop
    if type(x) is not int and isinstance(x, Fraction):
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
