"""Integer polynomial kernels shared by every exact layer.

A polynomial is a list of integer coefficients, lowest degree first.  The
kernels over F_p take residues in [0, p) and reduce once per output
coefficient, not once per term: a product over F_p is
``mod(mul(a, b), p)``, never truncated, so the F_p[S] rows of the local
lengths stay exact polynomials.  ``mod`` and ``divmod_mod`` run over
Z/p^k as well, dividing by monic polynomials there, for the quadratic
Hensel lift of ``iwasawa.weierstrass_prepare``.  ``trim`` drops trailing
zeros but keeps one coefficient, so the zero polynomial is [0].
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from operator import add as _add, sub as _sub

from .exceptions import InvalidArgument

KRONECKER_MIN = 40       # shorter factor length from which packing pays off


def trim(a):
    """Drop trailing zero coefficients in place, keeping at least one."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    out[:len(b)] = map(_add, a, b)
    return out


def sub(a, b):
    if len(a) >= len(b):
        out = list(a)
        out[:len(b)] = map(_sub, a, b)
        return out
    return list(map(_sub, a, b)) + [-y for y in b[len(a):]]


def mod(a, p):
    """Residues mod p, trimmed; p may be any modulus, such as p^k."""
    return trim([x % p for x in a])


def mul(a, b):
    """Product over Z: schoolbook for short factors, Kronecker above.

    The Kronecker product packs each factor as its positive part minus its
    negative part and multiplies once, worthwhile from a few dozen terms
    up; a bias of half a block per digit makes every digit nonnegative.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) < KRONECKER_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    bound = (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1) * len(a)
    block = (bound.bit_length() + 8) // 8
    A, B = (pack([x if x > 0 else 0 for x in c], block)
            - pack([-x if x < 0 else 0 for x in c], block) for c in (a, b))
    count = len(a) + len(b) - 1
    half = 1 << (8 * block - 1)          # |each product coefficient| < half
    bias = int.from_bytes(half.to_bytes(block, "little") * count, "little")
    return [c - half for c in unpack(A * B + bias, block, count)]


def taylor_shift(a, sign=1):
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


def pack(co, block):
    """Kronecker substitution X = 256^block of nonnegative coefficients."""
    return int.from_bytes(b"".join(x.to_bytes(block, "little") for x in co), "little")


def unpack(n, block, count):
    """The first count coefficients of a packed polynomial (each < 256^block)."""
    raw = (n & ((1 << 8 * block * count) - 1)).to_bytes(block * count, "little")
    return [int.from_bytes(raw[i * block:(i + 1) * block], "little")
            for i in range(count)]


def clear_denominators(co):
    """(integer numerators, common denominator) of a rational vector."""
    den = lcm(*(c.denominator for c in co))
    return [c.numerator * (den // c.denominator) for c in co], den


def divmod_mod(a, b, p):
    """(q, r) with a = q*b + r over F_p and deg r < deg b; b[-1] a unit.

    Over Z/p^k with ``p`` the modulus p^k the same holds for a monic b
    (any b whose leading coefficient is a unit mod p^k).
    """
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 1)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            r[i - db:i + 1] = map(_sub, r[i - db:i + 1], [c * y for y in b])
    return trim(q), mod(r, p)


def bezout_mod(a, b, p):
    """(s, t) with s*a + t*b = 1 in F_p[X] for coprime a, b."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, mod(sub(s0, mul(q, s1)), p)
        t0, t1 = t1, mod(sub(t0, mul(q, t1)), p)
    if len(r0) != 1 or r0[0] == 0:
        raise InvalidArgument("polynomials are not coprime mod p")
    inv = pow(r0[0], -1, p)
    return ([x * inv % p for x in s0], [x * inv % p for x in t0])


def prem(a, b):
    """Pseudo-remainder: lead(b)^(deg a - deg b + 1) * a mod b over Z."""
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        r = [x * b[-1] for x in r[:i]]
        if c:
            r[i - db:i] = map(_sub, r[i - db:i], [c * y for y in b[:-1]])
    return trim(r or [0])
