"""The Fraction-per-coefficient cyclotomic kernels, kept as the test oracle.

These are the original bodies of ``zeta_to_x_basis``,
``x_poly_at_zeta_minus_one`` and ``CyclotomicInt.__mul__``: slow, but
written term by term on exact Fractions through the recursive monomial
reduction, so the integer kernels in ``thetapm.cyclotomic`` are checked
against them.
"""

from fractions import Fraction

from thetapm.cyclotomic import (CyclotomicInt, InvalidArgument, _prime_power,
                                fraction_poly_mul)


def mul(self, other):
    """CyclotomicInt product, reduced one monomial at a time."""
    if isinstance(other, (int, Fraction)):
        return CyclotomicInt(self.m, [a * other for a in self.co])
    other = self._coerce(other)
    big = fraction_poly_mul(self.co, other.co)
    z = CyclotomicInt(self.m)
    for e, c in enumerate(big):
        if c:
            z._add_monomial(e, c)
    return z


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
