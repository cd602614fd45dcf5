"""Valuations, and the p-adic scalars of the oracle with the precision
rules of their arithmetic.

``PadicScalar`` keeps a value and its precision and does no arithmetic; it
and the precision-propagating sum, product and quotient live in
``ledger_oracle``, where the Gaussian-elimination resultant oracle and the
scalar Newton and Weierstrass readers use them, and are checked here.
"""

from fractions import Fraction

import pytest

from ledger_oracle import PadicScalar, padic_add, padic_mul, padic_truediv
from thetapm import InvalidArgument, PrecisionError, vp


def test_vp_basics():
    assert vp(18, 3) == 2
    assert vp(Fraction(2, 9), 3) == -2
    assert vp(0, 3) is None
    assert vp(Fraction(27, 4), 3) == 3
    assert vp(-18, 3) == 2
    assert vp(-1, 3) == 0
    assert vp(-5 ** 4, 5) == 4
    assert vp(Fraction(0), 3) is None
    assert vp(Fraction(-45, 7), 3) == 2       # p in the numerator
    assert vp(Fraction(7, -81), 3) == -4      # p in the denominator
    assert vp(Fraction(9, 27), 3) == -1       # reduced to 1/3 first


def test_exact_construction_and_views():
    x = PadicScalar(3, Fraction(18, 5))
    assert x.valuation() == 2
    assert x.as_fraction() == Fraction(18, 5)
    assert x.unit_part(5) == 2 * pow(5, -1, 3 ** 5) % 3 ** 5
    assert not x.is_zero_within_precision()


def test_zero_semantics():
    z = PadicScalar.zero(3)
    assert z.is_zero_within_precision() and z.precision is None   # exact zero
    zb = PadicScalar.zero(3, known_to=7)
    assert zb.is_zero_within_precision() and zb.precision == 7
    with pytest.raises(PrecisionError):
        zb.valuation()
    assert zb._abs_floor() == 7


def test_invalid_prime():
    with pytest.raises(InvalidArgument):
        PadicScalar(4, 1)
    with pytest.raises(InvalidArgument):
        PadicScalar(2, 1)


def test_arithmetic_exact_round_trip():
    import random
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5, 7]))
        b = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 4, 11]))
        x = PadicScalar(3, a)
        y = PadicScalar(3, b)
        assert padic_add(x, y).as_fraction() == a + b
        assert padic_mul(x, y).as_fraction() == a * b
        if b != 0:
            assert padic_truediv(x, y).as_fraction() == a / b


def test_precision_propagation_multiplication():
    x = PadicScalar.from_unit(3, 1, 2, precision=5)
    y = PadicScalar.from_unit(3, 2, 1, precision=8)
    z = padic_mul(x, y)
    assert z.valuation() == 3
    assert z.precision == 5


def test_addition_cancellation_degrades_honestly():
    x = PadicScalar.from_unit(3, 0, 1, precision=4)
    y = PadicScalar.from_unit(3, 0, -1, precision=4)
    z = padic_add(x, y)
    assert z.is_zero_within_precision()
    assert z._abs_floor() == 4


def test_addition_valuation_and_floor():
    x = PadicScalar.from_unit(3, 1, 1, precision=3)   # 3 + O(3^4)
    y = PadicScalar(3, 9)                             # exact 9
    z = padic_add(x, y)
    assert z.valuation() == 1
    # absolute floor stays at 4: one unit digit beyond valuation 1 is gone
    assert z.precision == 3


def test_unit_part_requires_nonzero():
    with pytest.raises(PrecisionError):
        PadicScalar.zero(3, known_to=3).unit_part()
