from fractions import Fraction

import pytest

from thetapm import InvalidArgument, PadicScalar, PrecisionError, vp


def test_vp_basics():
    assert vp(18, 3) == 2
    assert vp(Fraction(2, 9), 3) == -2
    assert vp(0, 3) is None
    assert vp(Fraction(27, 4), 3) == 3


def test_exact_construction_and_views():
    x = PadicScalar(3, Fraction(18, 5))
    assert x.valuation() == 2
    assert x.as_fraction() == Fraction(18, 5)
    assert x.unit_part(5) == 2 * pow(5, -1, 3 ** 5) % 3 ** 5
    assert not x.is_zero_within_precision()


def test_zero_semantics():
    z = PadicScalar.zero(3)
    assert z.is_exact_zero()
    zb = PadicScalar.zero(3, known_to=7)
    assert zb.is_zero_within_precision() and not zb.is_exact_zero()
    with pytest.raises(PrecisionError):
        zb.valuation()
    assert zb.valuation_lower_bound() == 7


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
        assert (x + y).as_fraction() == a + b
        assert (x * y).as_fraction() == a * b
        if b != 0:
            assert (x / y).as_fraction() == a / b


def test_precision_propagation_multiplication():
    x = PadicScalar.from_unit(3, 1, 2, precision=5)
    y = PadicScalar.from_unit(3, 2, 1, precision=8)
    z = x * y
    assert z.valuation() == 3
    assert z.precision == 5


def test_addition_cancellation_degrades_honestly():
    x = PadicScalar.from_unit(3, 0, 1, precision=4)
    y = PadicScalar.from_unit(3, 0, -1, precision=4)
    z = x + y
    assert z.is_zero_within_precision()
    assert z.valuation_lower_bound() == 4


def test_addition_valuation_and_floor():
    x = PadicScalar.from_unit(3, 1, 1, precision=3)   # 3 + O(3^4)
    y = PadicScalar(3, 9)                             # exact 9
    z = x + y
    assert z.valuation() == 1
    # absolute floor stays at 4: one unit digit beyond valuation 1 is gone
    assert z.precision == 3


def test_unit_part_requires_nonzero():
    with pytest.raises(PrecisionError):
        PadicScalar.zero(3, known_to=3).unit_part()
