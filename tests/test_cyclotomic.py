import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fraction_oracle
from characters import (TameCharacter, WildCharacter, conjugate, embed,
                        gauss_sum, norm_abs_squared)

from thetapm import (CyclotomicInt, InvalidArgument, cyclotomic_poly_shifted,
                     cyclotomic_polynomial)
from thetapm.cyclotomic import (euler_phi, phi_value_at_root,
                                phi_value_at_root_inverse,
                                root_of_unity_minus_one_inverse,
                                x_poly_at_zeta_minus_one, zeta_to_x_basis)
from thetapm.padics import vp


# -- shifted cyclotomic polynomials -----------------------------------------

def test_shifted_poly_p3_level1():
    assert cyclotomic_poly_shifted(3, 1) == [3, 3, 1]          # X^2 + 3X + 3


def test_shifted_poly_p3_level2_eisenstein():
    co = cyclotomic_poly_shifted(3, 2)
    assert len(co) == 7 and co[-1] == 1
    assert co[0] == 3
    assert all(c % 3 == 0 for c in co[:-1])                    # X^6 mod 3


def test_shifted_poly_p5_level1():
    assert cyclotomic_poly_shifted(5, 1) == [5, 10, 10, 5, 1]


def test_shifted_poly_rejects_bad_args():
    with pytest.raises(InvalidArgument):
        cyclotomic_poly_shifted(3, 0)
    with pytest.raises(InvalidArgument):
        cyclotomic_poly_shifted(6, 1)


def test_eisenstein_newton_polygon_single_slope():
    for (p, k) in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        co = cyclotomic_poly_shifted(p, k)
        d = len(co) - 1
        assert d == euler_phi(p ** k)
        # single segment from (0,1) to (d,0): every (i, v_p(c_i)) on or above
        for i, c in enumerate(co):
            if c:
                assert Fraction(vp(c, p)) >= 1 - Fraction(i, d)
        assert vp(co[0], p) == 1 and co[-1] == 1


def test_cyclotomic_polynomial_agrees_with_shift():
    # Phi_9(x) at x = 1 + X reproduces the shifted coefficients
    phi9 = cyclotomic_polynomial(9)
    got = [Fraction(0)] * 7
    for i, c in enumerate(phi9):
        if c:
            b = 1
            for j in range(i + 1):
                got[j] += c * b
                b = b * (i - j) // (j + 1)
    assert [int(x) for x in got] == cyclotomic_poly_shifted(3, 2)


# -- exact ring arithmetic ---------------------------------------------------

def test_exactness_add_mul_roundtrip():
    rng = random.Random(7)
    m = 27
    d = euler_phi(m)
    for _ in range(100):
        a = CyclotomicInt(m, [Fraction(rng.randint(-9, 9)) for _ in range(d)])
        b = CyclotomicInt(m, [Fraction(rng.randint(-9, 9)) for _ in range(d)])
        assert (a + b) - b == a
        prod = a * b
        assert prod * CyclotomicInt.one(m) == prod
        # multiply by an invertible monomial and undo it
        z = CyclotomicInt.root_of_unity(m, 5)
        zinv = CyclotomicInt.root_of_unity(m, m - 5)
        assert (a * z) * zinv == a


def test_reduction_is_canonical():
    m = 9
    z = CyclotomicInt.root_of_unity(m, 6 + 9)      # zeta^15 = zeta^6
    w = CyclotomicInt.root_of_unity(m, 6)
    assert z == w
    # zeta^6 reduces against Phi_9 = x^6 + x^3 + 1
    assert w.co == [Fraction(-1), 0, 0, Fraction(-1), 0, 0]


def test_galois_and_conjugate():
    z = CyclotomicInt.root_of_unity(9, 1)
    assert conjugate(z) == CyclotomicInt.root_of_unity(9, 8)
    with pytest.raises(InvalidArgument):
        z.galois(3)


def test_root_of_unity_minus_one_inverse():
    for m, t in [(9, 1), (9, 3), (27, 6), (27, 1)]:
        z = CyclotomicInt.root_of_unity(m, t) - CyclotomicInt.one(m)
        inv = root_of_unity_minus_one_inverse(m, t)
        assert z * inv == CyclotomicInt.one(m)


def test_phi_value_inverse():
    for (j, k) in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        val = phi_value_at_root(3, j, k)
        inv = phi_value_at_root_inverse(3, j, k)
        assert val * inv == CyclotomicInt.one(3 ** k)


# -- characters and Gauss sums ----------------------------------------------

def test_quadratic_gauss_sum_mod_3():
    chi = TameCharacter(3, 1, 1)                    # the quadratic character
    assert chi.order() == 2 and chi.is_primitive()
    tau = gauss_sum(chi)
    assert tau * tau == CyclotomicInt.from_rational(tau.m, -3)


def test_gauss_sum_conductor_9_order_3():
    found = None
    for t in range(1, 6):
        chi = TameCharacter(3, 2, t)
        if chi.order() == 3 and chi.is_primitive():
            found = chi
            break
    assert found is not None
    tau = gauss_sum(found)
    assert norm_abs_squared(tau) == 9


def test_gauss_sum_identity_all_primitive_conductors_up_to_p5():
    # tau(chi) tau(chi-bar) = chi(-1) * conductor, for every primitive
    # character of modulus 3^c, c <= 5
    for c in range(1, 6):
        q = 3 ** c
        e = euler_phi(q)
        for t in range(e):
            chi = TameCharacter(3, c, t)
            if not chi.is_primitive():
                continue
            tau = gauss_sum(chi)
            taubar = gauss_sum(chi.inverse())
            m = tau.m
            lhs = tau * embed(taubar, m) if taubar.m != m else tau * taubar
            assert lhs == CyclotomicInt.from_rational(m, chi.parity() * q), \
                "failed for modulus 3^%d, t=%d" % (c, t)


def test_gauss_sum_rejects_imprimitive():
    chi = TameCharacter(3, 2, 3)                    # factors through mod 3
    assert not chi.is_primitive()
    with pytest.raises(InvalidArgument):
        gauss_sum(chi)


def test_wild_character_gauss_sum():
    psi = WildCharacter(3, 1)                       # conductor 9, order 3
    assert psi.conductor() == 9 and psi.order() == 3
    tau = gauss_sum(psi)
    assert norm_abs_squared(tau) == 9


# -- the X = zeta - 1 basis -------------------------------------------------

def test_zeta_x_basis_round_trip():
    rng = random.Random(5)
    m = 27
    d = euler_phi(m)
    for _ in range(20):
        a = CyclotomicInt(m, [Fraction(rng.randint(-9, 9)) for _ in range(d)])
        poly = zeta_to_x_basis(a)
        back = x_poly_at_zeta_minus_one(poly, 3, 3)
        assert back == a


# -- integer kernels against the Fraction oracle ------------------------------

LEVELS = [(p, k) for p in (3, 5, 7) for k in (1, 2, 3, 4)]


@st.composite
def rationals(draw, p):
    """Rationals whose denominators mix powers of p, p - 1 and other primes."""
    num = draw(st.one_of(st.integers(-30, 30), st.integers(-10 ** 40, 10 ** 40)))
    den = (p ** draw(st.integers(0, 6)) * (p - 1) ** draw(st.integers(0, 3))
           * draw(st.sampled_from([1, 1, 11, 13, 101, 11 * 13])))
    return Fraction(num, den)


@st.composite
def rational_vectors(draw, p, length, max_nonzero=None):
    """Exactly ``length`` coefficients: dense blocks separated by zero runs."""
    out = []
    nonzero = 0
    while len(out) < length:
        run = draw(st.integers(1, max(1, length // 3)))
        if draw(st.booleans()) or (max_nonzero is not None and nonzero >= max_nonzero):
            out += [Fraction(0)] * run
        else:
            block = draw(st.lists(rationals(p), min_size=1, max_size=min(run, 12)))
            out += block
            nonzero += len(block)
    return out[:length]


@st.composite
def level_and_element(draw, max_nonzero=None):
    p, k = draw(st.sampled_from(LEVELS))
    m = p ** k
    co = draw(rational_vectors(p, euler_phi(m), max_nonzero))
    return p, k, CyclotomicInt(m, co)


@st.composite
def level_and_x_poly(draw):
    """X-polynomials up to degree 3 phi(p^k), as re-interpolation passes
    polynomials longer than phi(p^k); the Horner oracle costs length * phi,
    so the two largest levels stop at degree 300."""
    p, k = draw(st.sampled_from(LEVELS))
    d = euler_phi(p ** k)
    top = 3 * d if d <= 300 else 300
    length = draw(st.integers(0, top + 1))
    return p, k, draw(rational_vectors(p, length))


ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None,
                           suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.data_too_large])


@ORACLE_SETTINGS
@given(level_and_element(max_nonzero=60))
def test_zeta_to_x_basis_matches_fraction_oracle(case):
    p, k, z = case
    got = zeta_to_x_basis(z, p, k)
    want = fraction_oracle.zeta_to_x_basis(z, p, k)
    assert got == want
    assert all(type(c) is Fraction for c in got)
    assert zeta_to_x_basis(z) == want


@ORACLE_SETTINGS
@given(level_and_x_poly())
def test_x_poly_at_zeta_minus_one_matches_fraction_oracle(case):
    p, k, poly = case
    got = x_poly_at_zeta_minus_one(poly, p, k)
    want = fraction_oracle.x_poly_at_zeta_minus_one(poly, p, k)
    assert got.m == want.m and got.co == want.co
    assert all(type(c) is Fraction for c in got.co)


@ORACLE_SETTINGS
@given(st.data())
def test_cyclotomic_mul_matches_fraction_oracle(data):
    p, k, a = data.draw(level_and_element())
    b = CyclotomicInt(a.m, data.draw(rational_vectors(p, len(a.co))))
    got = a * b
    want = fraction_oracle.mul(a, b)
    assert got.co == want.co
    assert all(type(c) is Fraction for c in got.co)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 2, 4, 6, 10, 12, 15, 18, 20, 21, 24]), st.data())
def test_cyclotomic_mul_matches_oracle_off_prime_powers(m, data):
    d = euler_phi(m)
    a = CyclotomicInt(m, data.draw(rational_vectors(3, d)))
    b = CyclotomicInt(m, data.draw(rational_vectors(3, d)))
    assert (a * b).co == fraction_oracle.mul(a, b).co
