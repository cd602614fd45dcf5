import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fraction_oracle
from characters import (TameCharacter, WildCharacter, conjugate, embed,
                        gauss_sum, norm_abs_squared)
from fraction_oracle import euler_phi, from_int

from thetapm import (CyclotomicInt, InvalidArgument, MazurTateElement,
                     cyclotomic_poly_shifted)
from thetapm.cyclotomic import (phi_value_at_root_inverse,
                                x_poly_at_zeta_minus_one, zeta_to_x_basis)
from thetapm.padics import vp
from thetapm.polys import clear_denominators


def to_int(w):
    """The integer-vector element equal to a Fraction oracle element."""
    nums, den = clear_denominators(w.co)
    return CyclotomicInt(w.m, nums, den)


def assert_same(z, w):
    """z is the oracle element w, as integers over one lowest-terms denominator."""
    assert z.m == w.m
    assert all(type(c) is int for c in z.co)
    assert type(z.den) is int and z.den > 0 and gcd(z.den, *z.co) == 1
    assert from_int(z).co == w.co


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
    phi9 = fraction_oracle.cyclotomic_polynomial(9)
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
        a = CyclotomicInt(m, [rng.randint(-9, 9) for _ in range(d)], rng.randint(1, 12))
        b = CyclotomicInt(m, [rng.randint(-9, 9) for _ in range(d)], rng.randint(1, 12))
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
    assert w.co == [-1, 0, 0, -1, 0, 0] and w.den == 1


def test_integer_vector_in_lowest_terms():
    z = CyclotomicInt(9, [2, 4, 0, 0, 0, -6], 4)
    assert (z.co, z.den) == ([1, 2, 0, 0, 0, -3], 2)
    zero = CyclotomicInt(9, [0] * 6, 7)
    assert (zero.co, zero.den) == ([0] * 6, 1) and zero == CyclotomicInt(9)
    half = CyclotomicInt.from_rational(27, Fraction(3, 6))
    assert half.den == 2 and half.co[0] == 1 and not any(half.co[1:])
    with pytest.raises(InvalidArgument):
        CyclotomicInt(9, [1] * 6, 0)
    with pytest.raises(InvalidArgument):
        CyclotomicInt(9, [1] * 5)


@pytest.mark.parametrize("m", [0, 1, 2, 4, 6, 12, 15, 21, 45, 54, 75, -9])
def test_non_prime_power_levels_raise(m):
    with pytest.raises(InvalidArgument):
        CyclotomicInt(m)
    with pytest.raises(InvalidArgument):
        CyclotomicInt.root_of_unity(m, 1)
    with pytest.raises(InvalidArgument):
        CyclotomicInt.from_exponents(m, [1, 2, 3])


def test_galois_and_conjugate():
    z = CyclotomicInt.root_of_unity(9, 1)
    assert conjugate(z) == CyclotomicInt.root_of_unity(9, 8)
    with pytest.raises(InvalidArgument):
        z.galois(3)


def test_root_of_unity_minus_one_inverse():
    # the oracle's inverse, which the oracle of 1/Phi_{p^j}(zeta) builds on
    for m, t in [(9, 1), (9, 3), (27, 6), (27, 1)]:
        z = CyclotomicInt.root_of_unity(m, t) - CyclotomicInt.one(m)
        inv = to_int(fraction_oracle.root_of_unity_minus_one_inverse(m, t))
        assert z * inv == CyclotomicInt.one(m)


def test_phi_value_inverse():
    for (j, k) in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        val = to_int(fraction_oracle.phi_value_at_root(3, j, k))
        inv = phi_value_at_root_inverse(3, j, k)
        assert val * inv == CyclotomicInt.one(3 ** k)


# -- characters and Gauss sums ----------------------------------------------

def test_quadratic_gauss_sum_mod_3():
    chi = TameCharacter(3, 1, 1)                    # the quadratic character
    assert chi.order() == 2 and chi.is_primitive()
    tau = gauss_sum(chi)
    assert tau * tau == fraction_oracle.CyclotomicInt.from_rational(tau.m, -3)


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
            assert lhs == fraction_oracle.CyclotomicInt.from_rational(
                m, chi.parity() * q), \
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
        a = CyclotomicInt(m, [rng.randint(-9, 9) for _ in range(d)], rng.randint(1, 12))
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
    """(p, k, oracle element) with rational coefficients."""
    p, k = draw(st.sampled_from(LEVELS))
    m = p ** k
    co = draw(rational_vectors(p, euler_phi(m), max_nonzero))
    return p, k, fraction_oracle.CyclotomicInt(m, co)


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
    p, k, w = case
    z = to_int(w)
    want = fraction_oracle.zeta_to_x_basis(w, p, k)
    assert zeta_to_x_basis(z, p, k) == want
    assert zeta_to_x_basis(z) == want
    with pytest.raises(InvalidArgument):
        zeta_to_x_basis(z, p, k + 1)


@ORACLE_SETTINGS
@given(level_and_x_poly())
def test_x_poly_at_zeta_minus_one_matches_fraction_oracle(case):
    p, k, poly = case
    assert_same(x_poly_at_zeta_minus_one(poly, p, k),
                fraction_oracle.x_poly_at_zeta_minus_one(poly, p, k))


@ORACLE_SETTINGS
@given(st.data())
def test_cyclotomic_mul_matches_fraction_oracle(data):
    p, k, a = data.draw(level_and_element())
    b = fraction_oracle.CyclotomicInt(a.m, data.draw(rational_vectors(p, len(a.co))))
    assert_same(to_int(a) * to_int(b), a * b)


@ORACLE_SETTINGS
@given(st.data())
def test_cyclotomic_add_sub_scale_match_fraction_oracle(data):
    p, k, a = data.draw(level_and_element())
    b = fraction_oracle.CyclotomicInt(a.m, data.draw(rational_vectors(p, len(a.co))))
    c = data.draw(rationals(p))
    A, B = to_int(a), to_int(b)
    assert_same(A + B, a + b)
    assert_same(A - B, a - b)
    assert_same(-A, -a)
    assert_same(A * c, a * c)
    assert_same(c * A, a * c)
    assert_same(A + c, a + c)
    assert (A == B) == (a == b) and A + B - B == A


@ORACLE_SETTINGS
@given(st.data())
def test_galois_matches_fraction_oracle(data):
    p, k, a = data.draw(level_and_element())
    s = data.draw(st.integers(-a.m, 3 * a.m).filter(lambda s: s % p))
    assert_same(to_int(a).galois(s), a.galois(s))
    with pytest.raises(InvalidArgument):
        to_int(a).galois(p * s)


@ORACLE_SETTINGS
@given(st.sampled_from(LEVELS), st.data())
def test_inverses_match_fraction_oracle(level, data):
    p, k = level
    m = p ** k
    t = data.draw(st.integers(-3 * m, 3 * m).filter(lambda t: t % m))
    z = CyclotomicInt.root_of_unity(m, t) - CyclotomicInt.one(m)
    assert z * to_int(fraction_oracle.root_of_unity_minus_one_inverse(m, t)) \
        == CyclotomicInt.one(m)
    if k > 1:
        j = data.draw(st.integers(1, k - 1))
        assert_same(phi_value_at_root_inverse(p, j, k),
                    fraction_oracle.phi_value_at_root_inverse(p, j, k))


@ORACLE_SETTINGS
@given(st.sampled_from(LEVELS), st.data())
def test_mazur_tate_evaluate_matches_fraction_oracle(level, data):
    p, n = level
    coeffs = data.draw(st.lists(st.one_of(st.integers(-30, 30),
                                          st.integers(-10 ** 40, 10 ** 40)),
                                min_size=p ** n, max_size=p ** n))
    el = MazurTateElement(p, n, coeffs)
    t = data.draw(st.integers(0, p ** n))
    k = data.draw(st.integers(1, n))
    assert all(type(c) is int for c in el.coeffs)
    assert_same(fraction_oracle.mazur_tate_project(el, k).evaluate(t=t),
                fraction_oracle.mazur_tate_evaluate(el, t=t, level=k))
