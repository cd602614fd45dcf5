import random
from fractions import Fraction

import pytest

from thetapm import (InvalidArgument, IwasawaElement1, IwasawaElement2,
                     PrecisionError, TruncationError, half_log_product,
                     newton_invariants, pi_cyc, pollack_log_truncated, polys,
                     resultant_in_T, weierstrass_prepare)
from thetapm.cyclotomic import cyclotomic_poly_shifted
from thetapm.padics import PadicScalar

from twovar import mul2


def poly(p, co, **kw):
    return IwasawaElement1.from_rationals(p, [Fraction(c) for c in co], **kw)


# -- newton invariants --------------------------------------------------------

def test_unit_profile():
    prof = newton_invariants(poly(3, [1, 3]))
    assert (prof.mu, prof.lam, prof.slopes) == (0, 0, ())
    assert prof.stabilized


def test_eisenstein_profile():
    prof = newton_invariants(poly(3, [-3, 0, 1]))
    assert (prof.mu, prof.lam) == (0, 2)
    assert prof.slopes == ((2, Fraction(1, 2)),)


def test_mu_extraction():
    prof = newton_invariants(poly(3, [27, 9, 18]))
    assert prof.mu == 2 and prof.lam == 1
    assert prof.slopes == ((1, Fraction(1)),)


def test_profile_zero_roots_run():
    # X^2 * (X^2 + 3): exact leading zeros show as an infinite-slope run
    prof = newton_invariants(poly(3, [0, 0, 3, 0, 1]))
    assert prof.mu == 0 and prof.lam == 4
    assert prof.slopes == ((2, None), (2, Fraction(1, 2)))
    assert sum(c for c, _ in prof.slopes) == prof.lam


def test_all_zero_raises():
    with pytest.raises(PrecisionError):
        newton_invariants(IwasawaElement1.zero(3, 4))


def test_unknown_digits_block_mu():
    coeffs = [PadicScalar.zero(3, known_to=1), PadicScalar(3, 9)]
    with pytest.raises(PrecisionError):
        newton_invariants(IwasawaElement1(3, coeffs))


def test_unstabilized_flag_from_unknown_interior():
    # interior coefficient known only to O(3^1) below the hull
    coeffs = [PadicScalar(3, 27), PadicScalar.zero(3, known_to=1),
              PadicScalar(3, 1)]
    prof = newton_invariants(IwasawaElement1(3, coeffs))
    assert (prof.mu, prof.lam) == (0, 2)
    assert not prof.stabilized


def test_table_row_profile_from_series(series_32a_43):
    Tp, Tm = series_32a_43
    prof = newton_invariants(Tp.representative)
    assert prof.lam == 8
    assert prof.slopes == ((2, Fraction(1, 2)), (6, Fraction(1, 6)))


# -- weierstrass preparation ---------------------------------------------------

def test_prepare_constructed_factorization():
    # f = 3 (1+X)(X^2+3)
    f = poly(3, [3 * c for c in polys.mul([1, 1], [3, 0, 1])], precision=25)
    unit, dist, mu = weierstrass_prepare(f)
    assert mu == 1
    assert [c.as_fraction() if c.is_exact() else c.lift(25) for c in dist.coeffs] \
        == [3, 0, 1]
    assert unit.coeffs[0].valuation() == 0
    assert unit.coeffs[1].lift(20) == 1      # unit congruent to 1 + X


def test_prepare_unit_case():
    u = poly(3, [2, 5, 7], precision=20)
    unit, dist, mu = weierstrass_prepare(u)
    assert mu == 0
    assert len(dist.coeffs) == 1 and dist.coeffs[0].as_fraction() == 1


def test_prepare_shifted_cyclotomic_factor():
    # f = Phi_9(1+X) * (1 + 3X): distinguished part recovers Phi_9(1+X)
    f = poly(3, polys.mul(cyclotomic_poly_shifted(3, 2), [1, 3]), precision=22)
    unit, dist, mu = weierstrass_prepare(f)
    assert mu == 0
    got = [c.lift(20) % 3 ** 18 for c in dist.coeffs]
    assert got == [c % 3 ** 18 for c in cyclotomic_poly_shifted(3, 2)]


def test_prepare_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(60):
        lam = rng.randint(0, 4)
        mu = rng.randint(0, 2)
        dist = [3 * rng.randint(-8, 8) for _ in range(lam)] + [1]
        unit = [rng.choice([1, 2, 4, 5, 7, 8])] + \
            [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        fco = [3 ** mu * c for c in polys.mul(dist, unit)]
        f = poly(3, fco, precision=18)
        u, d, m = weierstrass_prepare(f)
        assert m == mu
        # p^m * unit * dist from lifts mod p^digits agrees with f mod p^digits
        digits = 14
        recomposed = [3 ** m * c for c in polys.mul([c.lift(digits) for c in u.coeffs],
                                                   [c.lift(digits) for c in d.coeffs])]
        for a, b in zip(recomposed, fco):
            assert (a - b) % 3 ** digits == 0


def test_prepare_truncation_guard():
    f = IwasawaElement1(3, [PadicScalar(3, 3, precision=20),
                            PadicScalar(3, 3, precision=20),
                            PadicScalar(3, 1, precision=20)], exact_tail=False)
    # lambda = 2 equals the truncation degree of a non-polynomial input
    with pytest.raises(TruncationError):
        weierstrass_prepare(f)


# -- signed logarithm truncations ----------------------------------------------

def test_minus_log_single_factor():
    f = pollack_log_truncated(3, "-", 1)
    assert [c.as_fraction() for c in f.coeffs] == \
        [Fraction(3, 9), Fraction(3, 9), Fraction(1, 9)]


def test_plus_log_single_even_factor():
    f = pollack_log_truncated(3, "+", 2)
    phi9 = cyclotomic_poly_shifted(3, 2)
    assert [c.as_fraction() for c in f.coeffs] == \
        [Fraction(c, 9) for c in phi9]


def test_log_vanishing_pattern():
    # value at zeta_{3^k} - 1 vanishes iff the matching-parity factor divides
    n_max = 4
    for sign, parity in (("+", 0), ("-", 1)):
        f = pollack_log_truncated(3, sign, n_max)
        co = [c.as_fraction() for c in f.coeffs]
        for k in range(1, n_max + 1):
            val = IwasawaElement1.from_rationals(3, co).evaluate_at_unity_root(k)
            if k % 2 == parity:
                assert val.is_zero(), (sign, k)
            else:
                assert not val.is_zero(), (sign, k)


def test_half_log_products():
    f = half_log_product(3, "even", 2)
    assert [c.as_fraction() for c in f.coeffs] == \
        [Fraction(c) for c in cyclotomic_poly_shifted(3, 2)]
    g = half_log_product(3, "odd", 3)
    assert g.trunc_degree == 2 + 18
    h = half_log_product(3, "even", 4)
    prof = newton_invariants(h)
    assert prof.slopes == ((6, Fraction(1, 6)), (54, Fraction(1, 54)))


def test_log_truncation_guard():
    with pytest.raises(TruncationError):
        pollack_log_truncated(3, "-", 5, D=20)


# -- two-variable elements -------------------------------------------------------

def two_var(p, terms, D=50):
    return IwasawaElement2.from_dict(p, {k: Fraction(v) for k, v in terms.items()},
                                     trunc_degree=D)


def test_pi_cyc_examples():
    f = two_var(3, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})   # (1+S)(1+T)
    out = pi_cyc(f)
    assert [c.as_fraction() for c in out.coeffs] == [1, 2, 1]
    g = two_var(3, {(1, 0): 1, (0, 1): -1})                        # S - T
    assert all(c.as_fraction() == 0 for c in pi_cyc(g).coeffs)
    h = two_var(3, {(1, 1): 1})                                    # S T
    assert [c.as_fraction() for c in pi_cyc(h).coeffs] == [0, 0, 1]


def test_pi_cyc_ring_homomorphism_randomized():
    rng = random.Random(17)
    for _ in range(120):
        f = two_var(3, {(rng.randint(0, 3), rng.randint(0, 3)):
                        rng.randint(-5, 5) for _ in range(4)})
        g = two_var(3, {(rng.randint(0, 3), rng.randint(0, 3)):
                        rng.randint(-5, 5) for _ in range(4)})
        la = pi_cyc(mul2(f, g)).rationals()
        rb = polys.mul(pi_cyc(f).rationals(), pi_cyc(g).rationals())
        n = max(len(la), len(rb))
        la += [Fraction(0)] * (n - len(la))
        rb += [Fraction(0)] * (n - len(rb))
        assert la == rb


# -- resultants -------------------------------------------------------------------

def test_resultant_linear_difference():
    f = two_var(3, {(0, 1): 1, (1, 0): -1})          # T - S
    g = two_var(3, {(0, 1): 1, (1, 0): -1, (0, 0): -3})
    res = resultant_in_T(f, g)
    assert [c.as_fraction() for c in res.coeffs] == [3]


def test_resultant_equal_inputs_zero():
    f = two_var(3, {(0, 1): 1, (1, 0): -1})
    res = resultant_in_T(f, f)
    assert all(c.as_fraction() == 0 for c in res.coeffs)


def test_resultant_quadratic_example():
    f = two_var(3, {(0, 2): 1, (1, 0): -1})          # T^2 - S
    g = two_var(3, {(0, 1): 1, (1, 0): -1})          # T - S
    res = resultant_in_T(f, g)
    assert [c.as_fraction() for c in res.coeffs] == [0, -1, 1]   # S^2 - S


def test_resultant_after_cancelled_top_row():
    f = two_var(3, {(0, 1): 1, (1, 0): 1})           # T + S
    g = two_var(3, {(0, 1): 1})                      # T
    h = two_var(3, {(0, 1): 1, (0, 0): 2})           # T + 2
    d = f - g                                        # S: the T-row cancels
    assert list(d.coeffs) == [(1, 0)]
    res = resultant_in_T(d, h)
    assert [c.as_fraction() for c in res.coeffs] == [0, 1]          # S


def test_resultant_antisymmetry_sign():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        f_terms = {(rng.randint(0, 2), j): rng.randint(-4, 4)
                   for j in range(m) for _ in range(2)}
        f_terms[(0, m)] = 1
        g_terms = {(rng.randint(0, 2), j): rng.randint(-4, 4)
                   for j in range(n) for _ in range(2)}
        g_terms[(0, n)] = 1
        f = two_var(3, f_terms)
        g = two_var(3, g_terms)
        rfg = [c.as_fraction() for c in resultant_in_T(f, g).coeffs]
        rgf = [c.as_fraction() for c in resultant_in_T(g, f).coeffs]
        sign = (-1) ** (m * n)
        nn = max(len(rfg), len(rgf))
        rfg += [Fraction(0)] * (nn - len(rfg))
        rgf += [Fraction(0)] * (nn - len(rgf))
        assert rfg == [sign * c for c in rgf]


# -- invariant algebra properties (randomized) ------------------------------------

def random_distinguished(rng, p=3, max_lam=4):
    """Integer coefficients of a distinguished polynomial."""
    lam = rng.randint(0, max_lam)
    co = [p * rng.randint(-6, 6) for _ in range(lam)] + [1]
    if lam and co[0] == 0:
        co[0] = p * rng.choice([1, 2, -1, 4])
    return co


def random_unit(rng, p=3, deg=3):
    return [rng.choice([1, 2, 4, 5, 7, 8])] + [rng.randint(-8, 8) for _ in range(deg)]


def test_additivity_of_invariants_under_products():
    rng = random.Random(101)
    for _ in range(500):
        mu1, mu2 = rng.randint(0, 2), rng.randint(0, 2)
        f = [3 ** mu1 * c for c in random_distinguished(rng)]
        g = [3 ** mu2 * c for c in random_distinguished(rng)]
        pf, pg = newton_invariants(poly(3, f)), newton_invariants(poly(3, g))
        prod = newton_invariants(poly(3, polys.mul(f, g)))
        assert prod.mu == pf.mu + pg.mu
        assert prod.lam == pf.lam + pg.lam
        merged = {}
        for c, s in list(pf.slopes) + list(pg.slopes):
            merged[s] = merged.get(s, 0) + c
        got = {}
        for c, s in prod.slopes:
            got[s] = got.get(s, 0) + c
        assert got == merged


def test_unit_invariance_of_profiles():
    rng = random.Random(103)
    for _ in range(500):
        d = random_distinguished(rng)
        scale = 3 ** rng.randint(0, 1)
        f = [scale * c for c in d]
        u = random_unit(rng)
        pf = newton_invariants(poly(3, f))
        pfu = newton_invariants(poly(3, polys.mul(f, u)))
        assert (pf.mu, pf.lam, pf.slopes) == (pfu.mu, pfu.lam, pfu.slopes)
