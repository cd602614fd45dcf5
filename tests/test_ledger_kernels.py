"""Integer ledger kernels against the replaced Fraction and per-term code.

``thetapm.polys``, the fraction-free ``_bareiss_det`` and the integer
certificate resultant must give what the code in ``ledger_oracle`` gave,
including zero polynomials, trailing zeros, row swaps, singular matrices
and resultants that vanish within precision.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ledger_oracle as oracle

from thetapm import (IwasawaElement1, IwasawaElement2, PadicScalar, polys,
                     resultant_in_T, vp)
from thetapm.chern import _fiber_gcd_at_origin, _hensel_weierstrass_t, _t_divmod
from thetapm.exceptions import InvalidArgument
from thetapm.coprimality import _abs_floor_bound, _resultant_mod
from thetapm.iwasawa import _bareiss_det, weierstrass_prepare

PRIMES = (3, 5, 7, 11)
ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None,
                           suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.data_too_large])


def residues(p, min_size=1, max_size=12):
    """F_p polynomials; trailing zeros and the all-zero list included."""
    return st.lists(st.integers(0, p - 1), min_size=min_size, max_size=max_size)


def with_unit_lead(p, max_size=8):
    return st.builds(lambda co, lead: co + [lead], residues(p, 0, max_size - 1),
                     st.integers(1, p - 1))


def int_polys(min_size=1, max_size=12, bound=50):
    return st.lists(st.integers(-bound, bound), min_size=min_size, max_size=max_size)


def nonzero_int_poly(max_size=5, bound=9):
    return st.builds(lambda co, lead: co + [lead], int_polys(0, max_size - 1, bound),
                     st.integers(-bound, bound).filter(bool))


# -- polynomials over F_p -----------------------------------------------------

@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_products_sums_and_trim_mod_p_match_oracle(p, data):
    a = data.draw(residues(p))
    b = data.draw(residues(p))
    assert polys.mod(polys.mul(a, b), p) == oracle._fp_poly_mul(a, b, p)
    assert polys.mod(polys.sub(a, b), p) == oracle._fp_poly_sub(a, b, p)
    assert polys.trim(list(a)) == oracle._fp_poly_trim(list(a))


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_divmod_mod_matches_oracle(p, data):
    a = data.draw(residues(p))
    b = data.draw(with_unit_lead(p))
    assert polys.divmod_mod(a, b, p) == oracle._fp_poly_divmod(a, b, p)


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_bezout_mod_matches_oracle(p, data):
    a = data.draw(residues(p))
    b = data.draw(with_unit_lead(p))
    try:
        want = oracle._fp_poly_bezout(a, b, p)
    except InvalidArgument:
        with pytest.raises(InvalidArgument):
            polys.bezout_mod(a, b, p)
        return
    assert polys.bezout_mod(a, b, p) == want


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
def test_series_mul_mod_matches_oracle(p, n, data):
    a = data.draw(int_polys(0, n + 3, 3 * p))
    b = data.draw(int_polys(0, n + 3, 3 * p))
    assert polys.series_mul_mod(a, b, p, n) == oracle._fps_mul(a, b, p, n)


def test_f_p_kernels_on_zero_polynomials():
    for p in PRIMES:
        assert polys.mod(polys.mul([0], [1, 2]), p) == oracle._fp_poly_mul([0], [1, 2], p) == [0]
        assert polys.divmod_mod([0, 0], [1], p) == oracle._fp_poly_divmod([0, 0], [1], p)
        assert polys.series_mul_mod([0] * 4, [1], p, 4) == [0] * 4
        with pytest.raises(InvalidArgument):
            polys.bezout_mod([0, 1], [0, 1], p)       # X and X share a factor


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(2, 9), st.data())
def test_hensel_factor_is_distinguished_and_divides(p, d, s_trunc, data):
    # h in F_p[[S]][T] with h(0, T) = T^d * unit: the lifted W is monic of
    # degree d, equals T^d mod S and divides h modulo S^s_trunc
    dt = data.draw(st.integers(d, d + 3))
    h = [data.draw(residues(p, s_trunc, s_trunc)) for _ in range(dt + 1)]
    for j in range(d):
        h[j][0] = 0
    h[d][0] = data.draw(st.integers(1, p - 1))
    W = _hensel_weierstrass_t(h, p, s_trunc)
    assert len(W) == d + 1 and W[d] == [1] + [0] * (s_trunc - 1)
    assert all(W[j][0] == 0 for j in range(d))
    _, rem = _t_divmod(h, W, p, s_trunc)
    assert not any(map(any, rem))


# -- polynomials over Z and Q -----------------------------------------------------

@ORACLE_SETTINGS
@given(st.integers(0, 60), st.integers(0, 60), st.data())
def test_mul_matches_schoolbook_oracle_on_both_paths(la, lb, data):
    # lengths from 40 up take the Kronecker path; coefficients of mixed sign
    big = st.integers(-10 ** 30, 10 ** 30)
    a = data.draw(st.lists(big, min_size=la, max_size=la))
    b = data.draw(st.lists(big, min_size=lb, max_size=lb))
    want = oracle._int_poly_mul(a, b) if a and b else []
    assert polys.mul(a, b) == want
    assert polys.add(a, b) == polys.sub(a, [-y for y in b])


@ORACLE_SETTINGS
@given(nonzero_int_poly(), int_polys(1, 8, 30), int_polys(1, 4, 3))
def test_exact_div_matches_fraction_division(b, a, r):
    b = polys.trim(b)
    for num in (polys.mul(a, b), polys.add(polys.mul(a, b), r)):
        q, rem = oracle._q_poly_divmod([Fraction(x) for x in num],
                                       [Fraction(x) for x in b])
        if rem == [0] and all(x.denominator == 1 for x in q):
            assert polys.exact_div(num, b) == q
        else:
            with pytest.raises(InvalidArgument):
                polys.exact_div(num, b)


def _oracle_fiber_gcd(fa, ga):
    while ga and any(x != 0 for x in ga):
        fa, ga = ga, oracle._q_mod(fa, ga)
    while len(fa) > 1 and fa[-1] == 0:
        fa.pop()
    if not fa or all(x == 0 for x in fa):
        return None
    return [x / fa[-1] for x in fa]


def _t_element(co):
    return IwasawaElement2.from_dict(3, {(0, j): c for j, c in enumerate(co)})


@ORACLE_SETTINGS
@given(int_polys(1, 4, 6), int_polys(1, 5, 6), int_polys(1, 5, 6))
def test_fiber_gcd_by_pseudo_remainders_matches_rational_euclid(c, a, b):
    # a common factor c makes the gcd nontrivial most of the time
    fa = [Fraction(x, 2) for x in polys.mul(a, c)]
    ga = [Fraction(x, 3) for x in polys.mul(b, c)]
    want = _oracle_fiber_gcd(list(fa), list(ga))
    assert _fiber_gcd_at_origin(_t_element(fa), _t_element(ga), 3) == want


# -- the Bareiss determinant over Q[S] --------------------------------------------

def sylvester(f, g):
    """Sylvester matrix of T-polynomials given as S-coefficient lists."""
    m, n = len(f) - 1, len(g) - 1
    M = [[[Fraction(0)] for _ in range(m + n)] for _ in range(m + n)]
    for r in range(n):
        for c in range(m + 1):
            M[r][r + c] = list(f[m - c])
    for r in range(m):
        for c in range(n + 1):
            M[n + r][r + c] = list(g[n - c])
    return M


def s_polys(max_size=3):
    frac = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 9]))
    return st.lists(frac, min_size=1, max_size=max_size)


@ORACLE_SETTINGS
@given(st.lists(s_polys(), min_size=2, max_size=4),
       st.lists(s_polys(), min_size=2, max_size=4))
def test_bareiss_det_matches_oracle_on_rational_sylvester(f, g):
    M = sylvester(f, g)
    assert _bareiss_det(M) == oracle._bareiss_det(M)


def test_bareiss_det_zero_pivot_forces_row_swap():
    F = Fraction
    M = [[[F(0)], [F(1), F(1, 2)], [F(2)]],
         [[F(3), F(1)], [F(0)], [F(1, 3)]],
         [[F(1)], [F(5)], [F(0), F(0), F(7, 4)]]]
    want = oracle._bareiss_det(M)
    assert want != [F(0)]
    assert _bareiss_det(M) == want


def test_bareiss_det_singular_matrix_is_zero():
    F = Fraction
    row = [[F(1), F(2)], [F(1, 2)], [F(0), F(3)]]
    M = [row, [[F(4)], [F(0), F(1)], [F(5)]], list(row)]
    assert _bareiss_det(M) == oracle._bareiss_det(M) == [F(0)]


@ORACLE_SETTINGS
@given(st.lists(s_polys(), min_size=1, max_size=1),
       st.lists(s_polys(), min_size=2, max_size=4))
def test_resultant_against_a_constant_in_t_is_a_power(f, g):
    if not any(f[0]) or not any(g[-1]):
        return
    want = [Fraction(1)]
    for _ in range(len(g) - 1):
        want = oracle._q_poly_mul(want, f[0])
    assert IwasawaElement1.from_rationals(3, want).rationals() == \
        resultant_in_T(IwasawaElement2.from_dict(3, {(i, 0): c for i, c in enumerate(f[0])}),
                       IwasawaElement2.from_dict(3, {(i, j): c for j, co in enumerate(g)
                                                     for i, c in enumerate(co)})).rationals()


# -- PadicScalar views ----------------------------------------------------------------

def test_exact_scalars_in_lowest_terms():
    x = PadicScalar(3, Fraction(2, 6))
    assert repr(x) == "3^-1 * (1/1) [exact]"
    assert x.as_fraction() == Fraction(1, 3) and x == Fraction(1, 3)
    y = PadicScalar(3, Fraction(20, -140))
    assert repr(y) == "3^0 * (-1/7) [exact]" and y == Fraction(-1, 7)


def test_zero_products_keep_todays_floors():
    """The oracle's products of zero markers: O(p^a) * p^v u is O(p^(a + v))
    and O(p^a) * O(p^b) is O(p^(a + b)), as the elimination oracle needs."""
    o5, o7 = PadicScalar.zero(3, known_to=5), PadicScalar.zero(3, known_to=7)
    assert repr(oracle.padic_mul(o5, o7)) == "O(3^12)"
    assert repr(oracle.padic_mul(o5, 3)) == "O(3^6)"
    assert repr(oracle.padic_mul(PadicScalar.from_unit(3, 1, 2, precision=5), o7)) == "O(3^8)"
    assert oracle.padic_mul(o5, PadicScalar.zero(3)).is_exact_zero()


@st.composite
def distinguished_pairs(draw):
    """Pairs like the certify ones, at p in {3, 5}: Eisenstein factors of
    degree 2 to 4 times units, the second factor independent, equal, or
    congruent to the first mod p^k, so the resultant's valuation falls on
    both sides of the coefficient floor; precision 3 to 25 digits, or the
    exact Eisenstein factors themselves."""
    p = draw(st.sampled_from([3, 5]))
    d = draw(st.integers(2, 4))
    unit = st.integers(-4 * p, 4 * p).filter(lambda x: x % p)

    def eisenstein():
        return ([p * draw(unit)] + [p * draw(st.integers(-2, 2)) for _ in range(d - 1)]
                + [1])

    def unit_poly():
        return [draw(unit)] + [draw(st.integers(-4, 4)) for _ in range(2)]
    h = eisenstein()
    kind = draw(st.sampled_from(["independent", "equal", "congruent"]))
    if kind == "independent":
        h2 = eisenstein()
    elif kind == "equal":
        h2 = h
    else:
        k = draw(st.integers(2, 12))
        h2 = [c + p ** k * draw(st.integers(-2, 2)) for c in h[:-1]] + [1]
    if draw(st.booleans()):
        return tuple(IwasawaElement1.from_rationals(p, x) for x in (h, h2))
    prec = draw(st.integers(3, 25))
    return tuple(IwasawaElement1.from_rationals(p, polys.mul(x, unit_poly()), precision=prec)
                 for x in (h, h2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(distinguished_pairs())
def test_certificate_resultant_matches_padic_elimination_oracle(pair):
    """The integer resultant mod p^floor against the PadicScalar Gaussian
    elimination it replaced: the same valuation wherever the oracle
    determines one below the floor, and a resultant divisible by p^floor
    only where the oracle cannot decide either.  Exact distinguished inputs
    give the exact Sylvester determinant mod p^floor."""
    f, g = pair
    p = f.p
    _, df, _ = weierstrass_prepare(f)
    _, dg, _ = weierstrass_prepare(g)
    floor = _abs_floor_bound(df, dg)
    res = _resultant_mod(df, dg, floor)
    if f.coeffs[0].is_exact():
        F, G = (IwasawaElement2.from_dict(p, {(0, j): c for j, c in enumerate(x.rationals())})
                for x in (f, g))
        (det,) = resultant_in_T(F, G).rationals()        # (-1)^(mn) times the determinant
        mn = (len(f.coeffs) - 1) * (len(g.coeffs) - 1)
        assert (res - (-1) ** mn * det) % p ** floor == 0
    old = oracle._resultant_1var(df, dg)
    old_val = None if old.is_zero_within_precision() else old.valuation()
    if old_val is not None and old_val < floor:
        assert vp(res, p) == old_val
    if res % p ** floor == 0:
        assert old_val is None or old_val >= floor
