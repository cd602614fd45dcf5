"""Integer ledger kernels against the replaced Fraction and per-term code.

``thetapm.polys``, the packed integer Bareiss determinant behind
``sylvester_resultant``, the T-resultant, ``IwasawaElement2.p_split``, the
integer certificate resultant and the Newton and Weierstrass readers of
integer one-variable series must give what the code in ``ledger_oracle``
and plain ``Fraction`` arithmetic give, including zero polynomials,
trailing zeros, row swaps, singular matrices, constants in T, resultants
that vanish within precision and coefficients known only to a precision.
"""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import ledger_oracle as oracle

from ledger_oracle import PadicScalar, _hensel_weierstrass_t
from thetapm import (BUNDLED_ROWS, IwasawaElement1, IwasawaElement2, bundled_curve,
                     newton_invariants, polys, resultant_in_T, vp)
from thetapm.chern import S_TRUNC, _fiber_gcd_at_origin, _t_divmod
from thetapm.exceptions import InvalidArgument, PrecisionError, TruncationError
from thetapm.coprimality import _abs_floor_bound, _obviously_equal, _resultant_mod
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


def fp2_terms(rows, p):
    """Term dict (i, j) -> nonzero residue of a T-polynomial over F_p[S]."""
    return {(i, j): c % p for j, row in enumerate(rows) for i, c in enumerate(row)
            if c % p}


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.integers(1, 4), st.data())
def test_t_divmod_is_exact_division_by_monic(p, dw, data):
    # q*w + r == f over F_p[S][T] and deg_T r < deg_T w, with S-degrees up to
    # 39, beyond any S-adic precision
    f = [data.draw(residues(p, 1, 40)) for _ in range(data.draw(st.integers(1, 8)))]
    w = [data.draw(residues(p, 1, 40)) for _ in range(dw)] + [[1]]
    q, r = _t_divmod(f, w, p)
    assert len(r) <= dw
    back = fp2_terms(r, p)
    for j1, a in enumerate(q):
        for j2, b in enumerate(w):
            for i, c in enumerate(oracle._fp_poly_mul(a, b, p)):
                back[(i, j1 + j2)] = (back.get((i, j1 + j2), 0) + c) % p
    assert {k: c for k, c in back.items() if c} == fp2_terms(f, p)


def test_f_p_kernels_on_zero_polynomials():
    for p in PRIMES:
        assert polys.mod(polys.mul([0], [1, 2]), p) == oracle._fp_poly_mul([0], [1, 2], p) == [0]
        assert polys.divmod_mod([0, 0], [1], p) == oracle._fp_poly_divmod([0, 0], [1], p)
        with pytest.raises(InvalidArgument):
            polys.bezout_mod([0, 1], [0, 1], p)       # X and X share a factor


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(1, S_TRUNC), st.data())
def test_hensel_factor_is_distinguished_and_divides(p, d, width, data):
    # h in F_p[[S]][T] with h(0, T) = T^d * unit, known to S^width (the rest
    # zero): the lifted W is monic of degree d, equals T^d mod S and
    # divides h modulo S^S_TRUNC: the exact remainder starts at S^S_TRUNC
    dt = data.draw(st.integers(d, d + 3))
    h = [data.draw(residues(p, width, width)) for _ in range(dt + 1)]
    for j in range(d):
        h[j][0] = 0
    h[d][0] = data.draw(st.integers(1, p - 1))
    W = _hensel_weierstrass_t(h, p)
    assert len(W) == d + 1 and W[d] == [1] + [0] * (S_TRUNC - 1)
    assert all(W[j][0] == 0 for j in range(d))
    _, rem = _t_divmod(h, W, p)
    assert not any(any(row[:S_TRUNC]) for row in rem)


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
            assert oracle.exact_div(num, b) == q
        else:
            with pytest.raises(InvalidArgument):
                oracle.exact_div(num, b)


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


# -- the Bareiss determinant over Z[S] and the T-resultant -------------------------

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


def cleared_rows(M):
    """(integer matrix, product of the row scales): each row of a rational
    matrix times the lcm of its denominators, entries trimmed."""
    rows, scales = [], []
    for row in M:
        den = lcm(*(Fraction(c).denominator for e in row for c in e))
        scales.append(den)
        rows.append([polys.trim([int(c * den) for c in e]) for e in row])
    return rows, prod(scales)


def s_polys(max_size=3, dens=(1, 2, 3, 4, 9)):
    frac = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens))
    return st.lists(frac, min_size=1, max_size=max_size)


@ORACLE_SETTINGS
@given(st.lists(s_polys(), min_size=2, max_size=4),
       st.lists(s_polys(), min_size=2, max_size=4))
def test_bareiss_det_matches_oracle_on_rational_sylvester(f, g):
    M = sylvester(f, g)
    rows, scale = cleared_rows(M)
    assert _bareiss_det(rows) == [c * scale for c in oracle._bareiss_det(M)]


def test_bareiss_det_zero_pivot_forces_row_swap():
    F = Fraction
    M = [[[F(0)], [F(1), F(1, 2)], [F(2)]],
         [[F(3), F(1)], [F(0)], [F(1, 3)]],
         [[F(1)], [F(5)], [F(0), F(0), F(7, 4)]]]
    want = oracle._bareiss_det(M)
    assert want != [F(0)]
    rows, scale = cleared_rows(M)
    assert rows[0][0] == [0]
    assert _bareiss_det(rows) == [c * scale for c in want]


def test_bareiss_det_singular_matrix_is_zero():
    row = [[1, 2], [1], [0, 3]]
    M = [row, [[4], [0, 1], [5]], list(row)]
    assert oracle._bareiss_det(M) == [0]
    assert _bareiss_det(M) == [0]


@st.composite
def zs_matrices(draw):
    """Square matrices over Z[S] of size 0 to 7, not only Sylvester ones.

    Coefficients reach 2^200 in absolute value with either sign, entries
    are often zero, and a matrix may carry a zero row or a row that is a
    Z[S]-combination of two others."""
    n = draw(st.integers(0, 7))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
    entry = st.one_of(st.just([0]), st.lists(coeff, min_size=1, max_size=4).map(polys.trim))
    M = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(int_polys(1, 2, 3)), draw(int_polys(1, 2, 3))
        M[i] = [polys.trim(polys.add(polys.mul(a, x), polys.mul(b, y)))
                for x, y in zip(M[j], M[k])]
    if n and draw(st.integers(0, 4)) == 0:
        M[draw(st.integers(0, n - 1))] = [[0]] * n
    return M


# no shrink phase: shrinking 200-bit coefficients takes hypothesis minutes,
# while the unshrunk failing matrix is printed at once
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(zs_matrices())
def test_bareiss_det_matches_list_polynomial_oracle(M):
    """The packed integer determinant against Bareiss elimination on the
    coefficient lists, which it replaced."""
    assert _bareiss_det(M) == oracle.int_bareiss_det(M)


def test_bareiss_det_reads_back_coefficients_at_the_bound():
    # a determinant coefficient equal to the bound, negative and positive
    big = 2 ** 200
    assert _bareiss_det([[[0, -big]]]) == [0, -big]
    M = [[[-big], [0]], [[0], [0, -big]]]
    assert _bareiss_det(M) == oracle.int_bareiss_det(M) == [0, big * big]
    M = [[[0], [0, -big]], [[-big, 1], [3]]]
    assert _bareiss_det(M) == oracle.int_bareiss_det(M) == [0, -big * big, big]


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


@st.composite
def t_polys(draw, p):
    """Rational T-polynomials of T-degree 0 to 3 with a nonzero leading
    row; denominators prime to p and divisible by p."""
    rows = draw(st.lists(s_polys(dens=(1, 2, p, 4 * p, p * p)), min_size=1, max_size=4))
    lead = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool),
                          st.sampled_from((1, p, 2))))
    return rows[:-1] + [rows[-1] + [lead]]


def element(p, rows):
    return IwasawaElement2.from_dict(p, {(i, j): c for j, co in enumerate(rows)
                                         for i, c in enumerate(co)})


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_resultant_in_t_matches_fraction_oracle(p, data):
    f = data.draw(t_polys(p))
    g = data.draw(t_polys(p))
    if data.draw(st.booleans()):
        f = f[:1]                                  # T-degree 0 on one side
        if data.draw(st.booleans()):
            g = g[:1]                              # ... or on both
    f[-1], g[-1] = list(f[-1]), list(g[-1])
    for co in (f[-1], g[-1]):
        if not any(co):
            co[-1] = Fraction(1, p)
    m, n = len(f) - 1, len(g) - 1
    M = sylvester(f, g)
    want = oracle._bareiss_det(M) if M else [Fraction(1)]
    got = resultant_in_T(element(p, f), element(p, g)).rationals()
    assert got == [(-1) ** (m * n) * c for c in want]


@ORACLE_SETTINGS
@given(st.sampled_from(PRIMES), st.data())
def test_p_split_matches_fraction_valuation_and_residues(p, data):
    rows = data.draw(st.lists(s_polys(dens=(1, 2, p, p * p, 5 * p ** 3)),
                              min_size=1, max_size=3))
    scale = Fraction(p) ** data.draw(st.integers(-3, 3))
    terms = {(i, j): c * scale for j, co in enumerate(rows) for i, c in enumerate(co) if c}
    v, split = element(p, [[c * scale for c in co] for co in rows]).p_split()
    if not terms:
        assert (v, split) == (None, [[0]])
        return
    # the layout: trimmed F_p[S] rows by T-degree, with no zero top row
    assert all(row == [0] or row[-1] for row in split) and split[-1] != [0]
    residues = fp2_terms(split, p)

    def val(c):
        return vp(c.numerator, p) - vp(c.denominator, p)
    want_v = min(map(val, terms.values()))
    want = {}
    for k, c in terms.items():
        c /= Fraction(p) ** want_v
        r = c.numerator * pow(c.denominator, -1, p) % p
        if r:
            want[k] = r
    assert v == want_v and residues == want and residues


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
    assert repr(oracle.padic_mul(o5, PadicScalar.zero(3))) == "0 (exact)"


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
    if f.precisions()[0] is None:
        F, G = (IwasawaElement2.from_dict(p, {(0, j): c for j, c in enumerate(x.rationals())})
                for x in (f, g))
        (det,) = resultant_in_T(F, G).rationals()        # (-1)^(mn) times the determinant
        mn = f.trunc_degree * g.trunc_degree
        assert (res - (-1) ** mn * det) % p ** floor == 0
    old = oracle._resultant_1var(oracle.scalars(df), oracle.scalars(dg))
    old_val = None if old.is_zero_within_precision() else old.valuation()
    if old_val is not None and old_val < floor:
        assert vp(res, p) == old_val
    if res % p ** floor == 0:
        assert old_val is None or old_val >= floor


# -- one-variable series against the scalar readers ---------------------------------

@st.composite
def series_with_scalars(draw):
    """A one-variable element and the same coefficients as oracle scalars.

    Coefficients are p^v * u / d with v in -1..4, or zero.  The precision is
    either none (exact), one relative precision for every coefficient
    through ``from_rationals`` (a zero then being a zero to O(p^N)), or an
    absolute precision per coefficient, mixing exact values, known digits
    and zero markers; the tail is exact or unknown."""
    p = draw(st.sampled_from([3, 5]))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p)
    values = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.integers(0, 3)) == 0:
            values.append(Fraction(0))
        else:
            values.append(Fraction(draw(unit) * p ** (draw(st.integers(-1, 4)) + 1),
                                   p * draw(st.sampled_from([1, 2, 7]))))
    mode = draw(st.sampled_from(["exact", "relative", "mixed"]))
    if mode == "relative":
        n = draw(st.integers(1, 12))
        el = IwasawaElement1.from_rationals(p, values, precision=n)
        absolute = [n + (vp(x, p) or 0) for x in values]
    else:
        el = IwasawaElement1.from_rationals(p, values)
        absolute = [None] * len(values)
        if mode == "mixed":
            absolute = [draw(st.one_of(st.none(), st.integers(1, 10).map(
                lambda r, x=x: r + (vp(x, p) or 0)))) for x in values]
            el = IwasawaElement1(p, el.nums, el.den, prec=absolute)
    el.exact_tail = draw(st.booleans())
    old = [PadicScalar(p, x, precision=a if a is None or x == 0 else a - vp(x, p))
           for x, a in zip(values, absolute)]
    return el, old


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionError, TruncationError, InvalidArgument) as exc:
        return type(exc), str(exc)


@ORACLE_SETTINGS
@given(series_with_scalars())
def test_integer_series_readers_match_scalar_oracle(case):
    """``newton_invariants`` and ``weierstrass_prepare`` on integer series
    against the scalar readers they replaced: the same profile (mu, lambda,
    slopes, stabilized) or the same error, and the same mu, coefficient
    lifts mod p^digits, absolute precisions and zero markers of both
    Weierstrass factors."""
    el, old = case
    assert outcome(newton_invariants, el) == outcome(oracle.newton_invariants, old)
    assert_same_preparation(outcome(weierstrass_prepare, el),
                            outcome(oracle.weierstrass_prepare, el.p, old, el.exact_tail))


def assert_same_preparation(new, want):
    """An integer Weierstrass preparation against the scalar oracle's: the
    same error, or the same mu, coefficient lifts mod p^digits, absolute
    precisions and zero markers of both factors."""
    if isinstance(want[0], type):
        assert new == want
        return
    (unit, dist, mu), (old_unit, old_dist, old_mu) = new, want
    assert mu == old_mu
    digits = unit.precisions()[0]
    for got, ref in ((unit, old_unit), (dist, old_dist)):
        assert got.lifts(digits) == [c.lift(digits) for c in ref]
        assert got.precisions() == tuple(c._abs_floor() for c in ref)
        assert [x == 0 for x in got.rationals()] == \
            [c.is_zero_within_precision() for c in ref]
    assert (unit.exact_tail, dist.exact_tail) == (False, True)


@st.composite
def planted_series(draw):
    """A one-variable series p^mu * (c_0 + c_1 X + ...) / d with p | c_i
    below a planted lambda of 0 to 8 and c_lambda a unit; mu is -2 to 2.
    The precision is none, one relative precision up to 60, or per
    coefficient none or 1 to 60 digits beyond its valuation (beyond mu for
    a zero); the tail is exact or unknown."""
    p = draw(st.sampled_from(PRIMES))
    lam = draw(st.integers(0, 8))
    low = [p * draw(st.integers(-p ** 4, p ** 4)) for _ in range(lam)]
    lead = draw(st.integers(1, p ** 3).filter(lambda x: x % p))
    high = draw(st.lists(st.integers(-p ** 6, p ** 6), max_size=5))
    mu = draw(st.integers(-2, 2))
    scale = Fraction(p) ** mu / draw(st.sampled_from([1, 2, 4]))
    values = [c * scale for c in low + [lead] + high]
    mode = draw(st.sampled_from(["exact", "relative", "absolute"]))
    if mode == "relative":
        el = IwasawaElement1.from_rationals(p, values, precision=draw(st.integers(1, 60)))
    else:
        el = IwasawaElement1.from_rationals(p, values)
        if mode == "absolute":
            prec = [draw(st.one_of(st.none(), st.integers(1, 60).map(
                lambda r, x=x: r + (mu if x == 0 else vp(x, p))))) for x in values]
            el = IwasawaElement1(p, el.nums, el.den, prec=prec)
    el.exact_tail = draw(st.booleans())
    return el


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(planted_series())
def test_quadratic_lift_matches_one_digit_oracle(el):
    """The quadratic Hensel lift against the one-digit lift on scalars that
    it replaced: the same mu, coefficient lifts (and so the same length of
    the unit), precisions and zero markers, or the same error; and the two
    factors multiply back to f / p^mu mod p^digits."""
    new = outcome(weierstrass_prepare, el)
    assert_same_preparation(new, outcome(oracle.weierstrass_prepare, el.p,
                                         oracle.scalars(el), el.exact_tail))
    if isinstance(new[0], type):
        return
    unit, dist, mu = new
    digits = unit.precisions()[0]
    p, m = el.p, el.p ** digits
    fb = [c * Fraction(p) ** -mu for c in el.rationals()]
    fb = [x.numerator * pow(x.denominator, -1, m) % m for x in fb]
    assert polys.mod(polys.sub(fb, polys.mul(unit.lifts(digits), dist.lifts(digits))), m) == [0]


def lifted_factors(f):
    """(unit lifts, distinguished lifts, unit precisions, mu), once they
    match the one-digit oracle's."""
    new = weierstrass_prepare(f)
    assert_same_preparation(new, oracle.weierstrass_prepare(f.p, oracle.scalars(f),
                                                            f.exact_tail))
    unit, dist, mu = new
    digits = unit.precisions()[0]
    return unit.lifts(digits), dist.lifts(digits), unit.precisions(), mu


def test_quadratic_lift_at_one_digit_runs_no_step():
    # 3 + X + 2X^2 to one digit: X * (1 + 2X) mod 3 is already the answer
    f = IwasawaElement1.from_rationals(3, [3, 1, 2], precision=1)
    assert lifted_factors(f) == ([1, 2], [0, 1], (1, 1), 0)


def test_quadratic_lift_of_a_unit_is_the_unit():
    # lambda = 0: the distinguished part is 1 and the unit is f mod 5^6,
    # without its zero marker at X^3
    f = IwasawaElement1.from_rationals(5, [2, 5, 25, 0], precision=6)
    assert lifted_factors(f) == ([2, 5, 25], [1], (6,) * 3, 0)


def test_quadratic_lift_drops_unit_coefficients_that_vanish_mod_p_digits():
    # (X + 3)(1 + X + 3^4 X^2) to 4 digits: the unit's X^2 coefficient is
    # 0 mod 3^4, so the unit is 1 + X, of length 2 and not D + 1 - lambda = 3
    f = IwasawaElement1.from_rationals(3, polys.mul([3, 1], [1, 1, 81]), precision=4)
    assert f.nums == [3, 4, 244, 81]
    assert lifted_factors(f) == ([1, 1], [3, 1], (4, 4), 0)


@ORACLE_SETTINGS
@given(series_with_scalars(), st.data())
def test_obviously_equal_matches_fraction_reading(case, data):
    """The equality test of the certificate on numerators over their
    denominators gives the verdict of the Fraction reading, on f against
    itself and against f with some nonzero coefficients moved by
    p^k * u / d, which changes the denominator of the moved copy."""
    f, _ = case
    p, n = f.p, len(f.nums)
    moved = [x if x == 0 or not data.draw(st.booleans()) else
             x + Fraction(data.draw(st.sampled_from([-2, -1, 1, 2])) * p ** data.draw(
                 st.integers(0, 10)), data.draw(st.sampled_from([1, 2, 7, p])))
             for x in f.rationals()]
    prec = data.draw(st.lists(st.one_of(st.none(), st.integers(-1, 10)),
                              min_size=n, max_size=n))
    g = IwasawaElement1(p, *polys.clear_denominators(moved), prec=prec)
    assert _obviously_equal(f, f) == oracle.obviously_equal(f, f) is True
    assert _obviously_equal(f, g) == oracle.obviously_equal(f, g)
    assert _obviously_equal(g, f) == oracle.obviously_equal(g, f)


def test_table_representative_profiles_match_scalar_oracle(workbench, table_results):
    """The one-scan profile of every representative the bundled table built,
    at full size, against the scalar reader; the table already built them,
    so no path is evaluated here."""
    sizes = []
    for row in BUNDLED_ROWS:
        curve = bundled_curve(row["curve"])
        for D in (row["discriminant"], 1):
            for sign in ("+", "-"):
                rep = workbench.signed_series(curve, D, sign).representative
                sizes.append(len(rep.nums))
                assert newton_invariants(rep) == \
                    oracle.newton_invariants(oracle.scalars(rep)), (curve.label, D, sign)
    assert max(sizes) >= 1640
