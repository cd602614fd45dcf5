import pytest

from thetapm import (BadReduction, CurveData, InvalidArgument,
                     bundled_curve, kronecker_symbol, local_reduction_type)
from thetapm.curves import (_is_local_square, check_conductor,
                            is_fundamental_discriminant)


def brute_count(ainvs, ell):
    a1, a2, a3, a4, a6 = ainvs
    n = 1
    for x in range(ell):
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y
                    - (x ** 3 + a2 * x * x + a4 * x + a6)) % ell == 0:
                n += 1
    return ell + 1 - n


def test_count_points_32a_oracle():
    c = bundled_curve("32a")
    # independent full enumeration oracle
    assert c.count_points(3) == brute_count(c.a_invariants, 3) == 0
    assert c.count_points(7) == brute_count(c.a_invariants, 7) == 0


def test_count_points_matches_brute_force_many():
    for label in ("32a", "40a", "56a"):
        c = bundled_curve(label)
        for ell in (3, 5, 7, 11, 13, 17, 19, 23):
            if c.conductor % ell:
                assert c.count_points(ell) == brute_count(c.a_invariants, ell)


def test_hasse_bound_holds():
    c = CurveData("t389", (0, 1, 1, -2, 0), 389)
    for ell in (3, 5, 7, 11, 13, 29, 97):
        a = c.count_points(ell)
        assert a * a <= 4 * ell


def test_bad_reduction_raises():
    c = bundled_curve("32a")
    with pytest.raises(BadReduction):
        c.count_points(2)


def test_supersingularity_gate():
    for label in ("32a", "40a", "56a"):
        bundled_curve(label).require_supersingular(3)
    with pytest.raises(InvalidArgument):
        bundled_curve("32a").require_supersingular(5)   # a_5 = -2


def test_singular_model_rejected():
    with pytest.raises(InvalidArgument):
        CurveData("bad", (0, 0, 0, 0, 0), 1)


def test_discriminant_and_c_invariants():
    c = bundled_curve("32a")
    assert c.discriminant() == 64
    assert c.c_invariants() == (48, 0)


def test_quadratic_twist_model():
    c = bundled_curve("32a")
    t = c.quadratic_twist(-43)
    assert t.conductor == 32 * 43 * 43
    # a_ell(twist) = chi_D(ell) a_ell for good ell
    for ell in (3, 5, 7, 11):
        assert t.count_points(ell) == kronecker_symbol(-43, ell) * c.count_points(ell)


def test_twist_minimal_small_case():
    c = bundled_curve("32a")
    t = c.quadratic_twist(-3)
    assert t.conductor == 288
    assert t.a_invariants == (0, 0, 0, -9, 0)


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(-43)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(-6)


def test_kronecker_values():
    # 3 splits only in the -107 field among the bundled discriminants
    table = {-43: -1, -107: 1, -283: -1, -331: -1, -139: -1, -487: -1}
    for D, want in table.items():
        assert kronecker_symbol(D, 3) == want
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(-1, 0) == 1 and kronecker_symbol(3, 0) == 0


def test_local_reduction_types():
    c32 = bundled_curve("32a")
    assert local_reduction_type(c32, 2).kind == "additive"
    assert local_reduction_type(c32, 5).kind == "good"
    c40 = bundled_curve("40a")
    t5 = local_reduction_type(c40, 5)
    assert t5.kind in ("split-mult", "nonsplit-mult")
    assert t5.v_disc == 2
    c56 = bundled_curve("56a")
    t7 = local_reduction_type(c56, 7)
    assert t7.kind in ("split-mult", "nonsplit-mult")
    assert t7.v_disc == 1


def test_split_criterion_constructed():
    # y^2 = x^3 + x^2 - x - 1 = (x-1)(x+1)^2: nodal at ell where it reduces;
    # build a curve with multiplicative reduction at 11 and check -c6 class
    c = CurveData("m11", (0, 0, 0, -4, 3), 11 * 2 ** 4)   # disc = 16*(4*64-243)?
    # use the standard rank-0 curve 11a3 = (0, -1, 1, 0, 0), conductor 11
    c = CurveData("11a3", (0, -1, 1, 0, 0), 11)
    t = local_reduction_type(c, 11)
    assert t.kind in ("split-mult", "nonsplit-mult")
    _, c6 = c.c_invariants()
    want_split = _is_local_square(-c6, 11)
    assert (t.kind == "split-mult") == want_split


def test_local_square_classes():
    assert _is_local_square(9, 7)
    assert not _is_local_square(7, 7)
    assert _is_local_square(49, 7)
    assert _is_local_square(17, 2)      # 17 = 1 mod 8
    assert not _is_local_square(5, 2)
    assert not _is_local_square(12, 3)  # odd valuation


def test_conductor_checked_against_reduction_types():
    for label in ("32a", "40a", "56a"):
        check_conductor(bundled_curve(label))
    check_conductor(CurveData("11a1", (0, -1, 1, -10, -20), 11))
    # 32a scaled by u = 5 is not minimal at 5; the reduction there is good
    check_conductor(CurveData("32a-scaled", (0, 0, 0, -625, 0), 32))
    bad = [
        CurveData("x", (0, 0, 0, -1, 0), 160),       # good at 5, yet 5 | N
        CurveData("x", (0, 0, 0, -1, 0), 96),        # good at 3, yet 3 | N
        CurveData("x", (0, 0, 0, -7, -6), 8),        # multiplicative at 5, 5 does not divide N
        CurveData("x", (0, -1, 1, -10, -20), 121),   # multiplicative at 11, v_11(N) = 2
        CurveData("x", (0, 0, 0, -1, 0), 0),
    ]
    for c in bad:
        with pytest.raises(InvalidArgument):
            check_conductor(c)
