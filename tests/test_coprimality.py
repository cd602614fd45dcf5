import random
from fractions import Fraction

import pytest

from thetapm import (CoprimalityCertificate, InvalidArgument, InvariantProfile,
                     IwasawaElement1, PrecisionError, conjecture_b_report,
                     coprime_certificate, is_unit, newton_invariants, polys,
                     shadow_products, weierstrass_prepare)
from thetapm.coprimality import _abs_floor_bound, _resultant_mod

from ledger_oracle import _resultant_1var, scalars


def poly(co, p=3, precision=25):
    return IwasawaElement1.from_rationals(p, [Fraction(c) for c in co],
                                          precision=precision)


# -- unit test -----------------------------------------------------------------

def test_is_unit_on_series(base_series, series_32a_43):
    sp, sm = base_series["32a"]
    assert is_unit(sp) and is_unit(sm)
    Tp, _ = series_32a_43
    assert not is_unit(Tp)                      # lambda = 8


def test_is_unit_constant_one():
    assert is_unit(poly([1]))


def test_is_unit_needs_stabilized_profile():
    prof = InvariantProfile(0, 0, (), stabilized=False)
    with pytest.raises(PrecisionError):
        is_unit(prof)


# -- certificates -----------------------------------------------------------------

def test_certificate_table_row(series_32a_43):
    Tp, Tm = series_32a_43
    cert = coprime_certificate(Tp, Tm)
    assert cert.method == "slope-disjoint"
    assert cert.verdict == "coprime"
    assert cert.f_profile.slope_values() == {Fraction(1, 2), Fraction(1, 6)}
    assert cert.g_profile.slope_values() == {Fraction(1)}


def test_certificate_equal_inputs_blocked():
    f = poly([3, 0, 1])
    cert = coprime_certificate(f, f)
    assert cert.verdict == "not-certified"


def test_certificate_eisenstein_slopes():
    f = poly([-3, 0, 1])            # X^2 - 3: slope 1/2
    g = poly([-3, 0, 0, 1])         # X^3 - 3: slope 1/3
    cert = coprime_certificate(f, g)
    assert cert.method == "slope-disjoint"
    assert cert.verdict == "coprime"


def test_certificate_shared_p_factor():
    f = poly([9, 3, 3])
    g = poly([3, 6])
    cert = coprime_certificate(f, g)
    assert cert.verdict == "not-certified"
    assert "p" in cert.detail


def test_certificate_resultant_route():
    # same slope value but different roots: X^2 - 3 and X^2 + 3
    f = poly([-3, 0, 1])
    g = poly([3, 0, 1])
    cert = coprime_certificate(f, g)
    assert cert.method == "resultant"
    assert cert.verdict == "coprime"
    assert cert.resultant_valuation is not None


def test_certificate_refuses_series_over_different_primes():
    # X^2 - 3 over Z_3 and X^2 + 5 over Z_5 share the slope 1/2: there is no
    # ring in which to compare them, so no resultant is taken
    f = poly([-3, 0, 1], p=3)
    g = poly([5, 0, 1], p=5)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(InvalidArgument, match="different primes"):
            coprime_certificate(a, b)


def test_certificate_resultant_detects_common_factor():
    # both share the factor X^2 + 3
    common = [3, 0, 1]
    f = poly(polys.mul(common, [1, 1]))
    g = poly(polys.mul(common, [2, 0, 0, 1]))
    cert = coprime_certificate(f, g)
    assert cert.verdict in ("not-certified", "inconclusive")


def test_soundness_never_coprime_with_common_factor():
    rng = random.Random(77)
    for _ in range(40):
        h = [3 * rng.choice([1, 2, -1]), 3 * rng.randint(-2, 2), 1]
        u = [rng.choice([1, 2, 4, 5])] + [rng.randint(-4, 4) for _ in range(2)]
        f = poly(polys.mul(h, u))
        g = poly(polys.mul(h, [3 * rng.randint(-4, 4), 1]))
        cert = coprime_certificate(f, g)
        assert cert.verdict != "coprime", cert.as_dict()


def test_unit_robustness_of_verdicts():
    rng = random.Random(78)
    for _ in range(30):
        f = [3 * rng.choice([1, -1, 2]), 0, 1]
        g = poly([3 * rng.choice([1, -1, 2]), 0, 0, 1])
        u = [rng.choice([1, 2, 4, 5, 7])] + [rng.randint(-5, 5) for _ in range(2)]
        c1 = coprime_certificate(poly(f), g)
        c2 = coprime_certificate(poly(polys.mul(f, u)), g)
        assert c1.verdict == c2.verdict


def test_slope_disjoint_implies_resultant_nonzero():
    rng = random.Random(79)
    checked = 0
    for _ in range(60):
        f = poly([3 * rng.choice([1, 2, -1, -2]), 0, 1])        # slope 1/2
        g = poly([3 * rng.choice([1, 2, -1, -2]), 0, 0, 1])     # slope 1/3
        cert = coprime_certificate(f, g)
        assert cert.verdict == "coprime" and cert.method == "slope-disjoint"
        _, df, _ = weierstrass_prepare(f)
        _, dg, _ = weierstrass_prepare(g)
        floor = _abs_floor_bound(df, dg)
        assert _resultant_mod(df, dg, floor) % 3 ** floor != 0
        assert not _resultant_1var(scalars(df), scalars(dg)).is_zero_within_precision()
        checked += 1
    assert checked == 60


# -- shadows and the deduction report ----------------------------------------------

def test_shadow_products_lambda_additivity(base_series, series_32a_43):
    tp, tm = base_series["32a"]
    Tp, Tm = series_32a_43
    out = shadow_products((tp, tm), (Tp, Tm))
    pp = out["pp"]["profile"]
    assert pp["lambda"] == tp.profile.lam + Tp.profile.lam == 8
    mm = out["mm"]["profile"]
    assert mm["lambda"] == 2
    assert out["mixed"]["reduction"]["valid"]


def test_shadow_products_degenerate_factor(base_series):
    tp, tm = base_series["32a"]

    class Zero:
        profile = None
    out = shadow_products((tp, tm), (Zero(), Zero()))
    assert out["pp"]["degenerate"]


def test_conjecture_b_report_row(base_series, series_32a_43):
    tp, tm = base_series["32a"]
    Tp, Tm = series_32a_43
    rep = conjecture_b_report("32a", -43, 3, (tp, tm), (Tp, Tm),
                              surjectivity_known=False, cm_curve=True,
                              p_splits=False)
    assert rep["conditions"]["a"]["status"] == "holds"
    assert rep["conditions"]["b"]["status"] == "holds"
    assert rep["conditions"]["c"]["status"] == "holds"
    assert rep["verdict"].startswith("pseudo-null (verified")
    assert "warning" in rep["hypotheses"]


def test_conjecture_b_inconclusive_on_equal_profiles(base_series):
    tp, tm = base_series["32a"]
    # synthetic twisted pair sharing every slope: 8b must be inconclusive or fail
    f = poly([-3, 0, 1])
    g = poly([-12, 0, 4])       # 4(X^2 - 3): same slopes, shared factor
    rep = conjecture_b_report("32a", -43, 3, (tp, tm), (f, g),
                              surjectivity_known=True)
    assert rep["conditions"]["b"]["status"] in ("fails", "inconclusive")
    assert rep["verdict"] == "inconclusive"
