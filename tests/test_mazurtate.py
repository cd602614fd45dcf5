from fractions import Fraction

import pytest

import fraction_oracle
from characters import principal_unit_dlog
from fraction_oracle import from_int
from orbits import orbit_value

from thetapm import (BUNDLED_ROWS, BadReduction, CurveData, InvalidArgument,
                     ThetaTarget, WorkbenchError, bundled_curve,
                     interpolation_value, kronecker_symbol, reconstruct_signed,
                     reinterpolation_check, trivial_character_ratio_check, vp)
from thetapm import IwasawaElement1, mazurtate
from thetapm.mazurtate import SignedLSeries
from thetapm.polys import taylor_shift


@pytest.fixture(scope="module")
def target32(workbench):
    return workbench.target(bundled_curve("32a"), 1)


@pytest.fixture(scope="module")
def target32_43(workbench):
    return workbench.target(bundled_curve("32a"), -43)


# -- construction and character evaluation -------------------------------------

def test_character_evaluation_two_routes(target32):
    """Group-algebra evaluation equals the direct path-value Birch sum."""
    p = 3
    n = 2
    q = p ** (n + 1)
    el = target32.mazur_tate(n)
    dlog = principal_unit_dlog(p, n)
    for t in (1, 2, 4):
        via_element = el.evaluate(t=t)
        direct = fraction_oracle.CyclotomicInt(p ** n)
        ev = target32.family_value
        for a in range(1, q):
            if a % p == 0:
                continue
            w = pow(a, p ** n, q)
            e = dlog[a * pow(w, -1, q) % q]
            direct._add_monomial(t * e, Fraction(ev(a, q), p - 1))
        assert from_int(via_element) == direct


def test_level2_evaluation_nonzero(target32):
    el = target32.mazur_tate(2)
    v = el.evaluate(t=1)
    assert v.m == 9
    assert not v.is_zero()


def test_twist_brute_force_double_sum(workbench, target32_43):
    """Twisted sums agree with a raw double sum over (a mod 27, u mod 43)."""
    p, D = 3, -43
    q = 27
    absD = -D
    c = bundled_curve("32a")
    minus, _ = workbench.symbol(c, -1)
    ev = minus.evaluator()
    el = target32_43.mazur_tate(2)
    dlog = principal_unit_dlog(p, 2)
    direct = fraction_oracle.CyclotomicInt(9)
    for a in range(1, q):
        if a % p == 0:
            continue
        w = pow(a, 9, q)
        e = dlog[a * pow(w, -1, q) % q]
        s = 0
        for u in range(1, absD):
            chi = kronecker_symbol(D, u)
            if chi:
                s += chi * ev((a * absD + u * q) % (q * absD), q * absD)
        direct._add_monomial(e, Fraction(s, p - 1))
    assert from_int(el.evaluate(t=1)) == direct


def test_norm_structure_under_projection(target32):
    """a_p = 0 forces: projecting one level kills the top characters and two
    levels returns -p times the element two levels down."""
    t3 = target32.mazur_tate(3)
    t1 = target32.mazur_tate(1)
    proj1 = fraction_oracle.mazur_tate_project(t3, 2)
    for t in (1, 2):
        assert proj1.evaluate(t=t).is_zero()        # exact order p^(n-1)
    proj2 = fraction_oracle.mazur_tate_project(proj1, 1)
    for t in (1, 2):
        lhs = proj2.evaluate(t=t)
        rhs = t1.evaluate(t=t) * (-3)
        assert (lhs - rhs).is_zero()


def test_mazur_tate_gate_checks():
    c32 = bundled_curve("32a")
    with pytest.raises(InvalidArgument):
        ThetaTarget(c32, 5)                         # a_5 = -2 != 0
    c36 = CurveData("36a", (0, 0, 0, 0, 1), 36)
    with pytest.raises(BadReduction):
        ThetaTarget(c36, 3)                         # 3 divides the conductor


# -- reconstruction ---------------------------------------------------------------

def test_interpolation_parity_guards(target32):
    with pytest.raises(InvalidArgument):
        interpolation_value(target32, "+", 2)
    with pytest.raises(InvalidArgument):
        interpolation_value(target32, "-", 3)


def test_base_series_are_units(base_series):
    for label, (sp, sm) in base_series.items():
        for s in (sp, sm):
            assert s.profile.is_unit(), (label, s.sign)
            assert s.is_stabilized()
            assert s.certified


def test_reinterpolation_exact(series_32a_43, base_series):
    for s in series_32a_43:
        assert reinterpolation_check(s) == []
    for pair in base_series.values():
        for s in pair:
            assert reinterpolation_check(s) == []


def test_negative_normalized_mu_raises(workbench):
    """Family values that come from no modular symbol (here a point mass at
    a = 1) leave p in the denominator after normalization; the negative mu
    is an error, not a profile."""
    c = bundled_curve("32a")
    target = ThetaTarget(c, 3, plus_symbol=workbench.symbol(c, +1)[0])
    target.family_value = lambda a, q: 1 if a % q == 1 else 0
    with pytest.raises(WorkbenchError, match="mu = -1 is negative"):
        reconstruct_signed(target, "+", n_max=3, auto_extend=False)


def test_galois_equivariance_of_values(target32_43):
    """Conjugate orbit representatives give conjugate values."""
    v1 = interpolation_value(target32_43, "-", 2)
    v2 = orbit_value(target32_43, "-", 2, 2)
    assert v1.galois(2) == v2


def test_orbit_independence_of_reconstruction(workbench, monkeypatch):
    """Reconstructing from the orbit-2 values, each conjugated back to the
    fixed primitive root, gives the same representative."""
    c = bundled_curve("32a")
    tgt = workbench.target(c, 1)
    s1 = reconstruct_signed(tgt, "-", n_max=4, auto_extend=False)
    monkeypatch.setattr(mazurtate, "interpolation_value", lambda target, sign, k:
                        orbit_value(target, sign, k, 2).galois(pow(2, -1, target.p ** k)))
    s2 = reconstruct_signed(tgt, "-", n_max=4, auto_extend=False)
    assert s1.rep_exact == s2.rep_exact


def test_representative_reduces_mod_each_level(series_32a_43):
    """Evaluating the representative at every used root reproduces the data
    (the Chinese-remainder condition, checked at a conjugate too)."""
    Tp, _ = series_32a_43
    from thetapm.cyclotomic import x_poly_at_zeta_minus_one
    rep = Tp.representative
    for k, v in Tp.interpolation_data.items():
        got = x_poly_at_zeta_minus_one(rep.nums, Tp.p, k, rep.den)
        assert (got - v).is_zero()
        got2 = x_poly_at_zeta_minus_one(rep.nums, Tp.p, k, rep.den)
        assert (got2.galois(2) - v.galois(2)).is_zero()


def test_stabilization_history_records_guard(series_32a_43):
    Tp, Tm = series_32a_43
    assert Tp.levels == (1, 3, 5, 7)
    assert Tm.levels == (2, 4, 6)
    first = Tp.stabilization_history[0]
    assert first["profile"] is None                 # vanishing twisted values
    assert Tp.is_stabilized() and Tm.is_stabilized()
    assert Tp.certified and Tm.certified


def test_ratio_check_consistent(base_series):
    for label, (sp, sm) in base_series.items():
        out = trivial_character_ratio_check(sp, sm)
        assert out["status"] == "consistent-up-to-unit", (label, out)
        assert out["expected"] == "1"
        assert out["valuation_computed"] == 0


def test_ratio_check_inconclusive_on_zero():
    zero = SignedLSeries(
        p=3, sign="+", label="synthetic",
        representative=IwasawaElement1.from_rationals(3, [Fraction(0), Fraction(1)]),
        n_max=2, profile=None, stabilization_history=[], family_content=1,
        interpolation_data={}, certified=False, trusted=False, notes=[],
        levels=(1,))
    other = SignedLSeries(
        p=3, sign="-", label="synthetic",
        representative=IwasawaElement1.from_rationals(3, [Fraction(1)]),
        n_max=2, profile=None, stabilization_history=[], family_content=1,
        interpolation_data={}, certified=False, trusted=False, notes=[],
        levels=(2,))
    out = trivial_character_ratio_check(zero, other)
    assert out["status"] == "inconclusive"


def test_ratio_check_p5_expectation():
    # formula instance: the expected tame ratio at p = 5 is 2
    a = SignedLSeries(
        p=5, sign="+", label="synthetic",
        representative=IwasawaElement1.from_rationals(5, [Fraction(2)]),
        n_max=2, profile=None, stabilization_history=[], family_content=1,
        interpolation_data={}, certified=False, trusted=False, notes=[],
        levels=(1,))
    b = SignedLSeries(
        p=5, sign="-", label="synthetic",
        representative=IwasawaElement1.from_rationals(5, [Fraction(1)]),
        n_max=2, profile=None, stabilization_history=[], family_content=1,
        interpolation_data={}, certified=False, trusted=False, notes=[],
        levels=(2,))
    out = trivial_character_ratio_check(a, b)
    assert out["expected"] == "2"
    assert out["exact_match"]


@pytest.mark.parametrize("label,D", sorted({(r["curve"], d) for r in BUNDLED_ROWS
                                            for d in (r["discriminant"], 1)}))
def test_integer_reconstruction_matches_fraction_oracle(workbench, label, D):
    """The integer representative is the Fraction-list Garner lift over the
    same levels, divided by the family content, and every history profile
    is the oracle's with mu shifted by that content.  The oracle reads the
    workbench's cached elements, so it evaluates no paths of its own."""
    curve = bundled_curve(label)
    target = workbench.target(curve, D)
    for sign in ("+", "-"):
        series = workbench.signed_series(curve, D, sign)
        theta, profiles = fraction_oracle.reconstruct_fractions(
            target, sign, series.levels)
        cg = series.family_content
        assert [c / cg for c in theta] == series.rep_exact, (label, D, sign)
        shift = vp(cg, target.p)
        want = [None if prof is None else dict(prof.as_dict(), mu=prof.mu - shift)
                for prof in profiles]
        assert [h["profile"] for h in series.stabilization_history] == want


def test_family_content_prime_to_p(series_32a_43):
    Tp, Tm = series_32a_43
    assert Tp.family_content % 3 != 0
    assert Tm.family_content % 3 != 0


def test_stabilization_monotonicity_one_level_deeper(workbench):
    """Once two consecutive levels agree with certified polygons, the next
    level does not change the profile (checked at depth n_max + 1)."""
    tgt = workbench.target(bundled_curve("32a"), -43)
    deep = reconstruct_signed(tgt, "-", n_max=8, auto_extend=False)
    assert deep.levels == (2, 4, 6, 8)
    profs = [h["profile"] for h in deep.stabilization_history[1:]]
    keys = [(p["mu"], p["lambda"], tuple(map(tuple, p["slopes"]))) for p in profs]
    assert keys[-1] == keys[-2] == keys[-3]
    assert deep.profile.lam == 2


@pytest.mark.parametrize("label,D", [("32a", 1), ("32a", -43), ("40a", 1),
                                     ("40a", -331), ("56a", 1), ("56a", -487)])
def test_family_value_even_under_negation(workbench, label, D):
    """tev(q - a) = tev(a) for every unit residue a mod q = 3^5.

    -1 is a Teichmueller unit, so a and -a feed the same Mazur-Tate
    coefficient; the symmetry is asserted here, not assumed by the build."""
    tgt = workbench.target(bundled_curve(label), D)
    q = 3 ** 5
    units = [a for a in range(1, q) if a % 3]
    assert len(units) == 162
    values = {a: tgt.family_value(a, q) for a in units}
    assert any(values.values())
    for a in units:
        assert values[q - a] == values[a], (label, D, a)


# q_k = p^(k-1) - p^(k-2) + ... at p = 3, ending + p - 1 for even k and
# + p^2 - p for odd k (level k has conductor p^(k+1))
KP_Q = {2: 2, 3: 6, 4: 20, 5: 60, 6: 182, 7: 546}


@pytest.mark.parametrize("label,D", sorted({(r["curve"], d) for r in BUNDLED_ROWS
                                            for d in (r["discriminant"], 1)}))
def test_kurihara_pollack_lambda(workbench, table_results, label, D):
    """lambda(theta_k) = q_k + lambda^sign in the X = gamma - 1 basis.

    A second route to every reported lambda: it shares the symbols and the
    element build with the table but none of the Garner lift, the content
    normalization or the Newton layer.  The sign is + at odd k and - at
    even k.  Level 1 is left out: the formula holds for k large enough,
    and some twisted targets have mu(theta_1) = 1.
    """
    prefix = "base" if D == 1 else "twist"
    row = next(r for r in table_results if r["curve"] == label
               and (D == 1 or r["discriminant"] == D))
    target = workbench.target(bundled_curve(label), D)
    checked = 0
    for sign in ("plus", "minus"):
        series = row["series"]["%s_%s" % (prefix, sign)]
        for k in series["levels"]:
            if k < 2:
                continue
            assert k % 2 == (sign == "plus"), (sign, k)
            x = taylor_shift(target.mazur_tate(k).coeffs, 1)
            vals = [vp(c, 3) for c in x]
            mu = min(v for v in vals if v is not None)
            lam = vals.index(mu)
            assert (mu, lam - KP_Q[k]) == (0, series["profile"]["lambda"]), \
                (label, D, sign, k)
            checked += 1
    assert checked >= 2
