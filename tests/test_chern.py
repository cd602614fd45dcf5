import random
from fractions import Fraction
from math import comb

import pytest

from thetapm import (C2Divisor, CommonFactorWithinPrecision, CurveData,
                     FrobeniusData, InvalidArgument, IwasawaElement2,
                     NotPseudoNull, PrimeDescriptor, ReductionData,
                     UnsupportedShape, bundled_curve, classify_reduction,
                     fudge_c2, local_length_vertical, place_contribution,
                     pushforward_c2, theorem_ledger, vertical_divisor_mod_p)
from thetapm.chern import binomial_series_mod_p, frobenius_character_mod_p

from twovar import mul2


def el2(terms, p=3):
    return IwasawaElement2.from_dict(p, {k: Fraction(v) for k, v in terms.items()})


T_MINUS_S = {(0, 1): 1, (1, 0): -1}


# -- local lengths ---------------------------------------------------------------

def test_length_residue_field():
    f = el2({(0, 0): 3})
    g = el2(T_MINUS_S)
    assert local_length_vertical((f, g), T_MINUS_S) == 1


def test_length_two_step_filtration():
    f = el2({(0, 0): 9})
    g = el2(T_MINUS_S)
    assert local_length_vertical((f, g), T_MINUS_S) == 2


def test_length_multiplicity_two():
    # (p, (T-S)^2 * unit)
    sq = {(0, 2): 1, (1, 1): -2, (2, 0): 1}
    unit_times = dict(sq)
    unit_times[(0, 2)] = 1
    g = mul2(el2(sq), el2({(0, 0): 1, (1, 0): 1}))
    f = el2({(0, 0): 3})
    assert local_length_vertical((f, g), T_MINUS_S) == 2


def test_length_hand_family():
    """v * multiplicity over the (p^v, h) family, ten hand-derived cases."""
    cases = [
        (1, el2(T_MINUS_S), T_MINUS_S, 1),
        (2, el2(T_MINUS_S), T_MINUS_S, 2),
        (3, el2(T_MINUS_S), T_MINUS_S, 3),
        (1, el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_MINUS_S, 2),
        (2, el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_MINUS_S, 4),
        (1, el2({(0, 3): 1}), {(0, 1): 1}, 3),           # Pbar = T, g = T^3
        (2, el2({(0, 1): 1, (1, 1): 1}), {(0, 1): 1}, 2),  # g = T(1+S)
        (1, el2({(1, 0): 1, (2, 0): 1}), {(1, 0): 1}, 1),  # Pbar = S, g = S(1+S)
        (2, el2({(2, 0): 1}), {(1, 0): 1}, 4),           # g = S^2
        (1, el2({(0, 1): 2, (1, 0): 1, (0, 2): 3}), {(0, 1): 2, (1, 0): 1}, 1),
    ]
    for v, g, pbar, want in cases:
        f = el2({(0, 0): 3 ** v})
        assert local_length_vertical((f, g), pbar) == want, (v, g, pbar)


def test_length_unit_ideal_is_zero():
    f = el2({(0, 0): 1, (0, 1): 3})     # unit at every vertical prime
    g = el2(T_MINUS_S)
    assert local_length_vertical((f, g), T_MINUS_S) == 0


def test_length_not_pseudo_null():
    f = el2({(0, 0): 3})
    g = el2({(0, 0): 9})
    with pytest.raises(NotPseudoNull):
        local_length_vertical((f, g), T_MINUS_S)


def test_length_elimination_fallback():
    # both generators divisible by Pbar mod p, but their difference is p
    f = el2({(0, 1): 1, (1, 0): -1})                  # T - S
    g = el2({(0, 1): 1, (1, 0): -1, (0, 0): 3})       # T - S + 3
    assert local_length_vertical((f, g), T_MINUS_S) == 1


def test_length_generator_outside_z_p_rejected():
    # 1/3 is not in Z_3[[S, T]]: an input error, never a negative length
    f = el2({(0, 0): Fraction(1, 3)})
    g = el2(T_MINUS_S)
    for ideal in ((f, g), (g, f)):
        with pytest.raises(InvalidArgument):
            local_length_vertical(ideal, T_MINUS_S)
    # a denominator prime to p is a unit of Z_p
    assert local_length_vertical((el2({(0, 0): Fraction(3, 2)}), g), T_MINUS_S) == 1


def test_length_unit_generator_outside_q():
    # (T, S) at (p, T-S): T is a unit in the localization, so length 0
    f = el2({(0, 1): 1})                  # T
    g = el2({(1, 0): 1})                  # S
    assert local_length_vertical((f, g), T_MINUS_S) == 0


def test_length_unsupported_shape():
    # both generators and their differences stay inside (p, T-S) mod p
    f = mul2(el2({(0, 1): 1, (1, 0): -1}), el2({(0, 0): 1, (1, 0): 1}))
    g = el2({(0, 2): 1, (1, 1): -2, (2, 0): 1, (0, 0): 9})
    with pytest.raises(UnsupportedShape):
        local_length_vertical((f, g), T_MINUS_S)


def test_length_brute_force_dimension_oracle():
    """Filtration lengths against raw F_p dimension counts.

    For Pbar = T and the ideal (p, T^a) the quotient truncated at S^d is the
    F_p-span of S^i T^j with i < d, j < a; the truncation provably does not
    meet the ideal, so dim = a*d and the local length is a.
    """
    p = 3
    for a in (1, 2, 3):
        for d in (2, 4):
            monomials = [(i, j) for i in range(d) for j in range(a + 2)]
            # reduce T^j for j >= a to zero; dimension = count of survivors
            dim = sum(1 for (i, j) in monomials if j < a)
            assert dim == a * d
            f = el2({(0, 0): p})
            g = el2({(0, a): 1})
            assert local_length_vertical((f, g), {(0, 1): 1}) == a == dim // d


# -- pushforward -------------------------------------------------------------------

def test_pushforward_p_divisor():
    f = el2(T_MINUS_S)
    g = el2({(0, 1): 1, (1, 0): -1, (0, 0): -3})
    res, div = pushforward_c2(f, g)
    assert div.pushforward["resultant_mu"] == 1
    assert div.pushforward["resultant_lambda"] == 0
    assert any(d.kind == "vertical" for d, _ in div.terms)


def test_pushforward_origin_fiber():
    f = el2({(0, 1): 1})        # T
    g = el2({(1, 0): 1})        # S
    res, div = pushforward_c2(f, g)
    assert div.pushforward["resultant_lambda"] == 1
    horiz = [(d, m) for d, m in div.terms if d.kind == "horizontal"]
    assert len(horiz) == 1
    d, m = horiz[0]
    assert m == 1 and d.fiber_degree == 1 and d.resolved
    assert d.generators == ("S", "T")


def test_pushforward_split_divisor_with_unit_part():
    f = el2({(0, 2): 1, (1, 0): -1})     # T^2 - S
    g = el2(T_MINUS_S)                   # T - S
    res, div = pushforward_c2(f, g)
    assert [c.as_fraction() for c in res.coeffs] == [0, -1, 1]
    assert div.pushforward["resultant_lambda"] == 1
    assert any("unit part" in n for n in div.notes)


def test_pushforward_degree_sum_on_split_examples():
    # lambda(res) equals total (length x fiber degree) on resolved cases
    f = el2({(0, 1): 1})
    g = el2({(2, 0): 1})                 # S^2: double fiber over the origin
    res, div = pushforward_c2(f, g)
    lam = div.pushforward["resultant_lambda"]
    total = sum(m * d.fiber_degree for d, m in div.terms
                if d.kind == "horizontal" and d.resolved)
    assert lam == total == 2


def test_pushforward_common_factor_rejected():
    f = el2(T_MINUS_S)
    with pytest.raises(CommonFactorWithinPrecision):
        pushforward_c2(f, f)


# -- reduction classification -------------------------------------------------------

def test_classify_good_at_ramified():
    places = classify_reduction(bundled_curve("32a"), 43, -43)
    assert len(places) == 1
    assert places[0].place_structure == "ramified"
    assert places[0].kind == "good"


def test_classify_multiplicative_places():
    c = bundled_curve("40a")
    for D in (-43, -107):
        for pl in classify_reduction(c, 5, D):
            assert pl.kind in ("split-mult", "nonsplit-mult")
            assert pl.tate_valuation == pl.ramification * 2


def test_classify_nonsplit_becomes_split_when_inert():
    c = CurveData("11a3", (0, -1, 1, 0, 0), 11)
    from thetapm import local_reduction_type
    base = local_reduction_type(c, 11)
    # pick a field where 11 is inert
    for D in (-3, -4, -7, -8, -19, -23):
        from thetapm import kronecker_symbol
        if kronecker_symbol(D, 11) == -1:
            pl = classify_reduction(c, 11, D)[0]
            assert pl.place_structure == "inert"
            if base.kind == "nonsplit-mult":
                assert pl.kind == "split-mult"
            else:
                assert pl.kind == base.kind
            break


def test_classify_additive_at_two_unramified():
    c = bundled_curve("32a")
    for D in (-43, -107):
        for pl in classify_reduction(c, 2, D):
            assert pl.kind == "additive"


def test_classify_rejects_ell_equal_p():
    with pytest.raises(InvalidArgument):
        classify_reduction(bundled_curve("32a"), 3, -43, p=3)


# -- fudge factors ---------------------------------------------------------------

def synthetic_place(kind, tate=None, ell=11, structure="split"):
    return ReductionData("synthetic", ell, structure, 0, 1, 1, kind, tate)


def test_fudge_criterion_randomized():
    """Nonzero contribution exactly for split-mult places with p | ord(q)."""
    rng = random.Random(2024)
    p = 5
    frob = FrobeniusData({(11, 0): (1, 0)})
    kinds = ["good", "additive", "nonsplit-mult", "split-mult"]
    nonzero = 0
    for _ in range(1000):
        kind = rng.choice(kinds)
        tate = rng.randint(1, 60) if kind.endswith("mult") else None
        place = synthetic_place(kind, tate)
        terms, entry = place_contribution(place, p, frob)
        expect = kind == "split-mult" and tate % p == 0
        assert bool(terms) == expect, (kind, tate, entry)
        if terms:
            nonzero += 1
            from thetapm.padics import vp
            assert sum(m for _, m in terms) >= vp(tate, p)
    assert nonzero > 0


def test_fudge_split_place_resolved_descriptor():
    # ord(q) = 5, p = 5, frobenius exponents (1, 0): one (p, S)-class of length 1
    p = 5
    place = synthetic_place("split-mult", 5)
    frob = FrobeniusData({(11, 0): (1, 0)})
    terms, entry = place_contribution(place, p, frob)
    assert len(terms) == 1
    desc, mult = terms[0]
    assert desc.kind == "vertical" and mult == 1
    assert desc.generators[1] == "S"


def test_fudge_split_place_seven_is_zero():
    p = 5
    place = synthetic_place("split-mult", 7)
    terms, entry = place_contribution(place, p, FrobeniusData())
    assert terms == [] and entry["contribution"] == "zero"


def test_fudge_missing_frobenius_flagged():
    p = 5
    place = synthetic_place("split-mult", 25)
    terms, entry = place_contribution(place, p, FrobeniusData())
    assert len(terms) == 1
    desc, mult = terms[0]
    assert not desc.resolved and mult == 2      # v_5(25) = 2


def test_binomial_series_mod_p_matches_comb():
    # binom(c, i) = (-1)^i binom(i - c - 1, i) for negative c
    for p in (3, 5, 7):
        for c in range(-12, 13):
            want = [(comb(c, i) if c >= 0 else (-1) ** i * comb(i - c - 1, i)) % p
                    for i in range(20)]
            assert binomial_series_mod_p(c, p, 20) == want, (c, p)


def test_frobenius_character_divisor():
    # (1+S)^(-1) - 1 = -S + ... : a single (p, S) with multiplicity one
    h = frobenius_character_mod_p(1, 0, 5, 12)
    parts = vertical_divisor_mod_p(h, 5, 12)
    assert len(parts) == 1
    desc, mult = parts[0]
    assert desc.generators[1] == "S" and mult == 1
    # mixed exponents: distinguished T-factor of degree one
    h2 = frobenius_character_mod_p(2, 1, 5, 12)
    parts2 = vertical_divisor_mod_p(h2, 5, 12)
    assert sum(m for _, m in parts2) == 1
    assert all(d.resolved for d, _ in parts2)


def test_fudge_full_run_good_places():
    c = bundled_curve("32a")
    divisor, ledger = fudge_c2(c, -43, 5, [43])
    assert divisor.is_zero()
    assert all(e.get("contribution") == "zero" for e in ledger["places"]
               if "place" in e)


def test_fudge_empty_sigma_zero_divisor():
    divisor, ledger = fudge_c2(bundled_curve("32a"), -43, 5, [])
    assert divisor.is_zero()


def test_fudge_p3_flagged():
    divisor, ledger = fudge_c2(bundled_curve("32a"), -43, 3, [2])
    assert any("p >= 5" in f for f in ledger["flags"])


def test_fudge_reduction_ledger_32a_minus43_sigma2():
    c = bundled_curve("32a")
    divisor, ledger = fudge_c2(c, -43, 5, [2])
    entries = [e for e in ledger["places"] if "place" in e]
    assert entries, "2-adic places missing"
    for e in entries:
        assert e["place"]["type"] == "additive"
        assert e["contribution"] == "zero"


# -- divisor algebra and the ledger ---------------------------------------------

def test_divisor_additivity_merge():
    a = C2Divisor()
    d1 = PrimeDescriptor("vertical", ("p", "S"))
    d2 = PrimeDescriptor("vertical", ("p", "T"))
    a.add(d1, 2)
    b = C2Divisor()
    b.add(d1, 3)
    b.add(d2, 1)
    a.merge(b)
    as_map = {d: m for d, m in a.terms}
    assert as_map[d1] == 5 and as_map[d2] == 1
    assert a.total_multiplicity() == 6


def test_divisor_rejects_negative_multiplicity():
    with pytest.raises(InvalidArgument):
        C2Divisor().add(PrimeDescriptor("vertical", ("p", "S")), -1)


def test_theorem_ledger_fudge_only():
    div, rep = fudge_c2(bundled_curve("32a"), -43, 5, [43])
    led = theorem_ledger(fudge_divisor=div, fudge_report=rep)
    assert led["lhs"]["status"] == "absent"
    assert led["rhs"]["c2_Z"]["status"] == "out-of-scope"
    assert led["rhs"]["c2_Z_star"]["status"] == "out-of-scope"
    assert "local fudge contributions" in led["verified"][0]


def test_theorem_ledger_with_shadow(series_32a_43):
    from thetapm import coprime_certificate
    Tp, Tm = series_32a_43
    cert = coprime_certificate(Tp, Tm)
    led = theorem_ledger(coprimality_shadow=cert)
    assert led["lhs"]["status"] == "shadow"
    assert "pseudo-null" in led["lhs"]["note"]


def test_theorem_ledger_empty_is_valid():
    led = theorem_ledger()
    assert led["lhs"]["status"] == "absent"
    assert led["rhs"]["fudge"] is None
    assert led["out_of_scope"] == ["c2(Z)", "c2(Z*)"]
