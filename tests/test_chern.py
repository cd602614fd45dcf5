import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetapm import (C2Divisor, CommonFactorWithinPrecision, CurveData,
                     FrobeniusData, InvalidArgument, IwasawaElement2,
                     NotPseudoNull, PrimeDescriptor, ReductionData,
                     UnsupportedShape, bundled_curve,
                     classify_reduction, fudge_c2, local_length_vertical,
                     place_contribution, pushforward_c2, theorem_ledger)
from thetapm.chern import S_TRUNC, _frobenius_divisor, binomial_series_mod_p
from thetapm.padics import vp

from ledger_oracle import frobenius_character_mod_p, vertical_divisor_mod_p
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


def test_length_s_term_of_high_degree_is_exact():
    # T + S^n is a unit at (3, T) for every n, however high its S-degree
    f = el2({(0, 0): 3})
    for n in (23, 24, 40):
        assert local_length_vertical((f, el2({(0, 1): 1, (n, 0): 1})), {(0, 1): 1}) == 0


@pytest.mark.parametrize("n", [24, 30])
def test_length_remainder_of_high_s_degree_is_kept(n):
    # T^n = S^n mod (T - S) and T is not in (3, T - S), so the length is 0
    f = el2({(0, 0): 3})
    assert local_length_vertical((f, el2({(0, n): 1})), T_MINUS_S) == 0


@pytest.mark.parametrize("a", [63, 64, 70])
def test_length_high_t_multiplicity_is_exact(a):
    f = el2({(0, 0): 3})
    assert local_length_vertical((f, el2({(0, a): 1})), {(0, 1): 1}) == a


@pytest.mark.parametrize("pbar", [{(0, 0): 1}, {(0, 0): 2, (0, 1): 1},
                                  {(0, 0): 1, (1, 0): 1}])
def test_length_rejects_unit_pbar(pbar):
    # a constant Pbar once sent the variable swap into endless recursion
    f = el2({(0, 0): 3})
    with pytest.raises(InvalidArgument, match="unit"):
        local_length_vertical((f, el2({(0, 1): 1})), pbar)


@pytest.mark.parametrize("pbar,var", [({(0, 1): 1, (0, 2): 1}, "T"),
                                      ({(1, 0): 1, (2, 0): 1}, "S"),
                                      ({(0, 1): 2, (1, 1): 1, (0, 2): 1}, "T")])
def test_length_rejects_pbar_not_distinguished(pbar, var):
    # T + T^2 = T(1 + T) spans the prime (p, T), of length 1 against (3, T),
    # but dividing by the whole of it once counted 0
    f = el2({(0, 0): 3})
    g = el2({(0, 1): 1}) if var == "T" else el2({(1, 0): 1})
    with pytest.raises(InvalidArgument, match="not distinguished in " + var):
        local_length_vertical((f, g), pbar)


@pytest.mark.parametrize("pbar", [{(0, 1): 1}, {(1, 0): 1}, {(1, 0): 1, (0, 2): 1},
                                  {(1, 0): 1, (1, 1): 1, (0, 2): 1}])
def test_length_accepts_distinguished_pbar(pbar):
    # lower coefficients divisible by S (T^2 + S, T^2 + ST + S) keep Pbar
    # distinguished in T
    f = el2({(0, 0): 3})
    assert local_length_vertical((f, el2(pbar)), pbar) == 1


@pytest.mark.parametrize("pbar,g", [({(0, 1): 1, (1, 1): 1}, {(0, 1): 1}),
                                    ({(1, 0): 1, (1, 1): 1}, {(1, 0): 1})])
def test_length_rejects_pbar_not_monic(pbar, g):
    # T + ST and S + ST are distinguished in T, but their T-leading row 1 + S
    # is not a unit, so no exact division by them counts a multiplicity
    f = el2({(0, 0): 3})
    with pytest.raises(UnsupportedShape, match="must be monic"):
        local_length_vertical((f, el2(g)), pbar)


def test_length_zero_generator_is_reported_before_the_monic_rule():
    with pytest.raises(NotPseudoNull, match="a generator is zero"):
        local_length_vertical((el2({}), el2({(0, 1): 1})), {(0, 1): 1, (1, 1): 1})


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
    assert res.rationals() == [0, -1, 1]
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


@pytest.mark.parametrize("ell", [0, 4, -5, 5.0])
def test_classify_rejects_an_ell_that_is_not_a_prime(ell):
    with pytest.raises(InvalidArgument):
        classify_reduction(bundled_curve("32a"), ell, -43)


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


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9, -3])
def test_fudge_refuses_a_p_that_is_not_an_odd_prime(p):
    # p = 1 once looped forever in vp(10, 1), and p = 0 divided by zero
    place = synthetic_place("split-mult", 10, ell=13)
    with pytest.raises(InvalidArgument, match="p must be an odd prime"):
        place_contribution(place, p)
    with pytest.raises(InvalidArgument, match="p must be an odd prime"):
        fudge_c2(bundled_curve("32a"), -43, p, [2])


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
    parts = vertical_divisor_mod_p(h, 5)
    assert len(parts) == 1
    desc, mult = parts[0]
    assert desc.generators[1] == "S" and mult == 1
    # mixed exponents: distinguished T-factor of degree one
    h2 = frobenius_character_mod_p(2, 1, 5, 12)
    parts2 = vertical_divisor_mod_p(h2, 5)
    assert sum(m for _, m in parts2) == 1
    assert all(d.resolved for d, _ in parts2)


# -- the Frobenius divisor in closed form ------------------------------------------

FROB_PRIMES = (3, 5, 7, 11)
FROB_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)


def series_label(label):
    """{(i, j): c} of a printed T-polynomial over F_p[S]."""
    out = {}
    for term in label.split(" + "):
        cs, j = term.rsplit("*T^", 1) if "*T^" in term else (term, "0")
        for mono in cs.strip("()").split("+"):
            c, has_s, i = mono.partition("S")
            out[(int(i.lstrip("^") or 1) if has_s else 0, int(j))] = int(c.rstrip("*") or 1)
    return out


def test_frobenius_divisor_matches_hensel_oracle_where_the_cut_is_harmless():
    # every (a, b) in [-30, 30]^2 with b prime to p, and b = 0 with
    # p^v_p(a) < S^S_TRUNC: the character cut at total degree S_TRUNC and
    # lifted S-adic digit by digit gives the same terms
    grid = range(-30, 31)
    for p in FROB_PRIMES:
        for a in grid:
            for b in grid:
                if b % p == 0 and (b or not a or p ** vp(a, p) >= S_TRUNC):
                    continue
                h = frobenius_character_mod_p(a, b, p, S_TRUNC)
                assert _frobenius_divisor(a, b, p) == vertical_divisor_mod_p(h, p), \
                    (p, a, b)


@FROB_SETTINGS
@given(st.sampled_from(FROB_PRIMES), st.integers(-30, 30), st.data())
def test_frobenius_divisor_matches_hensel_oracle_when_p_divides_b(p, a, data):
    # with d = p^v_p(b), a term S^i T^j with j > S_TRUNC * d is 0 mod
    # (W, S^S_TRUNC), so the oracle fed the character cut at total degree
    # S_TRUNC * (d + 1) and at S-degree S_TRUNC sees every term that counts
    b = data.draw(st.sampled_from([b for b in range(-30, 31) if b and b % p == 0]))
    d = p ** vp(b, p)
    h = frobenius_character_mod_p(a, b, p, S_TRUNC * (d + 1))
    h = {(i, j): c for (i, j), c in h.items() if i < S_TRUNC}
    assert _frobenius_divisor(a, b, p) == vertical_divisor_mod_p(h, p)


@FROB_SETTINGS
@given(st.sampled_from(FROB_PRIMES), st.integers(-130, 130),
       st.integers(-130, 130).filter(bool))
def test_frobenius_factor_annihilates_the_character(p, a, b):
    # W = T^d - beta read back from its label; mod p the character has
    # T-terms only in degrees divisible by d (Lucas), and T^d = beta makes
    # it vanish mod S^S_TRUNC
    d = p ** vp(b, p)
    (desc, mult), = _frobenius_divisor(a, b, p)
    assert mult == d and desc.resolved == (d == 1)
    W = series_label(desc.generators[1])
    assert W.pop((0, d)) == 1 and all(j == 0 and i >= 1 for i, j in W)
    beta = [-W.get((i, 0), 0) % p for i in range(S_TRUNC)]

    def mul(x, y):
        return [sum(x[k] * y[i - k] for k in range(i + 1)) % p for i in range(S_TRUNC)]

    B = binomial_series_mod_p(-b, p, S_TRUNC * d)
    assert not any(B[j] for j in range(len(B)) if j % d)
    total, power = [0] * S_TRUNC, [1] + [0] * (S_TRUNC - 1)
    for k in range(S_TRUNC):
        total = [(x + B[k * d] * y) % p for x, y in zip(total, power)]
        power = mul(power, beta)
    char = mul(binomial_series_mod_p(-a, p, S_TRUNC), total)
    assert char == [1] + [0] * (S_TRUNC - 1)


MINUS_BETA_1_5 = "+".join(["S"] + ["%sS^%d" % ("4*" if i % 2 == 0 else "", i)
                                   for i in range(2, S_TRUNC)])


@pytest.mark.parametrize("a,b,label,resolved,mult", [
    # the total-degree cut lost S^i T^5 with i + 5 > 24, and the lift
    # carried them into W: the S^5 coefficient read 2
    (1, 5, "(%s) + 1*T^5" % MINUS_BETA_1_5, False, 5),
    # T^25 lay past the cut: the T-factor was lost, (p, S) reported once
    (1, 25, "(%s) + 1*T^25" % MINUS_BETA_1_5, False, 25),
    # (1+S)^(-25) - 1 = -S^25 + ...: the cut series read as zero
    (25, 0, "S", True, 25),
])
def test_frobenius_divisor_regressions_at_p5(a, b, label, resolved, mult):
    want = [(PrimeDescriptor("vertical", ("p", label), resolved=resolved), mult)]
    assert _frobenius_divisor(a, b, 5) == want
    terms, _ = place_contribution(synthetic_place("split-mult", 25), 5,
                                  FrobeniusData({(11, 0): (a, b)}))
    assert terms == [(want[0][0], 2 * mult)]        # v_5(25) = 2


def test_frobenius_divisor_of_a_high_p_power_is_built_sparse():
    # W = T^(5^40) - beta, two nonzero T-columns, not 5^40 + 1 of them; beta
    # = (1+S)^(-1/3) - 1 depends on the unit part 3 of b alone
    (desc, mult), = _frobenius_divisor(1, 3 * 5 ** 40, 5)
    (unit_desc, _), = _frobenius_divisor(1, 3, 5)
    assert mult == 5 ** 40 and not desc.resolved
    assert desc.generators[1] == unit_desc.generators[1].replace(
        "1*T^1", "1*T^%d" % 5 ** 40)


def test_frobenius_divisor_of_the_trivial_character_raises():
    with pytest.raises(InvalidArgument, match="vanishes"):
        _frobenius_divisor(0, 0, 5)


# -- Frobenius files -----------------------------------------------------------------

@pytest.mark.parametrize("records", [
    [{"ell": 11, "exponents": [1.5, 0]}],
    [{"ell": 11, "exponents": [1, 0, 7]}],
    [{"ell": 11, "exponents": [1]}],
    [{"ell": 11, "exponents": [True, 0]}],
    [{"ell": 11, "exponents": "10"}],
    [{"ell": 5.7, "exponents": [1, 0]}],
    [{"ell": True, "exponents": [1, 0]}],
    [{"ell": 15, "exponents": [1, 0]}],
    [{"ell": "11", "exponents": [1, 0]}],
    [{"exponents": [1, 0]}],
    [{"ell": 11, "place": -1, "exponents": [1, 0]}],
    [{"ell": 11, "place": 0.0, "exponents": [1, 0]}],
    [{"ell": 11, "place": False, "exponents": [1, 0]}],
    [{"ell": 11, "exponents": [1, 0]}, {"ell": 11, "place": 0, "exponents": None}],
    [[11, 0, [1, 0]]],
])
def test_frobenius_records_rejected(records):
    with pytest.raises(InvalidArgument):
        FrobeniusData.from_records(records)


def test_frobenius_records_accepted():
    frob = FrobeniusData.from_records([
        {"ell": 11, "exponents": [1, -3]}, {"ell": 11, "place": 1, "exponents": None},
        {"ell": 13, "place": 0, "exponents": [0, 5]}])
    assert frob.entries == {(11, 0): (1, -3), (11, 1): None, (13, 0): (0, 5)}
    assert FrobeniusData.from_records(None).entries == {}
    assert FrobeniusData.from_records([]).entries == {}


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
    assert sum(m for _, m in a.terms) == 6


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
