"""Acceptance suite: one test per criterion, one printed line per criterion.

Exact tolerances throughout: integer and rational comparisons only.  The
expensive reconstructions are shared through the session-scoped workbench.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from thetapm import (BUNDLED_ROWS, REFERENCE_INVARIANTS, FrobeniusData,
                     IwasawaElement1, IwasawaElement2, ReductionData,
                     bundled_curve, build_space, extract_eigensymbol,
                     local_length_vertical, make_twisted_evaluator,
                     newton_invariants, pi_cyc, place_contribution, polys,
                     pushforward_c2)

from twovar import mul2


def report(num, name, detail=""):
    print("PASS criterion %d (%s)%s" % (num, name, ": " + detail if detail else ""))


# -- criterion 1: exact table reproduction -------------------------------------

def test_criterion_1_table_reproduction(table_results):
    assert len(table_results) == len(BUNDLED_ROWS) == 6
    for row in table_results:
        assert "error" not in row, row
        key = (row["curve"], row["discriminant"])
        expected = REFERENCE_INVARIANTS[key]
        diff = row["reference_diff"]
        assert diff["match"], (key, diff)
        for name in ("plus", "minus"):
            lam, slopes = expected[name]
            got = diff["detail"][name]["computed"]
            assert got["lambda"] == lam
            assert got["slopes"] == [[c, str(s)] for c, s in slopes]
    report(1, "table reproduction",
           "6 rows, lambda and root-valuation profiles match exactly")


# -- criterion 2: mu invariants vanish ---------------------------------------------

def test_criterion_2_mu_invariants(table_results):
    checked = 0
    for row in table_results:
        for name, series in row["series"].items():
            assert series["profile"]["mu"] == 0, (row["curve"], name)
            checked += 1
    assert checked == 24     # four series per row
    report(2, "mu invariants", "mu = 0 for all %d reconstructed series" % checked)


# -- criterion 3: unit condition for the base plus series ---------------------------

def test_criterion_3_unit_condition(base_series):
    for label in ("32a", "40a", "56a"):
        sp, _ = base_series[label]
        assert sp.profile.mu == 0 and sp.profile.lam == 0, label
        assert sp.is_stabilized()
    report(3, "unit condition", "lambda = mu = 0 for the three base plus series")


# -- criterion 4: coprimality and the deduction verdict ------------------------------

def test_criterion_4_coprimality_and_verdict(table_results):
    for row in table_results:
        cert = row["coprimality"]
        assert cert["method"] == "slope-disjoint", row["curve"]
        assert cert["verdict"] == "coprime"
        rep = row["conjecture_b"]
        assert rep["conditions"]["a"]["status"] == "holds"
        assert rep["conditions"]["b"]["status"] == "holds"
        assert rep["conditions"]["c"]["status"] == "holds"
        assert rep["verdict"].startswith("pseudo-null (verified"), rep["verdict"]
    report(4, "coprimality and deduction",
           "slope-disjoint certificates and pseudo-null verdicts on all rows")


# -- criterion 5: re-interpolation -----------------------------------------------

def test_criterion_5_reinterpolation(table_results, workbench):
    total = 0
    for row in table_results:
        for name, failures in row["reinterpolation_failures"].items():
            assert failures == [], (row["curve"], name)
            total += len(row["series"][name]["levels"])
    # a conjugate orbit representative gives the conjugate value (checked on
    # one deep series)
    from thetapm import interpolation_value
    tgt = workbench.target(bundled_curve("32a"), -43)
    v1 = interpolation_value(tgt, "-", 4, orbit_rep=1)
    v2 = interpolation_value(tgt, "-", 4, orbit_rep=2)
    assert v1.galois(2) == v2
    report(5, "re-interpolation",
           "%d character-orbit values reproduced exactly" % total)


# -- criterion 6: modular symbol property suite ----------------------------------

def test_criterion_6_modular_symbols():
    checks = []
    for N in (32, 40, 56):
        sp = build_space(N)
        look = sp.p1.lookup
        for i, (c, d) in enumerate(sp.generators):
            v = sp.gen_vector(i)
            vs = sp.gen_vector(look(d, -c))
            assert all(a + b == 0 for a, b in zip(v, vs))
            vt = sp.gen_vector(look(d, -c - d))
            vt2 = sp.gen_vector(look(-c - d, c))
            assert all(a + b + e == 0 for a, b, e in zip(v, vt, vt2))
    checks.append("Manin relations exact at levels 32, 40, 56")

    sp = build_space(32)
    curve = bundled_curve("32a")
    mats = {ell: sp.hecke_matrix(ell) for ell in (3, 5, 7, 11, 13, 17, 19)}

    def mul(A, B):
        n = len(A)
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    for l1 in (3, 5, 7):
        for l2 in (11, 13, 17, 19):
            assert mul(mats[l1], mats[l2]) == mul(mats[l2], mats[l1])
    checks.append("Hecke commutativity for ell, ell' <= 20")

    plus = extract_eigensymbol(sp, curve, +1)
    minus = extract_eigensymbol(sp, curve, -1)
    for sym in (plus, minus):
        w = [Fraction(sym.values_on_generators[g]) for g in sp.basis]
        for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            a = curve.ap(ell)
            T = mats.get(ell) or sp.hecke_matrix(ell)
            for i in range(sp.dim):
                assert sum(T[i][j] * w[j] for j in range(sp.dim)) == a * w[i]
    checks.append("eigensymbol residuals exactly zero for ell <= 50")

    vals = plus.values_on_generators
    table = sp.p1.table
    N = sp.level

    def negative_cf_value(a, m):
        g = gcd(a, m)
        a, m = a // g, m // g
        a %= m
        total = 0
        qm1, qj = 0, None
        x, y = a, m
        first = True
        while y:
            q0 = -((-x) // y)
            r = q0 * y - x
            x, y = y, r
            if first:
                qj = 1
                first = False
            else:
                qj, qm1 = q0 * qj - qm1, qj
            total -= vals[table[(qm1 % N) * N + qj % N]]
        return total
    ev = plus.evaluator()
    rng = random.Random(4242)
    for _ in range(100):
        m = rng.randint(2, 5000)
        a = rng.randint(0, m - 1)
        assert ev(a, m) == negative_cf_value(a, m)
    checks.append("path evaluation route-independent on 100 random a/m")

    tw = curve.quadratic_twist(-3)
    sp2 = build_space(tw.conductor)
    direct = extract_eigensymbol(sp2, tw, +1)
    dev = direct.evaluator()
    tev = make_twisted_evaluator(minus, -3)
    ratios = set()
    pairs = []
    for m in (5, 7, 11, 13):
        for a in range(1, m):
            x, y = tev(a, m), dev(a, m)
            pairs.append((x, y))
            if y:
                ratios.add(Fraction(x, y))
    assert len(ratios) == 1
    r = ratios.pop()
    assert all(Fraction(x) == r * y for x, y in pairs)
    checks.append("twisting oracle agrees with the direct twisted space "
                  "up to one global scalar")
    report(6, "modular symbol suite", "; ".join(checks))


# -- criterion 7: c2 oracle suite ---------------------------------------------------

def test_criterion_7_c2_oracles():
    p = 3

    def el2(terms):
        return IwasawaElement2.from_dict(p, {k: Fraction(v)
                                             for k, v in terms.items()})
    T_S = {(0, 1): 1, (1, 0): -1}
    hand_cases = [
        (el2({(0, 0): 3}), el2(T_S), T_S, 1),
        (el2({(0, 0): 9}), el2(T_S), T_S, 2),
        (el2({(0, 0): 27}), el2(T_S), T_S, 3),
        (el2({(0, 0): 3}), el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_S, 2),
        (el2({(0, 0): 9}), el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_S, 4),
        (el2({(0, 0): 3}), el2({(0, 3): 1}), {(0, 1): 1}, 3),
        (el2({(0, 0): 9}), el2({(0, 1): 1, (1, 1): 1}), {(0, 1): 1}, 2),
        (el2({(0, 0): 3}), el2({(1, 0): 1, (2, 0): 1}), {(1, 0): 1}, 1),
        (el2({(0, 0): 9}), el2({(2, 0): 1}), {(1, 0): 1}, 4),
        (el2({(0, 0): 3}), el2({(0, 1): 2, (1, 0): 1}), {(0, 1): 2, (1, 0): 1}, 1),
        (el2({(0, 0): 27}), el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_S, 6),
    ]
    for f, g, pbar, want in hand_cases:
        assert local_length_vertical((f, g), pbar) == want
    n_hand = len(hand_cases)

    res, div = pushforward_c2(el2(T_S), el2({(0, 1): 1, (1, 0): -1, (0, 0): -3}))
    assert div.pushforward["resultant_mu"] == 1
    assert div.pushforward["resultant_lambda"] == 0
    res, div = pushforward_c2(el2({(0, 1): 1}), el2({(1, 0): 1}))
    assert div.pushforward["resultant_lambda"] == 1
    horiz = [(d, m) for d, m in div.terms if d.kind == "horizontal"]
    assert horiz and horiz[0][0].generators == ("S", "T")
    res, div = pushforward_c2(el2({(0, 2): 1, (1, 0): -1}), el2(T_S))
    assert [c.as_fraction() for c in res.coeffs] == [0, -1, 1]

    rng = random.Random(20240809)
    pp = 5
    frob = FrobeniusData({(11, 0): (1, 0)})
    n_random = 0
    for _ in range(1000):
        kind = rng.choice(["good", "additive", "nonsplit-mult", "split-mult"])
        tate = rng.randint(1, 75) if kind.endswith("mult") else None
        place = ReductionData("synthetic", 11, "split", 0, 1, 1, kind, tate)
        terms, _ = place_contribution(place, pp, frob)
        assert bool(terms) == (kind == "split-mult" and tate % pp == 0)
        n_random += 1
    report(7, "c2 oracle suite",
           "%d hand filtration lengths, resultant pushforwards, %d randomized "
           "fudge criteria" % (n_hand, n_random))


# -- criterion 8: invariant algebra properties ----------------------------------------

def test_criterion_8_invariant_algebra():
    rng = random.Random(808)

    def rpoly(co):
        return IwasawaElement1.from_rationals(3, [Fraction(c) for c in co])

    def random_distinguished():
        lam = rng.randint(0, 4)
        co = [3 * rng.randint(-6, 6) for _ in range(lam)] + [1]
        if lam and co[0] == 0:
            co[0] = 3 * rng.choice([1, 2, -1])
        return co

    def random_unit(deg=3):
        return [rng.choice([1, 2, 4, 5, 7, 8])] + [rng.randint(-8, 8) for _ in range(deg)]

    def scaled(co, c):
        return [c * x for x in co]

    n = 0
    for _ in range(500):
        f = scaled(random_distinguished(), 3 ** rng.randint(0, 2))
        g = scaled(random_distinguished(), 3 ** rng.randint(0, 2))
        pf, pg, pr = (newton_invariants(rpoly(x)) for x in (f, g, polys.mul(f, g)))
        assert pr.mu == pf.mu + pg.mu and pr.lam == pf.lam + pg.lam
        merged = {}
        for c, s in list(pf.slopes) + list(pg.slopes):
            merged[s] = merged.get(s, 0) + c
        got = {}
        for c, s in pr.slopes:
            got[s] = got.get(s, 0) + c
        assert got == merged
        n += 1
    for _ in range(500):
        f = scaled(random_distinguished(), 3 ** rng.randint(0, 1))
        u = random_unit()
        pf, pfu = newton_invariants(rpoly(f)), newton_invariants(rpoly(polys.mul(f, u)))
        assert (pf.mu, pf.lam, pf.slopes) == (pfu.mu, pfu.lam, pfu.slopes)
        n += 1
    for _ in range(500):
        a = IwasawaElement2.from_dict(3, {(rng.randint(0, 3), rng.randint(0, 3)):
                                          Fraction(rng.randint(-5, 5))
                                          for _ in range(4)})
        b = IwasawaElement2.from_dict(3, {(rng.randint(0, 3), rng.randint(0, 3)):
                                          Fraction(rng.randint(-5, 5))
                                          for _ in range(4)})
        lhs = [c.as_fraction() for c in pi_cyc(mul2(a, b)).coeffs]
        rhs = polys.mul(pi_cyc(a).rationals(), pi_cyc(b).rationals())
        nn = max(len(lhs), len(rhs))
        lhs += [Fraction(0)] * (nn - len(lhs))
        rhs += [Fraction(0)] * (nn - len(rhs))
        assert lhs == rhs
        n += 1
    report(8, "invariant algebra",
           "%d randomized product/unit/specialization checks" % n)
