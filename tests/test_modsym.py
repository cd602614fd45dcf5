import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from thetapm import (CurveData, EigenSymbol, InvalidArgument, IsolationFailure,
                     ResourceLimit, RunConfig, ThetaTarget, Workbench,
                     build_space, bundled_curve, extract_eigensymbol,
                     make_twisted_evaluator)
from thetapm.cache import store_symbol
from thetapm.modsym import ManinSymbolSpace, P1Table, _echelon, _nullspace

import modsym_oracle
from p1_oracle import normalize


# -- P1 and the quotient space -----------------------------------------------

def test_p1_sizes():
    assert len(P1Table(32)) == 48
    assert len(P1Table(11)) == 12
    assert len(P1Table(1)) == 1
    assert len(P1Table(40)) == 72
    assert len(P1Table(56)) == 96


def test_p1_normalize_agrees_with_brute_force():
    """The orbit-enumerated table against the normalization oracle: every
    point at the small levels, and above level 600 every representative
    plus a fixed sample of points."""
    for N in (12, 24, 32, 36, 40, 45, 49, 56):
        t = P1Table(N)
        for c in range(N):
            for d in range(N):
                if gcd(gcd(c, d), N) != 1:
                    assert t.table[c * N + d] == -1
                    continue
                assert t.reps[t.table[c * N + d]] == normalize(N, c, d)
    N = 900
    t = P1Table(N)
    assert len(t) == 2160
    assert t.reps == sorted(normalize(N, c, d) for c, d in t.reps)
    rng = random.Random(900)
    for _ in range(5000):
        c, d = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(c, d), N) != 1:
            assert t.table[c * N + d] == -1
        else:
            assert t.reps[t.table[c * N + d]] == normalize(N, c, d)


def test_level_bound():
    with pytest.raises(ResourceLimit):
        P1Table(10 ** 4 + 1)


def test_space_dimensions():
    assert build_space(32).dim == 9
    assert build_space(11).dim == 3


def test_quotient_denominator_from_pivot_coefficients():
    """A relation whose pivot coefficient is not one gives the space a
    denominator: 2 x_2 + x_0 = 0 and 3 x_3 = x_1 make x_2 = -x_0 / 2 and
    x_3 = x_1 / 3, so den = 6.  The Manin relations of the bundled levels
    leave den = 1, so the relations here are built by hand."""
    basis, den, reduction = _echelon(
        [{0: 1, 2: 2}, {3: 3, 1: -1}, {2: 4, 0: 2}], 4)
    assert (basis, den) == ([0, 1], 6)
    assert reduction == [[(0, 6)], [(1, 6)], [(0, -3)], [(1, 2)]]


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 8 x 8, entries -9..9, some rows integer
    combinations of the others, so that the rank can fall short."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m)) if m > 1 else ():
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        coeffs[i] = 0
        rows[i] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    return rows, n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_matrices())
def test_nullspace_matches_dense_oracle(matrix):
    """The cuts' view of the sparse echelon form is the dense leftmost-pivot
    elimination it replaced: the same free columns and kernel vectors, each
    primitive, in the kernel, positive at its free column and zero at the
    other free columns."""
    rows, n = matrix
    free, vectors = _nullspace(rows, n)
    assert (free, vectors) == modsym_oracle.dense_nullspace(rows, n)
    for fc, v in zip(free, vectors):
        assert gcd(*v) == 1
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows)
        assert v[fc] > 0
        assert all(v[c] == 0 for c in free if c != fc)


def test_manin_relations_hold_in_quotient():
    sp = build_space(32)
    N = sp.level
    look = sp.p1.lookup
    dim = sp.dim
    for i, (c, d) in enumerate(sp.generators):
        v = sp.gen_vector(i)
        vs = sp.gen_vector(look(d, -c))
        assert all(a + b == 0 for a, b in zip(v, vs)), "S relation fails"
        vt = sp.gen_vector(look(d, -c - d))
        vt2 = sp.gen_vector(look(-c - d, c))
        assert all(a + b + e == 0 for a, b, e in zip(v, vt, vt2)), "T relation fails"


def test_hecke_commutativity_up_to_20():
    sp = build_space(32)
    mats = {}
    for ell in (3, 5, 7, 11, 13, 17, 19):
        mats[ell] = sp.hecke_matrix(ell)

    def mul(A, B):
        n = len(A)
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
    for l1 in (3, 5, 7):
        for l2 in (11, 13, 17, 19):
            assert mul(mats[l1], mats[l2]) == mul(mats[l2], mats[l1])


# -- eigensymbols ----------------------------------------------------------------

def test_extract_eigensymbol_hecke_residuals_exact():
    sp = build_space(32)
    c = bundled_curve("32a")
    for sign in (1, -1):
        sym = extract_eigensymbol(sp, c, sign)
        assert all(isinstance(v, int) for v in sym.values_on_generators)
        from functools import reduce
        assert reduce(gcd, sym.values_on_generators) == 1
        w = [sym.values_on_generators[g] for g in sp.basis]
        # residuals (T_ell - a_ell) w = 0 exactly for all good ell <= 50;
        # the integer T_ell is scaled by the space's denominator
        for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            a = c.ap(ell)
            T = sp.hecke_matrix(ell)
            for i in range(sp.dim):
                assert sum(T[i][j] * w[j] for j in range(sp.dim)) == sp.den * a * w[i]


def test_eigensymbol_star_action():
    sp = build_space(32)
    c = bundled_curve("32a")
    sym = extract_eigensymbol(sp, c, -1)
    J = sp.star_matrix()
    w = [sym.values_on_generators[g] for g in sp.basis]
    for i in range(sp.dim):
        assert sum(J[i][j] * w[j] for j in range(sp.dim)) == -sp.den * w[i]


def test_eigensymbol_level_11():
    sp = build_space(11)
    c = CurveData("11a1", (0, -1, 1, -10, -20), 11)
    plus = extract_eigensymbol(sp, c, +1)
    minus = extract_eigensymbol(sp, c, -1)
    assert plus.values_on_generators != minus.values_on_generators


def test_isolation_failure_is_loud():
    sp = build_space(32)
    fake = CurveData("fake32", (0, 0, 0, -1, 0), 32)
    fake.ap_cache = {ell: 99 for ell in range(2, 100)}
    with pytest.raises((IsolationFailure, InvalidArgument)):
        extract_eigensymbol(sp, fake, +1)


# -- the integer path against the Fraction oracle ------------------------------------

ORACLE_CURVES = [bundled_curve(label) for label in ("32a", "40a", "56a")] + [
    CurveData("11a1", (0, -1, 1, -10, -20), 11),
    CurveData("37a1", (0, 0, 1, -1, 0), 37),
    CurveData("131a1", (0, -1, 1, 1, 0), 131)]


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda c: c.label)
def test_integer_extraction_matches_fraction_oracle(curve):
    """Same basis, the same classes and matrices up to the denominator, and
    the same symbols of both signs, normalization content included."""
    sp = build_space(curve.conductor)
    osp = modsym_oracle.ManinSymbolSpace(curve.conductor)
    assert sp.basis == osp.basis

    def scaled(rows):
        return [[Fraction(x, sp.den) for x in row] for row in rows]
    assert scaled(sp.gen_vector(i) for i in range(len(sp.generators))) == [
        osp.gen_vector(i) for i in range(len(osp.generators))]
    assert scaled(sp.star_matrix()) == osp.star_matrix()
    for sign in (1, -1):
        sym = extract_eigensymbol(sp, curve, sign)
        assert sym.to_dict() == modsym_oracle.extract_eigensymbol(
            osp, curve, sign).to_dict()
        for ell, _ in sym.ap_certificate:
            assert scaled(sp.hecke_matrix(ell)) == osp.hecke_matrix(ell)


@pytest.mark.parametrize("N", range(11, 120))
def test_hecke_matrices_match_fraction_oracle(N):
    """The SL2 lift by a modular inverse differs from the oracle's
    extended-gcd lift by an integer translation, which Gamma_0(N) absorbs:
    the same lower row, and the same T_ell at every small good prime."""
    sp = build_space(N)
    osp = modsym_oracle.ManinSymbolSpace(N)
    for c, d in sp.generators:
        a, b, c0, d0 = sp._lift_to_sl2(c, d)
        assert a * d0 - b * c0 == 1
        assert (c0, d0) == osp._lift_to_sl2(c, d)[2:]
    for ell in (2, 3, 5, 7, 11, 13):
        if N % ell:
            assert [[Fraction(x, sp.den) for x in row] for row in sp.hecke_matrix(ell)] \
                == osp.hecke_matrix(ell), ell


def test_oracle_cache_entry_loads_from_disk(tmp_path):
    c = bundled_curve("56a")
    osp = modsym_oracle.ManinSymbolSpace(c.conductor)
    want = {}
    for sign in (1, -1):
        sym = modsym_oracle.extract_eigensymbol(osp, c, sign)
        store_symbol(str(tmp_path), sym)
        want[sign] = sym.to_dict()
    wb = Workbench(RunConfig(cache_dir=str(tmp_path)))
    for sign in (1, -1):
        sym, source = wb.symbol(c, sign)
        assert source == "disk"
        assert sym.to_dict() == want[sign]


def test_hecke_matrix_built_once_per_space(tmp_path, monkeypatch):
    """Both signs and the check of a cached symbol share each T_ell."""
    built = []
    original = ManinSymbolSpace._build_hecke

    def spy(space, ell):
        built.append((id(space), ell))
        return original(space, ell)
    monkeypatch.setattr(ManinSymbolSpace, "_build_hecke", spy)
    c = bundled_curve("40a")
    wb = Workbench(RunConfig(cache_dir=str(tmp_path)))
    sp = wb.space(c.conductor)
    plus = extract_eigensymbol(sp, c, +1)
    minus = extract_eigensymbol(sp, c, -1)
    store_symbol(str(tmp_path), plus)
    assert wb.symbol(c, +1)[1] == "disk"
    ells = {ell for ell, _ in plus.ap_certificate + minus.ap_certificate}
    assert sorted(built) == sorted((id(sp), ell) for ell in ells | {wb.config.p})


# -- path evaluation ---------------------------------------------------------------

@pytest.fixture(scope="module")
def sym32():
    sp = build_space(32)
    c = bundled_curve("32a")
    return (extract_eigensymbol(sp, c, +1), extract_eigensymbol(sp, c, -1), c, sp)


def test_parity_of_path_values(sym32):
    plus, minus, _, _ = sym32
    evp = plus.evaluator()
    evm = minus.evaluator()
    for (a, m) in [(1, 5), (2, 7), (4, 9), (3, 25), (11, 49)]:
        assert evm(a, m) + evm(m - a, m) == 0
        assert evp(a, m) == evp(m - a, m)


def test_hecke_consistency_on_paths(sym32):
    plus, minus, c, _ = sym32
    for sym in (plus, minus):
        ev = sym.evaluator()
        for (a, m, ell) in [(1, 5, 3), (2, 7, 5), (3, 11, 7), (1, 25, 3),
                            (4, 13, 3)]:
            ae = c.ap(ell)
            s = sum(ev(a + b * m, ell * m) for b in range(ell)) + ev(ell * a, m)
            assert s == ae * ev(a, m)


def test_route_independence_negative_cf(sym32):
    """Same path value from the plus and minus continued-fraction chains."""
    plus, _, _, sp = sym32
    vals = plus.values_on_generators
    N = sp.level
    table = sp.p1.table

    def negative_cf_value(a, m):
        # chain of convergents with ceiling quotients: consecutive dets -1
        g = gcd(a, m)
        a, m = a // g, m // g
        a %= m
        total = 0
        pm1, qm1 = 1, 0
        pj = qj = None
        x, y = a, m
        first = True
        while y:
            q0 = -((-x) // y)            # ceil
            r = q0 * y - x
            x, y = y, r
            if first:
                pj, qj = q0, 1
                first = False
            else:
                pj, qj, pm1, qm1 = q0 * pj - pm1, q0 * qj - qm1, pj, qj
            # segment {prev, cur} with det -1: equals -symbol(q_{j-1}: q_j)
            total -= vals[table[(qm1 % N) * N + qj % N]]
        return total

    ev = plus.evaluator()
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(2, 4000)
        a = rng.randint(0, m - 1)
        assert ev(a, m) == negative_cf_value(a, m), (a, m)


def _single_step_path_value(symbol, x, m):
    """The evaluator's original loop: one Euclid step and a sign flip per
    turn, full convergent denominators, every generator looked up in the
    P^1 table."""
    N = symbol.level
    table = symbol._space.p1.table
    vals = symbol.values_on_generators
    if m < 0:
        x, m = -x, -m
    if m == 0:
        return 0
    g = gcd(x, m)
    if g > 1:
        x //= g
        m //= g
    xx = x % m if m > 1 else 0
    yy = m
    qm1 = 0
    qj = 1
    sign = -1
    first = True
    total = 0
    while yy:
        q0, r = divmod(xx, yy)
        xx, yy = yy, r
        if first:
            qj = 1
            first = False
        else:
            qj, qm1 = q0 * qj + qm1, qj
        total += vals[table[((sign * qj) % N) * N + qm1 % N]]
        sign = -sign
    return total


@pytest.mark.parametrize("label", ["32a", "40a", "56a", "11a"])
def test_evaluator_matches_single_step_loop(label, sym32):
    if label == "32a":
        symbols = sym32[:2]
    elif label == "11a":
        c11 = CurveData("11a", (0, -1, 1, -10, -20), 11)
        symbols = tuple(extract_eigensymbol(build_space(11), c11, s)
                        for s in (1, -1))
    else:
        c = bundled_curve(label)
        sp = build_space(c.conductor)
        symbols = tuple(extract_eigensymbol(sp, c, s) for s in (1, -1))
    rng = random.Random(label)
    cases = [(0, 1), (5, 1), (-7, 1), (3, 0), (0, 0), (-4, 0), (6, 4),
             (-6, -4), (12, 18), (1, -1), (0, -9)]
    for _ in range(600):
        m = rng.choice([rng.randint(-60, 60), rng.randint(-10 ** 6, 10 ** 6)])
        x = rng.randint(-3 * abs(m) - 5, 3 * abs(m) + 5)
        f = rng.choice([1, 1, 2, 3, 9, 4, 35])
        cases.append((x * f, m * f))                  # non-reduced fractions
    for sym in symbols:
        ev = sym.evaluator()
        for x, m in cases:
            assert ev(x, m) == _single_step_path_value(sym, x, m), (label, x, m)


@pytest.fixture(scope="module")
def oracle_pairs(sym32):
    """(evaluator, oracle evaluator, symbol) per level and sign."""
    curves = {11: CurveData("11a1", (0, -1, 1, -10, -20), 11),
              40: bundled_curve("40a"), 56: bundled_curve("56a")}
    symbols = {32: sym32[:2]}
    for N, c in curves.items():
        sp = build_space(N)
        symbols[N] = tuple(extract_eigensymbol(sp, c, s) for s in (1, -1))
    return {(N, sym.sign): (sym.evaluator(), modsym_oracle.evaluator(sym), sym)
            for N, pair in symbols.items() for sym in pair}


@st.composite
def paths(draw):
    """(x, m) with |m| <= 10^12, x often a multiple of m, and both scaled
    by a common factor now and then, so the fraction is not reduced."""
    m = draw(st.one_of(st.sampled_from([0, 1, -1]),
                       st.integers(-10 ** 12, 10 ** 12)))
    if draw(st.booleans()):
        x = draw(st.integers(-3, 3)) * m
    else:
        x = draw(st.integers(-10 ** 13, 10 ** 13))
    g = draw(st.sampled_from([1, 1, 2, 3, 9, 35, 10 ** 6 + 3]))
    return x * g, m * g


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(N, s) for N in (11, 32, 40, 56) for s in (1, -1)]),
       paths())
def test_evaluator_matches_oracle(oracle_pairs, key, path):
    """The row-table walk against the gcd-reducing, divmod, flat-table
    evaluator it replaced, at levels 11, 32, 40 and 56, both signs."""
    ev, oracle, _ = oracle_pairs[key]
    assert ev(*path) == oracle(*path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(N, s) for N in (11, 32, 40, 56) for s in (1, -1)]),
       st.sampled_from([-3, -4, -43, -107, 5, 8, 12]), paths())
def test_twisted_evaluator_matches_oracle(oracle_pairs, key, D, path):
    """The listed-term Birch sum against the per-term scan it replaced; a
    denominator sharing a factor with D is refused by both."""
    sym = oracle_pairs[key][2]
    tev = make_twisted_evaluator(sym, D)
    oracle = modsym_oracle.twisted_evaluator(sym, D)
    if gcd(D, path[1]) != 1:
        for f in (tev, oracle):
            with pytest.raises(InvalidArgument):
                f(*path)
    else:
        assert tev(*path) == oracle(*path)


def test_twisted_evaluator_at_trivial_discriminant_is_the_evaluator(sym32):
    """D = 1: the Birch sum has the one term u = 0, chi(0) = 1."""
    for sym in sym32[:2]:
        ev = sym.evaluator()
        tev = make_twisted_evaluator(sym, 1)
        cases = [(a, m) for m in (0, 1, 2, 7, 9, 27, 81, -5, 10 ** 9 + 7)
                 for a in range(-3, 12)]
        assert [tev(a, m) for a, m in cases] == [ev(a, m) for a, m in cases]
        assert any(ev(a, m) for a, m in cases)
    assert [make_twisted_evaluator(sym32[0], 1)(a, 7) for a in range(1, 7)] \
        == [-1, -1, 3, 3, -1, -1]


def test_relations_vanish_detects_altered_values(sym32):
    plus, minus, c, sp = sym32
    for sym in (plus, minus):
        record = sym.to_dict()
        assert EigenSymbol.from_record(sp, c, record, 3).to_dict() == record
        doubled = [2 * v if i % 3 == 0 else v for i, v in enumerate(record["values"])]
        assert EigenSymbol.from_record(sp, c, record | {"values": doubled}, 3) is None


def test_birch_coherence_between_normalizations(sym32):
    # scaling the symbol scales every character sum by exactly that ratio
    plus, _, _, sp = sym32
    scaled = [7 * v for v in plus.values_on_generators]
    ev1 = plus.evaluator()
    N = sp.level
    table = sp.p1.table

    class Dummy:
        level = N
        values_on_generators = scaled
        _space = sp
    ev2 = type(plus).evaluator(Dummy)
    q = 27
    for t in range(1, 4):
        s1 = sum(ev1(a, q) for a in range(1, q, t + 1))
        s2 = sum(ev2(a, q) for a in range(1, q, t + 1))
        assert s2 == 7 * s1


# -- twisting ---------------------------------------------------------------------

def test_twist_identity_discriminant(sym32):
    """The untwisted target's family is the plus symbol's path values."""
    plus, minus, c, _ = sym32
    fv = ThetaTarget(c, 3, 1, plus_symbol=plus, minus_symbol=minus).family_value
    ev = plus.evaluator()
    for n in range(1, 5):
        q = 3 ** (n + 1)
        assert [fv(a, q) for a in range(q)] == [ev(a, q) for a in range(q)]


def test_twist_rejects_bad_inputs(sym32):
    plus, minus, _, _ = sym32
    with pytest.raises(InvalidArgument):
        make_twisted_evaluator(minus, -6)               # not fundamental
    with pytest.raises(InvalidArgument):
        make_twisted_evaluator(minus, -43)(1, 86)       # gcd(D, m) != 1


def test_twist_agrees_with_direct_twisted_space(sym32):
    """Birch sums versus the directly-built eigensymbol of the twisted curve.

    The two value families must agree up to a single global rational scalar
    per sign (D = -3: twisted conductor 288 is small enough to build).
    """
    plus, minus, c, _ = sym32
    tw = c.quadratic_twist(-3)
    sp2 = build_space(tw.conductor)
    direct_plus = extract_eigensymbol(sp2, tw, +1)
    dev = direct_plus.evaluator()
    tev = make_twisted_evaluator(minus, -3)    # twisted plus from base minus
    paths = [(a, m) for m in (5, 7, 11, 13, 35) for a in range(1, m)
             if gcd(a, m) == 1]
    ratios = set()
    pairs = []
    for a, m in paths:
        x, y = tev(a, m), dev(a, m)
        pairs.append((x, y))
        if y != 0:
            ratios.add(Fraction(x, y))
    assert len(ratios) == 1, "global scalar is not constant: %s" % ratios
    r = ratios.pop()
    assert r != 0
    for x, y in pairs:
        assert Fraction(x) == r * y


def test_twist_twice_composition_law(sym32):
    """Double Birch sum folds back onto the base symbol.

    Composing the twist sum with itself telescopes, after the Jacobi-sum
    evaluation for a quadratic character, to
        chi(-1) * (q * [a/m] - a_q * [aq/m] + [a q^2 / m]),
    the base family hit by the q-Euler factor.  Up to that Euler factor the
    double twist is the base family again; the raw double sum itself is
    compared here against the closed form, exactly.
    """
    plus, minus, c, _ = sym32
    D = -43
    q = -D
    from thetapm import kronecker_symbol
    chi = [kronecker_symbol(D, u) for u in range(q)]
    ev = minus.evaluator()

    def double_twist(a, m):
        total = 0
        for u2 in range(1, q):
            if not chi[u2]:
                continue
            x = a * q + u2 * m       # inner argument over denominator m q
            for u1 in range(1, q):
                if chi[u1]:
                    total += chi[u1] * chi[u2] * ev(x * q + u1 * m * q,
                                                    m * q * q)
        return total

    aq = c.ap(q)
    chi_m1 = chi[q - 1]
    for (a, m) in [(1, 5), (2, 7), (3, 8)]:
        got = double_twist(a, m)
        want = chi_m1 * (q * ev(a, m) - aq * ev(a * q, m) + ev(a * q * q, m))
        assert got == want, (a, m, got, want)


def test_twisted_hecke_consistency(sym32):
    plus, minus, c, _ = sym32
    D = -43
    tev = make_twisted_evaluator(minus, D)
    from thetapm import kronecker_symbol
    tw_ap = lambda ell: kronecker_symbol(D, ell) * c.ap(ell)
    for (a, m, ell) in [(1, 5, 3), (2, 7, 3), (1, 9, 5)]:
        s = sum(tev(a + b * m, ell * m) for b in range(ell)) + tev(ell * a, m)
        assert s == tw_ap(ell) * tev(a, m)


def test_trivial_sum_l_value_coherence(sym32):
    """Full sums over (Z/m)* fold to a fixed multiple of the value at 0.

    The degree-m correspondence gives sum_{b mod m} [b/m] = (a_m - 1)[0/1]
    for prime m, so the unit-restricted sum is (a_m - 2)[0/1]; consistency
    across several m pins the value at 0 (nonzero here: rank zero curve)
    against the L-value normalization without ever computing a period.
    """
    plus, _, c, _ = sym32
    ev = plus.evaluator()
    base = ev(0, 1)
    assert base != 0
    for m in (5, 7, 13, 17):
        s = sum(ev(a, m) for a in range(1, m))
        assert s == (c.ap(m) - 2) * base, m
