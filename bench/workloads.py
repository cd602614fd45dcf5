"""Seeded inputs, operations and correctness checks of the benchmark workloads.

A workload is a fixed batch of operations built from the seed; the runner
repeats the batch, each repeat in a fresh process.  Each operation calls the
library through the module attribute its users would call, so a hook
installed by the tracer sees it.  Nothing here imports thetapm at module
level: the set-up probe times that import.

Workloads:

* ``table``: ``thetapm table`` on three bundled rows that stabilize without
  auto-extension, cold (a fresh Workbench per run, symbols loaded from the
  cache the set-up filled), plus the one ``thetapm theta`` series of the
  bundled rows' twists that auto-extends to level 7.  The paper's table;
  cyclotomic and reinterpolation kernels do most of its work.
* ``certify``: ledger operations without modular symbols: coprimality
  certificates (most forced onto the Weierstrass-plus-resultant route),
  Newton profiles of cyclotomic specializations, two-variable pushforwards,
  vertical local lengths and fudge ledgers.  The only workload that reaches
  ``iwasawa``, ``coprimality`` and ``chern`` in earnest.  Its operation
  counts give each kind about the same share of the batch time.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0
CURVES = ("32a", "40a", "56a")

TABLE_ROWS = [("32a", -107), ("32a", -283), ("56a", -139)]
TABLE_ROW_NAMES = tuple("%s_m%d" % (label, -D) for label, D in TABLE_ROWS)
TABLE_ROWS_SMOKE = [("32a", -107)]
TABLE_N_MAX_SMOKE = 4
# (curve, D, sign) of the table's auto-extending series: theta^+ of 32a x -43
# needs level 7 at the default n_max = 6.  In smoke mode, n_max = 4 makes
# theta^+ of 32a x -107 extend from level 3 to 5.
THETA = ("32a", -43, "+")
THETA_SMOKE = ("32a", -107, "+")

# operations per certify batch, by kind.  The counts give each kind about
# the same share of the batch time (measured per-operation costs on a 2-core
# x86-64 machine, Python 3.11: certificate 4 ms, pushforward 1.3 ms, fudge
# 0.7 ms, length 0.26 ms, newton 0.1 ms), so that a slowdown in any one
# ledger path moves wall_s.  The runner reports the measured shares.  Shapes
# cycle with the operation index and only coefficients come from the seed.
CERTIFY_SIZES = {"certificate": 160, "newton": 4800, "pushforward": 384,
                 "length": 1664, "fudge_ledger": 72, "fudge_place": 1344}
CERTIFY_SIZES_SMOKE = {"certificate": 8, "newton": 2, "pushforward": 2,
                       "length": 2, "fudge_ledger": 3, "fudge_place": 12}
FUDGE_PRIMES = (5, 7, 11)
CERT_P = 3
CERT_PRECISION = 25


@dataclass
class Op:
    """One operation: ``run`` is timed; the checks and ``record`` are not.

    ``check(result, expected)`` returns None when the result is correct and
    a reason otherwise; ``first_check(result)`` is a costly check made on the
    first repeat only (later repeats must reproduce its records exactly);
    ``record(result)`` gives the report record that feeds the golden digest.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, object], object]
    record: Callable[[object], object]
    expected: object = None
    first_check: Callable[[object], object] = None


@dataclass
class Workload:
    name: str
    ops: list
    expected_spans: tuple               # hooks a traced batch must call
    coverage_gate: bool                 # trace.coverage must reach 0.95
    report_kind: str = ""
    notes: dict = field(default_factory=dict)


def setup(curves, cache_dir):
    """Workbench with the given curves' eigensymbols in ``cache_dir``."""
    from thetapm import RunConfig, Workbench, bundled_curve
    wb = Workbench(RunConfig(cache_dir=cache_dir))
    for label in curves:
        curve = bundled_curve(label)
        wb.symbol(curve, +1)
        wb.symbol(curve, -1)
    return wb


def build(name, seed, smoke, workdir, cache_dir):
    makers = {"table": _table, "certify": _certify}
    if name not in makers:
        raise ValueError("unknown workload %r" % name)
    return makers[name](random.Random(seed), smoke, workdir, cache_dir)


def setup_curves(name):
    return {"table": ("32a", "56a"), "certify": ()}[name]


# -- table -------------------------------------------------------------------


def _table(rng, smoke, workdir, cache_dir):
    from thetapm import cli, reports
    rows = list(TABLE_ROWS_SMOKE if smoke else TABLE_ROWS)
    rng.shuffle(rows)
    rows_file = os.path.join(workdir, "rows.jsonl")
    with open(rows_file, "w", encoding="utf-8") as fh:
        for label, D in rows:
            fh.write(json.dumps({"curve": label, "discriminant": D, "p": 3}) + "\n")
    out_file = os.path.join(workdir, "table_report.jsonl")
    argv = ["table", "--rows-file", rows_file, "--cache-dir", cache_dir,
            "--out", out_file]
    if smoke:
        argv += ["--n-max", str(TABLE_N_MAX_SMOKE)]

    def run():
        code = cli.main(argv)
        with open(out_file, "r", encoding="utf-8") as fh:
            return code, fh.read()

    def check(result, expected):
        code, text = result
        if code != 0:
            return "thetapm table exited %d" % code
        _, records = reports.parse_report(text)
        got = sorted((r["curve"], r["discriminant"]) for r in records if "curve" in r)
        if got != sorted(expected):
            return "rows %s, expected %s" % (got, sorted(expected))
        for r in records:
            if "summary" in r:
                continue
            key = "%s x %d" % (r["curve"], r["discriminant"])
            if "error" in r:
                return "%s: %s" % (key, r["error"])
            if not r.get("reference_diff", {}).get("match"):
                return "%s: reference_diff does not match" % key
            bad = {k: v for k, v in r["reinterpolation_failures"].items() if v}
            if bad:
                return "%s: reinterpolation failures %s" % (key, bad)
        return None

    def record(result):
        return reports.parse_report(result[1])[1]

    op = Op("table", run, check, record, expected=rows)
    theta = _theta_op(*(THETA_SMOKE if smoke else THETA), cache_dir,
                      TABLE_N_MAX_SMOKE if smoke else None)
    return Workload(
        "table", [op, theta],
        expected_spans=("table.run_table", "table.row", "mazurtate.reconstruct",
                        "mazurtate.build", "mazurtate.interpolation",
                        "mazurtate.garner_step", "mazurtate.reinterpolation",
                        "cyclotomic.zeta_to_x", "cyclotomic.x_at_zeta",
                        "cyclotomic.mul", "cyclotomic.poly_mul",
                        "iwasawa.newton", "coprimality.certificate",
                        "cache.load", "reports.render",
                        "modsym.twisted_evaluator"),
        coverage_gate=True,
        report_kind="table",
        notes={"rows": ["%s x %d" % r for r in rows],
               "theta": "%s x %d %s" % (THETA_SMOKE if smoke else THETA)})


def _theta_op(label, D, sign, cache_dir, n_max):
    """``thetapm theta`` with auto-extension: the series and its report.

    The profile must equal the frozen reference invariants of the twist;
    the first repeat also runs the reinterpolation check.
    """
    from thetapm import RunConfig, Workbench, bundled_curve, reports
    from thetapm.table import REFERENCE_INVARIANTS
    lam, runs = REFERENCE_INVARIANTS[(label, D)]["plus" if sign == "+" else "minus"]
    config = {"cache_dir": cache_dir} | ({"n_max": n_max} if n_max else {})

    def run():
        wb = Workbench(RunConfig(**config))
        series = wb.signed_series(bundled_curve(label), D, sign)
        return series, reports.render_report("theta", [series.as_dict()])

    def check(result, want):
        prof = result[0].profile
        got = None if prof is None else (prof.mu, prof.lam, prof.slopes, prof.stabilized)
        return None if got == want else "theta profile %s, reference %s" % (got, want)

    def first_check(result):
        import thetapm.mazurtate
        bad = thetapm.mazurtate.reinterpolation_check(result[0])
        return "reinterpolation failures %s" % bad if bad else None

    return Op("theta", run, check, lambda result: reports.parse_report(result[1])[1],
              expected=(0, lam, tuple(runs), True), first_check=first_check)


def admissible_discriminants(lo, hi):
    """Fundamental D < 0 with lo <= |D| <= hi and |D| prime to 2*3*5*7."""
    out = []
    for n in range(lo, hi + 1):
        if n % 4 != 3 or any(n % q == 0 for q in (3, 5, 7)):
            continue                  # D = -n odd and fundamental needs n = 3 mod 4
        if any(n % (q * q) == 0 for q in range(11, int(n ** 0.5) + 1)):
            continue
        out.append(-n)
    return out


# -- certify -----------------------------------------------------------------


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mul2(f, g):
    out = {}
    for (i1, j1), x in f.items():
        for (i2, j2), y in g.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _pow2(f, e):
    out = {(0, 0): 1}
    for _ in range(e):
        out = _mul2(out, f)
    return out


def _unit_int(rng, p):
    return rng.choice([u for u in range(1, 3 * p) if u % p]) * rng.choice((1, -1))


def _eisenstein(rng, p, d):
    """X^d + p*(...) + p*unit: every root has valuation 1/d."""
    return [p * _unit_int(rng, p)] + [p * rng.randint(-2, 2) for _ in range(d - 1)] + [1]


def _unit_poly(rng, p, deg):
    return [_unit_int(rng, p)] + [rng.randint(-4, 4) for _ in range(deg)]


def _trim(co):
    co = list(co)
    while len(co) > 1 and co[-1] == 0:
        co.pop()
    return co


def _certificate_ops(rng, n, thetapm):
    """Pairs sharing a slope: a quarter share a planted common factor (never
    ``coprime``), a quarter share the factor p (``not-certified``)."""
    from thetapm import IwasawaElement1
    ops = []
    for i in range(n):
        d = 2 + (i // 4) % 4          # shapes cycle with the index, values come from the seed
        planted = (None, "p-factor", "common-factor", None)[i % 4]
        h = _eisenstein(rng, CERT_P, d)
        h2 = h
        while planted != "common-factor" and h2 == h:
            h2 = _eisenstein(rng, CERT_P, d)
        scale = CERT_P if planted == "p-factor" else 1
        f = [scale * c for c in _mul(h, _unit_poly(rng, CERT_P, 2))]
        g = [scale * c for c in _mul(h2, _unit_poly(rng, CERT_P, 2))]
        fe, ge = (IwasawaElement1.from_rationals(
            CERT_P, [Fraction(c) for c in co], precision=CERT_PRECISION) for co in (f, g))

        def run(fe=fe, ge=ge):
            return thetapm.coprimality.coprime_certificate(fe, ge)

        ops.append(Op("certificate", run, _check_certificate, lambda c: c.as_dict(),
                      expected=planted))
    return ops


def _check_certificate(cert, planted):
    if planted == "common-factor" and cert.verdict == "coprime":
        return "pair with a planted common factor certified coprime"
    if planted == "p-factor" and cert.verdict != "not-certified":
        return "pair sharing the factor p gave %r" % cert.verdict
    return None


def _newton_ops(rng, n, thetapm):
    """Newton profile of pi_cyc(F), F planted so that pi_cyc(F) is
    p^mu * (Eisenstein of degree lambda) * unit."""
    from thetapm import IwasawaElement2
    ops = []
    for i in range(n):
        p, mu, lam = (3, 5)[i % 2], (i // 2) % 3, 1 + (i // 6) % 4
        G = [p ** mu * c for c in _mul(_eisenstein(rng, p, lam), _unit_poly(rng, p, 2))]
        terms = {}
        for deg, c in enumerate(G):          # split each coefficient over two S^s T^t
            s, t = rng.randint(0, deg), rng.randint(0, deg)
            part = rng.randint(-5, 5) if s != t else 0
            terms[(s, deg - s)] = terms.get((s, deg - s), 0) + c - part
            terms[(t, deg - t)] = terms.get((t, deg - t), 0) + part
        F = IwasawaElement2.from_dict(p, {k: Fraction(v) for k, v in terms.items()})

        def run(F=F):
            iw = thetapm.iwasawa
            return iw.newton_invariants(iw.pi_cyc(F))

        def check(prof, want):
            got = (prof.mu, prof.lam, prof.slopes)
            return None if got == want else "profile %s, planted %s" % (got, want)

        ops.append(Op("newton", run, check, lambda prof: prof.as_dict(),
                      expected=(mu, lam, ((lam, Fraction(1, lam)),))))
    return ops


def _linear_factors(rng, count):
    return [[rng.randint(-4, 4) for _ in range(1 + k % 3)] for k in range(count)]


def _product_in_T(roots):
    """prod (T - a(S)) as {(i, j): c}, i the S-degree, j the T-degree."""
    out = {(0, 0): 1}
    for a in roots:
        factor = {(0, 1): 1}
        for i, c in enumerate(a):
            if c:
                factor[(i, 0)] = factor.get((i, 0), 0) - c
        out = _mul2(out, factor)
    return out


def _pushforward_ops(rng, n, thetapm):
    """Res_T(prod (T - a_i), prod (T - b_j)) = prod_j prod_i (b_j - a_i)."""
    from thetapm import IwasawaElement2
    ops = []
    for i in range(n):
        a = _linear_factors(rng, 1 + i % 3)
        b = _linear_factors(rng, 1 + (i // 3) % 3)
        while any(_trim(x) == _trim(y) for x in a for y in b):
            b = _linear_factors(rng, len(b))
        want = [1]
        for y in b:
            for x in a:
                width = max(len(x), len(y))
                want = _mul(want, [(y + [0] * width)[k] - (x + [0] * width)[k]
                                   for k in range(width)])
        f, g = (IwasawaElement2.from_dict(CERT_P, {k: Fraction(v) for k, v in
                                                   _product_in_T(r).items()})
                for r in (a, b))

        def run(f=f, g=g):
            return thetapm.chern.pushforward_c2(f, g)

        def check(out, want):
            got = _trim(out[0].rationals())
            return None if got == _trim(want) else "resultant %s, planted %s" % (got, want)

        def record(out):
            return {"resultant": [str(c) for c in out[0].rationals()],
                    "divisor": out[1].as_dict()}

        ops.append(Op("pushforward", run, check, record, expected=want))
    return ops


def _length_ops(rng, n, thetapm):
    """Length of (p^v, Pbar^a * unit) at (p, Pbar) is v * a."""
    from thetapm import IwasawaElement2
    ops = []
    for i in range(n):
        p, v, a = (3, 5)[i % 2], 1 + (i // 2) % 3, 1 + (i // 6) % 3
        c = rng.randint(1, p - 1)
        pbar = ({(0, 1): 1, (1, 0): c}, {(0, 1): 1}, {(1, 0): 1},
                {(0, 1): 1, (2, 0): c})[(i // 18 + i) % 4]
        unit = {(0, 0): _unit_int(rng, p), (1, 0): rng.randint(-3, 3),
                (0, 1): rng.randint(-3, 3), (1, 1): rng.randint(-3, 3)}
        g = _mul2(_pow2(pbar, a), {k: x for k, x in unit.items() if x})
        ideal = (IwasawaElement2.from_dict(p, {(0, 0): Fraction(p ** v)}),
                 IwasawaElement2.from_dict(p, {k: Fraction(x) for k, x in g.items()}))

        def run(ideal=ideal, pbar=pbar):
            return thetapm.chern.local_length_vertical(ideal, pbar)

        def check(length, want):
            return None if length == want else "length %s, planted %s" % (length, want)

        ops.append(Op("length", run, check, lambda x: x, expected=v * a))
    return ops


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _fudge_ops(rng, n, thetapm):
    """Fudge ledgers of the bundled curves at p in {5, 7, 11}: a place
    contributes exactly when it is split multiplicative and p | ord q."""
    from thetapm import bundled_curve
    choices = admissible_discriminants(11, 400)
    ops = []
    for i in range(n):
        curve, p = bundled_curve(CURVES[i % 3]), FUDGE_PRIMES[(i // 3) % 3]
        D = rng.choice(choices)
        sigma = _prime_factors(curve.conductor * abs(D))

        def run(curve=curve, D=D, p=p, sigma=sigma):
            return thetapm.chern.fudge_c2(curve, D, p, sigma)

        ops.append(Op("fudge", run, _check_fudge,
                      lambda out: {"divisor": out[0].as_dict(), "ledger": out[1]},
                      expected=p))
    return ops


def _check_fudge(out, p):
    for entry in out[1]["places"]:
        if "place" not in entry:
            continue                  # the place above p itself is skipped
        place = entry["place"]
        m = place["tate_valuation"]
        want = place["type"] == "split-mult" and bool(m) and m % p == 0
        if (entry["contribution"] != "zero") != want:
            return "ell=%d: contribution %r" % (place["ell"], entry["contribution"])
    return None


PLACE_KINDS = ("good", "additive", "nonsplit-mult", "split-mult", "split-mult")
PLACE_ELLS = (13, 17, 19, 23, 29, 31)


def _place_ops(rng, n, thetapm):
    """Fudge contributions of synthetic places, through the same decision
    path as real curves.  A place contributes exactly when it is split
    multiplicative with p | m = ord q; with Frobenius exponents (a, b) the
    planted length is v_p(m) * p^v_p(a) when b = 0 and v_p(m) when b is a
    p-unit."""
    from thetapm.chern import FrobeniusData, ReductionData
    ops = []
    for i in range(n):
        p, kind = FUDGE_PRIMES[i % 3], PLACE_KINDS[i % len(PLACE_KINDS)]
        ell = rng.choice(PLACE_ELLS)
        v = (i % 4 + 1) % 3               # v_p(m); 0 gives a zero contribution
        m = p ** v * rng.choice([u for u in range(1, 4 * p) if u % p])
        place = ReductionData("synthetic", ell, "split", 0, 1, 1, kind,
                              m if kind.endswith("mult") else None)
        j = (i // 6) % 2
        if (i // 12) % 2:
            ab, length = (rng.randint(-3, 3), _unit_int(rng, p)), v
        else:
            ab, length = (_unit_int(rng, p) * p ** j, 0), v * p ** j
        want = length if kind == "split-mult" and v else 0
        frobenius = FrobeniusData({(ell, 0): ab})

        def run(place=place, p=p, frobenius=frobenius):
            return thetapm.chern.place_contribution(place, p, frobenius)

        def check(out, want):
            got = sum(mult for _, mult in out[0])
            if (out[1]["contribution"] == "zero") != (want == 0) or got != want:
                return "place %s: contribution %r, planted length %d" % (
                    out[1]["place"], out[1]["contribution"], want)
            return None

        ops.append(Op("fudge", run, check, lambda out: out[1], expected=want))
    return ops


def _certify(rng, smoke, workdir, cache_dir):
    import thetapm.chern
    import thetapm.coprimality
    import thetapm.iwasawa
    n = CERTIFY_SIZES_SMOKE if smoke else CERTIFY_SIZES
    ops = (_certificate_ops(rng, n["certificate"], thetapm)
           + _newton_ops(rng, n["newton"], thetapm)
           + _pushforward_ops(rng, n["pushforward"], thetapm)
           + _length_ops(rng, n["length"], thetapm)
           + _fudge_ops(rng, n["fudge_ledger"], thetapm)
           + _place_ops(rng, n["fudge_place"], thetapm))
    return Workload(
        "certify", ops,
        expected_spans=("coprimality.certificate", "iwasawa.weierstrass",
                        "iwasawa.newton", "iwasawa.pi_cyc",
                        "iwasawa.resultant_in_T", "chern.pushforward",
                        "chern.length", "chern.fudge", "chern.place"),
        coverage_gate=False,
        report_kind="certify",
        notes={"operations": len(ops)})
