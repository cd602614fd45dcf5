"""Workbench orchestration: bundled curves, example rows, row reports.

The bundled example set consists of three supersingular-at-3 curves and six
imaginary quadratic twists; ``REFERENCE_INVARIANTS`` freezes the expected
signed invariants for regression (independently recomputed by this code and
cross-checked against published tables of signed Iwasawa invariants).  Any
mismatch is reported as a failure, never auto-corrected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cache as cache_mod
from .config import RunConfig
from .coprimality import (conjecture_b_report, coprime_certificate,
                          shadow_products)
from .curves import (CurveData, check_conductor, is_fundamental_discriminant,
                     kronecker_symbol)
from .exceptions import InvalidArgument, UnsupportedHypothesis, WorkbenchError
from .mazurtate import (ThetaTarget, reconstruct_signed, reinterpolation_check,
                        trivial_character_ratio_check)
from .modsym import EigenSymbol, build_space, extract_eigensymbol

BUNDLED_CURVES = {
    "32a": {"a_invariants": (0, 0, 0, -1, 0), "conductor": 32},
    "40a": {"a_invariants": (0, 0, 0, -7, -6), "conductor": 40},
    "56a": {"a_invariants": (0, 0, 0, 1, 2), "conductor": 56},
}

BUNDLED_ROWS = [
    {"curve": "32a", "discriminant": -43, "p": 3},
    {"curve": "32a", "discriminant": -107, "p": 3},
    {"curve": "32a", "discriminant": -283, "p": 3},
    {"curve": "40a", "discriminant": -331, "p": 3},
    {"curve": "56a", "discriminant": -139, "p": 3},
    {"curve": "56a", "discriminant": -487, "p": 3},
]

# expected (lambda, slope runs) per sign for the bundled rows; slope runs are
# (count, valuation) pairs, steepest first; mu is 0 throughout
REFERENCE_INVARIANTS = {
    ("32a", -43): {"plus": (8, ((2, Fraction(1, 2)), (6, Fraction(1, 6)))),
                   "minus": (2, ((2, Fraction(1)),))},
    ("32a", -107): {"plus": (2, ((2, Fraction(1)),)),
                    "minus": (6, ((2, Fraction(1, 2)), (4, Fraction(1, 4))))},
    ("32a", -283): {"plus": (6, ((2, Fraction(1, 2)), (4, Fraction(1, 4)))),
                    "minus": (2, ((2, Fraction(1)),))},
    ("40a", -331): {"plus": (6, ((2, Fraction(1, 2)), (4, Fraction(1, 4)))),
                    "minus": (2, ((2, Fraction(1)),))},
    ("56a", -139): {"plus": (6, ((2, Fraction(1, 2)), (4, Fraction(1, 4)))),
                    "minus": (2, ((2, Fraction(1)),))},
    ("56a", -487): {"plus": (6, ((2, Fraction(1, 2)), (4, Fraction(1, 4)))),
                    "minus": (2, ((2, Fraction(1)),))},
}

# the 32a class has complex multiplication; the other two have surjective
# mod-p^2 image (supplied as input facts, not computed here)
CURVE_FACTS = {
    "32a": {"cm": True, "surjective": False},
    "40a": {"cm": False, "surjective": True},
    "56a": {"cm": False, "surjective": True},
}


@dataclass
class FieldSpec:
    """Imaginary quadratic field by its fundamental discriminant."""

    discriminant: int

    def __post_init__(self):
        if self.discriminant >= 0:
            raise InvalidArgument("imaginary field needs a negative discriminant")
        if not is_fundamental_discriminant(self.discriminant):
            raise InvalidArgument("%d is not a fundamental discriminant"
                                  % self.discriminant)

    def p_splits(self, p):
        return kronecker_symbol(self.discriminant, p) == 1

    def enforce_split(self, p, strict):
        if strict and not self.p_splits(p):
            raise UnsupportedHypothesis(
                "p = %d does not split in Q(sqrt(%d)); rerun without the "
                "strict hypothesis flag to proceed" % (p, self.discriminant))


def bundled_curve(label):
    if label not in BUNDLED_CURVES:
        raise InvalidArgument("unknown bundled curve %r" % label)
    entry = BUNDLED_CURVES[label]
    return CurveData(label, entry["a_invariants"], entry["conductor"])


class Workbench:
    """Caches spaces, symbols and reconstructions for a fixed configuration."""

    def __init__(self, config=None):
        self.config = config or RunConfig()
        self.cache_dir = cache_mod.resolve_cache_dir(self.config.cache_dir)
        self._spaces = {}
        self._symbols = {}
        self._targets = {}
        self._series = {}

    # -- symbols ---------------------------------------------------------

    def space(self, N):
        if N not in self._spaces:
            self._spaces[N] = build_space(N)
        return self._spaces[N]

    def symbol(self, curve, sign):
        key = (curve.label, curve.conductor, sign)
        if key in self._symbols:
            return self._symbols[key], "memory"
        space = self.space(curve.conductor)
        cached = cache_mod.load_symbol(self.cache_dir, curve.conductor,
                                       curve.label, sign)
        if cached is not None:
            cert = [tuple(x) for x in cached["ap_certificate"]]
            values = cached["values"]
            hecke = {ell for ell, _ in cert} | {self.config.p}
            # eigenvalue certificate must agree with fresh point counts, and
            # a truncated, altered, rescaled or opposite-sign value list must
            # not pass as a symbol: extraction leaves content one and a
            # positive first nonzero value, and a T_ell eigenvector for the
            # certificate primes and for p
            if (all(curve.ap(ell) == a for ell, a in cert)
                    and len(values) == len(space.generators)
                    and gcd(*values) == 1
                    and next(v for v in values if v) > 0
                    and space.relations_vanish(values)
                    and space.star_holds(values, sign)
                    and all(space.hecke_holds(values, ell, curve.ap(ell))
                            for ell in hecke if curve.conductor % ell)):
                sym = EigenSymbol(cached["level"], cached["sign"],
                                  values, Fraction(cached["content"]),
                                  label=cached["label"], ap_certificate=cert,
                                  _space=space)
                self._symbols[key] = sym
                return sym, "disk"
        sym = extract_eigensymbol(space, curve, sign)
        self._symbols[key] = sym
        cache_mod.store_symbol(self.cache_dir, sym)
        return sym, "computed"

    # -- targets and series -----------------------------------------------

    def target(self, curve, discriminant=1):
        key = (curve.label, discriminant)
        if key not in self._targets:
            p = self.config.p
            plus, _ = self.symbol(curve, +1)
            minus, _ = self.symbol(curve, -1)
            self._targets[key] = ThetaTarget(curve, p, discriminant,
                                             plus_symbol=plus,
                                             minus_symbol=minus)
        return self._targets[key]

    def signed_series(self, curve, discriminant, sign):
        key = (curve.label, discriminant, sign)
        if key not in self._series:
            target = self.target(curve, discriminant)
            self._series[key] = reconstruct_signed(
                target, sign, n_max=self.config.n_max,
                auto_extend=self.config.auto_extend)
        return self._series[key]

    # -- rows ---------------------------------------------------------------

    def table_row(self, curve, discriminant):
        """Full invariants-and-verdicts report for one example row."""
        p = self.config.p
        fs = FieldSpec(discriminant)
        fs.enforce_split(p, self.config.strict_hypotheses)
        series = {
            "twist_plus": self.signed_series(curve, discriminant, "+"),
            "twist_minus": self.signed_series(curve, discriminant, "-"),
            "base_plus": self.signed_series(curve, 1, "+"),
            "base_minus": self.signed_series(curve, 1, "-"),
        }
        failures = {name: reinterpolation_check(s) for name, s in series.items()}
        if any(failures.values()):
            # a representative that misses its own interpolation data is a
            # defect of the reconstruction, never a result to report
            raise WorkbenchError("reinterpolation failed at levels %s" % failures)
        Tp, Tm = series["twist_plus"], series["twist_minus"]
        tp, tm = series["base_plus"], series["base_minus"]
        facts = CURVE_FACTS.get(curve.label, {"cm": False, "surjective": False})
        cert = coprime_certificate(Tp, Tm)
        report = {
            "curve": curve.label,
            "discriminant": discriminant,
            "p": p,
            "p_splits_in_K": fs.p_splits(p),
            "series": {name: s.as_dict() for name, s in series.items()},
            "coprimality": cert.as_dict(),
            "shadow": shadow_products((tp, tm), (Tp, Tm)),
            "ratio_check": trivial_character_ratio_check(tp, tm),
            "conjecture_b": conjecture_b_report(
                curve.label, discriminant, p, (tp, tm), (Tp, Tm),
                surjectivity_known=facts["surjective"], cm_curve=facts["cm"],
                p_splits=fs.p_splits(p)),
            "reinterpolation_failures": failures,
        }
        expected = REFERENCE_INVARIANTS.get((curve.label, discriminant))
        if expected:
            report["reference_diff"] = reference_diff(expected, Tp, Tm)
        return report

    def run_table(self, rows=None):
        """Run every row, isolating per-row failures."""
        rows = rows if rows is not None else BUNDLED_ROWS
        out = []
        for row in rows:
            label = row["curve"]
            D = int(row["discriminant"])
            if int(row.get("p", self.config.p)) != self.config.p:
                out.append({"curve": label, "discriminant": D,
                            "error": "row prime %s differs from configured p = %d"
                            % (row.get("p"), self.config.p)})
                continue
            try:
                if "a_invariants" in row:
                    curve = CurveData(label, row["a_invariants"], row["conductor"])
                    check_conductor(curve)
                else:
                    curve = bundled_curve(label)
                out.append(self.table_row(curve, D))
            except WorkbenchError as exc:
                out.append({"curve": label, "discriminant": D,
                            "error": "%s: %s" % (type(exc).__name__, exc)})
        return out


def reference_diff(expected, Tp, Tm):
    """Exact comparison of computed twist profiles against frozen values."""
    diff = {"match": True, "detail": {}}
    for name, series in (("plus", Tp), ("minus", Tm)):
        lam, slopes = expected[name]
        prof = series.profile
        got = None if prof is None else (prof.mu, prof.lam, prof.slopes)
        want = (0, lam, tuple(slopes))
        ok = got == want
        diff["detail"][name] = {
            "expected": {"mu": 0, "lambda": lam,
                         "slopes": [[c, str(s)] for c, s in slopes]},
            "computed": None if prof is None else prof.as_dict(),
            "match": ok,
        }
        if not ok:
            diff["match"] = False
    return diff
