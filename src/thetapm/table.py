"""Workbench orchestration: bundled curves, example rows, row reports.

The bundled example set consists of three supersingular-at-3 curves and six
imaginary quadratic twists; ``REFERENCE_INVARIANTS`` freezes the expected
signed invariants for regression (independently recomputed by this code and
cross-checked against published tables of signed Iwasawa invariants).  Any
mismatch is reported as a failure, never auto-corrected.

The symbol layer (spaces, eigensymbols, their cache) is imported with this
module.  ``Workbench.symbol`` looks a symbol up in memory, then in the
cache (``EigenSymbol.from_record`` checks the record), and else extracts
and stores it.  The series layer (``mazurtate``) and the certificates
(``coprimality``) are imported by the methods that first need them, so a
workbench that only extracts symbols never loads them.
"""

from __future__ import annotations

from fractions import Fraction

from . import cache as cache_mod
from .config import RunConfig
from .curves import (CurveData, curve_from_record, is_fundamental_discriminant,
                     kronecker_symbol)
from .exceptions import InvalidArgument, UnsupportedHypothesis, WorkbenchError
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
        """(symbol, source): from memory, a cache record that is it, or extraction."""
        key = (curve.label, curve.conductor, sign)
        if key in self._symbols:
            return self._symbols[key], "memory"
        space = self.space(curve.conductor)
        record = cache_mod.load_symbol(self.cache_dir, curve.conductor,
                                       curve.label, sign)
        sym = record and EigenSymbol.from_record(space, curve, record, self.config.p)
        source = "disk"
        if sym is None:
            sym, source = extract_eigensymbol(space, curve, sign), "computed"
            cache_mod.store_symbol(self.cache_dir, sym)
        self._symbols[key] = sym
        return sym, source

    # -- targets and series -----------------------------------------------

    def target(self, curve, discriminant=1):
        from .mazurtate import ThetaTarget
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
        from .mazurtate import reconstruct_signed
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
        from .coprimality import conjecture_b_report, shadow_products
        from .mazurtate import (reinterpolation_check,
                                trivial_character_ratio_check)
        p = self.config.p
        if discriminant >= 0:
            raise InvalidArgument("imaginary field needs a negative discriminant")
        if not is_fundamental_discriminant(discriminant):
            raise InvalidArgument("%d is not a fundamental discriminant"
                                  % discriminant)
        p_splits = kronecker_symbol(discriminant, p) == 1
        if self.config.strict_hypotheses and not p_splits:
            raise UnsupportedHypothesis(
                "p = %d does not split in Q(sqrt(%d)); rerun without the "
                "strict hypothesis flag to proceed" % (p, discriminant))
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
        # condition (b) of conjecture B is the twisted pair's certificate
        conj_b = conjecture_b_report(
            curve.label, discriminant, p, (tp, tm), (Tp, Tm),
            surjectivity_known=facts["surjective"], cm_curve=facts["cm"],
            p_splits=p_splits)
        report = {
            "curve": curve.label,
            "discriminant": discriminant,
            "p": p,
            "p_splits_in_K": p_splits,
            "series": {name: s.as_dict() for name, s in series.items()},
            "coprimality": conj_b["conditions"]["b"]["certificate"],
            "shadow": shadow_products((tp, tm), (Tp, Tm)),
            "ratio_check": trivial_character_ratio_check(tp, tm),
            "conjecture_b": conj_b,
            "reinterpolation_failures": failures,
        }
        expected = REFERENCE_INVARIANTS.get((curve.label, discriminant))
        if expected:
            report["reference_diff"] = reference_diff(expected, Tp, Tm)
        return report

    def run_table(self, rows=None):
        """Run every row, isolating per-row failures; a row without a string
        curve, an integer discriminant or an integer p (when given) is an
        input error before any row runs."""
        rows = rows if rows is not None else BUNDLED_ROWS
        for row in rows:
            if not (isinstance(row, dict) and isinstance(row.get("curve"), str)
                    and type(row.get("discriminant")) is int
                    and type(row.get("p", 0)) is int):
                raise InvalidArgument("row %r needs a string curve, an integer "
                                      "discriminant and an optional integer p"
                                      % (row,))
        out = []
        for row in rows:
            label = row["curve"]
            D = row["discriminant"]
            if row.get("p", self.config.p) != self.config.p:
                out.append({"curve": label, "discriminant": D,
                            "error": "row prime %s differs from configured p = %d"
                            % (row.get("p"), self.config.p)})
                continue
            try:
                if "a_invariants" in row:
                    curve = curve_from_record(label, row)
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
