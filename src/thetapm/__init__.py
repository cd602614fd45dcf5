"""Signed p-adic L-function workbench for supersingular elliptic curves.

Computes signed one-variable series of curves with a_p = 0 and their
quadratic twists from classical modular symbols, extracts Iwasawa
invariants and root-valuation profiles, certifies coprimality, and keeps
the codimension-two bookkeeping of the corresponding two-variable picture.

``import thetapm`` loads no submodule.  Each public name below is imported
from its defining module on first access (PEP 562) and then kept in this
module's namespace, so a process that only extracts eigensymbols never
compiles the series or ledger layers.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "chern": ("C2Divisor", "FrobeniusData", "PrimeDescriptor", "ReductionData",
              "classify_reduction", "fudge_c2", "local_length_vertical",
              "place_contribution", "pushforward_c2", "theorem_ledger"),
    "config": ("RunConfig",),
    "coprimality": ("CoprimalityCertificate", "conjecture_b_report",
                    "coprime_certificate", "is_unit", "shadow_products"),
    "curves": ("CurveData", "kronecker_symbol", "local_reduction_type"),
    "cyclotomic": ("CyclotomicInt", "cyclotomic_poly_shifted"),
    "exceptions": ("BadReduction", "CommonFactorWithinPrecision",
                   "InvalidArgument", "IsolationFailure", "NotPseudoNull",
                   "PrecisionError", "ResourceLimit", "TruncationError",
                   "UnsupportedHypothesis", "UnsupportedShape",
                   "WorkbenchError"),
    "iwasawa": ("InvariantProfile", "IwasawaElement1", "IwasawaElement2",
                "half_log_product", "newton_invariants", "pi_cyc",
                "pollack_log_truncated", "resultant_in_T",
                "weierstrass_prepare"),
    "mazurtate": ("MazurTateElement", "SignedLSeries", "ThetaTarget",
                  "interpolation_value", "reconstruct_signed",
                  "reinterpolation_check", "trivial_character_ratio_check"),
    "modsym": ("EigenSymbol", "ManinSymbolSpace", "build_space",
               "extract_eigensymbol", "make_twisted_evaluator"),
    "padics": ("vp",),
    "table": ("BUNDLED_CURVES", "BUNDLED_ROWS", "REFERENCE_INVARIANTS",
              "Workbench", "bundled_curve"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # what ``from .module import name`` runs, so -X importtime lists it
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
