"""The package namespace: the public names, and what loading them costs.

``import thetapm`` loads no submodule, and a Workbench that only extracts
eigensymbols loads the symbol layer alone; the series and ledger layers
load on first use.  Each check runs in a fresh interpreter, as the modules
this session has already loaded would hide what an import pulls in.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import thetapm

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# the public names by defining module, as the package exported them eagerly
EXPORTS = {
    "chern": ["C2Divisor", "FrobeniusData", "PrimeDescriptor", "ReductionData",
              "classify_reduction", "fudge_c2", "local_length_vertical",
              "place_contribution", "pushforward_c2", "theorem_ledger"],
    "config": ["RunConfig"],
    "coprimality": ["CoprimalityCertificate", "conjecture_b_report",
                    "coprime_certificate", "is_unit", "shadow_products"],
    "curves": ["CurveData", "kronecker_symbol", "local_reduction_type"],
    "cyclotomic": ["CyclotomicInt", "cyclotomic_poly_shifted"],
    "exceptions": ["BadReduction", "CommonFactorWithinPrecision",
                   "InvalidArgument", "IsolationFailure", "NotPseudoNull",
                   "PrecisionError", "ResourceLimit", "TruncationError",
                   "UnsupportedHypothesis", "UnsupportedShape", "WorkbenchError"],
    "iwasawa": ["InvariantProfile", "IwasawaElement1", "IwasawaElement2",
                "half_log_product", "newton_invariants", "pi_cyc",
                "pollack_log_truncated", "resultant_in_T", "weierstrass_prepare"],
    "mazurtate": ["MazurTateElement", "SignedLSeries", "ThetaTarget",
                  "interpolation_value", "reconstruct_signed",
                  "reinterpolation_check", "trivial_character_ratio_check"],
    "modsym": ["EigenSymbol", "ManinSymbolSpace", "build_space",
               "extract_eigensymbol", "make_twisted_evaluator"],
    "padics": ["vp"],
    "table": ["BUNDLED_CURVES", "BUNDLED_ROWS", "REFERENCE_INVARIANTS",
              "Workbench", "bundled_curve"],
}

SYMBOL_LAYER = ["cache", "config", "curves", "exceptions", "modsym", "padics", "table"]


def loaded_after(code):
    """Sorted thetapm submodules loaded once ``code`` ran in a fresh process."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('thetapm.'))))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return [m.split(".", 1)[1] for m in json.loads(out.stdout.splitlines()[-1])]


def test_import_loads_no_submodule():
    assert loaded_after("import thetapm") == []


def test_symbol_only_workbench_loads_the_symbol_layer(tmp_path):
    code = ("from thetapm import RunConfig, Workbench, bundled_curve\n"
            "Workbench(RunConfig(cache_dir=%r)).symbol(bundled_curve('32a'), +1)"
            % str(tmp_path))
    assert loaded_after(code) == SYMBOL_LAYER


def test_star_import_gives_every_public_name():
    # every module but the command line and its report writer
    code = "from thetapm import *\nassert callable(Workbench) and vp(9, 3) == 2"
    assert loaded_after(code) == sorted(set(EXPORTS) | {"cache", "polys"})


def test_public_names_resolve_to_their_defining_module():
    names = sorted(n for names in EXPORTS.values() for n in names)
    assert len(names) == 59
    assert thetapm.__all__ == names
    assert set(names) <= set(dir(thetapm))
    for module, members in EXPORTS.items():
        mod = importlib.import_module("thetapm." + module)
        for name in members:
            assert getattr(thetapm, name) is getattr(mod, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        thetapm.no_such_name
