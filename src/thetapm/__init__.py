"""Signed p-adic L-function workbench for supersingular elliptic curves.

Computes signed one-variable series of curves with a_p = 0 and their
quadratic twists from classical modular symbols, extracts Iwasawa
invariants and root-valuation profiles, certifies coprimality, and keeps
the codimension-two bookkeeping of the corresponding two-variable picture.
"""

from .chern import (C2Divisor, FrobeniusData, PrimeDescriptor, ReductionData,
                    classify_reduction, fudge_c2, local_length_vertical,
                    place_contribution, pushforward_c2, theorem_ledger,
                    vertical_divisor_mod_p)
from .config import RunConfig
from .coprimality import (CoprimalityCertificate, conjecture_b_report,
                          coprime_certificate, is_unit, shadow_products)
from .curves import CurveData, kronecker_symbol, local_reduction_type
from .cyclotomic import CyclotomicInt, cyclotomic_poly_shifted
from .exceptions import (BadReduction, CommonFactorWithinPrecision,
                         InvalidArgument, IsolationFailure, NotPseudoNull,
                         PrecisionError, ResourceLimit, TruncationError,
                         UnsupportedHypothesis, UnsupportedShape,
                         WorkbenchError)
from .iwasawa import (InvariantProfile, IwasawaElement1, IwasawaElement2,
                      half_log_product, newton_invariants, pi_cyc,
                      pollack_log_truncated, resultant_in_T,
                      weierstrass_prepare)
from .mazurtate import (MazurTateElement, SignedLSeries, ThetaTarget,
                        interpolation_value, reconstruct_signed,
                        reinterpolation_check, trivial_character_ratio_check)
from .modsym import (EigenSymbol, ManinSymbolSpace, build_space,
                     extract_eigensymbol, make_twisted_evaluator,
                     twist_symbol_value)
from .padics import vp
from .table import (BUNDLED_CURVES, BUNDLED_ROWS, FieldSpec,
                    REFERENCE_INVARIANTS, Workbench, bundled_curve)

__version__ = "0.1.0"
