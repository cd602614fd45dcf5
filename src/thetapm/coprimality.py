"""Coprimality certificates and the pseudo-nullity deduction report.

Two signed series with stabilized profiles are certified coprime either by
slope disjointness (no common root valuation, no shared p-factor, no shared
roots at the origin) or by a nonvanishing resultant of their distinguished
parts.  That resultant is ``iwasawa.sylvester_resultant``, the integer
determinant that also gives the T-resultant, of the coefficients lifted
mod p^floor, floor being the least absolute precision among them; it is
exact mod p^floor, and a resultant divisible by p^floor decides nothing.
Failure modes are kept apart: ``not-certified`` means a structural
obstruction was found, ``inconclusive`` means the data could not decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exceptions import InvalidArgument, PrecisionError, TruncationError
from .iwasawa import (InvariantProfile, IwasawaElement1, newton_invariants,
                      sylvester_resultant, weierstrass_prepare)
from .mazurtate import SignedLSeries
from .padics import vp


@dataclass
class CoprimalityCertificate:
    method: str                   # slope-disjoint | resultant | inconclusive
    f_profile: InvariantProfile
    g_profile: InvariantProfile
    verdict: str                  # coprime | not-certified | inconclusive
    resultant_valuation: Fraction = None
    detail: str = ""

    def as_dict(self):
        return {
            "method": self.method,
            "verdict": self.verdict,
            "f_profile": self.f_profile.as_dict() if self.f_profile else None,
            "g_profile": self.g_profile.as_dict() if self.g_profile else None,
            "resultant_valuation": None if self.resultant_valuation is None
            else str(self.resultant_valuation),
            "detail": self.detail,
        }


def _profile_of(x):
    if isinstance(x, SignedLSeries):
        if x.profile is None:
            raise PrecisionError("series has no usable profile")
        return x.profile
    if isinstance(x, IwasawaElement1):
        return newton_invariants(x)
    if isinstance(x, InvariantProfile):
        return x
    raise InvalidArgument("expected a signed series or a one-variable element")


def _element_of(x):
    if isinstance(x, SignedLSeries):
        return x.representative
    if isinstance(x, IwasawaElement1):
        return x
    return None


def is_unit(f):
    """Unit test: stabilized profile with mu = lambda = 0."""
    prof = _profile_of(f)
    if not prof.stabilized:
        raise PrecisionError("profile not stabilized; unit test inconclusive")
    return prof.is_unit()


def coprime_certificate(f, g):
    """Certify that f and g share no irreducible factor.

    Order of checks: a common p-factor (both mu > 0) or common roots at the
    origin block immediately; disjoint root-valuation multisets certify
    coprimality; otherwise the resultant of the distinguished parts decides
    when it has a determined nonzero valuation.  Series over different
    primes have no common ring, so they raise InvalidArgument.
    """
    primes = {getattr(x, "p", None) for x in (f, g)} - {None}
    if len(primes) > 1:
        raise InvalidArgument("series over different primes %s" % sorted(primes))
    pf = _profile_of(f)
    pg = _profile_of(g)
    if not (pf.stabilized and pg.stabilized):
        return CoprimalityCertificate("inconclusive", pf, pg, "inconclusive",
                                      detail="profiles not stabilized")
    if pf.mu > 0 and pg.mu > 0:
        return CoprimalityCertificate("slope-disjoint", pf, pg, "not-certified",
                                      detail="shared factor p (both mu positive)")
    if pf.zero_run and pg.zero_run:
        return CoprimalityCertificate("slope-disjoint", pf, pg, "not-certified",
                                      detail="shared roots at the origin")
    if pf.lam == 0 or pg.lam == 0:
        return CoprimalityCertificate("slope-disjoint", pf, pg, "coprime",
                                      detail="one side is a unit")
    common = pf.slope_values() & pg.slope_values()
    if not common:
        return CoprimalityCertificate("slope-disjoint", pf, pg, "coprime",
                                      detail="root valuations are disjoint")
    ef, eg = _element_of(f), _element_of(g)
    if ef is None or eg is None:
        return CoprimalityCertificate("inconclusive", pf, pg, "inconclusive",
                                      detail="shared slope and no elements to resolve")
    if _obviously_equal(ef, eg):
        return CoprimalityCertificate("resultant", pf, pg, "not-certified",
                                      detail="equal inputs share every factor")
    try:
        _, df, _ = weierstrass_prepare(ef)
        _, dg, _ = weierstrass_prepare(eg)
    except (PrecisionError, TruncationError) as exc:
        return CoprimalityCertificate("inconclusive", pf, pg, "inconclusive",
                                      detail="resultant: %s" % exc)
    floor = _abs_floor_bound(df, dg)
    res = _resultant_mod(df, dg, floor)
    if res % df.p ** floor == 0:
        # the resultant is only determined mod p^floor, where a zero is
        # indistinguishable from a common factor, so no certificate is issued
        return CoprimalityCertificate("inconclusive", pf, pg, "inconclusive",
                                      detail="resultant vanishes within precision")
    return CoprimalityCertificate("resultant", pf, pg, "coprime",
                                  resultant_valuation=Fraction(vp(res, df.p)),
                                  detail="resultant has determined nonzero valuation")


def _obviously_equal(f, g):
    """Coefficientwise equality to the precision the two sides share: zeros
    (exact or within precision) match only zeros, and two nonzero values
    match when they agree modulo the least absolute precision at hand."""
    if f.trunc_degree != g.trunc_degree:
        return False
    e = vp(f.den * g.den, f.p)
    for a, b, pa, pb in zip(f.nums, g.nums, f.precisions(), g.precisions()):
        if (a == 0) != (b == 0):
            return False
        d = a * g.den - b * f.den     # the difference over f.den * g.den
        known = [x for x in (pa, pb) if x is not None]
        if d and (not known or vp(d, f.p) - e < min(known)):
            return False
    return True


def _abs_floor_bound(df, dg):
    """Least absolute precision of the non-leading coefficients of two
    distinguished parts (each carries one; the leading 1 is exact)."""
    return min(a for el in (df, dg) for a in el.precisions()[:-1])


def _resultant_mod(f, g, floor):
    """Sylvester resultant of two monic distinguished polynomials, over Z
    from their coefficients lifted mod p^floor.

    The resultant is an integer polynomial in the coefficients, so the
    result is correct mod p^floor when every coefficient is known to
    absolute precision p^floor.
    """
    (res,) = sylvester_resultant(*([[c] for c in el.lifts(floor)] for el in (f, g)))
    return res


def shadow_products(theta_E_pair, theta_EK_pair):
    """Cyclotomic shadows of the two-variable products.

    The equal-sign specializations are honest products; the mixed one is
    only known up to a unit multiple between its two summands, so what is
    returned for it is the pair of summands plus the unit-robust reduction:
    when both base series are units, coprimality questions against the
    equal-sign product collapse to the twisted series alone.
    """
    tp, tm = theta_E_pair
    Tp, Tm = theta_EK_pair
    out = {"pp": _product_profile(tp, Tp), "mm": _product_profile(tm, Tm)}
    mixed = {"summands": ("theta_E^+ * theta_EK^-", "theta_E^- * theta_EK^+"),
             "unit_ambiguity": True}
    base_units = (tp.profile and tp.profile.is_unit()
                  and tm.profile and tm.profile.is_unit())
    if base_units:
        mixed["reduction"] = {
            "valid": True,
            "statement": "base series are units: mixed-product coprimality "
                         "against the equal-sign product reduces to the "
                         "twisted pair",
            "plus_profile": Tp.profile.as_dict() if Tp.profile else None,
            "minus_profile": Tm.profile.as_dict() if Tm.profile else None,
        }
    else:
        mixed["reduction"] = {"valid": False,
                              "statement": "base series not certified units; "
                                           "no unit-robust reduction emitted"}
    out["mixed"] = mixed
    return out


def _product_profile(a, b):
    if a.profile is None or b.profile is None:
        return {"degenerate": True,
                "note": "a factor is zero within precision; no certificate"}
    return {"profile": (a.profile * b.profile).as_dict(), "degenerate": False}


def conjecture_b_report(curve_label, field_discriminant, p, theta_E_pair,
                        theta_EK_pair, surjectivity_known=False, cm_curve=False,
                        p_splits=None):
    """Structured pseudo-nullity verdict from the one-variable data.

    Inputs beyond the signed series are accepted as flags: the mod-p image
    surjectivity and CM facts are not computed here.  The verdict spells
    out which route (known one-variable main conjecture for CM curves, or
    the unconditional divisor inequality under surjectivity) supports the
    deduction, and flags every standing hypothesis that fails.
    """
    tp, tm = theta_E_pair
    Tp, Tm = theta_EK_pair
    report = {
        "curve": curve_label,
        "field_discriminant": field_discriminant,
        "p": p,
        "hypotheses": {},
        "conditions": {},
    }
    report["hypotheses"]["p_splits_in_K"] = p_splits
    if p_splits is False:
        report["hypotheses"]["warning"] = (
            "p is not split in K; the two-variable setup behind the deduction "
            "assumes split p, so the verdict is reported relative to that "
            "hypothesis")
    # (a): base plus series a unit
    try:
        cond_a = is_unit(tp)
        report["conditions"]["a"] = {"status": "holds" if cond_a else "fails",
                                     "statement": "theta_E^+ is a unit"}
    except PrecisionError as exc:
        cond_a = None
        report["conditions"]["a"] = {"status": "inconclusive", "detail": str(exc)}
    # (b): twisted pair coprime
    cert = coprime_certificate(Tp, Tm)
    report["conditions"]["b"] = {
        "status": {"coprime": "holds", "not-certified": "fails"}.get(
            cert.verdict, "inconclusive"),
        "statement": "theta_EK^+ and theta_EK^- share no irreducible factor",
        "certificate": cert.as_dict(),
    }
    # (c): twisted series are not units
    try:
        pTp, pTm = _profile_of(Tp), _profile_of(Tm)
        cond_c = pTp.lam != 0 and pTm.lam != 0
        report["conditions"]["c"] = {
            "status": "holds" if cond_c else "fails",
            "statement": "lambda(theta_EK^+) != 0 and lambda(theta_EK^-) != 0",
            "lambdas": [pTp.lam, pTm.lam],
        }
    except (PrecisionError, InvalidArgument):
        report["conditions"]["c"] = {"status": "inconclusive"}
        cond_c = None
    route = None
    if cm_curve:
        route = "one-variable main conjecture known for CM curves"
    elif surjectivity_known:
        route = ("mod-p^2 image surjectivity supplied as input: unconditional "
                 "divisor inequality route")
    ok = cond_a is True and cert.verdict == "coprime"
    if ok and route:
        verdict = "pseudo-null (verified under the stated route)"
    elif ok:
        verdict = ("pseudo-null conditionally (no surjectivity or CM input "
                   "flag supplied)")
    else:
        verdict = "inconclusive"
    report["route"] = route or "none supplied"
    report["verdict"] = verdict
    report["nontriviality"] = {
        "statement": "the codimension-two class of the two-variable quotient "
                     "is nonzero when condition (c) holds",
        "status": {True: "holds", False: "fails", None: "inconclusive"}[cond_c],
    }
    return report
