"""Second-Chern bookkeeping for cyclic quotients of Z_p[[S, T]].

Local lengths at vertical height-two primes (p, Pbar) are computed through
the p-power filtration, from the p-splits ``IwasawaElement2.p_split`` gives;
the horizontal part of an intersection is pushed forward through the
T-resultant rather than resolved prime by prime.  Two-variable elements are
read only through ``p_split`` and ``t_polynomial``; everything mod p runs on
the T-rows over F_p[S] that ``p_split`` hands out, Pbar's included.  The
generators are exact polynomials, so a local length divides exactly in
F_p[S][T], on rows that stay trimmed: ``p_split``, ``_swap`` and
``polys.submul_mod`` trim every row they make, and ``_t_multiplicity`` trims
its input once, so a zero row is [0] wherever the division tests one.  The
divisor of the Frobenius character at a fudge place is read off in closed
form: its Weierstrass factor T^d - beta(S) is exact, and only its printed
S-series is cut at ``S_TRUNC``.  The fudge factors at primes away from p
depend only on the reduction type of the curve at the places of the
quadratic field, with a contribution exactly when the reduction is split
multiplicative and p divides the Tate-parameter valuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import polys
from .curves import kronecker_symbol, local_reduction_type
from .exceptions import (CommonFactorWithinPrecision, InvalidArgument,
                         NotPseudoNull, UnsupportedShape)
from .iwasawa import IwasawaElement2, newton_invariants, resultant_in_T
from .padics import is_prime, odd_prime, vp

S_TRUNC = 24               # S-terms printed of a Weierstrass factor


# ---------------------------------------------------------------------------
# descriptors and divisors


@dataclass(frozen=True)
class PrimeDescriptor:
    """Height-two prime of Z_p[[S, T]] by a generator description.

    Vertical primes are (p, Pbar) with Pbar a distinguished polynomial mod
    p; horizontal primes carry a one-variable resultant factor and the
    degree of the fiber datum above it.
    """
    kind: str                   # vertical | horizontal
    generators: tuple           # canonical strings
    fiber_degree: int = 1
    resolved: bool = True

    def as_dict(self):
        return {"kind": self.kind, "generators": list(self.generators),
                "fiber_degree": self.fiber_degree, "resolved": self.resolved}


@dataclass
class C2Divisor:
    """Formal nonnegative combination of height-two prime descriptors."""

    terms: list = field(default_factory=list)   # (PrimeDescriptor, multiplicity)
    completeness: str = "full"                  # full | partial-with-pushforward
    pushforward: dict = None
    notes: list = field(default_factory=list)

    def add(self, descriptor, multiplicity):
        if multiplicity < 0:
            raise InvalidArgument("multiplicities must be nonnegative")
        if multiplicity == 0:
            return
        for i, (d, m) in enumerate(self.terms):
            if d == descriptor:
                self.terms[i] = (d, m + multiplicity)
                return
        self.terms.append((descriptor, multiplicity))

    def merge(self, other):
        for d, m in other.terms:
            self.add(d, m)
        self.notes.extend(other.notes)
        if other.completeness != "full":
            self.completeness = other.completeness

    def is_zero(self):
        return not self.terms

    def as_dict(self):
        return {
            "terms": [{"prime": d.as_dict(), "multiplicity": m}
                      for d, m in self.terms],
            "completeness": self.completeness,
            "pushforward": self.pushforward,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# F_p[S][T] helpers: T-polynomials as lists over T-degree of trimmed F_p[S]
# rows, as ``IwasawaElement2.p_split`` returns them


def _swap(rows):
    """The same polynomial with S and T exchanged: the transpose of its rows."""
    return [polys.trim([row[i] if i < len(row) else 0 for row in rows])
            for i in range(max(map(len, rows)))]


def _t_divmod(f, w, p):
    """Divide a T-polynomial over F_p[S] by monic w: (quotient, remainder),
    exact, the remainder of T-degree below that of w."""
    f = list(f)
    dw = len(w) - 1
    low = [(j, wj) for j, wj in enumerate(w[:dw]) if wj != [0]]
    q = [[0]] * max(len(f) - dw, 1)
    for i in range(len(f) - 1, dw - 1, -1):
        c = f[i]
        if c == [0]:
            continue
        q[i - dw] = c
        f[i] = [0]
        for j, wj in low:
            f[i - dw + j] = polys.submul_mod(f[i - dw + j], wj, c, p)
    while len(f) > 1 and f[-1] == [0]:
        f.pop()
    return q, f


def _t_multiplicity(g, w, p, cap=None):
    """Multiplicity of monic w in the T-polynomial g over F_p[S], stopped
    at ``cap``; each exact division lowers the T-degree, so none is needed."""
    mult = 0
    cur = [polys.trim(list(row)) for row in g]
    while mult != cap:
        if len(cur) - 1 < len(w) - 1:
            break
        q, r = _t_divmod(cur, w, p)
        if r != [[0]]:
            break
        mult += 1
        cur = q
        if not any(map(any, cur)):
            raise NotPseudoNull("generator vanishes after exact divisions")
    return mult


def _fps_poly_str(w, p):
    """A T-polynomial over F_p[S] as text, from a dict of its S-coefficient
    lists by T-degree."""
    terms = []
    for j, c in sorted(w.items()):
        inner = [_mono(x % p, "S", i) for i, x in enumerate(c) if x % p]
        if inner:
            cs = "(%s)" % "+".join(inner) if len(inner) > 1 else inner[0]
            terms.append("%s*T^%d" % (cs, j) if j else cs)
    return " + ".join(terms) if terms else "0"


def _mono(c, var, i):
    if i == 0:
        return str(c)
    if c == 1:
        return "%s^%d" % (var, i) if i > 1 else var
    return "%s*%s^%d" % (c, var, i) if i > 1 else "%s*%s" % (c, var)


# ---------------------------------------------------------------------------
# local lengths at vertical primes


def local_length_vertical(ideal, pbar_terms):
    """Length of Z_p[[S,T]]/(f, g) localized at Q = (p, Pbar).

    Supported shape: one generator is p^v times a unit at Q; the length is
    then v times the Pbar-multiplicity of the other generator mod p,
    through the p-power filtration.  Either generator may play that role,
    and then f - g (paired with g; the length of g - f with f is the same,
    as f = g mod p once p divides f - g); an unsupported shape raises rather
    than risking a wrong number.
    """
    f, g = ideal
    p = f.p
    v, w = IwasawaElement2(p, pbar_terms).p_split()
    if v != 0:
        raise InvalidArgument("Pbar vanishes mod p")
    if w[0][0]:
        raise InvalidArgument("Pbar is a unit mod p")
    # Pbar must be distinguished in its monic variable (T, or S when T is
    # absent, after one swap): a lower term free of the other variable makes
    # Pbar a unit times a factor of lower degree, T + T^2 = T(1 + T), and
    # dividing by the whole of it miscounts the multiplicity
    swap = len(w) == 1
    if swap:
        w = _swap(w)
    if any(row[0] for row in w[:-1]):
        raise InvalidArgument("Pbar is not distinguished in %s" % "TS"[swap])
    if len(w[-1]) == 1:
        scale = pow(w[-1][0], -1, p)
        w = [[c * scale % p for c in row] for row in w]

    def mult(rows, cap=None):
        """Pbar-adic valuation of rows in F_p[[S,T]] localized at (Pbar)."""
        if w[-1] != [1]:
            raise UnsupportedShape("Pbar must be monic (up to unit) in T or S")
        return _t_multiplicity(_swap(rows) if swap else rows, w, p, cap)

    sf, sg = f.p_split(), g.p_split()
    if any(v is not None and v < 0 for v, _ in (sf, sg)):
        raise InvalidArgument("a generator has a coefficient outside Z_p")
    for sa, sb in ((sf, sg), (sg, sf)):
        try:
            return _length_shape(sa, sb, mult)
        except UnsupportedShape:
            pass
    return _length_shape((f - g).p_split(), sg, mult)


def _length_shape(sa, sb, mult):
    """Length from the p-splits (v, rows) of the two generators and the
    Pbar-multiplicity ``mult(rows, cap)``."""
    va, arows = sa
    if va is None:
        raise NotPseudoNull("a generator is zero")
    if mult(arows, 1):
        raise UnsupportedShape("unit-part candidate lies in Q")
    if va == 0:
        return 0                 # the ideal is the unit ideal at Q
    vb, brows = sb
    if vb != 0:
        raise NotPseudoNull("both generators vanish mod p: quotient has (p) in its support")
    return va * mult(brows)


# ---------------------------------------------------------------------------
# resultant pushforward


def pushforward_c2(f, g):
    """One-variable pushforward of the intersection (f, g) along S.

    The divisor of Res_T(f, g) carries the total intersection multiplicity;
    fiber degrees are resolved only above S = 0 (via the specialized gcd),
    everything else stays in the certified pushforward remainder.
    """
    p = f.p
    res = resultant_in_T(f, g)
    if not any(res.nums):
        raise CommonFactorWithinPrecision("T-resultant vanishes")
    prof = newton_invariants(res)
    divisor = C2Divisor(completeness="partial-with-pushforward")
    divisor.pushforward = {"resultant_profile": prof.as_dict(),
                           "resultant_mu": prof.mu, "resultant_lambda": prof.lam}
    if prof.mu > 0:
        divisor.notes.append("pushforward contains the divisor of p with "
                             "multiplicity %d" % prof.mu)
        divisor.add(PrimeDescriptor("vertical", ("p", "<unresolved fiber>"),
                                    resolved=False), prof.mu)
    zero_run = prof.zero_run
    if zero_run:
        fiber = _fiber_gcd_at_origin(f, g, p)
        fdeg = len(fiber) - 1 if fiber else 0
        if fiber and fdeg >= 1 and zero_run % fdeg == 0:
            desc = PrimeDescriptor("horizontal", ("S", _poly_str(fiber, "T")),
                                   fiber_degree=fdeg)
            divisor.add(desc, zero_run // fdeg)
        else:
            divisor.add(PrimeDescriptor("horizontal", ("S", "<unresolved>"),
                                        resolved=False), zero_run)
    rest = prof.lam - zero_run
    if rest > 0:
        divisor.add(PrimeDescriptor("horizontal",
                                    ("<distinguished resultant factor>",
                                     "<unresolved fiber>"), resolved=False), rest)
        divisor.notes.append("distinguished resultant part of degree %d not "
                             "resolved into individual primes" % rest)
    unit_deg = max(i for i, c in enumerate(res.nums) if c) - prof.lam
    if unit_deg:
        divisor.notes.append("resultant unit part has degree %d (unit-shifted "
                             "components excluded from the divisor)" % unit_deg)
    return res, divisor


def _fiber_gcd_at_origin(f, g, p):
    """gcd of the T-specializations at S = 0, monic, over Q.

    Runs on primitive integer polynomials: pseudo-remainders with the
    content divided out, then one normalization to a monic rational list.
    """
    fa, ga = (_primitive([row[0] for row in x.t_polynomial()]) for x in (f, g))
    while any(ga):
        fa, ga = ga, _primitive(polys.prem(fa, ga))
    if not any(fa):
        return None
    return [Fraction(x, fa[-1]) for x in fa]


def _primitive(co):
    ints = polys.trim(co)
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def _poly_str(co, var):
    return " + ".join(_mono(c, var, i) for i, c in enumerate(co) if c) or "0"


# ---------------------------------------------------------------------------
# reduction types over the quadratic field


@dataclass(frozen=True)
class ReductionData:
    curve_label: str
    ell: int
    place_structure: str        # split | inert | ramified
    place_index: int            # 0, and 1 when ell splits
    residue_degree: int
    ramification: int
    kind: str                   # good | split-mult | nonsplit-mult | additive
    tate_valuation: int = None
    notes: tuple = ()

    def as_dict(self):
        return {"curve": self.curve_label, "ell": self.ell,
                "place_structure": self.place_structure,
                "place_index": self.place_index,
                "residue_degree": self.residue_degree,
                "ramification": self.ramification,
                "type": self.kind, "tate_valuation": self.tate_valuation,
                "notes": list(self.notes)}


def classify_reduction(curve, ell, field_discriminant, p=None):
    """Reduction data of the curve at every place of K above ell.

    The type over the completion is derived from the type over Q_ell: an
    unramified base change preserves everything except that nonsplit
    multiplicative becomes split over the inert quadratic extension; over
    the ramified place the curve is replaced by its twist when that twist
    has better reduction (the two become isomorphic over the completion).
    """
    if type(ell) is not int or not is_prime(ell):
        raise InvalidArgument("a fudge place lies above a prime, not %r" % (ell,))
    if p is not None and ell == p:
        raise InvalidArgument("fudge places must avoid p")
    base = local_reduction_type(curve, ell)
    kro = kronecker_symbol(field_discriminant, ell)
    structure = {1: "split", -1: "inert", 0: "ramified"}[kro]
    e = 2 if kro == 0 else 1
    f_res = 2 if kro == -1 else 1
    places = [0, 1] if kro == 1 else [0]
    out = []
    for idx in places:
        notes = []
        kind = base.kind
        tate = None
        if base.kind in ("split-mult", "nonsplit-mult"):
            tate = e * base.v_disc
            if base.kind == "nonsplit-mult" and kro == -1:
                kind = "split-mult"
                notes.append("nonsplit type trivializes over the unramified "
                             "quadratic extension")
            elif base.kind == "nonsplit-mult" and kro == 0:
                notes.append("nonsplit type survives the ramified extension")
        elif base.kind == "additive" and kro == 0:
            kind, tate, extra = _additive_over_ramified(curve, ell,
                                                        field_discriminant)
            notes.extend(extra)
        out.append(ReductionData(curve.label, ell, structure, idx, f_res, e,
                                 kind, tate, tuple(notes)))
    return out


def _additive_over_ramified(curve, ell, D):
    """Type over the ramified quadratic completion at ell | D.

    Over that completion the curve and its twist by D are isomorphic, so
    whichever of the two has the better reduction over Q_ell decides.
    """
    twist = curve.quadratic_twist(D) if gcd(D, curve.conductor) == 1 else None
    if twist is None:
        return "additive", None, ["twist unavailable; additive type retained"]
    tw = local_reduction_type(twist, ell)
    if tw.kind == "good":
        return "good", None, ["becomes good: the quadratic twist has good "
                              "reduction at %d" % ell]
    if tw.kind in ("split-mult", "nonsplit-mult"):
        if ell == 2:
            raise UnsupportedShape("splitness over a ramified 2-adic place "
                                   "is not implemented")
        # the ramified completion keeps the residue field F_ell, so the
        # twist's split or nonsplit type over Q_ell holds there too
        return tw.kind, 2 * tw.v_disc, ["becomes multiplicative via the "
                                        "quadratic twist"]
    return "additive", None, ["potentially good at the ramified place"]


# ---------------------------------------------------------------------------
# fudge factors


@dataclass
class FrobeniusData:
    """Ingested Frobenius exponent pairs for split-multiplicative places.

    ``entries`` maps (ell, place_index) to the exponent pair (a, b) on the
    two one-parameter directions.  The cyclotomic combination a + b could be
    filled from ell^f, but the individual split requires class-field input,
    so nothing is guessed.
    """
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records):
        """From the ``entries`` of a Frobenius file, checked; bools are not
        integers, and ``place`` defaults to 0."""
        out = {}
        for entry in records or []:
            rec = entry if isinstance(entry, dict) else {}
            ell, place, ab = rec.get("ell"), rec.get("place", 0), rec.get("exponents")
            if not (type(ell) is int and is_prime(ell) and type(place) is int
                    and place >= 0 and (ab is None or type(ab) is list and len(ab) == 2
                                        and all(type(x) is int for x in ab))):
                raise InvalidArgument("Frobenius entry %r: ell must be a prime, place "
                                      "an integer >= 0 and exponents null or two "
                                      "integers" % (entry,))
            if (ell, place) in out:
                raise InvalidArgument("Frobenius entry for ell = %d, place %d given "
                                      "twice" % (ell, place))
            out[(ell, place)] = None if ab is None else tuple(ab)
        return cls(out)

    def lookup(self, ell, place):
        return self.entries.get((ell, place))


def binomial_series_mod_p(c, p, trunc):
    """(1+x)^c mod p as a length-``trunc`` list, for any integer c."""
    out = [1] + [0] * (trunc - 1)
    b = 1
    for i in range(1, trunc):
        b = b * (c - i + 1) // i          # binom(c, i), exact: always an integer
        out[i] = b % p
    return out


def _frobenius_divisor(a, b, p):
    """Divisor mod p of the Frobenius character (1+S)^(-a) (1+T)^(-b) - 1.

    For b = 0 it is S^(p^v_p(a)) times a unit.  Otherwise write b = u*d with
    d = p^v_p(b): mod p, (1+T)^(-b) = (1+T^d)^(-u), so the character vanishes
    exactly on T^d = beta(S) with beta = (1+S)^(-a/u) - 1, and the
    distinguished W = T^d - beta dividing it is, by the uniqueness of
    Weierstrass preparation, its Weierstrass factor.
    """
    if b == 0:
        if a == 0:
            raise InvalidArgument("series vanishes mod p")
        return [(PrimeDescriptor("vertical", ("p", "S")), p ** vp(a, p))]
    d = p ** vp(b, p)
    q = p
    while q < S_TRUNC:
        q *= p
    # binom(c, i) mod p for i < q depends only on c mod q (Lucas)
    beta = binomial_series_mod_p(-a * pow(b // d, -1, q) % q, p, S_TRUNC)
    W = {0: [0] + [-x % p for x in beta[1:]], d: [1]}
    return [(PrimeDescriptor("vertical", ("p", _fps_poly_str(W, p)),
                             resolved=(d == 1)), 1 if d == 1 else d)]


def fudge_c2(curve, field_discriminant, p, sigma, frobenius=None):
    """Fudge divisor and per-place ledger at the primes of sigma away from p.

    Good, additive and nonsplit-multiplicative places contribute nothing;
    a split-multiplicative place contributes the cyclic quotient by
    (ord q, frobenius character - 1), nonzero exactly when p | ord q, with
    vertical lengths computed through the p-power filtration.  For p = 3
    the output is flagged as outside the supported hypothesis range.
    """
    odd_prime(p)
    frobenius = frobenius or FrobeniusData()
    divisor = C2Divisor()
    ledger = []
    flags = []
    if p < 5:
        flags.append("p = %d is outside the p >= 5 hypothesis of the fudge "
                     "factor analysis; output is advisory" % p)
    for ell in sorted(set(sigma)):
        if ell == p:
            ledger.append({"ell": ell, "skipped": "equal to p"})
            continue
        for place in classify_reduction(curve, ell, field_discriminant, p=p):
            terms, entry = place_contribution(place, p, frobenius)
            for desc, mult in terms:
                divisor.add(desc, mult)
                if not desc.resolved:
                    divisor.completeness = "partial-with-pushforward"
            ledger.append(entry)
    return divisor, {"places": ledger, "flags": flags, "p": p,
                     "sigma": sorted(set(sigma)),
                     "field_discriminant": field_discriminant}


def place_contribution(place, p, frobenius=None):
    """Fudge contribution of a single place: (divisor terms, ledger entry).

    Zero unless the place is split multiplicative with p | ord(q); the
    criterion is applied to the reduction data as given, so synthetic data
    exercises exactly the same decision path as real curves.
    """
    odd_prime(p)
    frobenius = frobenius or FrobeniusData()
    entry = {"place": place.as_dict()}
    if place.kind in ("good", "additive", "nonsplit-mult"):
        entry["contribution"] = "zero"
        entry["reason"] = {
            "good": "no pseudo-null part at good places",
            "additive": "invariants vanish at additive places",
            "nonsplit-mult": "projective dimension at most one",
        }[place.kind]
        return [], entry
    m = place.tate_valuation
    v = vp(m, p) if m else None
    if not m or v == 0:
        entry["contribution"] = "zero"
        entry["reason"] = "p does not divide ord(q) = %s" % m
        return [], entry
    ab = frobenius.lookup(place.ell, place.place_index)
    if ab is None:
        desc = PrimeDescriptor("vertical", ("p", "<frobenius character - 1>"),
                               resolved=False)
        entry["contribution"] = {"multiplicity": v,
                                 "note": "frobenius exponents missing; "
                                         "generators unresolved"}
        return [(desc, v)], entry
    parts = _frobenius_divisor(ab[0], ab[1], p)
    terms = []
    contrib = []
    for desc, mult in parts:
        total = v * mult
        terms.append((desc, total))
        contrib.append({"prime": desc.as_dict(), "multiplicity": total})
    entry["contribution"] = contrib
    return terms, entry


# ---------------------------------------------------------------------------
# the symbolic ledger


def theorem_ledger(coprimality_shadow=None, fudge_divisor=None, fudge_report=None):
    """Assemble the codimension-two identity as a status ledger.

    The two Galois-cohomological terms on the right are never computable
    here and are always marked out of scope; what is reported is exactly
    which side carries verified data, which is conditional, and which is
    absent.  ``coprimality_shadow`` is a ``CoprimalityCertificate``.
    """
    lhs = {"status": "absent"}
    if coprimality_shadow is not None:
        lhs = {"status": "shadow",
               "certificate": coprimality_shadow.as_dict(),
               "note": "pseudo-nullity of the quotient certified through the "
                       "one-variable shadow"
               if coprimality_shadow.verdict == "coprime"
               else "shadow certificate inconclusive"}
    rhs = {
        "fudge": fudge_divisor.as_dict() if fudge_divisor is not None else None,
        "fudge_report": fudge_report,
        "c2_Z": {"status": "out-of-scope",
                 "note": "Galois-cohomological term; not computable here"},
        "c2_Z_star": {"status": "out-of-scope",
                      "note": "Galois-cohomological term; not computable here"},
    }
    verified = []
    conditional = []
    if fudge_divisor is not None:
        verified.append("local fudge contributions at the listed places")
    if lhs["status"] == "shadow":
        conditional.append("left side pseudo-nullity via the coprimality shadow")
    return {
        "identity": "c2(quotient) = c2(Z) + c2(Z*) + sum of local fudge terms",
        "lhs": lhs,
        "rhs": rhs,
        "verified": verified,
        "conditional": conditional,
        "out_of_scope": ["c2(Z)", "c2(Z*)"],
        "note": "the identity is reported structurally; no numerical equality "
                "is asserted between the two sides",
    }
