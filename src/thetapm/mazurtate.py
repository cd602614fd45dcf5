"""Mazur-Tate elements and signed series reconstruction.

The finite-level element at level n collects path values at denominator
p^(n+1), projected to the wild quotient (trivial tame component).  Its
evaluations at order-p^n characters are exact Birch sums; after the Gauss
sums cancel against the character sums, the signed interpolation value at
a character with zeta = psi(gamma) of order p^k reads

    v_k = (-1)^((k+1)/2) * S_psi / prod_{j even, j < k} Phi_{p^j}(zeta)   (plus)
    v_k = (-1)^((k+2)/2) * S_psi / prod_{j odd,  j < k} Phi_{p^j}(zeta)   (minus)

with S_psi the character sum of the level-k element.  Plus-series take
their data at odd k, minus-series at even k.  A Chinese-remainder lift over
the pairwise-coprime Eisenstein moduli Phi_{p^k}(1+X) then produces the
representative of the signed series modulo the half-log product.

Everything here is exact.  The representative is one ``IwasawaElement1``,
integer numerators over one denominator, from its first level through every
Garner step, the content normalization, the Newton layer and the
reinterpolation check; no coefficient becomes a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .cyclotomic import (CyclotomicInt, cyclotomic_poly_shifted,
                         fraction_poly_mul, phi_value_at_root_inverse,
                         zeta_to_x_basis)
from .exceptions import InvalidArgument, PrecisionError, WorkbenchError
from .iwasawa import (InvariantProfile, IwasawaElement1, hull_value,
                      lower_hull, newton_invariants)
from .modsym import make_twisted_evaluator
from .padics import vp
from .polys import mul as poly_mul

DEFAULT_N_MAX = 6
MAX_EXTENSION = 2             # levels auto-extension may add beyond n_max


class ThetaTarget:
    """A curve or a quadratic twist, seen through its plus-type path family.

    For a negative twist discriminant the plus family of the twist unfolds
    to Birch sums of the base minus symbol; the untwisted family is the
    plus symbol itself.  Raw values are integers; their running gcd is the
    family content used to normalize reported mu-invariants.
    """

    def __init__(self, curve, p, discriminant=1, plus_symbol=None, minus_symbol=None):
        if p % 2 == 0 or p < 3:
            raise InvalidArgument("p must be an odd prime")
        curve.require_supersingular(p)
        self.curve = curve
        self.p = p
        self.discriminant = discriminant
        if discriminant == 1:
            if plus_symbol is None:
                raise InvalidArgument("untwisted target needs the plus symbol")
            self._ev = plus_symbol.evaluator()
            self.label = curve.label
        else:
            if discriminant % p == 0:
                raise InvalidArgument("twist discriminant must be prime to p")
            base = minus_symbol if discriminant < 0 else plus_symbol
            if base is None:
                raise InvalidArgument("twisted target needs the opposite-sign base symbol")
            self._ev = make_twisted_evaluator(base, discriminant)
            self.label = "%s x (%d)" % (curve.label, discriminant)
        self._mt_cache = {}

    def family_value(self, a, q):
        return self._ev(a, q)

    def mazur_tate(self, n):
        if n not in self._mt_cache:
            self._mt_cache[n] = MazurTateElement.build(self, n)
        return self._mt_cache[n]


@dataclass
class MazurTateElement:
    """Level-n element over Gamma_n = Z/p^n, conductor p^(n+1) data.

    ``coeffs[j]`` is p - 1 times the coefficient of gamma^j: the integer
    sum of path values over the residues w * (1+p)^j, w running over the
    p - 1 Teichmueller lifts (the residues whose principal-unit logarithm
    is j).
    Averaging over the p-1 tame translates divides by p-1, a p-adic unit;
    ``evaluate`` applies it as the one denominator of the character sum.
    ``raw_content`` is the gcd of the integer path values that fed the
    element, used downstream for the family normalization.
    """

    p: int
    level: int
    coeffs: list
    raw_content: int = 0

    @classmethod
    def build(cls, target, n):
        p = target.p
        if n < 1:
            raise InvalidArgument("level must be >= 1")
        q = p ** (n + 1)
        teich = [pow(t, p ** n, q) for t in range(1, p)]
        co = []
        content = 0
        fv = target.family_value
        u = 1                                 # (1+p)^j mod q
        for _ in range(p ** n):
            s = 0
            for w in teich:
                v = fv(w * u % q, q)
                s += v
                content = gcd(content, v)
            co.append(s)
            u = u * (1 + p) % q
        return cls(p, n, co, raw_content=content)

    def evaluate(self, t=1):
        """Character sum sum_j (c_j / (p-1)) zeta^(t*j), zeta of order p^level.

        t prime to p selects the Galois-orbit representative.
        """
        m = self.p ** self.level
        v = [0] * m
        for j, c in enumerate(self.coeffs):
            v[t * j % m] += c
        return CyclotomicInt.from_exponents(m, v, self.p - 1)


# ---------------------------------------------------------------------------
# signed reconstruction


def interpolation_value(target, sign, k):
    """Exact signed interpolation value at the character with psi(gamma) = zeta.

    The returned cyclotomic number is the series value at zeta - 1; the
    Galois action permutes the values over the character orbit, so this one
    determines the residue modulo the level-k Eisenstein factor.
    """
    p = target.p
    S = target.mazur_tate(k).evaluate()
    if sign == "+":
        if k % 2 != 1:
            raise InvalidArgument("plus data lives at odd k")
        sf = (-1) ** ((k + 1) // 2)
        js = range(2, k, 2)
    else:
        if k % 2 != 0:
            raise InvalidArgument("minus data lives at even k")
        sf = (-1) ** ((k + 2) // 2)
        js = range(1, k, 2)
    v = S * sf
    for j in js:
        v = v * phi_value_at_root_inverse(p, j, k)
    return v


@dataclass
class SignedLSeries:
    """Reconstructed signed series modulo a half-log product."""

    p: int
    sign: str
    label: str
    representative: IwasawaElement1
    n_max: int
    profile: InvariantProfile
    stabilization_history: list
    family_content: int
    interpolation_data: dict          # k -> CyclotomicInt (content-normalized)
    certified: bool
    trusted: bool
    notes: list
    levels: tuple

    @property
    def rep_exact(self):
        """The content-normalized representative as one Fraction per
        coefficient, built on each read."""
        return self.representative.rationals()

    def constant_term(self):
        rep = self.representative
        return Fraction(rep.nums[0], rep.den) if rep.nums else None

    def as_dict(self):
        return {
            "p": self.p,
            "sign": self.sign,
            "label": self.label,
            "levels": list(self.levels),
            "n_max": self.n_max,
            "profile": self.profile.as_dict() if self.profile else None,
            "stabilized": self.is_stabilized(),
            "certified": self.certified,
            "trusted": self.trusted,
            "family_content": self.family_content,
            "history": self.stabilization_history,
            "notes": self.notes,
        }

    def is_stabilized(self):
        return self.profile is not None and self.profile.stabilized


def _crt_extend(theta, mod_coeffs, prev_ks, v_k, p, k):
    """One Garner step: extend theta (an exact IwasawaElement1) by the
    level-k datum.

    ``mod_coeffs`` is the integer product of Phi_{p^j}(1+X) over the levels
    already used; the correction mod_coeffs * dx is added over the lcm of
    the two denominators.
    """
    diff = v_k - theta.evaluate_at_unity_root(k)
    inv = CyclotomicInt.one(p ** k)
    for j in prev_ks:
        inv = inv * phi_value_at_root_inverse(p, j, k)
    prod, dd = fraction_poly_mul((mod_coeffs, 1), zeta_to_x_basis(diff * inv, p, k))
    den = lcm(theta.den, dd)
    a, b = den // theta.den, den // dd
    out = [c * a for c in theta.nums]
    out += [0] * (len(prod) - len(out))
    out[:len(prod)] = map(add, out, [c * b for c in prod])
    return IwasawaElement1(p, out, den, exact_tail=True)


def _profile(rep):
    """Newton profile of an exact representative; None when it vanishes."""
    try:
        return newton_invariants(rep)
    except PrecisionError:
        return None


def _modulus_polygon(p, ks):
    """Lower hull of the product of Phi_{p^k}(1+X) over k in ks: one
    vertex per factor, in order of increasing degree."""
    pts = [(0, len(ks))]
    for k in sorted(ks):
        x, y = pts[-1]
        pts.append((x + (p - 1) * p ** (k - 1), y - 1))
    return pts


def _dominance_certified(profile, rep, p, ks):
    """True when the modulus polygon strictly dominates the representative's
    polygon through lambda, so the profile provably belongs to the full
    series and not just to this representative.

    Only mu = 0 profiles without exact X-divisibility can be certified:
    a positive mu or a vanishing constant term could always be destroyed
    by the unknown multiple of the modulus.
    """
    if profile is None or profile.mu != 0:
        return False
    hullpts = [(i, v) for i, v in enumerate(rep.valuations()[:profile.lam + 1])
               if v is not None]
    if not hullpts or hullpts[0][0] != 0:
        return False
    hull = lower_hull(hullpts)
    mod_hull = _modulus_polygon(p, ks)
    for i in range(profile.lam + 1):
        if hull_value(mod_hull, i) <= hull_value(hull, i):
            return False
    return True


def reconstruct_signed(target, sign, n_max=DEFAULT_N_MAX, auto_extend=True):
    """Reconstruct the signed series of the target modulo a half-log product.

    Runs over increasing level sets of matching parity, recording the
    profile history; ``stabilized`` requires the last two levels to agree on
    (mu, lambda, slopes).  The dominance certificate additionally marks
    profiles that provably survive to the full series.  When stabilization
    fails within n_max and auto_extend is set, up to two deeper levels are
    attempted (each costs a factor ~p^2 in path evaluations), so the
    deepest level is n_max + MAX_EXTENSION.
    """
    if sign not in ("+", "-"):
        raise InvalidArgument("sign must be '+' or '-'")
    p = target.p
    parity = 1 if sign == "+" else 0
    cap = n_max + MAX_EXTENSION
    ks_all = [k for k in range(1, n_max + 1) if k % 2 == parity]
    if not ks_all:
        raise InvalidArgument("n_max too small for sign %s" % sign)

    history = []
    notes = []
    theta = None
    mod_coeffs = [1]
    used = []
    values = {}

    def push_level(k):
        nonlocal theta, mod_coeffs
        v_k = interpolation_value(target, sign, k)
        values[k] = v_k
        if theta is None:
            theta = IwasawaElement1(p, *zeta_to_x_basis(v_k, p, k), exact_tail=True)
        else:
            theta = _crt_extend(theta, mod_coeffs, list(used), v_k, p, k)
        mod_coeffs = poly_mul(mod_coeffs, cyclotomic_poly_shifted(p, k))
        used.append(k)
        deg_mod = len(mod_coeffs) - 1
        prof = _profile(theta)
        entry = {"levels": list(used), "conductor_exponent": k + 1,
                 "modulus_degree": deg_mod}
        if prof is None:
            entry["profile"] = None
            entry["note"] = "representative vanishes; all interpolation data zero"
            entry["trusted"] = False
            entry["certified"] = False
        else:
            margin = max([s.denominator for _, s in prof.slopes
                          if s is not None], default=1)
            trusted = prof.lam < deg_mod - margin
            certified = _dominance_certified(prof, theta, p, used)
            entry["profile"] = prof.as_dict()
            entry["trusted"] = trusted
            entry["certified"] = certified
            if not trusted:
                entry["note"] = "needs larger n_max"
        history.append(entry)

    for k in ks_all:
        push_level(k)
    while auto_extend and not _last_two_agree(history) and used[-1] + 2 <= cap:
        push_level(used[-1] + 2)
    stabilized_pair = _last_two_agree(history)
    if not stabilized_pair:
        notes.append("profiles at the last two levels disagree; not stabilized")

    content = 0
    for k in used:
        content = gcd(content, target.mazur_tate(k).raw_content)
    cg = abs(content) or 1
    rep = IwasawaElement1(p, theta.nums, theta.den * cg, exact_tail=True)
    prof_final = _profile(rep)
    if prof_final is not None:
        if prof_final.mu < 0:
            # the signed series are integral, so this means wrong input data
            raise WorkbenchError("%s %s: normalized mu = %d is negative"
                                 % (target.label, sign, prof_final.mu))
        prof_final = InvariantProfile(prof_final.mu, prof_final.lam,
                                      prof_final.slopes, stabilized_pair)
    certified = bool(history) and history[-1].get("certified", False)
    trusted = bool(history) and history[-1].get("trusted", False)
    # re-derive history profiles under the family normalization
    shift = vp(cg, p)
    if shift:
        for entry in history:
            if entry.get("profile"):
                entry["profile"]["mu"] -= shift
        notes.append("family content divides out p^%d" % shift)

    norm_values = {k: v * Fraction(1, cg) for k, v in values.items()}
    return SignedLSeries(
        p=p, sign=sign, label=target.label, representative=rep,
        n_max=used[-1] if used else n_max,
        profile=prof_final, stabilization_history=history,
        family_content=cg, interpolation_data=norm_values,
        certified=certified, trusted=trusted, notes=notes,
        levels=tuple(used))


def _last_two_agree(history):
    profs = [h.get("profile") for h in history]
    if len(profs) < 2 or profs[-1] is None or profs[-2] is None:
        return False
    a, b = profs[-2], profs[-1]
    return (a["mu"], a["lambda"], a["slopes"]) == (b["mu"], b["lambda"], b["slopes"])


def reinterpolation_check(series):
    """Verify the representative reproduces every stored interpolation value.

    Exact equality of the evaluation at zeta - 1 against the normalized
    Birch-sum value, for every level in the reconstruction.
    """
    failures = []
    for k, v in series.interpolation_data.items():
        got = series.representative.evaluate_at_unity_root(k)
        if not (got - v).is_zero():
            failures.append(k)
    return failures


def trivial_character_ratio_check(theta_plus, theta_minus):
    """Compare constant terms against the expected tame ratio (p-1)/2.

    Both representatives approximate the series only modulo their half-log
    products, and the normalization of the two signs differs by a global
    scalar the construction cannot see, so the verdict is
    'consistent-up-to-unit' at best; the exact ratio is still reported.
    """
    p = theta_plus.p
    if theta_plus.representative is None or theta_minus.representative is None:
        return {"status": "inconclusive", "reason": "missing representative"}
    cp = theta_plus.constant_term()
    cm = theta_minus.constant_term()
    expected = Fraction(p - 1, 2)
    if cp == 0 or cm == 0:
        return {"status": "inconclusive", "reason": "constant term zero within the data",
                "expected": str(expected)}
    ratio = Fraction(cp, cm)
    det_digits = min(len(theta_plus.levels), len(theta_minus.levels))
    out = {
        "status": "consistent-up-to-unit" if vp(ratio, p) == vp(expected, p)
        else "valuation-mismatch",
        "computed_ratio": str(ratio),
        "expected": str(expected),
        "valuation_computed": vp(ratio, p),
        "valuation_expected": vp(expected, p),
        "exact_match": ratio == expected,
        "determined_modulo": "p^%d" % det_digits,
        "ambiguity": "constant terms are known modulo the half-log moduli and a "
                     "global normalization scalar; only the p-adic valuation of "
                     "the ratio is intrinsic here",
    }
    return out
