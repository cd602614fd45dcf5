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

Each fact is computed once: one Newton profile per level, whose polygon
the dominance certificate compares with the modulus's, a product of one
Eisenstein profile per level; the final profile is the last one with mu
shifted by the family content, and the history is written after the loop.
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
                      newton_invariants)
from .modsym import make_twisted_evaluator
from .padics import odd_prime, vp
from .polys import mul as poly_mul, taylor_shift

DEFAULT_N_MAX = 6
MAX_EXTENSION = 2             # levels auto-extension may add beyond n_max


class ThetaTarget:
    """A curve or a quadratic twist, seen through its plus-type path family.

    Every family is a Birch sum over one base symbol: for a negative twist
    discriminant the plus family of the twist unfolds to Birch sums of the
    base minus symbol, and the untwisted family (D = 1, a one-term sum) is
    the plus symbol itself.  Raw values are integers; their running gcd is
    the family content used to normalize reported mu-invariants.
    """

    def __init__(self, curve, p, discriminant=1, plus_symbol=None, minus_symbol=None):
        odd_prime(p)
        curve.require_supersingular(p)
        if discriminant % p == 0:
            raise InvalidArgument("twist discriminant must be prime to p")
        base = minus_symbol if discriminant < 0 else plus_symbol
        if base is None:
            raise InvalidArgument("target needs the %s symbol"
                                  % ("minus" if discriminant < 0 else "plus"))
        self.curve = curve
        self.p = p
        self.discriminant = discriminant
        self._ev = make_twisted_evaluator(base, discriminant)
        self.label = curve.label if discriminant == 1 else "%s x (%d)" % (
            curve.label, discriminant)
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
    profile: InvariantProfile
    stabilization_history: list
    family_content: int
    interpolation_data: dict          # k -> CyclotomicInt (content-normalized)
    notes: list
    levels: tuple

    @property
    def n_max(self):
        """The deepest level used, auto-extension included."""
        return self.levels[-1]

    @property
    def certified(self):
        return self.stabilization_history[-1]["certified"]

    @property
    def trusted(self):
        return self.stabilization_history[-1]["trusted"]

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
    ``prev_ks`` already used ([1] before the first); the correction
    mod_coeffs * dx is added over the lcm of the two denominators.
    """
    diff = v_k - theta.evaluate_at_unity_root(k)
    for j in prev_ks:
        diff = diff * phi_value_at_root_inverse(p, j, k)
    prod, dd = fraction_poly_mul((mod_coeffs, 1), zeta_to_x_basis(diff, p, k))
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


def _dominance_certified(profile, modulus):
    """True when the modulus polygon strictly dominates the profile's
    polygon through lambda, so the profile provably belongs to the full
    series and not just to this representative.

    Only mu = 0 profiles without exact X-divisibility can be certified:
    a positive mu or a vanishing constant term could always be destroyed
    by the unknown multiple of the modulus.
    """
    if profile is None or profile.mu != 0 or profile.zero_run:
        return False
    hull, mod_hull = profile.polygon(), modulus.polygon()
    return all(hull_value(hull, i) < hull_value(mod_hull, i)
               for i in range(profile.lam + 1))


def _history_entry(levels, k, modulus, prof, shift):
    """One level's history record, its mu under the family normalization."""
    entry = {"levels": list(levels), "conductor_exponent": k + 1,
             "modulus_degree": modulus.lam}
    if prof is None:
        return entry | {"profile": None, "trusted": False, "certified": False,
                        "note": "representative vanishes; all interpolation data zero"}
    margin = max([s.denominator for _, s in prof.slopes if s is not None], default=1)
    entry |= {"profile": prof._replace(mu=prof.mu - shift).as_dict(),
              "trusted": prof.lam < modulus.lam - margin,
              "certified": _dominance_certified(prof, modulus)}
    if not entry["trusted"]:
        entry["note"] = "needs larger n_max"
    return entry


def _last_two_agree(steps):
    """True when the last two levels' profiles agree on (mu, lambda, slopes)."""
    profs = [step[-1] for step in steps[-2:]]
    return len(profs) == 2 and None not in profs and profs[0][:3] == profs[1][:3]


def reconstruct_signed(target, sign, n_max=DEFAULT_N_MAX, auto_extend=True):
    """Reconstruct the signed series of the target modulo a half-log product.

    Runs over increasing level sets of matching parity, profiling the
    representative once per level; ``stabilized`` requires the last two
    levels to agree on (mu, lambda, slopes).  The dominance certificate
    additionally marks profiles that provably survive to the full series.
    When stabilization fails within n_max and auto_extend is set, up to two
    deeper levels are attempted (each costs a factor ~p^2 in path
    evaluations), so the deepest level is n_max + MAX_EXTENSION.
    """
    if sign not in ("+", "-"):
        raise InvalidArgument("sign must be '+' or '-'")
    p = target.p
    k = 1 if sign == "+" else 2
    if k > n_max:
        raise InvalidArgument("n_max too small for sign %s" % sign)
    cap = n_max + MAX_EXTENSION
    theta, mod_coeffs, modulus = IwasawaElement1.zero(p), [1], InvariantProfile(0, 0, ())
    values = {}                  # k -> interpolation value, in level order
    steps = []                   # per level: (levels, k, modulus profile, profile)
    while k <= n_max or (auto_extend and k <= cap and not _last_two_agree(steps)):
        if values:
            mod_coeffs = poly_mul(mod_coeffs, cyclotomic_poly_shifted(p, k - 2))
        v_k = interpolation_value(target, sign, k)
        theta = _crt_extend(theta, mod_coeffs, list(values), v_k, p, k)
        values[k] = v_k
        modulus *= InvariantProfile.eisenstein((p - 1) * p ** (k - 1))
        steps.append((tuple(values), k, modulus, _profile(theta)))
        k += 2

    stabilized = _last_two_agree(steps)
    notes = [] if stabilized else ["profiles at the last two levels disagree; not stabilized"]
    # dividing by the family content shifts every valuation by vp(cg):
    # lambda and the slopes stay, mu moves
    cg = gcd(*(target.mazur_tate(k).raw_content for k in values)) or 1
    shift = vp(cg, p)
    profile = steps[-1][-1]
    if profile is not None:
        profile = profile._replace(mu=profile.mu - shift, stabilized=stabilized)
        if profile.mu < 0:
            # the signed series are integral, so this means wrong input data
            raise WorkbenchError("%s %s: normalized mu = %d is negative"
                                 % (target.label, sign, profile.mu))
    if shift:
        notes.append("family content divides out p^%d" % shift)
    return SignedLSeries(
        p=p, sign=sign, label=target.label,
        representative=IwasawaElement1(p, theta.nums, theta.den * cg, exact_tail=True),
        profile=profile,
        stabilization_history=[_history_entry(*step, shift) for step in steps],
        family_content=cg,
        interpolation_data={k: v * Fraction(1, cg) for k, v in values.items()},
        notes=notes, levels=tuple(values))


def reinterpolation_check(series):
    """Verify the representative reproduces every stored interpolation value.

    Exact equality of the evaluation at zeta - 1 against the normalized
    Birch-sum value, for every level in the reconstruction: the Taylor
    shift by -1 is taken once, and only its fold into Q(zeta_{p^k}) repeats.
    """
    rep = series.representative
    shifted = taylor_shift(rep.nums, -1)
    return [k for k, v in series.interpolation_data.items()
            if not (CyclotomicInt.from_exponents(rep.p ** k, shifted, rep.den) - v).is_zero()]


def trivial_character_ratio_check(theta_plus, theta_minus):
    """Compare constant terms against the expected tame ratio (p-1)/2.

    Both representatives approximate the series only modulo their half-log
    products, and the normalization of the two signs differs by a global
    scalar the construction cannot see, so the verdict is
    'consistent-up-to-unit' at best; the exact ratio is still reported.
    """
    p = theta_plus.p
    cp = theta_plus.constant_term()
    cm = theta_minus.constant_term()
    expected = Fraction(p - 1, 2)
    if cp == 0 or cm == 0:
        return {"status": "inconclusive", "reason": "constant term zero within the data",
                "expected": str(expected)}
    ratio = Fraction(cp, cm)
    det_digits = min(len(theta_plus.levels), len(theta_minus.levels))
    return {
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
