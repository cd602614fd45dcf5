"""Truncated Iwasawa-algebra elements, Newton polygons, Weierstrass theory.

One-variable elements model Z_p[[X]] under gamma -> 1 + X: integer
numerators over one positive denominator, with one absolute precision per
coefficient as data (None when exact) and a flag for an exact tail, so
exact polynomials and precision-truncated series (input files, Weierstrass
output, the signed logarithms) coexist; the Newton polygon never claims
digits beyond what they carry.  Two-variable elements model Z_p[[S, T]]
and are exact polynomials: integer numerators over one denominator, with
no truncation degree, so every reader sees every term.  This
module is the only one that knows either storage.  Others read a
one-variable element through ``rationals``, ``valuations``,
``precisions`` and ``lifts``, and a two-variable one through
``t_polynomial`` (integer S-coefficient rows over ``den``) and ``p_split``
(its least p-adic valuation and the residues of f / p^v mod p).  The
T-resultant and the certificate resultant are both ``sylvester_resultant``,
one Bareiss determinant over Z[S] on integer polynomials of
``thetapm.polys``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import polys
from .exceptions import (InvalidArgument, PrecisionError, TruncationError)
from .padics import is_prime, vp
from .cyclotomic import cyclotomic_poly_shifted, x_poly_at_zeta_minus_one

DEFAULT_TRUNC = 200
DEFAULT_PRECISION = 30


@dataclass(frozen=True)
class InvariantProfile:
    """(mu, lambda, slope runs) of a one-variable element.

    ``slopes`` is a tuple of (count, slope) runs, steepest first; counts sum
    to ``lam``.  ``stabilized`` is False when unknown digits could still
    hide lattice points below the computed polygon.
    """
    mu: int
    lam: int
    slopes: tuple
    stabilized: bool = True

    def is_unit(self):
        return self.mu == 0 and self.lam == 0

    def slope_values(self):
        return set(s for _, s in self.slopes if s is not None)

    def has_zero_roots(self):
        return any(s is None for _, s in self.slopes)

    def as_dict(self):
        return {
            "mu": self.mu,
            "lambda": self.lam,
            "slopes": [[c, "inf" if s is None else str(s)] for c, s in self.slopes],
            "stabilized": self.stabilized,
        }


class IwasawaElement1:
    """Element of Z_p[[X]] truncated at degree D: integer numerators ``nums``
    over one positive denominator ``den``, in lowest terms.

    ``prec`` holds one absolute precision per coefficient: the coefficient
    is known modulo p^prec, or exactly when the entry is None.  A zero
    numerator with a finite entry is a "zero to O(p^prec)" marker.
    ``exact_tail`` marks honest polynomials: coefficients beyond the stored
    degree are exactly zero rather than unknown.
    """

    __slots__ = ("p", "nums", "den", "prec", "exact_tail")

    def __init__(self, p, nums, den=1, prec=None, exact_tail=False):
        if not is_prime(p) or p == 2:
            raise InvalidArgument("p must be an odd prime, got %r" % (p,))
        g = gcd(den, *nums)
        self.p = p
        self.nums = [c // g for c in nums]
        self.den = den // g
        self.prec = (None,) * len(self.nums) if prec is None else tuple(prec)
        self.exact_tail = exact_tail

    @classmethod
    def from_rationals(cls, p, values, precision=None):
        """Exact polynomial; with ``precision`` every coefficient is known
        to that many digits beyond its valuation (a zero to O(p^precision))."""
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
        out = cls(p, *polys.clear_denominators(values), exact_tail=True)
        if precision is not None:
            if precision < 1:
                raise InvalidArgument("precision must be >= 1")
            out.prec = tuple(precision + (v or 0) for v in out.valuations())
        return out

    @classmethod
    def zero(cls, p, D=0):
        return cls.from_rationals(p, [0] * (D + 1))

    @property
    def trunc_degree(self):
        return len(self.nums) - 1

    def rationals(self):
        return [Fraction(c, self.den) for c in self.nums]

    def valuations(self):
        """p-adic valuation of each coefficient; None for a zero numerator."""
        e = vp(self.den, self.p)
        return [None if c == 0 else vp(c, self.p) - e for c in self.nums]

    def precisions(self):
        """Absolute precision of each coefficient, None where exact."""
        return self.prec

    def lifts(self, digits):
        """The coefficients as integers mod p^digits (all must be p-integral)."""
        p, m = self.p, self.p ** digits
        q = p ** vp(self.den, p)
        if any(c % q for c in self.nums):
            raise InvalidArgument("negative valuation has no integral lift")
        inv = pow(self.den // q, -1, m)
        return [c // q * inv % m for c in self.nums]

    def evaluate_at_unity_root(self, k):
        """Exact value at X = zeta_{p^k} - 1 (requires exact coefficients)."""
        return x_poly_at_zeta_minus_one(self.nums, self.p, k, self.den)

    def __repr__(self):
        return "IwasawaElement1(p=%d, deg<=%d, %s)" % (
            self.p, self.trunc_degree, "poly" if self.exact_tail else "series")


# ---------------------------------------------------------------------------
# Newton polygons


def lower_hull(points):
    """Vertices of the lower convex hull of (x, y) points sorted by x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def hull_value(hull, x):
    """Height of the piecewise-linear hull at abscissa x (inside range)."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (x - x1)
    if hull and x == hull[0][0]:
        return Fraction(hull[0][1])
    raise InvalidArgument("abscissa outside hull range")


def newton_invariants(f):
    """Invariant profile (mu, lambda, slope runs) of a one-variable element.

    mu is the minimal coefficient valuation, lambda the least index where it
    is attained, and the slopes are the lower-hull slopes on [0, lambda]
    after removing mu, steepest run first.  Exact X-divisibility (leading
    coefficients exactly zero) shows up as a leading run with slope None, so
    run lengths always sum to lambda.  Raises PrecisionError when every
    coefficient is zero within precision, or when unknown digits could
    undercut mu.
    """
    known = []
    unknown = []
    for i, (v, a) in enumerate(zip(f.valuations(), f.prec)):
        if v is not None:
            known.append((i, v))
        elif a is not None:
            unknown.append((i, a))
    if not known:
        raise PrecisionError("all coefficients are zero within precision")
    mu = min(v for _, v in known)
    for i, bound in unknown:
        if bound <= mu:
            raise PrecisionError(
                "coefficient %d known only to O(p^%s); mu = %s not certified"
                % (i, bound, mu))
    lam = min(i for i, v in known if v == mu)
    pts = [(i, v) for i, v in known if i <= lam]
    hull = lower_hull(pts)
    slopes = []
    if hull[0][0] > 0:
        slopes.append((hull[0][0], None))     # exact zeros: roots at X = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((x2 - x1, Fraction(y1 - y2, x2 - x1)))
    stabilized = True
    for i, bound in unknown:
        if i <= lam and (i < hull[0][0] or bound < hull_value(hull, i)):
            stabilized = False
    return InvariantProfile(mu, lam, tuple(slopes), stabilized)


# ---------------------------------------------------------------------------
# Weierstrass preparation


def weierstrass_prepare(f):
    """Factor f = p^mu * unit * distinguished over the truncation window.

    The distinguished part is monic of degree lambda with non-leading
    coefficients in pZ_p; the factorization is a Hensel lift of
    f/p^mu = X^lambda * (unit series) mod p and matches f coefficientwise
    to the propagated precision.
    """
    p = f.p
    prof = newton_invariants(f)
    lam, mu = prof.lam, prof.mu
    D = f.trunc_degree
    if lam >= D and not f.exact_tail:
        raise TruncationError("lambda = %d exceeds truncation %d" % (lam, D))
    # relative precisions: digits known beyond each valuation
    rel = [a if v is None else a - v for v, a in zip(f.valuations(), f.prec)
           if a is not None]
    base = min(rel) if rel else DEFAULT_PRECISION
    if rel and mu >= base:
        raise TruncationError("mu = %d exhausts coefficient precision %d" % (mu, base))
    # f / p^mu is known to the least a - mu, which binds only when mu < 0
    digits = min([max(base - mu, 1)] + [a - mu for a in f.prec if a is not None])
    mod = p ** digits
    # f / p^mu as integers over dd, each known modulo p^digits
    sh = p ** abs(mu)
    nums, dd = ([c * sh for c in f.nums], f.den) if mu < 0 else (f.nums, f.den * sh)
    q = p ** vp(dd, p)
    inv = pow(dd // q, -1, mod)
    fb = [c // q * inv % mod for c in nums]
    A = [0] * lam + [1]                      # X^lambda
    B = polys.trim([x % p for x in fb[lam:]]) or [0]
    if B == [0] or B[0] % p == 0:
        raise InvalidArgument("leading unit coefficient missing")
    _, t = polys.bezout_mod(A, B, p)
    P = list(A)                              # lifted monic factor
    U = list(B)                              # lifted unit cofactor, a series mod X^(D+1)
    for m in range(1, digits):
        pm = p ** m
        E = polys.mod([x // pm for x in polys.sub(fb, polys.mul(P, U))[:len(fb)]], p)
        if E == [0]:
            continue
        # E = X^lambda*dU + B*dP with deg dP < lambda: dP = t*E mod X^lambda,
        # then dU is a shift
        dP = polys.mod(polys.mul(t[:lam], E[:lam])[:lam], p)
        dU = polys.mod(polys.sub(E, polys.mul(B, dP))[lam:], p) or [0]
        P = polys.add(P, [x * pm for x in dP])
        U = polys.add(U, [x * pm for x in dU])
        P = [x % (mod * p) for x in P][:lam + 1]
        U = [x % (mod * p) for x in U][:D + 1 - lam] or [1]
    P = [x % mod for x in P[:lam]] + [1]
    U = [x % mod for x in U]
    # every coefficient is known modulo p^digits; the leading 1 exactly
    unit = IwasawaElement1(p, U, prec=[digits] * len(U))
    dist = IwasawaElement1(p, P, prec=[digits] * lam + [None], exact_tail=True)
    return unit, dist, mu


# ---------------------------------------------------------------------------
# Pollack logarithm truncations


def half_log_product(p, parity, n):
    """Product of Phi_{p^k}(1+X) over k <= n of the given parity, exact.

    These are the finite modulus polynomials the signed reconstruction works
    against; degree is the sum of phi(p^k) over the selected k.
    """
    if parity not in ("even", "odd"):
        raise InvalidArgument("parity must be 'even' or 'odd'")
    if n < 1:
        raise InvalidArgument("n must be >= 1")
    start = 2 if parity == "even" else 1
    co = [1]
    for k in range(start, n + 1, 2):
        co = polys.mul(co, cyclotomic_poly_shifted(p, k))
    return IwasawaElement1.from_rationals(p, co)


def pollack_log_truncated(p, sign, n_max, D=DEFAULT_TRUNC, N=DEFAULT_PRECISION):
    """Truncated signed logarithm (1/p) * prod Phi_{p^k}(1+X)/p.

    The plus log uses even k <= n_max, the minus log odd k; coefficients are
    exact rationals with negative valuations tracked, wrapped at precision N.
    """
    if sign not in ("+", "-"):
        raise InvalidArgument("sign must be '+' or '-'")
    if n_max < 1:
        raise InvalidArgument("n_max must be >= 1")
    parity = "even" if sign == "+" else "odd"
    prod = half_log_product(p, parity, n_max)
    nfac = len(range(2 if parity == "even" else 1, n_max + 1, 2))
    if prod.trunc_degree > D:
        raise TruncationError("degree %d exceeds truncation %d"
                              % (prod.trunc_degree, D))
    scale = p ** (nfac + 1)
    return IwasawaElement1.from_rationals(p, [Fraction(c, scale) for c in prod.nums],
                                          precision=N)


# ---------------------------------------------------------------------------
# Two-variable elements


class IwasawaElement2:
    """Exact polynomial of Z_p[[S, T]].

    ``coeffs`` maps (i, j), the exponents of S and T, to integer numerators
    over the positive denominator ``den``; zero terms are omitted and the
    fraction is in lowest terms.
    """

    __slots__ = ("p", "coeffs", "den")

    def __init__(self, p, coeffs, den=1):
        g = gcd(den, *coeffs.values())
        self.p = p
        self.coeffs = {k: v // g for k, v in coeffs.items() if v}
        self.den = den // g

    @classmethod
    def from_dict(cls, p, d):
        """From a dict (i, j) -> rational coefficient."""
        nums, den = polys.clear_denominators([Fraction(v) for v in d.values()])
        return cls(p, dict(zip(d, nums)), den)

    def __sub__(self, other):
        out = {k: v * other.den for k, v in self.coeffs.items()}
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v * self.den
        return IwasawaElement2(self.p, out, self.den * other.den)

    def t_polynomial(self):
        """Integer T-polynomial: rows of S-coefficient numerators over ``den``.

        Row j holds the numerators of the coefficient of T^j, lowest S-degree
        first; every row has the same length and the top row is nonzero
        unless the element is zero.
        """
        dt = max((j for (_, j) in self.coeffs), default=0)
        ds = max((i for (i, _) in self.coeffs), default=0)
        out = [[0] * (ds + 1) for _ in range(dt + 1)]
        for (i, j), v in self.coeffs.items():
            out[j][i] = v
        return out

    def p_split(self):
        """(v, residues): v the least valuation of a coefficient, residues
        the nonzero coefficients of f / p^v mod p as a dict (i, j) -> r.

        v is negative exactly when p divides ``den``; the zero element gives
        (None, {}).  Dividing by p^v leaves some coefficient a p-unit, so the
        residues of a nonzero element are never empty.
        """
        if not self.coeffs:
            return None, {}
        p = self.p
        w = min(vp(c, p) for c in self.coeffs.values())
        e = vp(self.den, p)
        inv = pow(self.den // p ** e, -1, p)
        q = p ** w
        out = {}
        for k, c in self.coeffs.items():
            r = c // q * inv % p
            if r:
                out[k] = r
        return w - e, out

    def __repr__(self):
        return "IwasawaElement2(p=%d, %d terms)" % (self.p, len(self.coeffs))


def pi_cyc(f):
    """Cyclotomic specialization S -> X, T -> X of a two-variable element."""
    out = [0] * (max((i + j for (i, j) in f.coeffs), default=0) + 1)
    for (i, j), v in f.coeffs.items():
        out[i + j] += v
    return IwasawaElement1(f.p, out, f.den, exact_tail=True)


# ---------------------------------------------------------------------------
# Resultants of T-polynomial presentations


def resultant_in_T(f, g):
    """Sylvester resultant in T of two two-variable elements.

    The inputs are read as T-polynomials over Q[S] (monic in T after
    preparation); the output is the one-variable resultant in S as an exact
    IwasawaElement1.  The determinant runs on the integer rows and is
    divided once by f.den^(deg g) * g.den^(deg f).
    """
    fp_, gp_ = f.t_polynomial(), g.t_polynomial()
    m, n = len(fp_) - 1, len(gp_) - 1
    for lead in (fp_[-1], gp_[-1]):
        if not any(lead):
            raise PrecisionError("leading T-coefficient vanishes; prepare first")
    det = sylvester_resultant(fp_, gp_)
    # normalized so that a monic g gives the product of f over its roots
    sign = (-1) ** (m * n)
    scale = f.den ** n * g.den ** m
    return IwasawaElement1(f.p, [sign * c for c in det], scale, exact_tail=True)


def sylvester_resultant(f, g):
    """Res(f, g) over Z[S], the determinant of the Sylvester matrix.

    f and g are T-polynomials with nonzero leading rows: lists of integer
    S-coefficient lists, lowest T-degree first.  The matrix holds deg g
    shifted rows of f, then deg f shifted rows of g, leading coefficients
    on the left; a constant in T gives a diagonal matrix, and two
    constants the empty one, whose determinant is [1].
    """
    m, n = len(f) - 1, len(g) - 1
    rows = [[[0]] * (m + n) for _ in range(m + n)]
    f, g = ([polys.trim(list(c)) for c in reversed(x)] for x in (f, g))
    for r in range(n):
        rows[r][r:r + m + 1] = f
    for r in range(m):
        rows[n + r][r:r + n + 1] = g
    return _bareiss_det(rows)


def _bareiss_det(M):
    """Determinant over Z[S] of a square matrix whose entries are trimmed
    integer coefficient lists; fraction-free Bareiss elimination with exact
    divisions.
    """
    n = len(M)
    if not n:
        return [1]
    rows = [list(row) for row in M]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if rows[k][k] == [0]:
            piv = next((r for r in range(k + 1, n) if rows[r][k] != [0]), None)
            if piv is None:
                return [0]
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = polys.sub(polys.mul(rows[i][j], pivot),
                                polys.mul(rows[i][k], rows[k][j]))
                rows[i][j] = polys.exact_div(num, prev)     # raises if inexact
            rows[i][k] = [0]
        prev = pivot
    return [sign * c for c in rows[n - 1][n - 1]]
