"""Truncated Iwasawa-algebra elements, Newton polygons, Weierstrass theory.

One-variable elements model Z_p[[X]] under gamma -> 1 + X; two-variable
elements model Z_p[[S, T]].  Coefficients are PadicScalar values, so exact
polynomials (tail known to vanish) and precision-truncated series coexist;
an operation never claims digits or degrees beyond what its inputs carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import polys
from .exceptions import (InvalidArgument, PrecisionError, TruncationError)
from .padics import PadicScalar, vp
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
    """Element of Z_p[[X]] truncated at degree D.

    ``exact_tail`` marks honest polynomials: coefficients beyond the stored
    degree are exactly zero rather than unknown.
    """

    __slots__ = ("p", "coeffs", "trunc_degree", "exact_tail")

    def __init__(self, p, coeffs, exact_tail=False):
        self.p = p
        self.coeffs = [c if isinstance(c, PadicScalar) else PadicScalar(p, c)
                       for c in coeffs]
        self.trunc_degree = len(self.coeffs) - 1
        self.exact_tail = exact_tail

    @classmethod
    def from_rationals(cls, p, values, precision=None, exact_tail=True):
        return cls(p, [PadicScalar(p, v, precision=precision) for v in values],
                   exact_tail=exact_tail)

    @classmethod
    def zero(cls, p, D=0):
        return cls.from_rationals(p, [0] * (D + 1))

    @classmethod
    def one(cls, p):
        return cls.from_rationals(p, [1])

    def rationals(self):
        return [c.as_fraction() for c in self.coeffs]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        za = PadicScalar.zero(self.p)
        a = self.coeffs + [za] * (n - len(self.coeffs))
        b = other.coeffs + [za] * (n - len(other.coeffs))
        out = [x + y for x, y in zip(a, b)]
        tail = self.exact_tail and other.exact_tail
        if not tail:
            n = min(self._known_degree(), other._known_degree()) + 1
            out = out[:n]
        return IwasawaElement1(self.p, out, exact_tail=tail)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + other.scale(-1)

    def scale(self, c):
        return IwasawaElement1(self.p, [x * c for x in self.coeffs],
                               exact_tail=self.exact_tail)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            return self.scale(other)
        other = self._coerce(other)
        tail = self.exact_tail and other.exact_tail
        cap = (len(self.coeffs) + len(other.coeffs) - 1 if tail
               else min(self._known_degree(), other._known_degree()) + 1)
        out = [PadicScalar.zero(self.p) for _ in range(cap)]
        for i, x in enumerate(self.coeffs):
            if x.is_exact_zero():
                continue
            for j, y in enumerate(other.coeffs):
                if i + j >= cap:
                    break
                if y.is_exact_zero():
                    continue
                out[i + j] = out[i + j] + x * y
        return IwasawaElement1(self.p, out, exact_tail=tail)

    def _known_degree(self):
        return 10 ** 9 if self.exact_tail else self.trunc_degree

    def _coerce(self, other):
        if not isinstance(other, IwasawaElement1):
            raise InvalidArgument("expected a one-variable element")
        if other.p != self.p:
            raise InvalidArgument("mixed primes")
        return other

    def evaluate_at_unity_root(self, k):
        """Exact value at X = zeta_{p^k} - 1 (requires exact coefficients)."""
        return x_poly_at_zeta_minus_one([c.as_fraction() for c in self.coeffs],
                                        self.p, k)

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
    for i, c in enumerate(f.coeffs):
        if c.is_zero_within_precision():
            if c.precision is not None:
                unknown.append((i, c.precision))
            continue
        known.append((i, c.valuation()))
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


def newton_invariants_exact(coeffs, p):
    """Profile of an exact rational coefficient list (None when zero)."""
    f = IwasawaElement1.from_rationals(p, coeffs)
    try:
        return newton_invariants(f)
    except PrecisionError:
        return None


# ---------------------------------------------------------------------------
# Weierstrass preparation


def weierstrass_prepare(f, digits=None):
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
    precs = [c.precision for c in f.coeffs]
    finite = [x for x in precs if x is not None]
    base = min(finite) if finite else DEFAULT_PRECISION
    if finite and mu >= base:
        raise TruncationError("mu = %d exhausts coefficient precision %d" % (mu, base))
    digits = digits or max(base - mu, 1)
    mod = p ** digits
    fb = []
    for c in f.coeffs:
        if c.is_zero_within_precision():
            fb.append(0)
        else:
            if c.val < mu:
                raise InvalidArgument("inconsistent mu")
            shifted = PadicScalar.from_unit(p, c.val - mu, c.num, c.den,
                                            precision=c.precision)
            fb.append(shifted.lift(digits))
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

    def wrap(x):
        # x is determined modulo p^digits absolutely; relative precision is
        # what remains beyond its valuation
        if x % mod == 0:
            return PadicScalar.zero(p, known_to=digits)
        v = vp(x, p)
        return PadicScalar.from_unit(p, v, x // p ** v, precision=digits - v)
    unit = IwasawaElement1(p, [wrap(x) for x in U], exact_tail=False)
    dist = IwasawaElement1(p, [wrap(x) for x in P], exact_tail=True)
    dist.coeffs[-1] = PadicScalar(p, 1)      # monic exactly
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
    scale = Fraction(1, p ** (nfac + 1))
    co = [c.as_fraction() * scale for c in prod.coeffs]
    return IwasawaElement1.from_rationals(p, co, precision=N)


# ---------------------------------------------------------------------------
# Two-variable elements


class IwasawaElement2:
    """Element of Z_p[[S, T]] truncated at total bidegree (D, D).

    Coefficients are stored as a dict (i, j) -> PadicScalar with exact
    zeros omitted (zeros within precision stay, since they carry a
    precision); S and T play symmetric roles.
    """

    __slots__ = ("p", "coeffs", "trunc_degree", "exact_tail")

    def __init__(self, p, coeffs, trunc_degree=DEFAULT_TRUNC, exact_tail=False):
        self.p = p
        self.coeffs = {k: (v if isinstance(v, PadicScalar) else PadicScalar(p, v))
                       for k, v in coeffs.items()
                       if not (v.is_exact_zero() if isinstance(v, PadicScalar)
                               else v == 0)}
        self.trunc_degree = trunc_degree
        self.exact_tail = exact_tail

    @classmethod
    def from_dict(cls, p, d, trunc_degree=DEFAULT_TRUNC, exact_tail=True):
        return cls(p, d, trunc_degree, exact_tail)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return IwasawaElement2(self.p, out, min(self.trunc_degree, other.trunc_degree),
                               self.exact_tail and other.exact_tail)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            return IwasawaElement2(self.p, {k: v * other for k, v in self.coeffs.items()},
                                   self.trunc_degree, self.exact_tail)
        D = min(self.trunc_degree, other.trunc_degree)
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if not (self.exact_tail and other.exact_tail) and (i > D or j > D):
                    continue
                k = (i, j)
                out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return IwasawaElement2(self.p, out, D, self.exact_tail and other.exact_tail)

    def __sub__(self, other):
        return self + other * -1

    def t_polynomial(self):
        """Present as a T-polynomial: list of S-coefficient lists, exact."""
        dt = max((j for (_, j) in self.coeffs), default=0)
        ds = max((i for (i, _) in self.coeffs), default=0)
        out = [[Fraction(0)] * (ds + 1) for _ in range(dt + 1)]
        for (i, j), v in self.coeffs.items():
            out[j][i] = v.as_fraction()
        return out

    def mod_p(self):
        """Coefficient dict over F_p."""
        out = {}
        for k, v in self.coeffs.items():
            if v.is_zero_within_precision():
                continue
            if v.valuation() >= 1:
                continue
            r = v.lift(1) % self.p
            if r:
                out[k] = r
        return out

    def __repr__(self):
        return "IwasawaElement2(p=%d, %d terms)" % (self.p, len(self.coeffs))


def pi_cyc(f):
    """Cyclotomic specialization S -> X, T -> X of a two-variable element."""
    D = f.trunc_degree
    n = min(max((i + j for (i, j) in f.coeffs), default=0), D)
    out = [PadicScalar.zero(f.p) for _ in range(n + 1)]
    for (i, j), v in f.coeffs.items():
        if i + j <= n:
            out[i + j] = out[i + j] + v
    return IwasawaElement1(f.p, out, exact_tail=f.exact_tail)


# ---------------------------------------------------------------------------
# Resultants of T-polynomial presentations


def resultant_in_T(f, g):
    """Sylvester resultant in T of two T-polynomial presentations.

    Inputs are IwasawaElement2 values monic in T (after preparation) or raw
    T-polynomial coefficient lists over Q[S]; output is the one-variable
    resultant as an exact IwasawaElement1 in the surviving variable.
    """
    fp_ = f.t_polynomial() if isinstance(f, IwasawaElement2) else [list(map(Fraction, r)) for r in f]
    gp_ = g.t_polynomial() if isinstance(g, IwasawaElement2) else [list(map(Fraction, r)) for r in g]
    p = f.p if isinstance(f, IwasawaElement2) else g.p
    m = len(fp_) - 1
    n = len(gp_) - 1
    if m < 0 or n < 0:
        raise InvalidArgument("empty polynomial")
    for lead in (fp_[-1], gp_[-1]):
        if not any(lead):
            raise PrecisionError("leading T-coefficient vanishes; prepare first")
    if m == 0 or n == 0:
        # a constant c in T: the resultant is c to the other degree
        ints, den = polys.clear_denominators(fp_[0] if m == 0 else gp_[0])
        e = n if m == 0 else m
        out = [1]
        for _ in range(e):
            out = polys.mul(out, ints)
        return IwasawaElement1.from_rationals(
            p, [Fraction(c, den ** e) for c in polys.trim(out)])
    det = _bareiss_det(sylvester_matrix(fp_, gp_))
    # normalized so that a monic g gives the product of f over its roots
    sign = (-1) ** (m * n)
    return IwasawaElement1.from_rationals(p, [sign * c for c in det])


def sylvester_matrix(f, g):
    """Sylvester matrix of f and g, lists of coefficients lowest degree
    first, each coefficient a polynomial in S as ``_bareiss_det`` takes
    it: deg g shifted rows of f, then deg f shifted rows of g, leading
    coefficients on the left."""
    m, n = len(f) - 1, len(g) - 1
    M = [[[0]] * (m + n) for _ in range(m + n)]
    for r in range(n):
        M[r][r:r + m + 1] = f[::-1]
    for r in range(m):
        M[n + r][r:r + n + 1] = g[::-1]
    return M


def _bareiss_det(M):
    """Determinant over Q[S] (entries as coefficient lists), fraction-free.

    Each row is scaled to entries in Z[S] by the lcm of its denominators;
    Bareiss elimination runs over Z[S] with exact divisions, and the
    determinant is divided by the product of the row scales at the end.
    """
    n = len(M)
    rows = []
    scale = 1
    for row in M:
        den = lcm(*(c.denominator for e in row for c in e))
        scale *= den
        rows.append([polys.trim([c.numerator * (den // c.denominator) for c in e])
                     for e in row])
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if rows[k][k] == [0]:
            piv = next((r for r in range(k + 1, n) if rows[r][k] != [0]), None)
            if piv is None:
                return [Fraction(0)]
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
    return [Fraction(sign * c, scale) for c in rows[n - 1][n - 1]]
