"""Truncated Iwasawa-algebra elements, Newton polygons, Weierstrass theory.

One-variable elements model Z_p[[X]] under gamma -> 1 + X: integer
numerators over one positive denominator, with one absolute precision per
coefficient as data (None when exact) and a flag for an exact tail, so
exact polynomials and precision-truncated series (input files, Weierstrass
output, the signed logarithms) coexist.  ``newton_invariants`` finds
valuations, mu, lambda and zero markers in one integer scan, never claims
digits the numerators lack, and returns a NamedTuple ``InvariantProfile``,
the one reader of slope runs.  Two-variable elements model Z_p[[S, T]] and
are exact polynomials: integer numerators over one denominator, with no
truncation degree, so every reader sees every term.  Others read a
one-variable element through ``rationals``, ``valuations``, ``precisions``
and ``lifts``, or its ``nums`` and ``den`` (``mazurtate``, ``coprimality``
and ``chern`` do), and a two-variable one only through ``t_polynomial``
(integer S-coefficient rows over ``den``) and ``p_split`` (its least
p-adic valuation v and f / p^v mod p as trimmed F_p[S] rows by T-degree,
the one builder of residue rows).  The
T-resultant and the certificate resultant are both ``sylvester_resultant``,
one fraction-free Bareiss determinant over Z[S] that packs each entry into
one Python integer (Kronecker substitution) and eliminates on those.
``weierstrass_prepare`` lifts its factorization mod p to p^digits
quadratically, doubling the known digits at each step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, prod
from typing import NamedTuple

from . import polys
from .exceptions import (InvalidArgument, PrecisionError, TruncationError)
from .padics import odd_prime, vp
from .cyclotomic import cyclotomic_poly_shifted, x_poly_at_zeta_minus_one

DEFAULT_TRUNC = 200
DEFAULT_PRECISION = 30
_slope = lru_cache(maxsize=1024)(Fraction)   # a Fraction is immutable, so shareable


class InvariantProfile(NamedTuple):
    """(mu, lambda, slope runs) of a one-variable element.

    ``slopes`` is a tuple of (count, slope) runs, steepest first, after a
    (count, None) run for roots at X = 0; counts sum to ``lam``.
    ``stabilized`` is False when unknown digits could still hide lattice
    points below the computed polygon.  Other modules multiply profiles and
    read ``polygon()`` and ``zero_run`` rather than rebuild them from runs.
    """
    mu: int
    lam: int
    slopes: tuple
    stabilized: bool = True

    @classmethod
    def eisenstein(cls, d):
        """Profile of an Eisenstein polynomial of degree d: one run of slope 1/d."""
        return cls(0, d, ((d, _slope(1, d)),))

    def __mul__(self, other):
        """Profile of a product: mu and lambda add, and the runs merge with
        the zero run first, then steepest first, equal slopes summed."""
        runs = {}
        for c, s in self.slopes + other.slopes:
            runs[s] = runs.get(s, 0) + c
        order = sorted(runs, key=lambda s: (0, 0) if s is None else (1, -s))
        return InvariantProfile(self.mu + other.mu, self.lam + other.lam,
                                tuple((runs[s], s) for s in order),
                                self.stabilized and other.stabilized)

    @property
    def zero_run(self):
        """The number of roots at X = 0: the count of the leading None run."""
        return self.slopes[0][0] if self.slopes and self.slopes[0][1] is None else 0

    def polygon(self):
        """Vertices of the Newton polygon with mu removed, from height
        sum(count * slope) at x = zero_run down to (lambda, 0)."""
        runs = self.slopes[1:] if self.zero_run else self.slopes
        out = [(self.zero_run, sum(c * s for c, s in runs))]
        for c, s in runs:
            out.append((out[-1][0] + c, out[-1][1] - c * s))
        return out

    def is_unit(self):
        return self.mu == 0 and self.lam == 0

    def slope_values(self):
        return set(s for _, s in self.slopes if s is not None)

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
        odd_prime(p)
        g = gcd(den, *nums)
        self.p = p
        self.nums = list(nums) if g == 1 else [c // g for c in nums]
        self.den = den if g == 1 else den // g
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
    p, e = f.p, vp(f.den, f.p)
    known = []                # (i, valuation) of the nonzero coefficients
    unknown = []              # (i, bound) of the zeros within precision
    mu = cut = None           # known[cut] is the first point at height mu
    for i, (c, a) in enumerate(zip(f.nums, f.prec)):
        if c:
            v = -e
            while not c % p:
                c //= p
                v += 1
            if mu is None or v < mu:
                mu, cut = v, len(known)
            known.append((i, v))
        elif a is not None:
            unknown.append((i, a))
    if mu is None:
        raise PrecisionError("all coefficients are zero within precision")
    for i, bound in unknown:
        if bound <= mu:
            raise PrecisionError(
                "coefficient %d known only to O(p^%s); mu = %s not certified"
                % (i, bound, mu))
    lam = known[cut][0]
    hull = lower_hull(known[:cut + 1])
    slopes = []
    if hull[0][0] > 0:
        slopes.append((hull[0][0], None))     # exact zeros: roots at X = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((x2 - x1, _slope(y1 - y2, x2 - x1)))
    stabilized = not any(i <= lam and (i < hull[0][0] or bound < hull_value(hull, i))
                         for i, bound in unknown)
    return InvariantProfile(mu, lam, tuple(slopes), stabilized)


# ---------------------------------------------------------------------------
# Weierstrass preparation


def weierstrass_prepare(f):
    """Factor f = p^mu * unit * distinguished over the truncation window.

    The distinguished part P is monic of degree lambda with non-leading
    coefficients in pZ_p and the unit U has degree at most D - lambda;
    P * U = f/p^mu modulo p^digits, the propagated precision, which fixes
    both since P is monic.  This is a quadratic Hensel lift (von zur
    Gathen-Gerhard, Algorithm 15.10) of f/p^mu = X^lambda * U mod p: each
    step squares the modulus, adds dP = t*e mod P for the error
    e = f/p^mu - P*U and the exact quotient dU = (e - U*dP) / P (15.10's
    s*e + q*U), and carries the inverse t of U mod P by a Newton step in
    place of 15.10's Bezout pair.  U ends at its last coefficient that is
    nonzero mod p^digits.
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
    B = polys.trim([x % p for x in fb[lam:]]) or [0]
    if B == [0] or B[0] % p == 0:
        raise InvalidArgument("leading unit coefficient missing")
    P = [0] * lam + [1]                      # X^lambda, the monic factor mod p
    U = B                                    # the unit cofactor mod p
    _, t = polys.bezout_mod(P, B, p)         # t*U = 1 mod (P, m) as each step starts
    m = p
    while m < mod:
        m = min(m * m, mod)
        # e = fb - P*U is 0 mod the previous m: dP = t*e mod P, and
        # dU = (e - U*dP) / P exactly mod m, of degree at most D - lambda
        e = polys.mod(polys.sub(fb, polys.mul(P, U)), m)
        dP = polys.divmod_mod(polys.mul(t, e), P, m)[1]
        dU = polys.divmod_mod(polys.sub(e, polys.mul(U, dP)), P, m)[0]
        P = polys.mod(polys.add(P, dP), m)
        U = polys.mod(polys.add(U, dU), m)
        if m < mod:                          # Newton: t <- t * (2 - t*U) mod P
            r = polys.divmod_mod(polys.mul(t, U), P, m)[1]
            t = polys.divmod_mod(polys.mul(t, polys.sub([2], r)), P, m)[1]
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
        odd_prime(p)
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
        """(v, rows): v the least valuation of a coefficient, rows f / p^v
        mod p as a T-polynomial over F_p[S], the layout of ``t_polynomial``
        with each row trimmed and trailing zero rows dropped.

        v is negative exactly when p divides ``den``; the zero element gives
        (None, [[0]]).  Dividing by p^v leaves some coefficient a p-unit, so
        the rows of a nonzero element are never all zero.
        """
        if not self.coeffs:
            return None, [[0]]
        p = self.p
        w = min(vp(c, p) for c in self.coeffs.values())
        e = vp(self.den, p)
        inv = pow(self.den // p ** e, -1, p)
        q = p ** w
        rows = [polys.trim([c // q * inv % p for c in row]) for row in self.t_polynomial()]
        while rows[-1] == [0]:
            rows.pop()
        return w - e, rows

    def __repr__(self):
        return "IwasawaElement2(p=%d, %d terms)" % (self.p, len(self.coeffs))


def pi_cyc(f):
    """Cyclotomic specialization S -> X, T -> X of a two-variable element."""
    out = [0] * (max(map(sum, f.coeffs), default=0) + 1)
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
    constants the empty one, whose determinant is [1].  Integer
    coefficients (S-constants, as in the certificate) pack to themselves,
    so ``_bareiss_det`` is then plain integer Bareiss elimination.
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
    integer coefficient lists; [1] for the empty matrix, [0] when singular.

    Every entry is evaluated at S = 2^B (Kronecker substitution) and
    fraction-free Bareiss elimination (Bareiss 1968) runs on those
    integers, each division exact.  ``bound``, the product over rows of
    the summed coefficient 1-norms, bounds every coefficient of every
    minor, and every Bareiss entry is a minor.  With 2^B > 4 * bound each
    coefficient is one balanced base-2^B digit, so an evaluated entry is
    zero exactly when its polynomial is, and the determinant reads back
    digit by digit.
    """
    n = len(M)
    if not n:
        return [1]
    bound = prod(sum(map(abs, chain.from_iterable(row))) for row in M)
    if not bound:
        return [0]                  # a zero row
    B = bound.bit_length() + 2
    # Horner by shifts: polys.pack needs two lists and two packs per signed entry
    rows = [[_pack_signed(e, B) for e in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if piv is None:
                return [0]
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j], rem = divmod(row[j] * pivot - a * top[j], prev)
                if rem:
                    raise InvalidArgument("exact division failed: remainder is nonzero")
        prev = pivot
    det = sign * rows[n - 1][n - 1]
    out = []
    half, full = 1 << (B - 1), (1 << B) - 1
    while det:
        c = det & full
        if c >= half:
            c -= 1 << B
        out.append(c)
        det = (det - c) >> B
    return out or [0]


def _pack_signed(e, B):
    """Signed Horner evaluation of a coefficient list at S = 2^B."""
    v = e[-1]
    for c in reversed(e[:-1]):
        v = (v << B) + c
    return v
