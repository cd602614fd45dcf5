"""Newton polygons, Weierstrass preparation, and signed logarithm pieces."""

from fractions import Fraction

from thetapm import (IwasawaElement1, half_log_product, newton_invariants,
                     pollack_log_truncated, polys, weierstrass_prepare)

p = 3


def show(label, coeffs):
    f = IwasawaElement1.from_rationals(p, [Fraction(c) for c in coeffs])
    prof = newton_invariants(f)
    print("%-28s mu=%d lambda=%d slopes=%s" % (label, prof.mu, prof.lam,
                                               prof.slopes))
    return f


print("profiles of a few one-variable elements:")
show("unit 1 + 3X", [1, 3])
show("Eisenstein X^2 - 3", [-3, 0, 1])
show("3 * (X^2 + 3)", [9, 0, 3])
show("X^2 (X^2 + 3)", [0, 0, 3, 0, 1])

print("\nWeierstrass preparation of 3 (1+X)(X^2+3):")
f = IwasawaElement1.from_rationals(
    p, [3 * c for c in polys.mul([1, 1], [3, 0, 1])], precision=25)
unit, dist, mu = weierstrass_prepare(f)
print("  mu =", mu)
print("  distinguished part:", [c.lift(6) for c in dist.coeffs])
print("  unit starts with:", [unit.coeffs[i].lift(4) for i in range(2)])

print("\nhalf-log products (moduli of the signed reconstruction):")
for parity, n in (("odd", 3), ("even", 4)):
    h = half_log_product(p, parity, n)
    prof = newton_invariants(h)
    print("  parity %-5s n=%d: degree %d, slopes %s"
          % (parity, n, h.trunc_degree, prof.slopes))

print("\ntruncated signed logarithms vanish at matching-parity roots:")
for sign, parity in (("+", "even"), ("-", "odd")):
    log = pollack_log_truncated(p, sign, 4)
    co = [c.as_fraction() for c in log.coeffs]
    lifted = IwasawaElement1.from_rationals(p, co)
    pattern = []
    for k in range(1, 5):
        val = lifted.evaluate_at_unity_root(k)
        pattern.append("zeta_%d: %s" % (p ** k, "0" if val.is_zero() else "nonzero"))
    print("  log^%s truncated at 4: %s" % (sign, ", ".join(pattern)))
