"""The Manin quotient, eigensymbols, path values and Birch twisting."""

from fractions import Fraction
from math import gcd

from thetapm import (build_space, bundled_curve, extract_eigensymbol,
                     make_twisted_evaluator)

curve = bundled_curve("32a")
space = build_space(curve.conductor)
print("level %d: %d generators of P^1(Z/%d), quotient dimension %d"
      % (space.level, len(space.generators), space.level, space.dim))

plus = extract_eigensymbol(space, curve, +1)
minus = extract_eigensymbol(space, curve, -1)
print("plus symbol on generators: ", plus.values_on_generators)
print("minus symbol on generators:", minus.values_on_generators)
print("eigenvalue certificate:", plus.ap_certificate)

evp = plus.evaluator()
evm = minus.evaluator()
print("\npath values [a/m] = value on {oo, a/m}:")
for (a, m) in [(0, 1), (1, 5), (2, 5), (1, 7), (5, 27)]:
    print("  [%d/%d]+ = %3d   [%d/%d]- = %3d" % (a, m, evp(a, m), a, m, evm(a, m)))

print("\nHecke identity on paths (ell = 5, a/m = 1/7):")
a, m, ell = 1, 7, 5
lhs = sum(evp(a + b * m, ell * m) for b in range(ell)) + evp(ell * a, m)
assert lhs == curve.ap(ell) * evp(a, m), "Hecke identity fails at ell = 5"
print("  sum_b [(a+bm)/(ell m)] + [ell a/m] = %d = a_5 * [1/7] = %d * %d"
      % (lhs, curve.ap(5), evp(a, m)))

D = -43
print("\nBirch twisting by %d (values of the twist, one Birch sum each):" % D)
tev = make_twisted_evaluator(minus, D)      # plus family of the twist
for (a, m) in [(1, 9), (2, 9), (4, 9)]:
    print("  twisted [%d/%d]+ = %d" % (a, m, tev(a, m)))
identity = make_twisted_evaluator(plus, 1)
assert all(identity(a, m) == evp(a, m) for m in (5, 7, 9) for a in range(m)), \
    "the identity twist changes a path value"
print("identity twist returns the base values: True")

twist = curve.quadratic_twist(-3)
direct = extract_eigensymbol(build_space(twist.conductor), twist, +1)
dev = direct.evaluator()
tev3 = make_twisted_evaluator(minus, -3)    # plus family of the twist
ratios = {Fraction(tev3(a, m), dev(a, m))
          for m in (5, 7, 11) for a in range(1, m) if dev(a, m)}
print("\ndirect plus symbol of the twist by -3 at level %d: certificate %s,"
      " content %s" % (twist.conductor, direct.ap_certificate,
                       direct.normalization_content))
assert len(ratios) == 1, "Birch sums and direct values differ by %s" % ratios
print("Birch sums / direct values, one global scalar:", ratios.pop())
