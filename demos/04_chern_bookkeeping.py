"""Local lengths, pushforwards, reduction types and the fudge ledger."""

import json
from fractions import Fraction

from thetapm import (FrobeniusData, IwasawaElement2, bundled_curve,
                     classify_reduction, fudge_c2, local_length_vertical,
                     pushforward_c2, theorem_ledger)


def el2(terms):
    return IwasawaElement2.from_dict(3, {k: Fraction(v) for k, v in terms.items()})


# each length is planted: v * a for (3^v, Pbar^a * unit) at (3, Pbar)
T_S = {(0, 1): 1, (1, 0): -1}
S = {(1, 0): 1}
T2_S = {(0, 2): 1, (1, 0): -1}
print("local lengths at vertical primes (3, Pbar):")
for f, g, pbar, label, planted in [
        (el2({(0, 0): 3}), el2(T_S), T_S, "(3, T-S) at (3, T-S)", 1),
        (el2({(0, 0): 9}), el2(T_S), T_S, "(9, T-S) at (3, T-S)", 2),
        (el2({(0, 0): 3}), el2({(0, 2): 1, (1, 1): -2, (2, 0): 1}), T_S,
         "(3, (T-S)^2) at (3, T-S)", 2),
        (el2({(0, 0): 3}), el2({(3, 0): 1, (3, 1): 1}), S, "(3, S^3 (1+T)) at (3, S)", 3),
        (el2({(0, 0): 9}), el2({(0, 2): 2, (0, 3): 1, (1, 0): -2, (1, 1): -1}), T2_S,
         "(9, (T^2-S)(2+T)) at (3, T^2-S)", 2)]:
    length = local_length_vertical((f, g), pbar)
    print("  %-34s -> %d" % (label, length))
    assert length == planted, "%s: length %d, planted %d" % (label, length, planted)

print("\npushforward of (T, S) along the S-line:")
res, div = pushforward_c2(el2({(0, 1): 1}), el2({(1, 0): 1}))
print(json.dumps(div.as_dict(), indent=2))

curve = bundled_curve("40a")
print("\nreduction of %s at 5 over the field of discriminant -43:" % curve.label)
for place in classify_reduction(curve, 5, -43):
    print(" ", place.as_dict())

print("\nfudge ledger for %s, D = -43, p = 5, sigma = {2, 5}:" % curve.label)
frob = FrobeniusData({(5, 0): (1, 0)})
divisor, ledger = fudge_c2(curve, -43, 5, [2, 5], frob)
for entry in ledger["places"]:
    if "place" in entry:
        pl = entry["place"]
        print("  ell=%d %s %s -> %s" % (pl["ell"], pl["place_structure"],
                                        pl["type"], entry["contribution"]))
print("total divisor:", json.dumps(divisor.as_dict()["terms"]))

print("\nsymbolic ledger (cohomological terms are out of scope by design):")
led = theorem_ledger(fudge_divisor=divisor, fudge_report=ledger)
print(json.dumps({k: led[k] for k in ("identity", "verified", "out_of_scope")},
                 indent=2))
