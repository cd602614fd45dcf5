"""One quadratic twist end to end: from modular symbols to signed invariants.

Builds the plus/minus eigensymbols of 32a, reconstructs both signed series
of the twist by -43 at p = 3, and prints the level-by-level history, the
final profiles and the coprimality certificate.
"""

import time

from thetapm import (RunConfig, Workbench, bundled_curve, coprime_certificate,
                     reinterpolation_check, trivial_character_ratio_check)

wb = Workbench(RunConfig())
curve = bundled_curve("32a")
D = -43

print("curve %s, twist discriminant %d, p = %d" % (curve.label, D, wb.config.p))
print("conductor of the twist: %d (never built: twisted values are Birch sums)"
      % (curve.conductor * D * D))

t0 = time.time()
series = {}
for sign in ("+", "-"):
    s = wb.signed_series(curve, D, sign)
    series[sign] = s
    print("\ntheta^%s of %s" % (sign, s.label))
    for entry in s.stabilization_history:
        prof = entry["profile"]
        desc = ("vanishes" if prof is None else
                "mu=%s lambda=%s slopes=%s" % (prof["mu"], prof["lambda"],
                                               prof["slopes"]))
        print("  levels %-12s deg(modulus)=%-4d %s%s" % (
            entry["levels"], entry["modulus_degree"], desc,
            "  [certified]" if entry.get("certified") else ""))
    print("  final: %s" % (s.profile,))
    print("  stabilized=%s certified=%s family content=%d"
          % (s.is_stabilized(), s.certified, s.family_content))
    print("  re-interpolation failures: %s" % reinterpolation_check(s))
print("\nelapsed: %.1fs" % (time.time() - t0))

cert = coprime_certificate(series["+"], series["-"])
print("\ncoprimality: %s via %s (%s)" % (cert.verdict, cert.method, cert.detail))

base_plus = wb.signed_series(curve, 1, "+")
base_minus = wb.signed_series(curve, 1, "-")
print("base curve: theta^+ %s, theta^- %s" % (base_plus.profile, base_minus.profile))
print("tame ratio check:", trivial_character_ratio_check(base_plus, base_minus)["status"])
