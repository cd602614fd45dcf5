"""Signed interpolation values at a conjugate character, for the Galois tests.

The pipeline interpolates at psi(gamma) = zeta only.  The value at
psi(gamma) = zeta^t is built here from scratch, from the Mazur-Tate
character sum at zeta^t and the conjugated inverses of the cyclotomic
factors, so that comparing it with the conjugate of the pipeline's value
checks Galois equivariance rather than assuming it.
"""

from thetapm.cyclotomic import phi_value_at_root_inverse


def orbit_value(target, sign, k, t):
    """The series value at zeta^t - 1, t prime to p."""
    p = target.p
    if sign == "+":
        sf, js = (-1) ** ((k + 1) // 2), range(2, k, 2)
    else:
        sf, js = (-1) ** ((k + 2) // 2), range(1, k, 2)
    v = target.mazur_tate(k).evaluate(t=t) * sf
    for j in js:
        v = v * phi_value_at_root_inverse(p, j, k).galois(t % p ** k)
    return v
