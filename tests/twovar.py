"""The product of two-variable elements, for building test inputs.

The library never multiplies two-variable elements, so the product lives
here: term by term over integer numerators, the denominators multiplied.
"""

from thetapm import IwasawaElement2


def mul2(f, g):
    out = {}
    for (i1, j1), a in f.coeffs.items():
        for (i2, j2), b in g.coeffs.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + a * b
    return IwasawaElement2(f.p, out, f.den * g.den,
                           min(f.trunc_degree, g.trunc_degree))
