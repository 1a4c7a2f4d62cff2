"""Fraction references for the package's integer formats.

The package ranks and roots integer lists; these helpers build the same
objects from Fractions, the slow and obvious way.
"""

import math


def integer_coeffs(coeffs):
    """The Fraction coefficient list times the lcm of its denominators, as ints."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs]


def differentiated_jet(curve, t, r):
    """Jet columns of a PolynomialCurve at rational t as Fractions, by repeated ``diff_t`` and exact ``eval``."""
    row, cols = curve.components, []
    for _ in range(r + 1):
        cols.append([p.eval(t) for p in row])
        row = tuple(p.diff_t() for p in row)
    return cols
