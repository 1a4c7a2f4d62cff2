"""Constant-curvature ambient models and their shared linear algebra.

All three geometries of framed curves in 3-space (n = 2) live in coordinate
4-space:

* ``euclidean``  -- the affine slice {x0 = 1}; points carry a leading 1,
  tangent vectors a leading 0; the bilinear form is the standard dot.
* ``spherical``  -- the unit quadric {x . x = +1} of the standard dot.
* ``hyperbolic`` -- the upper sheet {x . x = -1, x0 > 0} of the Lorentz
  form  x . y = -x0 y0 + x1 y1 + ... .

A hyperplane is given by a unit conormal, for a framed curve its last frame
vector e_3 (see ``envelope``).  In the two quadric geometries the
conormal lives on the dual quadric (unit sphere, respectively de Sitter
space); a euclidean hyperplane also carries an offset, so its dual model is
R x S^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EUCLIDEAN = "euclidean"
SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

_KINDS = (EUCLIDEAN, SPHERICAL, HYPERBOLIC)


@dataclass(frozen=True)
class SpaceForm:
    """One of the three curve geometries in coordinate 4-space (n = 2)."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown geometry {self.kind!r}")

    @property
    def form(self) -> np.ndarray:
        """The 4x4 form matrix J: diag(-1, 1, 1, 1) in hyperbolic space, else the identity."""
        return np.diag([-1.0, 1.0, 1.0, 1.0]) if self.kind == HYPERBOLIC else np.eye(4)

    @property
    def delta(self) -> int:
        """Curvature sign in the structure equation: 0, +1, -1."""
        return {EUCLIDEAN: 0, SPHERICAL: 1, HYPERBOLIC: -1}[self.kind]


#: max(|y1|, |y2|) up to which group_exp sums the Taylor series of exp
_SERIES_RADIUS = 4.0
#: beyond it, y1 and y2 count as close when ((y1 - y2) / 2)^2 < _CLOSE_ROOTS |y1 + y2| / 2
_CLOSE_ROOTS = 1.0 / 16.0
_INV_FACTORIALS = [1.0 / math.factorial(k) for k in range(32)]
_NAN_COEFFICIENTS = (math.nan,) * 4
_EYE4 = np.eye(4)


def _sinhc(z):
    return cmath.sinh(z) / z if z else 1.0


def _exp_coefficients(a, b):
    """(c0, c1, c2, c3) with exp(Omega) = c0 I + c1 Omega + c2 Omega^2 + c3 Omega^3.

    Omega^4 + a Omega^2 + b I = 0.  With y1, y2 the roots of y^2 + a y + b,
    c0 + c2 y interpolates cosh(sqrt y) and c1 + c3 y interpolates
    sinhc(sqrt y) = sinh(sqrt y) / sqrt y at y1 and y2.
    """
    m = -0.5 * a
    disc = m * m - b
    r = cmath.sqrt(disc)
    rho = abs(m) + abs(r)  # max(|y1|, |y2|)
    if rho <= _SERIES_RADIUS:
        # y^k = -b H_{k-2} + H_{k-1} y modulo the quadratic, where
        # H_k = -a H_{k-1} - b H_{k-2} are the complete symmetric sums of y1, y2
        t0 = t1 = t2 = t3 = 0.0
        h_prev, h, k, bound = 0.0, 1.0, 1, 1.0
        while True:
            f = 2 * k
            t0 += h * _INV_FACTORIALS[f]
            t1 += h * _INV_FACTORIALS[f + 1]
            t2 += h * _INV_FACTORIALS[f + 2]
            t3 += h * _INV_FACTORIALS[f + 3]
            bound *= rho  # |H_k| <= (k + 1) rho^k
            if (k + 1) * bound * _INV_FACTORIALS[f + 2] < 1e-17:
                return 1.0 - b * t2, 1.0 - b * t3, t0, t1
            h_prev, h = h, -a * h - b * h_prev
            k += 1
    # c2 = (cosh u - cosh v) / (u^2 - v^2) = sinhc(p) sinhc(q) / 2 with
    # u, v = sqrt(y1), sqrt(y2), p, q = (u + v) / 2, (u - v) / 2 and p^2 - q^2 = uv = w
    w = cmath.sqrt(b)
    p, q = cmath.sqrt(0.5 * (m + w)), cmath.sqrt(0.5 * (m - w))
    sp, sq = _sinhc(p), _sinhc(q)
    c2 = 0.5 * sp * sq
    y1 = m - r if m < 0.0 else m + r  # the root of larger modulus
    y2 = b / y1
    v = cmath.sqrt(y2)
    sv = _sinhc(v)
    if abs(disc) >= _CLOSE_ROOTS * abs(m):
        c3 = (_sinhc(cmath.sqrt(y1)) - sv) / (y1 - y2)
    else:
        # y1 ~ y2 far from 0: the same quotient rewritten in p and q has no
        # cancellation there, since |p^2 - q^2| = |w| ~ |m|
        c3 = (cmath.cosh(p) * sq - sp * cmath.cosh(q)) / (2.0 * w)
    return (cmath.cosh(v) - c2 * y2).real, (sv - c3 * y2).real, c2.real, c3.real


def group_exp(omega) -> np.ndarray:
    """exp(Omega) for a (..., 4, 4) stack of generators of so(4), se(3) or so(3,1).

    The characteristic polynomial of such a generator is x^4 + a x^2 + b with
    a = -tr(Omega^2) / 2 and b = det(Omega), so by Cayley-Hamilton
    exp(Omega) = c0 I + c1 Omega + c2 Omega^2 + c3 Omega^3.  The four
    coefficients come from Python complex scalars per matrix: a Taylor series
    while both roots y of y^2 + a y + b are small, closed forms otherwise,
    with the divided difference of sinhc(sqrt y) rewritten where the roots
    nearly coincide.  The roots are real for the three algebras; rounding
    near a double root can make them complex, which changes nothing.  An
    exponential beyond the float range comes out as NaN entries instead of
    raising or warning.
    """
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        o2 = omega @ omega
        a = -0.5 * np.trace(o2, axis1=-2, axis2=-1)
        b = np.linalg.det(omega)
        coeffs = []
        for ai, bi in zip(a.ravel().tolist(), b.ravel().tolist()):
            try:
                coeffs.append(_exp_coefficients(ai, bi))
            except (OverflowError, ValueError, ZeroDivisionError):  # cosh past 710, inf or NaN input
                coeffs.append(_NAN_COEFFICIENTS)
        c = np.array(coeffs).reshape(a.shape + (4, 1, 1))
        c0, c1, c2, c3 = (c[..., k, :, :] for k in range(4))
        return c0 * _EYE4 + c1 * omega + c2 * o2 + c3 * (o2 @ omega)
