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


#: max(|y1|, |y2|) up to which group_exp sums the Taylor series of exp;
#: a larger exponent is halved into it and the sum squared back
_SERIES_RADIUS = 4.0
_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(32)])
_EYE4 = np.eye(4)


def group_exp(omega) -> np.ndarray:
    """exp(Omega) for a (..., 4, 4) stack of generators of so(4), se(3) or so(3,1).

    The characteristic polynomial of such a generator is x^4 + a x^2 + b with
    a = -tr(Omega^2) / 2 and b = det(Omega), so by Cayley-Hamilton
    exp(Omega) = c0 I + c1 Omega + c2 Omega^2 + c3 Omega^3, where c0 + c2 y
    interpolates cosh(sqrt y) and c1 + c3 y interpolates sinh(sqrt y) / sqrt y
    at the roots y1, y2 of y^2 + a y + b.  Each Omega is halved s times, by
    exact powers of two, until max(|y1|, |y2|) <= _SERIES_RADIUS (scaling and
    squaring, Moler and Van Loan, SIAM Review 45, 2003); the four coefficients
    of every matrix come from one Taylor series over the whole stack, and the
    result is squared s times.  An exponent with a non-finite invariant,
    beyond the float range, comes out as NaN entries without a warning.
    """
    omega = np.asarray(omega, dtype=float)
    shape = omega.shape
    omega = omega.reshape(-1, 4, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        o2 = omega @ omega
        a = -0.5 * np.trace(o2, axis1=-2, axis2=-1)
        b = np.linalg.det(omega)
        m = -0.5 * a
        rho = np.abs(m) + np.sqrt(np.abs(m * m - b))  # max(|y1|, |y2|)
        finite = np.isfinite(rho)
        rho[~finite] = 0.0
        # Omega / 2^s has the roots y / 4^s: a / 4^s, b / 16^s, rho / 4^s
        s = np.ceil(0.5 * np.log2(np.maximum(rho, _SERIES_RADIUS) / _SERIES_RADIUS)).astype(int)
        a, b, rho = np.ldexp(a, -2 * s), np.ldexp(b, -4 * s), np.ldexp(rho, -2 * s)
        # y^k = -b H_{k-2} + H_{k-1} y modulo the quadratic, where
        # H_k = -a H_{k-1} - b H_{k-2} are the complete symmetric sums of y1, y2;
        # a matrix stops summing once |H_k| <= (k + 1) rho^k makes its next term
        # below 1e-17
        t = np.zeros((4, len(rho)))
        h_prev, h, bound = np.zeros_like(rho), np.ones_like(rho), np.ones_like(rho)
        active, k = np.ones(len(rho), dtype=bool), 1
        while active.any():
            f = 2 * k
            t[:, active] += h[active] * _INV_FACTORIALS[f:f + 4, None]
            bound = bound * rho
            active &= (k + 1) * bound * _INV_FACTORIALS[f + 2] >= 1e-17
            h_prev, h = h, -a * h - b * h_prev
            k += 1
        w = np.ldexp(1.0, -s)[:, None, None]  # (Omega / 2^s)^j = w^j Omega^j
        c0, c1, c2, c3 = (c[:, None, None] for c in (1.0 - b * t[2], 1.0 - b * t[3], t[0], t[1]))
        e = c0 * _EYE4 + c1 * w * omega + c2 * w * w * o2 + c3 * w * w * w * (o2 @ omega)
        for j in range(s.max(initial=0)):
            e[s > j] = e[s > j] @ e[s > j]
        e[~finite] = np.nan
        return e.reshape(shape)
