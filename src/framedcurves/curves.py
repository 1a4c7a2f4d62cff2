"""Curve representations that can produce jets (point + derivative columns).

Two representations are supported:

* :class:`PolynomialCurve` -- exact rational coefficients; jets at rational
  parameters are exact, which is what the rank decisions downstream want.
* :class:`BasePointCurve` -- the base point of a closed-form frame with
  constant curvatures; its jets are float, and its exact rank evidence is
  the Krylov columns of its structure matrix.

All components are ambient coordinate vectors of length n+2 (euclidean curves
carry their leading 1 explicitly, so derivatives carry a leading 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .errors import DimensionMismatch
from .ratpoly import Poly, as_fraction


class PolynomialCurve:
    """Curve whose components are exact rational polynomials in t."""

    def __init__(self, components):
        comps = []
        for comp in components:
            if isinstance(comp, Poly):
                if comp.deg_u() > 0:
                    raise DimensionMismatch("curve components must be univariate in t")
                comps.append(comp)
            else:
                comps.append(Poly.from_t_coeffs(comp))
        if len(comps) < 3:
            raise DimensionMismatch("need at least 3 components (ambient dimension n+2 >= 3)")
        self.components = tuple(comps)
        self._derivs = [self.components]

    @property
    def dim(self):
        return len(self.components)

    def _deriv_row(self, k):
        while len(self._derivs) <= k:
            self._derivs.append(tuple(p.diff_t() for p in self._derivs[-1]))
        return self._derivs[k]

    def jet(self, t, r):
        """Float jet matrix of shape (dim, r+1): columns are gamma, gamma', ...

        Over a node array the shape is (N, dim, r+1), and each derivative row
        is evaluated once on the whole array (bit for bit the scalar values).
        """
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.dim, r + 1))
        for k in range(r + 1):
            row = self._deriv_row(k)
            for i, p in enumerate(row):
                out[..., i, k] = p.evalf(t)
        return out

    def jet_exact(self, t, r):
        """Exact jet columns as nested lists of Fractions (t must be rational)."""
        tq = as_fraction(t)
        cols = []
        for k in range(r + 1):
            row = self._deriv_row(k)
            cols.append([p.eval(tq) for p in row])
        return cols

    def reparametrized(self, phi: Poly) -> "PolynomialCurve":
        """Exact composition gamma(phi(t)) for reparametrization checks."""
        return PolynomialCurve([p.compose_t(phi) for p in self.components])

    def linearly_mapped(self, matrix) -> "PolynomialCurve":
        """Apply an exact constant linear map (rows of rationals) to the curve."""
        rows = [[as_fraction(x) for x in row] for row in matrix]
        if any(len(row) != self.dim for row in rows):
            raise DimensionMismatch("matrix width must equal the curve dimension")
        comps = []
        for row in rows:
            acc = Poly()
            for a, p in zip(row, self.components):
                acc = acc + Poly.const(a) * p
            comps.append(acc)
        return PolynomialCurve(comps)


class BasePointCurve:
    """The base point e_0 of a frame field E(t) with a constant structure matrix K.

    E' = E K makes the k-th derivative (E(t) K^k)[:, 0], so one closed-form
    ``frame`` (a parameter array to (..., dim, dim) frames) gives every order.
    As E(t) is invertible, the jets have the ranks of the Krylov columns
    K^k e_0, which ``jet_exact`` gives exactly at every t.
    """

    def __init__(self, frame, k):
        self.frame = frame
        self.k = np.asarray(k, dtype=float)
        self.dim = len(self.k)

    def jet(self, t, r):
        """Float jet matrix (dim, r+1), or (N, dim, r+1) over a node array."""
        cols = [np.eye(self.dim)[:, 0]]
        for _ in range(r):
            cols.append(self.k @ cols[-1])
        return self.frame(np.asarray(t, dtype=float)) @ np.stack(cols, axis=1)

    def jet_exact(self, t, r):
        """The Krylov columns e_0, K e_0, ..., K^r e_0 as lists of Fractions of K's floats (any t)."""
        k = [[Fraction(x) for x in row] for row in self.k.tolist()]
        cols = [[Fraction(int(i == 0)) for i in range(self.dim)]]
        for _ in range(r):
            cols.append([sum((a * b for a, b in zip(row, cols[-1])), Fraction(0)) for row in k])
        return cols


# -- the model curves of type vectors ----------------------------------------


def monomial_curve(a, dim=None) -> PolynomialCurve:
    """The model curve (1, t^{a1}/a1!, ..., t^{ak}/ak!) of a given type vector."""
    a = tuple(int(x) for x in a)
    if dim is None:
        dim = len(a) + 1
    if dim < len(a) + 1:
        raise DimensionMismatch("ambient dimension too small for the type vector")
    comps = [Poly.const(1)]
    comps += [Poly.monomial_t(ai, Fraction(1, factorial(ai))) for ai in a]
    comps += [Poly() for _ in range(dim - len(a) - 1)]
    return PolynomialCurve(comps)
