"""Flag coordinates near a base frame, integrality residuals, monomial lifts.

A full flag close to the standard one has a unique basis in column echelon
form: column j is e_j plus multiples x_i^j of the later e_i (0 <= j < i <=
n+1).  Concretely, the coordinates of a curve's osculating flag relative to
a base frame are the unit-lower-triangular factor of base^{-1} M(t), M the
jet matrix (gamma, gamma', ..., gamma^(n+1)).

Two exterior systems live on these coordinates:

* C (osculating lifts):  dx_i^j - x_i^{j+1} dx_{j+1}^j = 0  for j+1 < i,
  whose integral curves are determined by the diagonal entries x_{j+1}^j;
* D (Legendre lifts): the single condition coupling the point column to the
  hyperplane row, computed through the annihilating covector of the
  penultimate subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import PolynomialCurve
from .errors import ChartError, DomainError
from .jets import validate_type_vector
from .ratpoly import Poly

_PIVOT_TOL = 1e-10

# -- data types ----------------------------------------------------------------


@dataclass
class FlagCurve:
    """A float flag chart: lower-triangular coordinates and their derivatives over nodes s.

    ``coords`` and ``derivs`` map each strictly lower pair (i, j) to an array
    over s.  ``flag_from_curve`` takes both from a curve's jets (see
    _chart_derivative), and ``lift_chart`` from an exact lift.
    """

    dim: int
    s: np.ndarray
    coords: dict  # (i, j) -> array over s
    derivs: dict  # (i, j) -> array over s


# -- chart extraction -----------------------------------------------------------


def _chart(stack):
    """(i, j) -> stack[:, i, j] over the strictly lower pairs."""
    dim = stack.shape[-1]
    return {(i, j): stack[:, i, j].copy() for j in range(dim - 1) for i in range(j + 1, dim)}


def _matmul(a, b):
    """a @ b over stacked matrices, each entry summed in k order from 0.0.

    The fixed order, unlike BLAS, gives the same bits on every machine.
    """
    out = 0.0
    for k in range(a.shape[-1]):
        out = out + a[..., :, k, None] * b[..., k, None, :]
    return out


def _doolittle(m, nodes):
    """Unit-lower L and U of each matrix of an (N, d, d) stack, no pivoting.

    A pivot with |p| <= _PIVOT_TOL * max(1, max|M|) raises ChartError at the
    first such node in node order (the derivative formula below needs U
    invertible, so the last pivot is checked too).  Such a node carries on
    with pivot 1 until then, so nothing divides by zero.
    """
    dim = m.shape[-1]
    u = np.array(m, dtype=float)
    lower = np.zeros_like(u)
    lower[:, range(dim), range(dim)] = 1.0
    tol = _PIVOT_TOL * np.maximum(1.0, np.max(np.abs(u), axis=(-2, -1)))
    bad = np.zeros(len(u), dtype=bool)
    for k in range(dim):
        bad |= np.abs(u[:, k, k]) <= tol
        piv = np.where(bad, 1.0, u[:, k, k])
        f = u[:, k + 1 :, k] / piv[:, None]
        lower[:, k + 1 :, k] = f
        u[:, k + 1 :, k:] -= f[:, :, None] * u[:, k, None, k:]
    if bad.any():
        raise ChartError(float(nodes[np.argmax(bad)]))
    return lower, u


def _substitute(tri, rhs, upper=False):
    """tri^-1 rhs for stacked lower (or upper) triangular tri, by forward (back) substitution."""
    dim = tri.shape[-1]
    x = np.array(rhs, dtype=float)
    order = range(dim - 1, -1, -1) if upper else range(dim)
    for n, i in enumerate(order):
        for k in order[:n]:
            x[..., i, :] -= tri[..., i, k, None] * x[..., k, :]
        x[..., i, :] /= tri[..., i, i, None]
    return x


def flag_from_curve(curve, nodes, base=None) -> FlagCurve:
    """Osculating flag chart of a curve, with truncation-free derivatives.

    The unit-lower chart depends only on the column spans, so the raw jet
    matrix stands in for any orthonormalization of it (the change of basis is
    upper triangular and falls out of the LU factor).  The jets are taken to
    the base by the base's own unpivoted LU factors (``_doolittle``); a base
    with a pivot below the chart's tolerance raises DomainError.  With M'
    from the next jet, the chart and its derivative come out to roundoff from
    the jets, in floats, for all nodes at once (_chart_derivative).
    Degenerate nodes (where the plain jet matrix loses rank) raise
    ChartError; sample around them.
    """
    nodes = np.asarray(nodes, dtype=float)
    dim = curve.dim
    jets = curve.jet(nodes, dim)  # (N, dim, dim + 1): gamma, gamma', ...
    base = jets[0, :, :dim] if base is None else np.asarray(base, dtype=float)
    try:
        base_lower, base_upper = _doolittle(base[None], nodes)
    except ChartError:
        raise DomainError("the flag chart's base has a vanishing pivot (singular, or it needs "
                          "row exchanges)") from None
    m = _substitute(base_upper, _substitute(base_lower, jets), upper=True)
    lower, upper = _doolittle(m[..., :dim], nodes)
    return FlagCurve(dim=dim, s=nodes, coords=_chart(lower), derivs=_chart_derivative(lower, upper, m[..., 1:]))


def _chart_derivative(lower, upper, m_prime):
    """The chart of L' = L strictlower(L^-1 M' U^-1), for M = L U per node.

    Differentiating M = L U gives L^-1 L' + U' U^-1 = L^-1 M' U^-1, whose
    strictly lower part is L^-1 L' (unit-lower L, upper U).
    """
    # L^-1 M' by forward substitution, then (.) U^-1 = (U^-T (.)^T)^T
    y = np.swapaxes(_substitute(lower, m_prime), -1, -2)
    x = np.swapaxes(_substitute(np.swapaxes(upper, -1, -2), y), -1, -2)
    return _chart(_matmul(lower, np.tril(x, -1)))


# -- integrality residuals -------------------------------------------------------


def _last_row(lift):
    """The last row index n of an exact lift {(i, j): Poly}; the lift lives in dimension n + 1."""
    return max(lift)[0]


def lift_chart(lift, nodes) -> FlagCurve:
    """The float chart of an exact lift {(i, j): Poly} over nodes: every entry and its derivative."""
    nodes = np.asarray(nodes, dtype=float)
    return FlagCurve(dim=_last_row(lift) + 1, s=nodes, coords={key: p.evalf(nodes) for key, p in lift.items()},
                     derivs={key: p.diff_t().evalf(nodes) for key, p in lift.items()})


def c_integrality_residual(fc: FlagCurve):
    """Per-node max |dx_i^j - x_i^{j+1} dx_{j+1}^j| over all couplings j+1 < i."""
    res = np.zeros(len(fc.s))
    for i in range(fc.dim):
        for j in range(i - 1):
            gap = np.abs(fc.derivs[(i, j)] - fc.coords[(i, j + 1)] * fc.derivs[(j + 1, j)])
            res = np.maximum(res, gap)
    return res


def d_integrality_residual(fc: FlagCurve):
    """Per-node Legendre residual of the projected (point, hyperplane) curve.

    The hyperplane V_{n+1} is annihilated by the covector w with w_{n+1} = 1,
    w_j = -sum_{i>j} w_i x_i^j; the residual is |sum_i w_i dx_i^0|.
    """
    last, size = fc.dim - 1, len(fc.s)
    w = {last: np.ones(size)}
    for j in range(last - 1, 0, -1):
        acc = np.zeros(size)
        for i in range(j + 1, fc.dim):
            acc -= w[i] * fc.coords[(i, j)]
        w[j] = acc
    res = np.zeros(size)
    for i in range(1, fc.dim):
        res = res + w[i] * fc.derivs[(i, 0)]
    return np.abs(res)


# -- monomial C-lifts and the dual extraction ---------------------------------------


def c_lift_monomial(a):
    """Exact C-integral lift {(i, j): Poly} of the monomial curve of type a.

    Column 0 carries the curve itself; the integrality relations propagate
    x_i^{j+1} = (x_i^j)' / (x_{j+1}^j)', which stays monomial: x_i^j is
    a multiple of t^(a_i - a_j) for a strictly increasing type.
    """
    from math import factorial

    a = validate_type_vector(a)
    dim = len(a) + 1
    polys = {}
    for i in range(1, dim):
        polys[(i, 0)] = Poly.monomial_t(a[i - 1], Fraction(1, factorial(a[i - 1])))
    for j in range(1, dim - 1):
        for i in range(j + 1, dim):
            polys[(i, j)] = polys[(i, j - 1)].diff_t().div_monomial_t(polys[(j, j - 1)].diff_t())
    return polys


def dual_curve_from_clift(lift) -> PolynomialCurve:
    """Dual curve read off a C-integral lift: (1, x_{n+1}^n, ..., x_{n+1}^0)."""
    last = _last_row(lift)
    comps = [Poly.const(1)] + [lift[(last, j)] for j in range(last - 1, -1, -1)]
    return PolynomialCurve(comps)
