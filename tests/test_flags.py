"""Flag curve charts, integrality residuals, and monomial lifts."""

import itertools
import warnings

import numpy as np
import pytest
from fractions import Fraction

from framedcurves import (
    ChartError,
    DomainError,
    FramedCurveError,
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    detect_type,
    dual_curve_from_clift,
    dual_type,
    enumerate_generic_types,
    flag_from_curve,
    helix_curve,
    lift_chart,
    monomial_curve,
)
from framedcurves.examples import (
    BUILTIN_TYPES,
    builtin_adapted_examples,
    builtin_clift_examples,
    violation_witnesses,
)
from framedcurves.flags import _doolittle
from framedcurves.ratpoly import Poly

from exact_reference import differentiated_jet


def _poly_order(p: Poly) -> int:
    """Smallest t-degree with a nonzero coefficient (p must be nonzero)."""
    coeffs = p.t_coeffs()
    for k, c in enumerate(coeffs):
        if c != 0:
            return k
    raise AssertionError("zero polynomial has no order")


# -- monomial lifts ---------------------------------------------------------------


@pytest.mark.parametrize("a", BUILTIN_TYPES)
def test_monomial_clift_has_the_right_diagonal_orders(a):
    # the type is the partial-sum vector of 1 + the t-order of each diagonal
    # entry's derivative
    lift = c_lift_monomial(a)
    orders = [_poly_order(lift[(j + 1, j)].diff_t()) + 1 for j in range(len(a))]
    assert tuple(itertools.accumulate(orders)) == a


@pytest.mark.parametrize("mode", ["ordinary", "adapted", "osculating"])
def test_diagonal_orders_of_monomial_lifts_give_back_the_type(mode):
    for a in enumerate_generic_types(2, 3, mode):
        lift = c_lift_monomial(a)
        orders = tuple(_poly_order(lift[(j + 1, j)]) for j in range(len(a)))
        assert orders == (a[0], a[1] - a[0], a[2] - a[1]), a
        assert tuple(itertools.accumulate(orders)) == a


@pytest.mark.parametrize("a", [(), (0, 1, 2), (2, 1, 3), (1, 2, 1), (1, 2, 2), (-1, 2, 3)])
def test_monomial_clift_of_a_non_type_raises(a):
    # a type is strictly increasing naturals; for anything else some x_i^j
    # is not a multiple of t^(a_i - a_j) and the lift's divisions fail
    with pytest.raises(FramedCurveError):
        c_lift_monomial(a)


@pytest.mark.parametrize("a", BUILTIN_TYPES)
def test_monomial_clift_is_integral(a):
    fc = lift_chart(c_lift_monomial(a), np.linspace(-0.5, 0.5, 21))
    assert float(np.max(c_integrality_residual(fc))) < 1e-12
    assert float(np.max(d_integrality_residual(fc))) < 1e-12


def test_projection_of_clift_is_the_monomial_curve():
    # column 0 of the lift, (x_1^0, ..., x_{n+1}^0), is the curve itself
    a = (1, 2, 4)
    lift = c_lift_monomial(a)
    model = monomial_curve(a)
    assert (model.components[0] - Poly.const(1)).is_zero()
    for i, q in enumerate(model.components[1:], start=1):
        assert (lift[(i, 0)] - q).is_zero(), i


@pytest.mark.parametrize("a", [(1, 2, 4), (2, 3, 4), (1, 3, 4), (3, 4, 5)])
def test_dual_extraction_inverts_to_the_dual_type(a):
    dual = dual_curve_from_clift(c_lift_monomial(a))
    assert detect_type(dual, 0) == dual_type(a)


# -- integrality violations ----------------------------------------------------------


def test_violation_witnesses_are_flagged():
    broken_c, broken_d = violation_witnesses()
    assert float(np.max(c_integrality_residual(broken_c))) > 1e-1
    assert float(np.max(d_integrality_residual(broken_d))) > 1e-1
    # each witness only violates its own condition's side of the structure
    assert float(np.max(d_integrality_residual(broken_d))) > 1e-1


def test_builtin_examples_all_integral():
    for name, fc in builtin_clift_examples():
        assert float(np.max(c_integrality_residual(fc))) < 1e-8, name
        assert float(np.max(d_integrality_residual(fc))) < 1e-8, name
    for name, fc in builtin_adapted_examples():
        assert float(np.max(c_integrality_residual(fc))) < 1e-8, name


# -- float charts --------------------------------------------------------------------


def _exact_lu_derivative(m, m_prime):
    """Unit-lower L and L' = L strictlower(L^-1 M' U^-1) of M = L U over Fractions."""
    dim = len(m)
    upper = [row[:] for row in m]
    lower = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for k in range(dim):
        for i in range(k + 1, dim):
            f = upper[i][k] / upper[k][k]
            lower[i][k] = f
            upper[i] = [a - f * b for a, b in zip(upper[i], upper[k])]
    y = [row[:] for row in m_prime]
    for i in range(dim):
        for k in range(i):
            y[i] = [a - lower[i][k] * b for a, b in zip(y[i], y[k])]
    x = [[Fraction(0)] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(dim):
            x[r][c] = (y[r][c] - sum(x[r][k] * upper[k][c] for k in range(c))) / upper[c][c]
    dlower = [[sum(lower[i][k] * x[k][j] for k in range(j + 1, i + 1)) for j in range(dim)]
              for i in range(dim)]
    return lower, dlower


def _exact_chart(curve, t):
    """The exact chart at t of the jet matrix M = (gamma, ..., gamma^(n+1))."""
    dim = curve.dim
    cols = differentiated_jet(curve, t, dim)
    m = [[cols[k][i] for k in range(dim)] for i in range(dim)]
    m_prime = [[cols[k + 1][i] for k in range(dim)] for i in range(dim)]
    return _exact_lu_derivative(m, m_prime)


def _assert_chart_matches(fc, nodes, exact):
    for n, t in enumerate(nodes):
        lower, dlower = exact(t)
        for i, j in fc.coords:
            for got, want in ((fc.coords[(i, j)][n], lower[i][j]),
                              (fc.derivs[(i, j)][n], dlower[i][j])):
                assert abs(got - float(want)) <= 1e-14 * abs(float(want)), (t, i, j)


@pytest.mark.parametrize("a", BUILTIN_TYPES)
def test_float_chart_matches_an_exact_reference(a):
    # dyadic nodes are exact floats, so the exact chart at the same node is
    # the reference for both the coordinates and their derivatives
    nodes = [Fraction(k, 32) for k in range(4, 20)]
    curve = monomial_curve(a)
    fc = flag_from_curve(curve, np.array([float(t) for t in nodes]), base=np.eye(4))
    _assert_chart_matches(fc, nodes, lambda t: _exact_chart(curve, t))


def test_degenerate_curve_node_raises_chart_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError) as err:
            flag_from_curve(monomial_curve((2, 3, 4)), np.linspace(-0.5, 0.5, 21), base=np.eye(4))
    assert err.value.t == 0.0


def test_frame_leaving_the_chart_raises_chart_error_without_warnings():
    # relative to the helix's jet matrix at t = 0 with two columns swapped,
    # the osculating flag leaves the chart at t = 0 (a zero first pivot of
    # the swapped minor), while the earlier nodes stay inside it
    nodes = np.linspace(-0.5, 0.5, 21)
    curve = helix_curve()
    base = curve.jet(np.zeros(1), 3)[0][:, [0, 2, 1, 3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError) as err:
            flag_from_curve(curve, nodes, base=base)
    assert err.value.t == 0.0


def test_singular_base_raises_domain_error_without_warnings():
    # the base is factored by the chart's own LU: a zero pivot there is a bad
    # base, not a node leaving the chart
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="vanishing pivot"):
            flag_from_curve(helix_curve(), np.linspace(-0.5, 0.5, 21), base=np.diag([0.0, 1.0, 1.0, 1.0]))


def test_chart_error_names_the_first_degenerate_node():
    # node 0 fails at the last pivot, node 1 already at the first one
    late = np.diag([1.0, 1.0, 1.0, 0.0])
    early = np.diag([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ChartError) as err:
        _doolittle(np.stack([np.eye(4), late, early]), np.array([0.1, 0.2, 0.3]))
    assert err.value.t == 0.2
