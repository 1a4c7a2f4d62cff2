"""Flag curve charts, integrality residuals, reconstruction, and monomial lifts."""

import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from framedcurves import (
    CapabilityError,
    ChartError,
    CurvatureData,
    DomainError,
    FlagCurve,
    Frame,
    c_integral_reconstruct,
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    detect_type,
    dual_curve_from_clift,
    dual_type,
    enumerate_generic_types,
    flag_from_curve,
    flag_from_frame,
    frame_field_from_function,
    helix_curve,
    integrate_structure_equation,
    monomial_curve,
    projection_curve,
    type_from_diagonal_orders,
)
from framedcurves.examples import (
    BUILTIN_TYPES,
    builtin_adapted_examples,
    builtin_clift_examples,
    helix_frenet_field,
    violation_witnesses,
)
from framedcurves.flags import _doolittle
from framedcurves.ratpoly import Poly
from framedcurves.spaceform import space_form


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
    fc = c_lift_monomial(a)
    orders = []
    for j in range(fc.dim - 1):
        entry = fc.polys[(j + 1, j)]
        orders.append(_poly_order(entry.diff_t()) + 1)
    assert type_from_diagonal_orders(orders) == a


@pytest.mark.parametrize("mode", ["ordinary", "adapted", "osculating"])
def test_diagonal_orders_of_monomial_lifts_give_back_the_type(mode):
    for a in enumerate_generic_types(2, 3, mode):
        orders = c_lift_monomial(a).diagonal_orders()
        assert orders == (a[0], a[1] - a[0], a[2] - a[1]), a
        assert type_from_diagonal_orders(orders) == a


@pytest.mark.parametrize("a", BUILTIN_TYPES)
def test_monomial_clift_is_integral(a):
    fc = c_lift_monomial(a)
    assert float(np.max(c_integrality_residual(fc))) < 1e-12
    assert float(np.max(d_integrality_residual(fc))) < 1e-12


def test_projection_of_clift_is_the_monomial_curve():
    a = (1, 2, 4)
    proj = projection_curve(c_lift_monomial(a))
    model = monomial_curve(a)
    for p, q in zip(proj.components, model.components):
        assert (p - q).is_zero()


@pytest.mark.parametrize("a", [(1, 2, 4), (2, 3, 4), (1, 3, 4), (3, 4, 5)])
def test_dual_extraction_inverts_to_the_dual_type(a):
    dual = dual_curve_from_clift(c_lift_monomial(a))
    assert detect_type(dual, 0, mode="exact") == dual_type(a)


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


# -- charts from frames and from curves agree -------------------------------------


def test_flag_charts_from_curve_and_frame_agree():
    # the Frenet frame differs from the jet matrix by a right upper-triangular
    # factor, which drops out of the unit-lower chart -- so relative to a
    # common base matrix the two charts and their derivatives coincide
    nodes = np.linspace(-0.5, 0.5, 21)
    curve, field = helix_frenet_field(nodes)
    base = field.matrices[0]
    from_curve = flag_from_curve(helix_curve(), nodes, base=base)
    from_frame = flag_from_frame(field, base=base)
    for key, table in from_curve.coords.items():
        assert np.allclose(table, from_frame.coords[key], atol=1e-9), key
        assert np.allclose(from_curve.derivs[key], from_frame.derivs[key], atol=1e-9), key


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
    cols = curve.jet_exact(t, dim)
    m = [[cols[k][i] for k in range(dim)] for i in range(dim)]
    m_prime = [[cols[k + 1][i] for k in range(dim)] for i in range(dim)]
    return _exact_lu_derivative(m, m_prime)


def _assert_chart_matches(fc, nodes, exact):
    for n, t in enumerate(nodes):
        lower, dlower = exact(t)
        for i, j in fc.pairs():
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


# E(t) = A + B t + C t^2 entrywise, integer coefficients (1, t, t^2); its
# leading minors stay >= 0.55 and its chart entries >= 0.33 in size on the
# nodes below, so a relative tolerance is meaningful for every entry
_POLY_FRAME = [[Poly.from_t_coeffs(c) for c in row] for row in (
    ((4, -2, -1), (-3, 0, -3), (-3, 0, -3), (2, -1, 2)),
    ((-1, -3, -2), (4, -2, -3), (0, -2, 3), (2, 1, -2)),
    ((3, -1, 2), (3, 2, -3), (-4, 1, 1), (-3, 3, 0)),
    ((-3, -2, -3), (0, -1, 1), (1, -1, 0), (4, 2, 3)),
)]


def _poly_frame_derivative(k):
    rows = _POLY_FRAME
    for _ in range(k):
        rows = [[p.diff_t() for p in row] for row in rows]
    return rows


def _poly_frame_fn(t, k):
    return np.array([[p.evalf(t) for p in row] for row in _poly_frame_derivative(k)])


def test_frame_chart_matches_an_exact_reference():
    # a closed-form field whose matrix_fn gives exact derivatives of a
    # polynomial matrix; at dyadic nodes E is exact in floats, and with the
    # identity base the chart of E is the reference over Fractions
    nodes = [Fraction(k, 32) for k in range(4, 20)]
    field = frame_field_from_function(space_form("euclidean"), _poly_frame_fn,
                                      [float(t) for t in nodes])
    fc = flag_from_frame(field, base=np.eye(4))

    def exact(t):
        m, m_prime = ([[p.eval(t) for p in row] for row in _poly_frame_derivative(k)] for k in (0, 1))
        return _exact_lu_derivative(m, m_prime)

    _assert_chart_matches(fc, nodes, exact)


_UNIFORM = np.linspace(0.2, 1.2, 31)


@pytest.mark.parametrize("nodes", [_UNIFORM, np.sort(np.append(_UNIFORM, 0.5123))],
                         ids=["uniform", "extra-node"])
@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_integrated_frame_chart_is_integral_at_every_node(kind, nodes):
    # an integrated frame field is the osculating lift of its curve, so both
    # residuals vanish at every node, uniform or not, to roundoff
    sf = space_form(kind)
    curv = CurvatureData.from_polys(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(Frame(np.eye(4), sf), curv, (nodes[0], nodes[-1]), nodes=nodes)
    fc = flag_from_frame(field)
    for residual in (c_integrality_residual(fc), d_integrality_residual(fc)):
        assert residual.shape == nodes.shape
        assert float(np.max(residual)) <= 1e-14


def test_frame_chart_of_callable_curvatures_raises_capability_error():
    sf = space_form("euclidean")
    curv = CurvatureData(0, (lambda s: 1.0, lambda s: 0.0, lambda s: s))
    field = integrate_structure_equation(Frame(np.eye(4), sf), curv, (0.0, 1.0), nodes=np.linspace(0.0, 1.0, 11))
    with pytest.raises(CapabilityError):
        flag_from_frame(field)


def test_residuals_of_coordinates_without_derivatives_raise_domain_error():
    nodes = np.linspace(-0.5, 0.5, 21)
    _, field = helix_frenet_field(nodes)
    chart = flag_from_frame(field)
    bare = FlagCurve(dim=chart.dim, s=chart.s, coords=chart.coords, base=chart.base)
    for residual in (c_integrality_residual, d_integrality_residual):
        with pytest.raises(DomainError):
            residual(bare)


def test_degenerate_curve_node_raises_chart_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError) as err:
            flag_from_curve(monomial_curve((2, 3, 4)), np.linspace(-0.5, 0.5, 21), base=np.eye(4))
    assert err.value.t == 0.0


def test_frame_leaving_the_chart_raises_chart_error_without_warnings():
    # swapping two base columns puts a zero pivot at the base node t = 0,
    # while the earlier nodes stay inside the chart
    nodes = np.linspace(-0.5, 0.5, 21)
    _, field = helix_frenet_field(nodes)
    base = field.matrices[10][:, [0, 2, 1, 3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError) as err:
            flag_from_frame(field, base=base)
    assert err.value.t == 0.0


def test_chart_error_names_the_first_degenerate_node():
    # node 0 fails at the last pivot, node 1 already at the first one
    late = np.diag([1.0, 1.0, 1.0, 0.0])
    early = np.diag([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ChartError) as err:
        _doolittle(np.stack([np.eye(4), late, early]), np.array([0.1, 0.2, 0.3]))
    assert err.value.t == 0.2


# -- reconstruction ------------------------------------------------------------------


def test_reconstruct_round_trips_polynomial_diagonal():
    a = (1, 2, 5)
    fc = c_lift_monomial(a)
    rebuilt = c_integral_reconstruct(fc.polys[(j + 1, j)] for j in range(fc.dim - 1))
    for key, p in fc.polys.items():
        assert (rebuilt.polys[key] - p).is_zero(), key


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3),
)
@settings(max_examples=25)
def test_reconstruct_is_always_integral(c1, c2, c3):
    # any diagonal reconstructs to a flag curve satisfying both conditions
    fc = c_integral_reconstruct(
        (Poly.from_t_coeffs([0] + c1), Poly.from_t_coeffs([0] + c2), Poly.from_t_coeffs([0] + c3))
    )
    assert float(np.max(c_integrality_residual(fc))) < 1e-10
    assert float(np.max(d_integrality_residual(fc))) < 1e-10


def test_reconstruct_rejects_a_callable_diagonal_entry():
    # reconstruction is exact only: a callable entry has no exact antiderivative
    diagonal = (Poly.from_t_coeffs([0, 1]), lambda t: 0.5 * t * t, Poly.from_t_coeffs([0, -1]))
    with pytest.raises(CapabilityError):
        c_integral_reconstruct(diagonal)


# -- diagonal orders ------------------------------------------------------------------


def test_type_from_diagonal_orders():
    assert type_from_diagonal_orders((1, 1, 1)) == (1, 2, 3)
    assert type_from_diagonal_orders((2, 1, 1)) == (2, 3, 4)
    assert type_from_diagonal_orders((1, 1, 3)) == (1, 2, 5)
    with pytest.raises(DomainError):
        type_from_diagonal_orders((0, 1, 1))
