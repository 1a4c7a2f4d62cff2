"""Moving frames: orthonormalization, the structure equation, and dual curves."""

import functools

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from framedcurves import (
    CurvatureData,
    DegeneracyError,
    DomainError,
    SpaceForm,
    gram_defect,
    gram_schmidt_signed,
    integrate_structure_equation,
    reorthonormalize,
    structure_matrix,
    structure_poly_matrix,
)
from framedcurves.examples import BUILTINS, helix_frenet_field, radial_circle_field
from framedcurves import frames
from framedcurves.errors import IntegrationError
from framedcurves.frames import _kappa_function, _magnus_propagators
from framedcurves.ratpoly import Poly
from frame_reference import dop853_frames, relative_frame_error


# -- signed Gram-Schmidt -------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_gram_schmidt_definite_properties(seed):
    rng = np.random.default_rng(seed)
    form = np.eye(4)
    vectors = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    out = gram_schmidt_signed(list(vectors), form)
    for i, e in enumerate(out):
        assert abs(e @ form @ e - 1.0) < 1e-10
        # sign convention: positive pairing with the input it came from
        assert vectors[i] @ form @ e > 0
        for f in out[:i]:
            assert abs(e @ form @ f) < 1e-10
    # leading flags agree: each input lies in the span of the outputs so far
    for k in range(1, 5):
        basis = np.stack(out[:k], axis=1)
        coeff, res, _, _ = np.linalg.lstsq(basis, vectors[k - 1], rcond=None)
        assert np.linalg.norm(basis @ coeff - vectors[k - 1]) < 1e-9


def test_gram_schmidt_lorentz_timelike_first():
    form = np.diag([-1.0, 1.0, 1.0, 1.0])
    vectors = [
        np.array([2.0, 0.5, 0.0, 0.0]),  # timelike
        np.array([0.0, 1.0, 0.3, 0.0]),
        np.array([0.0, 0.0, 1.0, -0.2]),
        np.array([0.0, 0.0, 0.0, 1.0]),
    ]
    out = gram_schmidt_signed(vectors, form)
    gram = np.array([[a @ form @ b for b in out] for a in out])
    assert np.allclose(gram, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=1e-10)


def test_gram_schmidt_null_vector_raises():
    form = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegeneracyError):
        gram_schmidt_signed([np.array([1.0, 1.0, 0.0, 0.0])], form)  # null outright
    vectors = [
        np.array([0.0, 1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 1.0, 0.0]),  # null once the e1 component is removed
    ]
    with pytest.raises(DegeneracyError):
        gram_schmidt_signed(vectors, form)


# -- structure matrices --------------------------------------------------------


@pytest.mark.parametrize("delta,kind", [(0, "euclidean"), (1, "spherical"), (-1, "hyperbolic")])
def test_structure_matrix_is_form_antisymmetric_where_it_should_be(delta, kind):
    # frames stay orthonormal iff K^T J + J K = 0 on the spatial block;
    # the euclidean first row is the affine translation channel instead
    K = structure_matrix(delta, (0.7, -0.3, 1.1))
    sf = SpaceForm(kind)
    J = sf.form
    M = K.T @ J + J @ K
    if delta == 0:
        assert np.allclose(M[1:, 1:], 0.0)
    else:
        assert np.allclose(M, 0.0)


def test_structure_matrix_of_a_stack_equals_its_slices():
    kappa = np.random.default_rng(3).normal(size=(2, 3, 3))
    kappa[0, 0] = 0.0
    for delta in (0, 1, -1):
        stack = structure_matrix(delta, kappa)
        assert stack.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            assert stack[idx].tobytes() == structure_matrix(delta, tuple(kappa[idx])).tobytes()


def test_structure_poly_matrix_matches_pointwise():
    kappa = (Poly.t(), Poly.const(1), Poly.from_t_coeffs([0, 0, Fraction(1, 2)]))
    curv = CurvatureData(1, kappa)
    Kp = structure_poly_matrix(curv)
    for t in (0.0, 0.5, -1.25):
        K = structure_matrix(1, tuple(k.evalf(t) for k in curv.kappa))
        vals = np.array([[p.evalf(t) for p in row] for row in Kp])
        assert np.allclose(vals, K, atol=1e-12)


def test_curvature_constant_requires_exact_values():
    with pytest.raises(DomainError, match='"0.1"'):
        CurvatureData.constant(0, (0.1, 0.0, 0.0))
    curv = CurvatureData.constant(0, (1, 0, 0))
    assert curv.kappa[0].evalf(3.7) == 1.0


# -- integration of the structure equation --------------------------------------


@pytest.mark.parametrize(
    "kind,delta,kappa",
    [("euclidean", 0, (1, 0, 0)), ("spherical", 1, (1, 0, 0)), ("hyperbolic", -1, (2, 0, 0))],
)
def test_integration_preserves_gram_structure(kind, delta, kappa):
    sf = SpaceForm(kind)
    curv = CurvatureData.constant(delta, kappa)
    field = integrate_structure_equation(sf, curv, (0.0, 8.0), tol=1e-10)
    assert float(np.max(field.gram_defects())) < 1e-8


def test_integration_solves_the_ode():
    # central differences of the frames against E * K at interior nodes
    sf = SpaceForm("spherical")
    curv = CurvatureData.constant(1, (1, 0, 0))
    nodes = np.linspace(0.0, 2.0, 401)
    field = integrate_structure_equation(sf, curv, (0.0, 2.0), nodes=nodes)
    h = nodes[1] - nodes[0]
    K = structure_matrix(1, (1.0, 0.0, 0.0))
    worst = 0.0
    for i in range(1, len(nodes) - 1, 25):
        dE = (field.matrices[i + 1] - field.matrices[i - 1]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(dE - field.matrices[i] @ K))))
    assert worst < 1e-4  # second-order stencil error, not integrator error


def test_integration_euclidean_circle_base_point():
    # delta=0, kappa=(1,0,0): the base point traces a unit-speed circle
    sf = SpaceForm("euclidean")
    curv = CurvatureData.constant(0, (1, 0, 0))
    nodes = np.linspace(0.0, 2 * np.pi, 201)
    field = integrate_structure_equation(sf, curv, (0.0, 2 * np.pi), nodes=nodes)
    pts = np.stack([m[1:, 0] for m in field.matrices])
    radii = np.hypot(pts[:, 0] - 0.0, pts[:, 1] - 1.0)  # center sits at (0, 1, 0)
    assert float(np.max(np.abs(radii - 1.0))) < 1e-8
    # and it closes up after a full period
    assert np.allclose(field.matrices[-1], field.matrices[0], atol=1e-8)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
@pytest.mark.parametrize("delta", [0, 1, -1])
def test_integration_needs_the_geometry_delta(kind, delta):
    sf = SpaceForm(kind)
    curv = CurvatureData.constant(delta, (1, 0, 0))
    if delta == sf.delta:
        integrate_structure_equation(sf, curv, (0.0, 1.0))
        return
    with pytest.raises(DomainError, match=f"needs delta = {sf.delta}"):
        integrate_structure_equation(sf, curv, (0.0, 1.0))


_COEFF = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@given(
    kind=st.sampled_from(["euclidean", "spherical", "hyperbolic"]),
    coeffs=st.lists(st.lists(_COEFF, min_size=3, max_size=3), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_magnus_step_is_fourth_order(kind, coeffs):
    # fixed steps h = 1/8 and 1/16 over [0, 1]: a 4th-order step cuts the
    # error 16-fold; the textbook (left-acting) commutator sign gives 4-fold
    sf = SpaceForm(kind)
    curv = CurvatureData(sf.delta, coeffs)
    reference = dop853_frames(curv, [0.0, 1.0])[-1]
    kappa = _kappa_function(curv)
    errors = []
    for n in (8, 16):
        steps = _magnus_propagators(sf.delta, kappa, np.arange(n) / n, np.full(n, 1.0 / n))
        frame = functools.reduce(np.matmul, steps, np.eye(4))
        errors.append(float(np.max(np.abs(frame - reference))))
    assume(errors[0] > 1e-9)  # constant curvatures make every step exact
    assert errors[0] / errors[1] >= 12.0


#: accepted + rejected steps for kappa = (1, 0, t^2) on [0, 20] at tol 1e-10,
#: recorded as 4224, 5833 and 6846, with about 2% headroom
STEP_BUDGET = {"euclidean": 4300, "spherical": 5950, "hyperbolic": 7000}


@pytest.mark.parametrize("kind", sorted(STEP_BUDGET))
def test_integration_step_budget_over_span_20(kind):
    sf = SpaceForm(kind)
    curv = CurvatureData(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(sf, curv, (0.0, 20.0), tol=1e-10)
    assert field.meta["steps"] + field.meta["rejected"] <= STEP_BUDGET[kind]
    # hyperbolic frames reach |E| ~ 1e8 here, so only the relative defect is small
    assert float(np.max(field.gram_defects())) <= 1e-12
    # the stacked defect is the per-frame one, bit for bit
    assert np.array_equal(field.gram_defects(), [gram_defect(m, sf) for m in field.matrices])
    if kind != "hyperbolic":
        reference = dop853_frames(curv, field.s)
        assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


def test_step_budget_ends_a_runaway_integration(monkeypatch):
    # kappa_3 = t^200 forces ever smaller steps for as long as the span lasts;
    # with no node inside the span to cut a step short, the budget stops it
    # after exactly MAX_STEPS accepted plus rejected steps
    attempts = []

    def counted(*args):
        attempts.append(args)
        return _magnus_propagators(*args)

    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    monkeypatch.setattr(frames, "_magnus_propagators", counted)
    sf = SpaceForm("euclidean")
    curv = CurvatureData(0, [[1], [0], [0] * 200 + [1]])
    with pytest.raises(IntegrationError, match="took 300 steps"):
        integrate_structure_equation(sf, curv, (0.0, 40.0), tol=1e-10,
                                     nodes=[0.0, 40.0])
    assert len(attempts) == 300
    # on a node grid the steps that land on a node are extra, and it still ends
    with pytest.raises(IntegrationError, match="took 300 steps"):
        integrate_structure_equation(sf, curv, (0.0, 40.0), tol=1e-10)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_steps_forced_by_a_dense_node_grid_are_outside_the_budget(monkeypatch, kind):
    # constant curvature on 2,000 nodes takes at least one step per node,
    # well past a budget of 300, and must still integrate
    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    sf = SpaceForm(kind)
    curv = CurvatureData(sf.delta, [[1], [0], [1]])
    nodes = np.linspace(0.0, 20.0, 2000)
    field = integrate_structure_equation(sf, curv, (0.0, 20.0), tol=1e-10, nodes=nodes)
    assert field.meta["steps"] >= len(nodes) - 1 > frames.MAX_STEPS
    assert float(np.max(field.gram_defects())) <= 1e-12


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_integration_matches_dop853_over_span_10(kind):
    sf = SpaceForm(kind)
    curv = CurvatureData(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(sf, curv, (0.0, 10.0), tol=1e-10)
    reference = dop853_frames(curv, field.s)
    assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


# -- reorthonormalization --------------------------------------------------------


def test_reorthonormalize_repairs_small_drift():
    sf = SpaceForm("spherical")
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    drifted = q + 1e-6 * rng.normal(size=(4, 4))
    fixed = reorthonormalize(drifted, sf)
    assert gram_defect(fixed, sf) < 1e-12
    assert np.max(np.abs(fixed - q)) < 1e-5


def test_hyperbolic_gram_defect_is_relative_to_the_frame_size():
    # a boost of rapidity 10 has entries ~ e^10 / 2; E^T J E cancels from ~e^20
    sf = SpaceForm("hyperbolic")
    c, s = np.cosh(10.0), np.sinh(10.0)
    boost = np.array([[c, s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    j = sf.form
    absolute = float(np.max(np.abs(boost.T @ j @ boost - j)))
    assert gram_defect(boost, sf) == absolute / (c * c + s * s)
    assert gram_defect(boost, sf) < 1e-15
    # a relative error of 1e-6 in one entry still reads as about 1e-6
    bent = boost.copy()
    bent[0, 1] *= 1.0 + 1e-6
    assert 1e-7 < gram_defect(bent, sf) < 1e-5
    # the quadric and euclidean defects stay absolute
    sph = SpaceForm("spherical")
    assert gram_defect(2.0 * np.eye(4), sph) == 3.0


# -- closed-form frame fields and their duals -------------------------------------


def test_builtin_fields_are_orthonormal():
    for factory in (radial_circle_field, helix_frenet_field):
        field = factory()
        assert float(np.max(field.gram_defects())) < 1e-12


def test_builtin_fields_are_integral_lifts():
    # the hyperplane normal e_3 is orthogonal to the velocity of the base point e_0
    for factory in (radial_circle_field, helix_frenet_field):
        field = factory()
        for m, k in zip(field.matrices, field.k):
            velocity = (m @ k)[:, 0]
            assert abs(float(m[1:, 3] @ velocity[1:])) < 1e-12


def _phase(t, k):
    """cos / sin of t shifted by k quarter turns: the k-th derivative pair."""
    return np.cos(t + 0.5 * np.pi * k), np.sin(t + 0.5 * np.pi * k)


def _radial_circle_derivative(t, k):
    c, s = _phase(t, k)
    one = 1.0 if k == 0 else 0.0
    return np.stack([[one, c, s, 0.0], [0.0, -s, c, 0.0], [0.0, 0.0, 0.0, one], [0.0, c, s, 0.0]], axis=1)


def _helix_derivative(t, k):
    c, s = _phase(t, k)
    one = 1.0 if k == 0 else 0.0
    lin = t if k == 0 else (1.0 if k == 1 else 0.0)
    sq2 = np.sqrt(2.0)
    return np.stack([[one, c / sq2, s / sq2, lin / sq2], np.array([0.0, -s, c, one]) / sq2,
                     [0.0, -c, -s, 0.0], np.array([0.0, s, -c, one]) / sq2], axis=1)


def _great_circle_derivative(t, k):
    c, s = _phase(t, k)
    return np.array([[c], [s], [0.0], [0.0]])  # the curve alone, as a one-column frame


#: the k-th derivative of each built-in frame (or curve) at t, written out in trig
TRIG_DERIVATIVES = {
    "circle-radial": _radial_circle_derivative,
    "helix-frenet": _helix_derivative,
    "great-circle": _great_circle_derivative,
}


@pytest.mark.parametrize("name", sorted(TRIG_DERIVATIVES))
def test_builtins_match_their_trig_derivatives(name):
    # E^(k) = E K^k and gamma^(k) = (E K^k)[:, 0] through order 11, on the
    # mesh-export window t in [-3, 6]; the frames themselves are the same
    # cos / sin expressions, bit for bit
    t = np.linspace(-3.0, 6.0, 181)
    tol = 1e-14 * (1.0 + np.abs(t))[:, None]
    curve_factory, field_factory = BUILTINS[name]
    jets = curve_factory().jet(t, 11)
    field = field_factory(t) if field_factory is not None else None
    for k in range(12):
        want = np.stack([TRIG_DERIVATIVES[name](x, k) for x in t])
        assert np.all(np.abs(jets[:, :, k] - want[:, :, 0]) <= tol)
        if field is not None:
            got = field.matrices @ np.linalg.matrix_power(field.k, k)
            assert np.all(np.abs(got - want) <= tol[:, :, None])
            assert k > 0 or np.array_equal(field.matrices, want)


def test_dual_coefficient_recursion():
    # the coefficient jets d_k satisfy d_{k+1} = d_k' - K^T d_k with d_0 = last axis
    from framedcurves.frames import dual_coefficient_jets

    kappa = (Poly.t(), Poly.const(2), Poly.t() * Poly.t())
    curv = CurvatureData(-1, kappa)
    d = dual_coefficient_jets(curv, 4)
    K = structure_poly_matrix(curv)
    for i in range(3):
        assert d[0][i].is_zero()
    assert (d[0][3] - Poly.const(1)).is_zero()
    for k in range(4):
        for i in range(4):
            derived = d[k][i].diff_t()
            for j in range(4):
                derived = derived - K[j][i] * d[k][j]
            assert (derived - d[k + 1][i]).is_zero()
