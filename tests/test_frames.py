"""Moving frames: orthonormalization, the structure equation, and dual curves."""

import functools
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from framedcurves import (
    CurvatureFamily,
    DegeneracyError,
    DomainError,
    SpaceForm,
    gram_defect,
    gram_schmidt_signed,
    integrate_structure_equation,
    reorthonormalize,
    structure_matrix,
)
from framedcurves.examples import BUILTINS, helix_frenet_field, radial_circle_field
from framedcurves import frames
from framedcurves.cli import main
from framedcurves.config import RunConfig
from framedcurves.errors import IntegrationError
from framedcurves.frames import _magnus_propagators
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


def test_curvature_constant_requires_exact_values():
    with pytest.raises(DomainError, match='"0.1"'):
        CurvatureFamily.constant(0, (0.1, 0.0, 0.0))
    curv = CurvatureFamily.constant(0, (1, 0, 0))
    assert curv.kappa[0].evalf(3.7) == 1.0


def test_curvature_family_reads_every_exact_form_alike():
    t = Poly.t()
    half = Poly.const(Fraction(1, 2))
    forms = [
        (Fraction(1, 2), 0, [0, 1]),
        ("1/2", "0", (0, 1)),
        ("0.5", [], [0, "1"]),
        ([Fraction(1, 2)], [0], t),
        (half, Poly(), [Fraction(0), 1]),
    ]
    want = (half, Poly(), t)
    for kappa in forms:
        assert CurvatureFamily(0, kappa).kappa == want
    for bad in ((0.5, 0, 1), ([1], [0.1], [0]), (1, 0, np.float64(1.0))):
        with pytest.raises(DomainError, match='"0.1"'):
            CurvatureFamily(0, bad)


def test_a_scalar_curvature_integrates_like_its_coefficient_list():
    nodes = np.linspace(0.0, 3.0, 31)
    for sf in (SpaceForm("euclidean"), SpaceForm("spherical"), SpaceForm("hyperbolic")):
        mixed = integrate_structure_equation(sf, CurvatureFamily(sf.delta, (1, 0, Poly.t())), nodes)
        lists = integrate_structure_equation(sf, CurvatureFamily(sf.delta, ([1], [0], [0, 1])), nodes)
        for name in ("matrices", "kappa", "dkappa"):
            assert getattr(mixed, name).tobytes() == getattr(lists, name).tobytes()
        assert mixed.meta == lists.meta


def test_curvature_data_refuses_a_curvature_in_the_family_parameter():
    # a curvature in u is a family; the CLI substitutes lambda before it integrates
    t, u = Poly.t(), Poly.u()
    family = CurvatureFamily(0, ([1], [0], t * t - u))
    with pytest.raises(DomainError, match="family parameter"):
        integrate_structure_equation(SpaceForm("euclidean"), family, np.linspace(0.0, 1.0, 5))
    curv = CurvatureFamily(0, ([1], [0], (t * t - u).subs_u(Fraction(1, 3))))
    assert curv.kappa[2] == t * t - Poly.const(Fraction(1, 3))
    field = integrate_structure_equation(SpaceForm("euclidean"), curv, np.linspace(0.0, 1.0, 5))
    assert np.all(np.isfinite(field.matrices))


# -- integration of the structure equation --------------------------------------


@pytest.mark.parametrize(
    "kind,delta,kappa",
    [("euclidean", 0, (1, 0, 0)), ("spherical", 1, (1, 0, 0)), ("hyperbolic", -1, (2, 0, 0))],
)
def test_integration_preserves_gram_structure(kind, delta, kappa):
    sf = SpaceForm(kind)
    curv = CurvatureFamily.constant(delta, kappa)
    field = integrate_structure_equation(sf, curv, np.linspace(0.0, 8.0, 201), tol=1e-10)
    assert float(np.max(field.gram_defects())) < 1e-8


def test_integration_solves_the_ode():
    # central differences of the frames against E * K at interior nodes
    sf = SpaceForm("spherical")
    curv = CurvatureFamily.constant(1, (1, 0, 0))
    nodes = np.linspace(0.0, 2.0, 401)
    field = integrate_structure_equation(sf, curv, nodes)
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
    curv = CurvatureFamily.constant(0, (1, 0, 0))
    nodes = np.linspace(0.0, 2 * np.pi, 201)
    field = integrate_structure_equation(sf, curv, nodes)
    pts = np.stack([m[1:, 0] for m in field.matrices])
    radii = np.hypot(pts[:, 0] - 0.0, pts[:, 1] - 1.0)  # center sits at (0, 1, 0)
    assert float(np.max(np.abs(radii - 1.0))) < 1e-8
    # and it closes up after a full period
    assert np.allclose(field.matrices[-1], field.matrices[0], atol=1e-8)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
@pytest.mark.parametrize("delta", [0, 1, -1])
def test_integration_needs_the_geometry_delta(kind, delta):
    sf = SpaceForm(kind)
    curv = CurvatureFamily.constant(delta, (1, 0, 0))
    if delta == sf.delta:
        integrate_structure_equation(sf, curv, np.linspace(0.0, 1.0, 201))
        return
    with pytest.raises(DomainError, match=f"needs delta = {sf.delta}"):
        integrate_structure_equation(sf, curv, np.linspace(0.0, 1.0, 201))


_COEFF = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@given(
    kind=st.sampled_from(["euclidean", "spherical", "hyperbolic"]),
    coeffs=st.lists(st.lists(_COEFF, min_size=3, max_size=3), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_magnus_step_is_sixth_order(kind, coeffs):
    # fixed steps h = 1/8 and 1/16 over [0, 1]: a 6th-order step cuts the
    # error 64-fold; with K in place of K^T the commutators flip sign and the
    # step is 2nd order
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, coeffs)
    reference = dop853_frames(curv, [0.0, 1.0])[-1]
    errors = []
    for n in (8, 16):
        steps = _magnus_propagators(sf.delta, curv.kappa, np.arange(n) / n, np.full(n, 1.0 / n))
        frame = functools.reduce(np.matmul, steps, np.eye(4))
        errors.append(float(np.max(np.abs(frame - reference))))
    assume(errors[0] > 1e-9)  # constant curvatures make every step exact
    assert errors[0] / errors[1] >= 48.0


#: passed + cut intervals for kappa = (1, 0, t^2) on [0, 20] at tol 1e-10,
#: recorded as 7282, 7286 and 7276, with about 2% headroom
STEP_BUDGET = {"euclidean": 7430, "spherical": 7430, "hyperbolic": 7420}


@pytest.mark.parametrize("kind", sorted(STEP_BUDGET))
def test_integration_step_budget_over_span_20(kind):
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(sf, curv, np.linspace(0.0, 20.0, 201), tol=1e-10)
    assert field.meta["steps"] + field.meta["rejected"] <= STEP_BUDGET[kind]
    # the partition never outgrows the cap: 200 node intervals plus the floor
    assert field.meta["steps"] <= field.meta["cap"] == 200 + frames.MAX_STEPS
    # hyperbolic frames reach |E| ~ 1e8 here, so only the relative defect is small
    assert float(np.max(field.gram_defects())) <= 1e-12
    # the stacked defect is the per-frame one, bit for bit
    assert np.array_equal(field.gram_defects(), [gram_defect(m, sf) for m in field.matrices])
    if kind != "hyperbolic":
        reference = dop853_frames(curv, field.s)
        assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


def test_step_budget_ends_a_runaway_integration(monkeypatch):
    # kappa_3 = t^200 forces ever shorter intervals for as long as the span
    # lasts; its integral is past the float range, so the budget is its
    # ceiling, and no round starts once the partition holds more intervals
    propagators = []

    def counted(delta, kappa, starts, widths):
        propagators.append(len(widths))
        return _magnus_propagators(delta, kappa, starts, widths)

    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    monkeypatch.setattr(frames, "_ROUND_SIZE", 64)
    monkeypatch.setattr(frames, "_magnus_propagators", counted)
    sf = SpaceForm("euclidean")
    curv = CurvatureFamily(0, [[1], [0], [0] * 200 + [1]])
    cap = 1 + frames._BUDGET_CEILING * 300
    with pytest.raises(IntegrationError, match=f"more than {cap} intervals"):
        integrate_structure_equation(sf, curv, [0.0, 40.0], tol=1e-10)
    # one node interval: each cut adds one interval to the partition, and the
    # last round started at no more than cap of them, so fewer than
    # 2 (cap + 64) intervals were evaluated, at two half steps each
    assert sum(propagators) <= 1 + 4 * (cap + 64)
    # the node grid's own intervals are on top of the budget, and it still ends
    with pytest.raises(IntegrationError, match=f"more than {200 + cap - 1} intervals"):
        integrate_structure_equation(sf, curv, np.linspace(0.0, 40.0, 201), tol=1e-10)


def test_the_budget_grows_with_the_curvature_integral(monkeypatch):
    # kappa = (1, 0, t^2) over [0, 20] needs 3.7k intervals, past a floor of
    # 2,000; the budget 0.1 * (20 + 20 + 20^3 / 3) * 1e10^(1/7) = 7.2k, below
    # the ceiling of 8,000, lets it finish
    monkeypatch.setattr(frames, "MAX_STEPS", 2000)
    sf = SpaceForm("hyperbolic")
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(sf, curv, np.linspace(0.0, 20.0, 201), tol=1e-10)
    budget = int(frames._BUDGET_SCALE * float(40 + Fraction(8000, 3)) * 1e-10 ** (-1.0 / 7.0))
    assert field.meta["cap"] == 200 + budget
    assert 200 + 2000 < field.meta["steps"] <= field.meta["cap"]


def test_the_budget_of_a_curvature_with_cancelling_terms_is_its_coefficient_bound(monkeypatch):
    # kappa_3 = 10 (t - 1)^3 = 10 t^3 - 30 t^2 + 30 t - 10 on [0, 2]: the
    # coefficient bound of its integral of |kappa_3| is
    # 10 * 2^4 / 4 + 30 * 2^3 / 3 + 30 * 2^2 / 2 + 10 * 2 = 200, while the
    # exact integral is 2 * 10 / 4 = 5; with 2 for kappa_1 and 2 for the span
    # the budget is 0.1 * 204 * 1e10^(1/7) = 547, past the floor of 300
    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    sf = SpaceForm("spherical")
    curv = CurvatureFamily(sf.delta, [[1], [0], [-10, 30, -30, 10]])
    field = integrate_structure_equation(sf, curv, np.linspace(0.0, 2.0, 21), tol=1e-10)
    budget = int(frames._BUDGET_SCALE * float(2 + 2 + 200) * 1e-10 ** (-1.0 / 7.0))
    assert budget == 547
    assert field.meta["cap"] == 20 + budget
    assert field.meta["steps"] <= field.meta["cap"]


@pytest.mark.parametrize("kind,span", [("hyperbolic", 60.0), ("euclidean", 80.0)])
def test_long_spans_finish(kind, span):
    # a fixed budget of 50,000 steps ended hyperbolic [0, 60] at s = 55.6; the
    # derived budget takes euclidean [0, 80] to 96k intervals
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 0, 1]])
    nodes = np.linspace(0.0, span, 21)
    field = integrate_structure_equation(sf, curv, nodes, tol=1e-10)
    assert field.meta["steps"] <= field.meta["cap"]
    assert float(np.max(field.gram_defects())) <= 1e-11


@pytest.mark.parametrize("kind,kappa,span,error", [
    # t^200 past the float range at the far Gauss nodes, then the budget
    ("euclidean", [[1], [0], [0] * 200 + [1]], 40.0, "intervals"),
    # a single 20-long hyperbolic step is NaN until it is cut
    ("hyperbolic", [[1], [0], [0, 0, 1]], 20.0, None),
    # frames of size e^s pass the float range near s = 710
    ("hyperbolic", [[0], [0], [1]], 800.0, "overflowed"),
])
def test_no_runtime_warning_escapes_the_integrator(monkeypatch, kind, kappa, span, error):
    if error == "intervals":
        monkeypatch.setattr(frames, "MAX_STEPS", 300)
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            integrate_structure_equation(sf, curv, [0.0, span], tol=1e-10)
        else:
            with pytest.raises(IntegrationError, match=error):
                integrate_structure_equation(sf, curv, np.linspace(0.0, span, 201), tol=1e-10)


def test_node_curvatures_are_the_ones_the_flow_read():
    # 1e-330 rounds to 0.0, so the flow integrates kappa_3 = 0; kappa and
    # kappa' at the nodes read it the same way, though 40^200 alone has no float
    sf = SpaceForm("euclidean")
    tiny = CurvatureFamily(0, [[1], [0], [0] * 200 + [Fraction(1, 10**330)]])
    flat = CurvatureFamily(0, [[1], [0], [0]])
    nodes = np.linspace(0.0, 40.0, 5)
    got, want = (integrate_structure_equation(sf, c, nodes) for c in (tiny, flat))
    for name in ("matrices", "kappa", "dkappa"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert not np.any(want.dkappa)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_steps_forced_by_a_dense_node_grid_are_outside_the_budget(monkeypatch, kind):
    # constant curvature on 2,000 nodes takes at least one step per node,
    # well past a budget of 300, and must still integrate
    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, [[1], [0], [1]])
    nodes = np.linspace(0.0, 20.0, 2000)
    field = integrate_structure_equation(sf, curv, nodes, tol=1e-10)
    assert field.meta["steps"] >= len(nodes) - 1 > frames.MAX_STEPS
    assert float(np.max(field.gram_defects())) <= 1e-12


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_integration_matches_dop853_over_span_10(kind):
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 0, 1]])
    field = integrate_structure_equation(sf, curv, np.linspace(0.0, 10.0, 201), tol=1e-10)
    reference = dop853_frames(curv, field.s)
    assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


@pytest.mark.parametrize("nodes", [
    [0.0, 2.0, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0],
    [], [[0.0, 1.0], [2.0, 3.0]], 0.0,
], ids=["decreasing", "nan", "inf", "-inf", "empty", "2-d", "0-d"])
def test_nodes_outside_the_contract_are_domain_errors(nodes):
    sf = SpaceForm("euclidean")
    with pytest.raises(DomainError, match="non-decreasing"):
        integrate_structure_equation(sf, CurvatureFamily.constant(0, (1, 0, 0)), nodes)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_a_repeated_node_has_its_twins_frame(kind):
    # a repeated node ends an interval of width zero, which passes at once
    # with the identity propagator: every frame is the one on the grid
    # without repeats, bit for bit
    sf = SpaceForm(kind)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 0, 1]])
    nodes = np.array([0.0, 0.0, 0.5, 1.5, 1.5, 1.5, 3.0, 3.0])
    field = integrate_structure_equation(sf, curv, nodes, tol=1e-10)
    single = integrate_structure_equation(sf, curv, np.unique(nodes), tol=1e-10)
    twins = np.searchsorted(np.unique(nodes), nodes)
    assert field.matrices.tobytes() == single.matrices[twins].tobytes()
    assert field.meta["steps"] == single.meta["steps"] + len(nodes) - len(single.s)
    assert field.meta["rejected"] == single.meta["rejected"]
    alone = integrate_structure_equation(sf, curv, [1.5])
    assert np.array_equal(alone.matrices, [np.eye(4)])


def _frame_run(tmp_path, t_grid):
    config = {"geometry": "euclidean",
              "curve": {"kind": "curvature", "kappa": [["1"], ["0"], ["0", "0", "1"]]},
              "grids": {"t": t_grid}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["frame", "--config", str(path), "--out", str(out)]), out / "frames.txt"


def test_a_grid_with_a_repeated_subnormal_node_writes_its_frames(tmp_path):
    # linspace(0, 5e-324, 3) is (0, 0, 5e-324): the repeated 0.0 ends a
    # zero-width interval, and the table holds three identity frames
    code, table = _frame_run(tmp_path, [0.0, 5e-324, 3])
    assert code == 0
    assert hashlib.sha256(table.read_bytes()).hexdigest() == (
        "9a93fdb6213cb9b6f9ae8f78321d21bbd0a9ef61c9797f44563f5bfd4b5ae620"
    )


def test_a_grid_two_floats_wide_at_1e16_is_an_integration_error(tmp_path, capsys):
    # 50 nodes on the two floats 1e16 and 1e16 + 2: the one interval of width
    # 2 must be cut, and its halves are narrower than 1e-13 * 1e16
    code, table = _frame_run(tmp_path, [1e16, 1.0000000000000002e16, 50])
    assert code == 3
    assert "numeric failure (IntegrationError)" in capsys.readouterr().err
    assert not table.exists()


def test_an_integrated_field_keeps_its_frames_and_curvatures():
    # on the spherical kappa = (1, 0, t^2) config at 20,000 nodes the field
    # keeps its nodes (8 B), frames (128 B), kappa and kappa' (48 B): 185 B per
    # node traced.  K and K' as two (N, 4, 4) arrays made it 390.
    nodes = 20_000
    cfg = RunConfig.from_dict({"geometry": "spherical",
                               "curve": {"kind": "curvature", "kappa": [["1"], ["0"], ["0", "0", "1"]]},
                               "grids": {"t": [0.0, 3.0, nodes]}})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        field = cfg.build_field()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert field.kappa.shape == field.dkappa.shape == (nodes, 3)
    assert held <= 200 * nodes


# -- reorthonormalization --------------------------------------------------------


def _boost(rapidity):
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    return np.array([[c, s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_reorthonormalize_repairs_small_drift(kind):
    sf = SpaceForm(kind)
    rng = np.random.default_rng(1)
    if kind == "spherical":
        frame, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    else:  # a rotation of the spatial block, at a point or after a boost
        frame = np.eye(4)
        frame[1:, 1:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if kind == "euclidean":
            frame[1:, 0] = rng.normal(size=3)
        else:
            frame = _boost(0.7) @ frame
    drifted = frame + 1e-6 * rng.normal(size=(4, 4))
    fixed = reorthonormalize(drifted, sf)
    assert gram_defect(fixed, sf) < 1e-12
    assert np.max(np.abs(fixed - frame)) < 1e-5
    if kind == "euclidean":  # the leading row is reset, the position kept
        assert fixed[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(fixed[1:, 0], drifted[1:, 0])


def test_reorthonormalize_returns_what_it_cannot_repair_unchanged():
    rng = np.random.default_rng(2)
    # far out on the hyperbolic sheet the projection's noise |column|^2 eps
    # passes the floor: the drifted frame comes back as it is
    far = _boost(10.0) + 1e-6 * rng.normal(size=(4, 4))
    assert np.array_equal(reorthonormalize(far, SpaceForm("hyperbolic")), far)
    # a matrix with two equal columns, or a null first column, has no
    # orthonormal flag; Gram-Schmidt's DegeneracyError leaves it as it is
    for kind, first in (("spherical", [1.0, 0.0, 0.0, 0.0]), ("hyperbolic", [1.0, 1.0, 0.0, 0.0])):
        flat = np.eye(4)
        flat[:, 0] = flat[:, 1] = first
        assert np.array_equal(reorthonormalize(flat, SpaceForm(kind)), flat)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_reorthonormalize_returns_a_matrix_with_two_equal_columns_unchanged(kind):
    # column 2 equal to column 1 is null after its projection in every
    # geometry, the euclidean spatial block included
    flat = np.eye(4)
    flat[:, 2] = flat[:, 1]
    assert np.array_equal(reorthonormalize(flat, SpaceForm(kind)), flat)


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
        for m, k in zip(field.matrices, structure_matrix(field.sf.delta, field.kappa)):
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
            got = field.matrices @ np.linalg.matrix_power(structure_matrix(field.sf.delta, field.kappa), k)
            assert np.all(np.abs(got - want) <= tol[:, :, None])
            assert k > 0 or np.array_equal(field.matrices, want)


def test_dual_coefficient_recursion():
    # the coefficient jets d_k satisfy d_{k+1} = d_k' - K^T d_k with d_0 = last axis, K the float structure matrix
    kappa = (Poly.t(), Poly.const(2), Poly.t() * Poly.t())
    d = CurvatureFamily(-1, kappa).dual_jet_polys(4)
    assert d[0] == [Poly(), Poly(), Poly(), Poly.const(1)]
    for t in (0.0, 0.5, -1.25):
        K = structure_matrix(-1, tuple(k.evalf(t) for k in kappa))
        for k in range(4):
            value = np.array([p.evalf(t) for p in d[k]])
            slope = np.array([p.diff_t().evalf(t) for p in d[k]])
            got = np.array([p.evalf(t) for p in d[k + 1]])
            assert np.allclose(got, slope - K.T @ value, rtol=1e-13, atol=1e-12)


def _reference_dual_jets(delta, kappa, r):
    """d_{k+1} = d_k' + L d_k with L = -K^T, over a 4x4 matrix of Polys."""
    k1, k2, k3 = kappa
    z = Poly()
    k = [[z, -Poly.const(delta), z, z],
         [Poly.const(1), z, -k1, -k2],
         [z, k1, z, -k3],
         [z, k2, k3, z]]
    l_matrix = [[-k[j][i] for j in range(4)] for i in range(4)]
    d = [z, z, z, Poly.const(1)]
    out = [d]
    for _ in range(r):
        d = [d[i].diff_t() + sum((l_matrix[i][j] * d[j] for j in range(4)), z) for i in range(4)]
        out.append(d)
    return out


_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                         st.fractions(-3, 3, max_denominator=4), max_size=3)


@settings(max_examples=50, deadline=None)
@given(delta=st.sampled_from([0, 1, -1]), terms=st.tuples(_TERMS, _TERMS, _TERMS), r=st.integers(0, 8))
def test_dual_jet_recursion_equals_the_matrix_reference(delta, terms, r):
    family = CurvatureFamily(delta, tuple(Poly(t) for t in terms))
    assert family.dual_jet_polys(r) == _reference_dual_jets(delta, family.kappa, r)
