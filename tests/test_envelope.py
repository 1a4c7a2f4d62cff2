"""Envelope meshes, discriminant normal forms, singular loci, and exports."""

import contextlib
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from framedcurves import envelope
from framedcurves.cli import main
from framedcurves.config import DEFAULTS, RunConfig
from framedcurves.frames import FrameField, gram_defect, structure_matrix
from framedcurves.ratpoly import Poly
from framedcurves import (
    CurvatureFamily,
    DimensionMismatch,
    DomainError,
    EnvelopeMesh,
    NormalFormFamily,
    Locus,
    SpaceForm,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    integrate_structure_equation,
    singular_locus,
)
from framedcurves.examples import (
    BUILTIN_TYPES,
    helix_developable_point,
    helix_frenet_field,
    radial_circle_field,
)


# -- hyperplane-family envelopes ---------------------------------------------------


def _cylinder_point(t, s):
    """The radial-circle envelope in closed form: the unit cylinder (cos t, sin t, s)."""
    return np.array([np.cos(t), np.sin(t), s])


def _chains(locus):
    """The row ranges of a locus's chains, read off its segments, which join
    each row of a chain to the next."""
    assert locus.segments.dtype == np.int32 and locus.segments.shape[1:] == (2,)
    assert (locus.segments[:, 1] == locus.segments[:, 0] + 1).all()
    starts = np.setdiff1d(np.arange(len(locus.params)), locus.segments[:, 1])
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], len(locus.params)])]


def test_radial_circle_envelope_is_a_cylinder():
    field = radial_circle_field(np.linspace(0.0, 2 * np.pi, 60))
    fam = hyperplane_family(field)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-1.0, 1.0, 9))
    assert len(mesh.vertices) == 60 * 9
    radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert float(np.max(np.abs(radii - 1.0))) < 1e-12
    # vertices agree with the closed-form cylinder chart at their parameters
    expect = np.stack([_cylinder_point(t, s) for t, s in mesh.params])
    assert float(np.max(np.abs(mesh.vertices - expect))) < 1e-12


def test_helix_envelope_is_its_tangent_developable():
    field = helix_frenet_field(np.linspace(-1.0, 1.0, 41))
    fam = hyperplane_family(field)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.8, 0.8, 9))
    expect = np.stack([helix_developable_point(t, s) for t, s in mesh.params])
    assert float(np.max(np.abs(mesh.vertices - expect))) < 1e-9


def _curvature_family(kind, nodes, kappa=((1,), (0,), (0, 0, 1))):
    """The hyperplane family of an integrated frame field, kappa as coefficient lists."""
    sf = SpaceForm(kind)
    nodes = np.asarray(nodes, dtype=float)
    curv = CurvatureFamily(sf.delta, [list(k) for k in kappa])
    field = integrate_structure_equation(sf, curv, nodes)
    return hyperplane_family(field)


def _circle_family(nodes):
    field = radial_circle_field(nodes)
    return hyperplane_family(field)


FAMILIES = {
    "circle": _circle_family,
    "spherical": lambda nodes: _curvature_family("spherical", nodes),
    "hyperbolic": lambda nodes: _curvature_family("hyperbolic", nodes),
}


def _geodesic(kind, s):
    return (np.cos(s), np.sin(s)) if kind == "spherical" else (np.cosh(s), np.sinh(s))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_envelope_incidence_residuals_vanish(name):
    fam = FAMILIES[name](np.linspace(0.5, np.pi, 30))
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.5, 0.5, 5))
    # F = <x - gamma, nu>_G and F_t = <x - gamma, nu'>_G, relative to the sizes they cancel from
    scale = np.max(np.abs(mesh.ambient)) * max(np.max(np.abs(fam.normal)), np.max(np.abs(fam.normal1)))
    assert float(np.max(np.abs(mesh.residuals))) < 1e-10 * scale


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_characteristic_direction_is_unit_and_orthogonal(name):
    fam = FAMILIES[name](np.linspace(0.5, np.pi, 30))
    keep, direction, _, _ = envelope._characteristic_lines(fam, 1e-9)
    assert keep.all()
    j = fam.sf.form
    vectors = (fam.frames[:, :, 0], fam.normal, fam.normal1)
    if fam.sf.kind == "euclidean":  # E w is spatial, orthogonal to e and e'
        j = np.diag([0.0, 1.0, 1.0, 1.0])
        vectors = (fam.normal, fam.normal1)
    np.testing.assert_allclose(np.einsum("ij,jk,ik->i", direction, j, direction), 1.0, rtol=0, atol=1e-12)
    # <E w, e_k>_J = sum_i w_i (E^T J E - J)_ik with |w|_1 <= sqrt 2: E w inherits
    # the frame's Gram defect
    defect = float(np.max(gram_defect(fam.frames, fam.sf)))
    for v in vectors:
        dots = np.einsum("ij,jk,ik->i", direction, j, v)
        size = np.linalg.norm(direction, axis=1) * np.linalg.norm(v, axis=1)
        assert float(np.max(np.abs(dots) / size)) < 1e-12
        assert float(np.max(np.abs(dots) / size)) <= 2.0 * defect


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_characteristic_direction_is_the_signed_tangent(kind):
    # with kappa_2 = 0, nu' = -kappa_3 e_2, so the line runs along sign(kappa_3) e_1
    # in every geometry; kappa_3 = t vanishes at the middle node, which is dropped
    sf = SpaceForm(kind)
    nodes = np.linspace(-2.0, 2.0, 9)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 1]])
    field = integrate_structure_equation(sf, curv, nodes)
    keep, direction, _, _ = envelope._characteristic_lines(hyperplane_family(field), 1e-9)
    assert keep.tolist() == [True] * 4 + [False] + [True] * 4
    tangent = np.sign(nodes[keep])[:, None] * field.matrices[keep, :, 1]
    assert float(np.max(np.abs(direction - tangent))) < 1e-10 * float(np.max(np.abs(tangent)))


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_characteristic_direction_stays_continuous_where_kappa3_changes_sign(kind):
    # kappa_3 = t vanishes between the two middle nodes, where the raw
    # direction sign(kappa_3) e_1 flips; the mesh's lines must not flip with it
    sf = SpaceForm(kind)
    nodes = np.linspace(-2.0, 2.0, 10)
    curv = CurvatureFamily(sf.delta, [[1], [0], [0, 1]])
    field = integrate_structure_equation(sf, curv, nodes)
    fam = hyperplane_family(field)
    keep, direction, _, _ = envelope._characteristic_lines(fam, 1e-9)
    assert keep.all()
    assert (np.einsum("ij,ij->i", direction[1:], direction[:-1]) > 0).all()
    mesh = envelope_mesh(fam, s_grid=np.array([0.0, 1.0]))
    strips = mesh.ambient.reshape(-1, 2, 4)
    if kind == "euclidean":
        lines = strips[:, 1] - strips[:, 0]
    else:
        c1, s1 = _geodesic(kind, 1.0)
        lines = (strips[:, 1] - c1 * strips[:, 0]) / s1
    assert (np.einsum("ij,ij->i", lines[1:], lines[:-1]) > 0).all()
    # the singular locus lies on the same, continued lines
    locus = singular_locus(fam, np.linspace(-1.5, 1.5, 51))
    k = np.searchsorted(nodes, locus.params[:, 0])
    if kind == "euclidean":
        expect = strips[k, 0] + locus.params[:, 1, None] * lines[k]
    else:
        c, s = _geodesic(kind, locus.params[:, 1])
        expect = c[:, None] * strips[k, 0] + s[:, None] * lines[k]
    assert float(np.max(np.abs(expect - locus.ambient))) <= 1e-12 * float(np.max(np.abs(locus.ambient)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_degenerate_node_leaves_a_gap(name):
    # a vanishing row 3 of K = E^-1 E' at one node makes its two incidence
    # conditions dependent: the strip is dropped and no quad bridges it
    fam = FAMILIES[name](np.linspace(0.5, np.pi, 12))
    gap = 5
    k3 = fam.k3.copy()
    k3[gap] = 0.0
    holed = dataclasses.replace(fam, k3=k3)
    s_grid = np.linspace(-0.5, 0.5, 4)
    ns = len(s_grid)
    full = envelope_mesh(fam, s_grid=s_grid)
    mesh = envelope_mesh(holed, s_grid=s_grid)
    assert len(full.vertices) - len(mesh.vertices) == ns
    assert mesh.meta["degenerate_nodes"] == [float(fam.t[gap])]
    assert full.meta["degenerate_nodes"] == []
    node = np.searchsorted(fam.t, mesh.params[mesh.faces, 0])
    assert (node.max(axis=1) - node.min(axis=1) == 1).all()
    assert not (node == gap).any()
    assert len(mesh.faces) == len(full.faces) - 2 * (ns - 1)


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_long_spans_drop_only_the_flat_node_and_keep_their_marks(kind):
    # kappa = (1, 0, t^2) vanishes in kappa_3 at t = 0 only; the frame grows
    # like e^t in hyperbolic space, and neither the keep rule nor the marks may
    # depend on that size
    marks = []
    for end in (15.0, 20.0):
        fam = _curvature_family(kind, np.linspace(0.0, end, 200))
        mesh = envelope_mesh(fam, s_grid=np.linspace(-1.0, 1.0, 9))
        assert mesh.meta["degenerate_nodes"] == [0.0]
        assert len(_chains(singular_locus(fam, np.linspace(-1.5, 1.5, 51)))) == 1
        marks.append(int(mesh.singular.sum()))
    assert marks[0] == marks[1]


_DYADIC = st.integers(min_value=-8, max_value=8).map(lambda k: Fraction(k, 4))


@settings(max_examples=60, deadline=None)
@given(k2=st.lists(_DYADIC, min_size=1, max_size=3), k3=st.lists(_DYADIC, min_size=1, max_size=3),
       roots=st.lists(st.integers(min_value=-8, max_value=8), max_size=3),
       shift=st.integers(min_value=0, max_value=40))
def test_scaling_the_curvatures_keeps_the_degenerate_nodes(k2, k3, roots, shift):
    # kappa_2 and kappa_3 share the roots r/8, which are nodes, and carry a
    # factor 2^-shift that sets the field's size; dyadic data evaluate exactly
    # at the dyadic nodes, so a shared root gives K_31 = K_32 = 0 there, and
    # at any other node hypot(K_31, K_32) / max|K_3.| >= 2^-17 / 48.  Scaling
    # (kappa_2, kappa_3) by 1e-6 or 1e6 must keep the same nodes (60
    # examples, about 0.3 s)
    nodes = np.arange(-8, 9) / 8.0
    common = Poly.const(Fraction(1, 2**shift))
    for r in roots:
        common = common * Poly.from_t_coeffs([Fraction(-r, 8), 1])
    kappa = [common * Poly.from_t_coeffs(k2), common * Poly.from_t_coeffs(k3)]

    def degenerate(scale):
        values = np.stack([np.ones(len(nodes))] + [(p * scale).evalf(nodes) for p in kappa], axis=-1)
        frames = np.broadcast_to(np.eye(4), (len(nodes), 4, 4)).copy()
        field = FrameField(SpaceForm("euclidean"), nodes, frames, values, np.zeros_like(values))
        keep = envelope._characteristic_lines(hyperplane_family(field), 1e-9)[0]
        return nodes[~keep].tolist()

    flat = degenerate(1)
    assert {r / 8 for r in roots} <= set(flat)
    for scale in (Fraction(1, 10**6), 10**6):
        assert degenerate(scale) == flat


# 60 draws of up to 64 nodes, about 0.2 s
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["euclidean", "spherical", "hyperbolic"]), n=st.integers(1, 64),
       scale=st.integers(-20, 20), seed=st.integers(0, 2**32 - 1))
def test_family_columns_match_the_structure_matrix_products(kind, n, scale, seed):
    # hyperplane_family reads nu', row 3 of K and row 3 of K K - K' off kappa
    # and kappa' in closed form; built here from structure_matrix, with delta
    # from the geometry and about a fifth of the curvatures zero, row 3 of K
    # and the first three entries of row 3 of K K - K' have one nonzero
    # product each and match exactly, while nu' and (K K - K')_33 sum two
    # products and match within a few ulps of them
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n, 4, 4))
    kappa, dkappa = (np.where(rng.random((n, 3)) < 0.8, np.ldexp(rng.normal(size=(n, 3)), scale), 0.0)
                     for _ in range(2))
    sf = SpaceForm(kind)
    fam = hyperplane_family(FrameField(sf, np.arange(float(n)), frames, kappa, dkappa))
    k = structure_matrix(sf.delta, kappa)
    q = (k @ k - structure_matrix(0, dkappa))[:, 3]  # row 3 of K' is that of structure_matrix(0, kappa')
    assert np.array_equal(fam.k3, k[:, 3])
    assert np.array_equal(fam.q3[:, :3], q[:, :3])
    ulps = 4 * np.finfo(float).eps
    terms = np.abs(kappa[:, 1:2] * frames[:, :, 1]) + np.abs(kappa[:, 2:3] * frames[:, :, 2])
    assert np.all(np.abs(fam.normal1 - (frames @ k)[:, :, 3]) <= ulps * terms)
    assert np.all(np.abs(fam.q3[:, 3] - q[:, 3]) <= ulps * (kappa[:, 1] ** 2 + kappa[:, 2] ** 2))


def test_curvatures_far_below_the_mesh_tolerance_still_mesh(tmp_path):
    # the keep rule compares with the field's own scale, not with mesh_tol
    # itself: kappa = (1, 1e-12, 1e-12) has the same lines as (1, 1, 1)
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"curve": {"kind": "curvature", "delta": 0,
                                            "kappa": [["1"], ["1e-12"], ["1e-12"]]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["envelope", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"]["vertices"] == 200 * 50


def test_spherical_locus_keeps_both_roots_on_a_wide_s_grid():
    # a cos s + b sin s = 0 has the roots s* and s* + pi; with s in [-3, 3] both
    # are on the mesh, and so on the edge of regression
    fam = _curvature_family("spherical", np.linspace(0.0, 3.0, 40), ((1,), (3,), (1,)))
    locus = singular_locus(fam, np.linspace(-3.0, 3.0, 61))
    chains = _chains(locus)
    assert [c.stop - c.start for c in chains] == [40, 40]
    low, high = (locus.params[c, 1] for c in chains)
    assert np.allclose(low, -0.759, atol=1e-3) and np.allclose(high - low, np.pi, rtol=0, atol=1e-12)
    assert [c.stop - c.start for c in _chains(singular_locus(fam, np.linspace(-1.5, 1.5, 51)))] == [40]


def test_spherical_root_sets_chain_apart():
    # at identity frames, kappa = (cos t / sqrt(1 + sin^2 t), sin t, 1) and
    # kappa' = 0 give a cos s + b sin s = sin(s + t): the locus is s = -t.  Past
    # t = pi/2 it leaves the root set of s* in [-pi/2, pi/2] for that of s* - pi,
    # 0.05 away at the next node; on the s grid [-3, 1] each set is one chain
    t = np.linspace(0.0, 2.1, 43)
    kappa = np.column_stack([np.cos(t) / np.sqrt(1 + np.sin(t) ** 2), np.sin(t), np.ones_like(t)])
    frames = np.broadcast_to(np.eye(4), (len(t), 4, 4))
    fam = hyperplane_family(FrameField(SpaceForm("spherical"), t, frames, kappa, np.zeros_like(kappa)))
    locus = singular_locus(fam, np.linspace(-3.0, 1.0, 41))
    assert np.allclose(locus.params[:, 1], -t, rtol=0, atol=1e-12)
    assert [c.stop - c.start for c in _chains(locus)] == [32, 11]


def test_helix_singular_locus_is_the_curve_itself():
    # the tangent developable is singular exactly along its edge of regression
    nodes = np.linspace(-1.0, 1.0, 81)
    field = helix_frenet_field(nodes)
    fam = hyperplane_family(field)
    locus = singular_locus(fam, np.linspace(-1.5, 1.5, 51))
    assert len(locus.params), "expected a nonempty singular locus"
    worst = 0.0
    for (t, s), p in zip(locus.params, locus.points):
        assert abs(s) < 1e-9  # the ruling parameter of the edge is 0
        worst = max(worst, float(np.max(np.abs(p - helix_developable_point(t, 0.0)))))
    assert worst < 1e-9


@pytest.mark.parametrize(
    "kind, nodes, kappa",
    [
        ("spherical", (0.0, 20.0, 800), ((1,), (0,), (0, 0, 1))),
        ("hyperbolic", (-5.0, 5.0, 800), ((1,), (0,), (0, 0, 1))),
        ("spherical", (-2.0, 2.0, 81), ((1,), (1,), (0, 1))),
        ("hyperbolic", (-2.0, 2.0, 81), ((1,), (1,), (0, 1))),
    ],
)
def test_quadric_locus_lies_on_the_mesh_lines(kind, nodes, kappa):
    # every locus point is cos s* gamma + sin s* b2 (cosh / sinh) with the
    # mesh's own b2 and the locus's s*, so s* is the mesh's parameter
    fam = _curvature_family(kind, np.linspace(*nodes), kappa)
    mesh = envelope_mesh(fam, s_grid=np.array([0.0, 1.0]))
    strips = mesh.ambient.reshape(-1, 2, 4)
    gamma = strips[:, 0]
    c1, s1 = _geodesic(kind, 1.0)
    b2 = (strips[:, 1] - c1 * gamma) / s1
    node_t = mesh.params[::2, 0]
    locus = singular_locus(fam, np.linspace(-1.5, 1.5, 51))
    assert len(locus.params)
    k = np.searchsorted(node_t, locus.params[:, 0])
    assert np.array_equal(node_t[k], locus.params[:, 0])
    c, s = _geodesic(kind, locus.params[:, 1])
    expect = c[:, None] * gamma[k] + s[:, None] * b2[k]
    assert float(np.max(np.abs(expect - locus.ambient))) <= 1e-12 * float(np.max(np.abs(locus.ambient)))
    if nodes == (0.0, 20.0, 800):  # t = 0 is the only degenerate node: one unbroken chain
        assert [c.stop - c.start for c in _chains(locus)] == [799]


@pytest.mark.parametrize(
    "kappa2, s_grid, expect",
    [
        # constant curvatures put the edge of regression at one s* at every
        # node: s* ~ -1.818 lies outside the default window but on this mesh,
        (3, [-3.0, 3.0, 61], [-1.8184464592320677] * 40),
        # and s* ~ -1.444 inside the default window but off this one
        (2, [-1.0, 1.0, 9], []),
    ],
    ids=["wide", "narrow"],
)
def test_locus_is_kept_within_the_mesh_s_grid(tmp_path, kappa2, s_grid, expect):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "geometry": "hyperbolic",
        "curve": {"kind": "curvature", "delta": -1, "kappa": [["1"], [str(kappa2)], ["1"]]},
        "grids": {"t": [0.0, 3.0, 40], "s": s_grid},
    }))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["singular_locus"]["polylines"] == (1 if expect else 0)
    s = [float(line.split()[3]) for line in (out / "envelope.locus.obj").read_text().splitlines()
         if line.startswith("# param ")]
    assert len(s) == len(expect)
    assert np.allclose(s, expect, rtol=0.0, atol=1e-12)


# -- discriminant normal forms -------------------------------------------------------


def test_normal_form_guard():
    with pytest.raises(DimensionMismatch):
        NormalFormFamily((2, 2, 3))
    with pytest.raises(DimensionMismatch):
        NormalFormFamily((0, 1, 2))


def test_discriminant_spot_values():
    nf = NormalFormFamily((1, 2, 3))
    assert (nf.x2.evalf(1.0, 0.0), nf.x3.evalf(1.0, 0.0)) == (-0.5, 1 / 3)
    nf = NormalFormFamily((2, 3, 4))
    assert (nf.x2.eval(1, 0), nf.x3.eval(1, 0)) == (Fraction(-1, 6), Fraction(1, 8))


def test_f_tt_on_the_discriminant_is_linear_in_s():
    # singular_locus solves F_tt = a(t) s + b(t) = 0 for s; x1 = s enters F_tt
    # linearly and x2 at most linearly, for every type vector
    for a3 in range(3, 13):
        for a2 in range(2, a3):
            for a1 in range(1, a2):
                assert NormalFormFamily((a1, a2, a3)).ftt.deg_u() <= 1, (a1, a2, a3)


@pytest.mark.parametrize("a", BUILTIN_TYPES)
def test_discriminant_solves_the_envelope_equations(a):
    # F and F_t both vanish along the discriminant chart: that is its definition
    nf = NormalFormFamily(a)
    for t in (-0.9, -0.3, 0.0, 0.4, 1.1):
        for s in (-0.7, 0.0, 0.5):
            x = (s, nf.x2.evalf(t, s), nf.x3.evalf(t, s))
            assert abs(nf.derivative(t, x, 0)) < 1e-12
            assert abs(nf.derivative(t, x, 1)) < 1e-12


def test_discriminant_chart_is_exact_rational():
    nf = NormalFormFamily((1, 2, 3))
    assert nf.x2.eval(Fraction(1), Fraction(0)) == Fraction(-1, 2)
    assert nf.x3.eval(Fraction(1), Fraction(0)) == Fraction(1, 3)


def test_discriminant_mesh_residuals():
    nf = NormalFormFamily((1, 2, 4))
    mesh = discriminant_mesh(nf, np.linspace(-1, 1, 21), np.linspace(-1, 1, 7))
    assert len(mesh.vertices) == 21 * 7
    assert float(np.max(np.abs(mesh.residuals))) < 1e-12


def test_cuspidal_edge_locus_closed_form():
    # for the basic fold family the second derivative vanishes on s = -t, and
    # the locus is the twisted cubic (-t, t^2/2, -t^3/6)
    nf = NormalFormFamily((1, 2, 3))
    t_grid = np.linspace(-1.0, 1.0, 41)
    locus = singular_locus(nf, t_grid)
    assert len(_chains(locus)) == 1
    assert len(locus.params) == 41
    for (t, s), p in zip(locus.params, locus.points):
        assert abs(s - (-t)) < 1e-12
        expect = np.array([-t, t * t / 2, -(t**3) / 6])
        assert np.allclose(p, expect, atol=1e-12)


def test_swallowtail_locus_as_cusped_curve():
    # the dense second-derivative locus of the swallowtail family: F_tt linear
    # in s gives one solution branch per t, away from the t = 0 breakdown
    nf = NormalFormFamily((1, 2, 4))
    locus = singular_locus(nf, np.linspace(0.05, 1.0, 20))
    assert len(locus.params)
    for t, s in locus.params:
        x = (s, nf.x2.evalf(t, s), nf.x3.evalf(t, s))
        assert abs(nf.derivative(t, x, 2)) < 1e-10


# -- block assembly -------------------------------------------------------------------


def _whole_mesh(sf, t, s_grid, keep, ambient, f, ft, ftt, tol):
    """A mesh's arrays from whole-mesh arrays: the (K, ns, 4) points and (K, ns)
    F, F_t, F_tt of the kept nodes, assembled in one step each."""
    ns, t = len(s_grid), t[keep]
    ambient = ambient.reshape(-1, 4)
    row = np.cumsum(keep) - 1
    corner = (row[np.flatnonzero(keep[:-1] & keep[1:])][:, None] * ns + np.arange(ns - 1)).ravel()
    return {"vertices": envelope.project_point(ambient, sf), "ambient": ambient,
            "params": np.column_stack([np.repeat(t, ns), np.tile(s_grid, len(t))]),
            "faces": np.column_stack([corner, corner + 1, corner + ns + 1, corner + ns]),
            "residuals": np.column_stack([f.ravel(), ft.ravel()]),
            "singular": (np.abs(ftt) <= tol).ravel()}


def _whole_envelope(fam, s_grid, tol):
    """``envelope_mesh``'s arrays by whole-mesh formulas, strips on the same
    characteristic lines."""
    sf = fam.sf
    keep, direction, a, b = envelope._characteristic_lines(fam, tol)
    gamma = fam.frames[keep, :, 0]
    g = np.diag([0.0, 1.0, 1.0, 1.0]) if sf.kind == "euclidean" else sf.form
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = (np.ones_like(s_grid), s_grid) if sf.kind == "euclidean" else _geodesic(sf.kind, s_grid)
        amb = c[None, :, None] * gamma[:, None, :] + s[None, :, None] * direction[:, None, :]
        f, ft = (((amb - gamma[:, None, :]) @ (n[keep] @ g)[:, :, None])[..., 0]
                 for n in (fam.normal, fam.normal1))
        ftt = c[None, :] * a[:, None] + s[None, :] * b[:, None]
    return _whole_mesh(sf, fam.t, s_grid, keep, amb, f, ft, ftt, tol)


def _whole_discriminant(nf, t_grid, s_grid, tol):
    """``discriminant_mesh``'s arrays by whole-mesh formulas."""
    t, s = t_grid[:, None], s_grid[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.broadcast_arrays(s, nf.x2.evalf(t, s), nf.x3.evalf(t, s))
        ambient = np.stack([np.ones_like(x[0]), *x], axis=-1)
        f, ft, ftt = nf.derivative(t, x, 0), nf.derivative(t, x, 1), nf.ftt.evalf(t, s)
    return _whole_mesh(SpaceForm("euclidean"), t_grid, s_grid, np.ones(len(t_grid), dtype=bool),
                       ambient, f, ft, ftt, tol)


def _assert_same_mesh(mesh, expect):
    assert mesh.faces.dtype == np.int32
    assert np.array_equal(mesh.faces, expect["faces"])
    for name in ("vertices", "ambient", "params", "residuals", "singular"):
        got = getattr(mesh, name)
        assert got.shape == expect[name].shape and got.tobytes() == expect[name].tobytes(), name


def _random_family(kind, keep, seed):
    """A hyperplane family of random frames, curvatures and their derivatives
    whose kappa_2 and kappa_3 vanish off ``keep``, so exactly the nodes off
    ``keep`` are degenerate."""
    rng = np.random.default_rng(seed)
    n = len(keep)
    frames, kappa, dkappa = rng.normal(size=(n, 4, 4)), rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    kappa[~keep, 1:] = 0.0
    nodes = np.cumsum(rng.random(n) + 0.01)
    return hyperplane_family(FrameField(SpaceForm(kind), nodes, frames, kappa, dkappa))


@st.composite
def _block_grids(draw):
    """(ns, keep): a strip length and a keep mask whose kept count is not a
    multiple of a block's strips (but for ns above one block, one strip a
    block), with dropped nodes at block edges and the ends."""
    ns = draw(st.sampled_from([2, 7, 101, envelope._EXPORT_CHUNK + 3]))
    step = max(envelope._EXPORT_CHUNK // ns, 1)
    kept = step * draw(st.integers(0, 2)) + draw(st.integers(1, max(step - 1, 1)))
    edges = sorted({0, kept} | {m + d for m in range(step, kept, step) for d in (-1, 0, 1)})
    gaps = draw(st.lists(st.sampled_from(edges), max_size=4))  # a dropped node before kept row j
    keep = []
    for j in range(kept + 1):
        keep += [False] * gaps.count(j) + [True] * (j < kept)
    return ns, np.array(keep)


# 100 grids of up to three blocks, about 1 s
@settings(max_examples=100, deadline=None)
@given(grid=_block_grids(), kind=st.sampled_from(["euclidean", "spherical", "hyperbolic"]),
       a=st.sampled_from(BUILTIN_TYPES), seed=st.integers(0, 2**32 - 1))
def test_block_assembly_matches_the_whole_mesh_formulas(grid, kind, a, seed):
    # _assemble fills the mesh _EXPORT_CHUNK // ns kept strips at a time; every
    # array must equal the whole-mesh formulas bit for bit, the last partial
    # block and the gaps of degenerate nodes at block edges included
    ns, keep = grid
    fam = _random_family(kind, keep, seed)
    s_grid = np.linspace(-2.0, 2.0, ns)
    mesh = envelope_mesh(fam, s_grid, tol=1e-9)
    assert mesh.meta["degenerate_nodes"] == fam.t[~keep].tolist()
    _assert_same_mesh(mesh, _whole_envelope(fam, s_grid, 1e-9))
    nf = NormalFormFamily(a)
    t_grid, s_grid = np.linspace(-1.5, 1.5, int(keep.sum())), np.linspace(-1.0, 2.0, ns)
    _assert_same_mesh(discriminant_mesh(nf, t_grid, s_grid), _whole_discriminant(nf, t_grid, s_grid, 1e-9))


@pytest.mark.parametrize("huge", [[90], [45, 90]])
def test_a_node_past_the_float_range_in_a_later_block_is_named(huge):
    # 40 strips of 101 vertices a block: the hyperbolic strips of a node whose
    # curve point has entries of 1e300 overflow at |s| = 25, cosh 25 = 3.6e10;
    # the error names the first such t, in the second or the last partial block
    keep = np.ones(100, dtype=bool)
    fam = _random_family("hyperbolic", keep, 5)
    fam.frames[huge, :, 0] = 1e300
    with pytest.raises(DomainError, match=re.escape(f"at t = {float(fam.t[huge[0]])!r} is beyond")):
        envelope_mesh(fam, np.linspace(-25.0, 25.0, 101))


# -- exports --------------------------------------------------------------------------


def test_export_obj_structure(tmp_path):
    field = radial_circle_field(np.linspace(0.0, np.pi, 10))
    fam = hyperplane_family(field)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.5, 0.5, 4))
    path = tmp_path / "cyl.obj"
    export_obj(mesh, path)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.faces)
    for l in f_lines:
        idx = [int(tok) for tok in l.split()[1:]]
        assert len(idx) == 4
        assert all(1 <= i <= len(mesh.vertices) for i in idx)  # 1-based


def test_export_polylines_structure(tmp_path):
    nf = NormalFormFamily((1, 2, 3))
    locus = singular_locus(nf, np.linspace(-1.0, 1.0, 11))
    path = tmp_path / "locus.obj"
    export_polylines(locus, path)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    l_lines = [l for l in lines if l.startswith("l ")]
    assert len(v_lines) == len(locus.points)
    # one segment record per consecutive pair within each chain
    assert len(l_lines) == sum(c.stop - c.start - 1 for c in _chains(locus))


def test_export_is_deterministic(tmp_path):
    nf = NormalFormFamily((2, 3, 4))
    mesh = discriminant_mesh(nf, np.linspace(-1, 1, 11), np.linspace(-1, 1, 5))
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, p1)
    export_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- exporter equivalence --------------------------------------------------------------


def _reference_obj(mesh):
    """The per-row "{!r}" formatter that export_obj must match byte for byte."""
    head = "# param {!r} {!r}\n# ambient " + " ".join(["{!r}"] * mesh.ambient.shape[1]) + "\n"
    tail = "v " + " ".join(["{!r}"] * mesh.vertices.shape[1]) + "\n"
    plain, marked = (head + tail).format, (head + "# mark singular-locus\n" + tail).format
    rows = np.concatenate([mesh.params, mesh.ambient, mesh.vertices], axis=1).tolist()
    text = "".join((marked if m else plain)(*row) for row, m in zip(rows, mesh.singular.tolist()))
    text += "".join("f {} {} {} {}\n".format(*row) for row in (mesh.faces + 1).tolist())
    return text or "\n"


def _reference_polylines(locus):
    """The per-value formatter that export_polylines must match byte for byte."""
    lines = []
    for k in range(len(locus.points)):
        t, s = locus.params[k]
        lines.append(f"# param {float(t)!r} {float(s)!r}")
        lines.append("# ambient " + " ".join(repr(float(x)) for x in locus.ambient[k]))
        lines.append("v " + " ".join(repr(float(x)) for x in locus.points[k]))
    lines.extend(f"l {i + 1} {j + 1}" for i, j in locus.segments.tolist())
    return "\n".join(lines) + "\n"


_NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                         dtype=np.uint64).view(np.float64).tolist()
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 1.0, 0.1, *_NAN_PAYLOADS]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


#: strip lengths of the grid draws: 7 and 101 do not divide the chunk, the last
#: is longer than one chunk
_STRIPS = [1, 2, 7, 101, envelope._EXPORT_CHUNK + 5]


@st.composite
def _grid_meshes(draw):
    """Meshes laid out as the exporters' grids are: t repeated over a strip of
    ns rows and s tiled, each other column a function of t, of s, of s but in
    one row, of neither, or one value; ±0.0 side by side and runs of NaN
    payloads come among the values."""
    ns = draw(st.sampled_from(_STRIPS))
    # one strip, or two strips past the last whole block; the last strip is cut short
    nt = draw(st.sampled_from([1, envelope._EXPORT_CHUNK // ns + 2]))
    rows = nt * ns - draw(st.integers(0, ns - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(k):
        x = rng.normal(size=k) * 10.0 ** rng.integers(-20, 21, size=k)
        special = rng.random(k) < draw(st.sampled_from([0.0, 0.2]))
        x[special] = rng.choice(np.array(_SPECIAL), np.count_nonzero(special))
        if k >= 4:
            x[-4:] = [0.0, -0.0, _NAN_PAYLOADS[0], _NAN_PAYLOADS[1]]
        return x

    def column(kind):
        if kind == "t":
            return np.repeat(values(nt), ns)
        if kind == "neither":
            return values(nt * ns)
        if kind == "one":
            return np.full(nt * ns, values(1)[0])
        x = np.tile(values(ns), nt)
        if kind == "s but one row":  # off the period only in its first or last row
            x[draw(st.sampled_from([0, -1]))] = values(1)[0]
        return x

    t = values(nt)
    if nt >= 2 and draw(st.booleans()):
        t[1] = t[0]  # the first run of t is two strips long
    kinds = st.sampled_from(["t", "s", "s but one row", "neither", "one"])
    params = np.column_stack([np.repeat(t, ns), np.tile(values(ns), nt)])
    ambient = np.column_stack([column(draw(kinds)) for _ in range(4)])
    vertices = (ambient[:, 1:] if draw(st.booleans())
                else np.column_stack([column(draw(kinds)) for _ in range(3)]))
    singular = rng.random(rows) < draw(st.sampled_from([0.0, 0.1]))
    faces = rng.integers(0, rows, size=(draw(st.integers(0, 6)), 4))
    return EnvelopeMesh(vertices=vertices[:rows], ambient=ambient[:rows], params=params[:rows],
                        faces=faces, residuals=np.zeros((rows, 2)), singular=singular)


@st.composite
def _meshes(draw):
    if draw(st.booleans()):
        return draw(_grid_meshes())
    m = draw(st.integers(0, 10))
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
    cell = st.one_of(_FLOATS, st.sampled_from(pool))  # pool draws repeat values

    def block(cols):
        rows = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=m, max_size=m))
        return np.array(rows, dtype=float).reshape(m, cols)

    params, ambient = block(2), block(4)
    # euclidean meshes hold their vertices as the view ambient[:, 1:]
    shared = draw(st.sampled_from(["view", "copy", None]))
    vertices = block(3) if shared is None else ambient[:, 1:]
    if m and draw(st.booleans()):
        params[:, 1] = ambient[:, 1]  # x1 = s, as in a normal form
    singular = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    quad = st.lists(st.integers(0, max(m - 1, 0)), min_size=4, max_size=4)
    faces = np.array(draw(st.lists(quad, max_size=6)), dtype=int).reshape(-1, 4)
    if m and draw(st.booleans()):  # cross chunk boundaries
        reps = envelope._EXPORT_CHUNK // m + 2
        params, ambient = (np.tile(x, (reps, 1)) for x in (params, ambient))
        vertices = ambient[:, 1:] if shared else np.tile(vertices, (reps, 1))
        singular = np.tile(singular, reps)
        if draw(st.booleans()):
            # one value in the first chunk only, and distinct values across the boundary
            params[:envelope._EXPORT_CHUNK, 0] = draw(_FLOATS)
            seed = draw(st.integers(0, 2**32 - 1))
            vertices[:, -1] = np.random.default_rng(seed).normal(size=len(vertices))
    if m and draw(st.booleans()):  # a constant column of -0.0 or of a NaN payload
        ambient[:, 0] = draw(st.sampled_from([-0.0, *_NAN_PAYLOADS]))
    if shared == "copy":
        vertices = vertices.copy()
    return EnvelopeMesh(vertices=vertices, ambient=ambient, params=params, faces=faces,
                        residuals=np.zeros((len(params), 2)), singular=singular)


# 60 meshes, about half of them grids of strips and some longer than one chunk;
# the example is one row, so every column is constant and no field of the row
# template is an array
@settings(max_examples=60, deadline=None)
@example(mesh=EnvelopeMesh(vertices=np.array([[-0.0, 0.1, _NAN_PAYLOADS[0]]]),
                           ambient=np.array([[1.0, 0.0, 5e-324, np.inf]]), params=np.array([[2.5, -np.inf]]),
                           faces=np.zeros((0, 4), dtype=int), residuals=np.zeros((1, 2)),
                           singular=np.array([False])))
@given(mesh=_meshes())
def test_export_obj_matches_the_per_row_formatter(tmp_path_factory, mesh):
    path = tmp_path_factory.mktemp("obj") / "mesh.obj"
    export_obj(mesh, path)
    assert path.read_bytes() == _reference_obj(mesh).encode()


@st.composite
def _loci(draw):
    """Loci of up to four chains of up to six points, each row of the chain's
    points joined to the next by a segment."""
    sizes = draw(st.lists(st.integers(0, 6), max_size=4))
    rows = [draw(st.lists(_FLOATS, min_size=9, max_size=9)) for _ in range(sum(sizes))]
    block = np.array(rows, dtype=float).reshape(-1, 9)
    first = [start + k for start, size in zip(np.cumsum([0, *sizes]), sizes) for k in range(size - 1)]
    segments = np.array([[i, i + 1] for i in first], dtype=np.int32).reshape(-1, 2)
    return Locus(params=block[:, :2], points=block[:, 2:5], ambient=block[:, 5:], segments=segments)


@settings(max_examples=40, deadline=None)
@given(_loci())
def test_export_polylines_matches_the_per_value_formatter(tmp_path_factory, locus):
    path = tmp_path_factory.mktemp("locus") / "locus.obj"
    export_polylines(locus, path)
    assert path.read_bytes() == _reference_polylines(locus).encode()


def _reference_records(tag, indices):
    """The per-row str/join writer that ``_write_records`` must match byte for byte:
    0-based indices in, OBJ's 1-based numbers out."""
    return "".join(f"{tag} " + " ".join(str(i + 1) for i in row) + "\n"
                   for row in indices.tolist()).encode()


# 40 index arrays, some of them longer than one chunk; about 0.2 s of tier-1 time
@settings(max_examples=40, deadline=None)
@example(tag="f", cols=4, rows=envelope._EXPORT_CHUNK + 7, lo=0, span=2000, seed=0)
@example(tag="l", cols=2, rows=0, lo=0, span=0, seed=0)
@given(tag=st.sampled_from("fl"), cols=st.integers(1, 4),
       rows=st.sampled_from([0, 1, 5, envelope._EXPORT_CHUNK + 7]),
       lo=st.sampled_from([0, 1, 7, 95, 996, 99_990, 10**9 - 3, 2**32 - 40]),
       span=st.sampled_from([0, 3, 39, 2000]), seed=st.integers(0, 2**32 - 1))
def test_write_records_matches_the_str_join_writer(tag, cols, rows, lo, span, seed):
    # the windows straddle powers of ten once 1 is added, so one chunk mixes digit
    # counts; the largest index is 2**32 - 2, written as 2**32 - 1
    indices = np.random.default_rng(seed).integers(lo, min(lo + span, 2**32 - 2), (rows, cols),
                                                   endpoint=True)
    handle = io.BytesIO()
    envelope._write_records(handle, tag, indices)
    assert handle.getvalue() == _reference_records(tag, indices)


def test_export_obj_crosses_the_real_chunk_size(tmp_path):
    nf = NormalFormFamily((1, 2, 4))
    mesh = discriminant_mesh(nf, np.linspace(-1, 1, 70), np.linspace(-1, 1, 61))
    assert len(mesh.params) > envelope._EXPORT_CHUNK
    mesh.singular[::7] = True
    path = tmp_path / "nf.obj"
    export_obj(mesh, path)
    assert path.read_bytes() == _reference_obj(mesh).encode()


@pytest.mark.parametrize("a", [(150, 160, 170), (1, 2, 170)])
def test_normal_form_exports_at_the_exponent_extremes_match_the_reference(tmp_path, a):
    # type (150, 160, 170) writes values near 1e-300, with 3-digit exponents
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["normal-form", "--type", ",".join(map(str, a)), "--out", str(tmp_path)]) == 0
    nf = NormalFormFamily(a)
    t_grid, tol = np.linspace(-1.0, 1.0, 200), DEFAULTS["tolerances"]["mesh_tol"]
    mesh = discriminant_mesh(nf, t_grid, np.linspace(0.0, 1.5, 50), tol=tol)  # the CLI's window
    name = "normal-form-" + "".join(map(str, a))
    assert (tmp_path / f"{name}.obj").read_bytes() == _reference_obj(mesh).encode()
    locus = singular_locus(nf, t_grid, tol=tol)
    assert (tmp_path / f"{name}.locus.obj").read_bytes() == _reference_polylines(locus).encode()


def _traced_peak(call):
    """The value of call() and the traced peak above the start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = call()
        return value, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _held(mesh):
    """Bytes of the arrays a mesh holds, a view counted once with its base."""
    arrays = {id(a if a.base is None else a.base): a if a.base is None else a.base
              for a in (mesh.vertices, mesh.ambient, mesh.params, mesh.faces, mesh.residuals, mesh.singular)}
    return sum(a.nbytes for a in arrays.values())


def test_meshes_hold_no_whole_mesh_temporaries():
    # _assemble fills the mesh a block of strips at a time, so beside the mesh
    # it returns an envelope holds per-node arrays and one block's scratch:
    # 0.5 and 1.0 MB traced at 1000 and 4000 x 101 (0.3 and 0.4 MB for a
    # discriminant).  Whole-mesh products held 3.2 and 12.8 MB (4.7 and 18.6 MB).
    s_grid, nf = np.linspace(-1.5, 1.5, 101), NormalFormFamily((1, 2, 5))
    for nodes in (1000, 4000):
        fam = hyperplane_family(helix_frenet_field(np.linspace(-2.0, 2.0, nodes)))
        for call in (lambda: envelope_mesh(fam, s_grid),
                     lambda: discriminant_mesh(nf, np.linspace(-1.0, 1.0, nodes), s_grid)):
            mesh, peak = _traced_peak(call)
            assert peak - _held(mesh) < 1.5 * 2**20, nodes


def test_hyperplane_family_holds_only_its_columns():
    # the family's frames and normal are the field's own arrays; it holds
    # nu', k3 and q3, three (N, 4) columns read off kappa and kappa': 96 B per
    # node on the spherical kappa = (1, 0, t^2) field of 20,000 nodes, plus
    # the objects.  Columns of the (N, 4, 4) products E K and K K - K' held 256.
    nodes = 20_000
    curve = {"kind": "curvature", "kappa": [["1"], ["0"], ["0", "0", "1"]]}
    field = RunConfig.from_dict({"geometry": "spherical", "curve": curve,
                                 "grids": {"t": [0.0, 3.0, nodes]}}).build_field()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fam = hyperplane_family(field)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert fam.frames is field.matrices
    assert held <= 96 * nodes + 4096


def test_export_obj_holds_one_chunk_of_scratch(tmp_path):
    # the helix's 1000 x 101 mesh of the mesh-export benchmark and one four
    # times as long.  The export copies no mesh array, compares each block's
    # columns in place, hands them to the formatter as views and formats the
    # vertex numbers of one face chunk at a time: its traced peak above its
    # start is one chunk's text and formatting scratch, about 2.30 and 2.31 MB
    # once the formatting tables are built.  With a byte copy of each block's
    # columns to compare them it read 2.53 and 2.54 MB; with the columns copied
    # too and the Schubfach words not freed as they were used 3.69 and 3.48 MB
    # (tables included); with the whole mesh's numbers formatted at once 4.7
    # and 12.0 MB; faces + 1 and an (n, 24) intp gather index per chunk took
    # 8.5 MB at 1000 x 101.
    export_obj(discriminant_mesh(NormalFormFamily((1, 2, 3)), [0.0, 1.0], [0.0, 1.0]), tmp_path / "tables.obj")
    for nodes in (1000, 4000):
        field = helix_frenet_field(np.linspace(-2.0, 2.0, nodes))
        mesh = envelope_mesh(hyperplane_family(field), s_grid=np.linspace(-1.5, 1.5, 101))
        _, peak = _traced_peak(lambda: export_obj(mesh, tmp_path / "helix.obj"))
        assert peak < 2.4 * 2**20, nodes


def test_locus_and_its_export_hold_no_whole_locus_temporaries(tmp_path):
    # the helix's 20,000-node family on a 20-point s grid, formatting tables
    # built first.  singular_locus peaks in _characteristic_lines' gather of the
    # kept frames, 3.84 MiB, and forms its record from the chained solutions
    # alone; export_polylines writes the record's own columns and segment
    # pairs, one chunk's text and scratch above it, 2.69 MiB (2.77 MiB at
    # 100,000 nodes).  A list of polylines concatenated back into whole columns
    # for the export peaked at 4.23 MiB there (10.49 MiB at 100,000 nodes).
    export_obj(discriminant_mesh(NormalFormFamily((1, 2, 3)), [0.0, 1.0], [0.0, 1.0]), tmp_path / "tables.obj")
    fam = hyperplane_family(helix_frenet_field(np.linspace(-2.0, 2.0, 20_000)))
    locus, peak = _traced_peak(lambda: singular_locus(fam, np.linspace(-1.5, 1.5, 20)))
    assert len(locus.params) == 20_000 and len(_chains(locus)) == 1
    assert peak <= 3.84 * 2**20
    _, peak = _traced_peak(lambda: export_polylines(locus, tmp_path / "helix.locus.obj"))
    assert peak <= 3.0 * 2**20


def test_failed_export_keeps_the_old_file(tmp_path, monkeypatch):
    nf = NormalFormFamily((1, 2, 3))
    mesh = discriminant_mesh(nf, np.linspace(-1, 1, 11), np.linspace(-1, 1, 5))
    path = tmp_path / "mesh.obj"
    path.write_text("old\n")

    def fail(handle, tag, indices):
        handle.write(b"f partial")
        raise RuntimeError("disk full")

    monkeypatch.setattr(envelope, "_write_records", fail)  # after the vertex lines
    with pytest.raises(RuntimeError, match="disk full"):
        export_obj(mesh, path)
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mesh.obj"]
