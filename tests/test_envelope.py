"""Envelope meshes, discriminant normal forms, singular loci, and exports."""

import dataclasses

import numpy as np
import pytest
from fractions import Fraction

from framedcurves import (
    DimensionMismatch,
    NormalFormFamily,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    singular_locus,
)
from framedcurves.examples import (
    cylinder_point,
    helix_developable_point,
    helix_frenet_field,
    radial_circle_field,
)

NORMAL_FORM_TYPES = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4), (3, 4, 5)]


# -- hyperplane-family envelopes ---------------------------------------------------


def test_radial_circle_envelope_is_a_cylinder():
    curve, field = radial_circle_field(np.linspace(0.0, 2 * np.pi, 60))
    fam = hyperplane_family(field, curve)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-1.0, 1.0, 9))
    assert len(mesh.vertices) == 60 * 9
    radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert float(np.max(np.abs(radii - 1.0))) < 1e-12
    # vertices agree with the closed-form cylinder chart at their parameters
    expect = np.stack([cylinder_point(t, s) for t, s in mesh.params])
    assert float(np.max(np.abs(mesh.vertices - expect))) < 1e-12


def test_helix_envelope_is_its_tangent_developable():
    curve, field = helix_frenet_field(np.linspace(-1.0, 1.0, 41))
    fam = hyperplane_family(field, curve)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.8, 0.8, 9))
    expect = np.stack([helix_developable_point(t, s) for t, s in mesh.params])
    assert float(np.max(np.abs(mesh.vertices - expect))) < 1e-9


def test_envelope_incidence_residuals_vanish():
    curve, field = radial_circle_field(np.linspace(0.0, np.pi, 30))
    fam = hyperplane_family(field, curve)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.5, 0.5, 5))
    assert float(np.max(np.abs(mesh.residuals))) < 1e-10


def test_degenerate_node_leaves_a_gap():
    # a vanishing normal derivative at one node makes its two incidence
    # conditions dependent: the strip is dropped and no quad bridges it
    curve, field = radial_circle_field(np.linspace(0.0, np.pi, 12))
    fam = hyperplane_family(field, curve)
    gap = 5
    normal1 = fam.normal1.copy()
    normal1[gap] = 0.0
    holed = dataclasses.replace(fam, normal1=normal1)
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


def test_helix_singular_locus_is_the_curve_itself():
    # the tangent developable is singular exactly along its edge of regression
    nodes = np.linspace(-1.0, 1.0, 81)
    curve, field = helix_frenet_field(nodes)
    fam = hyperplane_family(field, curve)
    polylines = singular_locus(fam, t_grid=nodes)
    assert polylines, "expected a nonempty singular locus"
    worst = 0.0
    for pl in polylines:
        for (t, s), p in zip(pl.params, pl.points):
            assert abs(s) < 1e-9  # the ruling parameter of the edge is 0
            worst = max(worst, float(np.max(np.abs(p - helix_developable_point(t, 0.0)))))
    assert worst < 1e-9


# -- discriminant normal forms -------------------------------------------------------


def test_normal_form_guard():
    with pytest.raises(DimensionMismatch):
        NormalFormFamily((2, 2, 3))
    with pytest.raises(DimensionMismatch):
        NormalFormFamily((0, 1, 2))


def test_discriminant_spot_values():
    assert NormalFormFamily((1, 2, 3)).discriminant_point(1.0, 0.0) == (0.0, -0.5, 1 / 3)
    nf = NormalFormFamily((2, 3, 4))
    x = nf.discriminant_point(1.0, 0.0)
    assert abs(x[1] - (-1 / 6)) < 1e-15
    assert abs(x[2] - (1 / 8)) < 1e-15


@pytest.mark.parametrize("a", NORMAL_FORM_TYPES)
def test_discriminant_solves_the_envelope_equations(a):
    # F and F_t both vanish along the discriminant chart: that is its definition
    nf = NormalFormFamily(a)
    for t in (-0.9, -0.3, 0.0, 0.4, 1.1):
        for s in (-0.7, 0.0, 0.5):
            x = nf.discriminant_point(t, s)
            assert abs(nf.f(t, x)) < 1e-12
            assert abs(nf.f_t(t, x)) < 1e-12


def test_discriminant_chart_is_exact_rational():
    x2 = NormalFormFamily((1, 2, 3)).x2_poly()
    assert x2.eval(Fraction(1), Fraction(0)) == Fraction(-1, 2)
    x3 = NormalFormFamily((1, 2, 3)).x3_poly()
    assert x3.eval(Fraction(1), Fraction(0)) == Fraction(1, 3)


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
    polylines = singular_locus(nf, t_grid=t_grid)
    assert len(polylines) == 1
    pl = polylines[0]
    assert len(pl.params) == 41
    for (t, s), p in zip(pl.params, pl.points):
        assert abs(s - (-t)) < 1e-12
        expect = np.array([-t, t * t / 2, -(t**3) / 6])
        assert np.allclose(p, expect, atol=1e-12)


def test_swallowtail_locus_as_cusped_curve():
    # the dense second-derivative locus of the swallowtail family: F_tt linear
    # in s gives one solution branch per t, away from the t = 0 breakdown
    nf = NormalFormFamily((1, 2, 4))
    polylines = singular_locus(nf, t_grid=np.linspace(0.05, 1.0, 20))
    assert polylines
    for pl in polylines:
        for (t, s), p in zip(pl.params, pl.points):
            x = nf.discriminant_point(t, s)
            assert abs(nf.f_tt(t, x)) < 1e-10


# -- exports --------------------------------------------------------------------------


def test_export_obj_structure(tmp_path):
    curve, field = radial_circle_field(np.linspace(0.0, np.pi, 10))
    fam = hyperplane_family(field, curve)
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


def test_export_obj_triangulated(tmp_path):
    curve, field = radial_circle_field(np.linspace(0.0, np.pi, 10))
    fam = hyperplane_family(field, curve)
    mesh = envelope_mesh(fam, s_grid=np.linspace(-0.5, 0.5, 4))
    path = tmp_path / "cyl-tri.obj"
    export_obj(mesh, path, triangulate=True)
    f_lines = [l for l in path.read_text().splitlines() if l.startswith("f ")]
    assert len(f_lines) == 2 * len(mesh.faces)
    assert all(len(l.split()) == 4 for l in f_lines)


def test_export_polylines_structure(tmp_path):
    nf = NormalFormFamily((1, 2, 3))
    polylines = singular_locus(nf, t_grid=np.linspace(-1.0, 1.0, 11))
    path = tmp_path / "locus.obj"
    export_polylines(polylines, path)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    l_lines = [l for l in lines if l.startswith("l ")]
    assert len(v_lines) == sum(len(pl.points) for pl in polylines)
    # one segment record per consecutive pair within each chain
    assert len(l_lines) == sum(len(pl.points) - 1 for pl in polylines)


def test_export_is_deterministic(tmp_path):
    nf = NormalFormFamily((2, 3, 4))
    mesh = discriminant_mesh(nf, np.linspace(-1, 1, 11), np.linspace(-1, 1, 5))
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, p1)
    export_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()
