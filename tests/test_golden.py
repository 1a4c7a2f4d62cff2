"""Byte-level pins on the CLI's mesh and locus exports.

Each case runs one subcommand and compares SHA-256 hashes of the OBJ files it
writes; the curvature cases also pin the frame subcommand's ``frames.txt``.
A change to vertex order, float formatting, singular marks or face layout
changes a hash.  The curvature cases put the degenerate node t = 0 of
kappa = (1, 0, t^2) on the grid (39 of 40 strips survive) and reach the
frame-relative characteristic lines in all three geometries.  Their
hashes also pin the frame integrator's last bits, so each of them is checked
against an independent DOP853 solution as well.  The dense cases, whose
three curvatures are all nonzero, pin every entry of the rows of K and
K K - K' that the envelope reads.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from framedcurves import classify, jets, ratpoly
from framedcurves.acceptance import criterion_7
from framedcurves.classify import (
    CurvatureFamily,
    _FactoredDetector,
    _refine_event,
    scan_family,
)
from framedcurves.cli import main
from framedcurves.config import RunConfig
from framedcurves.examples import helix_curve
from framedcurves.flags import (
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    flag_from_curve,
    lift_chart,
)
from framedcurves.ratpoly import Poly, isolate_real_roots, midpoint
from frame_reference import dop853_frames, relative_frame_error

KAPPA = [["1"], ["0"], ["0", "0", "1"]]
CURVATURE_GRIDS = {"t": [0.0, 3.0, 40], "s": [-1.0, 1.0, 9]}


def _curvature(geometry, delta):
    return {
        "geometry": geometry,
        "curve": {"kind": "curvature", "delta": delta, "kappa": KAPPA},
        "grids": CURVATURE_GRIDS,
    }


#: kappa = (1 + t, 1/2 - t^2, t^3): kappa_1, kappa_2 and kappa_3 all nonzero
#: on the window, so every entry of rows 3 of K and K K - K' is pinned
DENSE_KAPPA = [["1", "1"], ["1/2", "0", "-1"], ["0", "0", "0", "1"]]


def _dense(geometry):
    return {
        "geometry": geometry,
        "curve": {"kind": "curvature", "kappa": DENSE_KAPPA},
        "grids": {"t": [-1.3, 2.1, 40], "s": [-1.0, 1.0, 9]},
    }


ENVELOPE_CASES = {
    "helix-frenet": (
        {"curve": {"kind": "builtin", "name": "helix-frenet"}},
        "2f2a3bc84f7f95eaafb617687e7f44cfd4e8ced0a6cdd23fd8be355e297f8c50",
        "388b403500cf28958661274a18f34b362bd05f64e9ad0b1a254ccc0c4932d5c9",
    ),
    "euclidean-delta0": (
        _curvature("euclidean", 0),
        "f42ba005e0411cafbc967ec0b524706f508d0b96135604c4ffe4ef15677891b4",
        "15ebb3bde5dd50c6b90ea4fcbe5c9b246649843ac3003aa70567df27fa1893a9",
    ),
    "spherical-delta1": (
        _curvature("spherical", 1),
        "b39474a8736ec90f68962377e2ad0c465e0d7e64cd1380ea94227ad0d37899e4",
        "ece16a80cb419b39b8cb9591e611cf08eb41950692ea51dd23d55c431a435fb2",
    ),
    "hyperbolic-delta-1": (
        _curvature("hyperbolic", -1),
        "231ad11ea1988b30504790cf76413d668353d6aded060043b16ca1808b4dd7c5",
        "75e4486b997128e072b1eded305d44ca5a89f9f275c43bfda6b0f0183b08a66a",
    ),
    # 360 vertices each; 2, 1 and 2 locus polylines
    "euclidean-dense": (
        _dense("euclidean"),
        "7a0da5a15aa450b254426ce387cc1472133040c46d0b523e450a15c4e7948c58",
        "c0bc42c36c2291ed1a982e00b5459b5ed80a9191ac53f75ac8d105315da9db5b",
    ),
    "spherical-dense": (
        _dense("spherical"),
        "fcdee3835953ac1a1a1fd0d63c725778b891039567c99897156eaf49e4f4d471",
        "c8b68a716e196ae676b9193391d0834b83988cbdecbee833495555029275260d",
    ),
    "hyperbolic-dense": (
        _dense("hyperbolic"),
        "27582e7b9bf44adb5b69215f95f1b9b19854d4d9befd9b0c622dbd2084345534",
        "162ff774344a79d97f30b85f15511a1102418b52873eccaa5075d8c68c99d683",
    ),
}


#: SHA-256 of the frame subcommand's frames.txt for each curvature case
FRAME_HASHES = {
    "euclidean-delta0": "448975d2e49310a33c8f02e1bb33cdd640e3be93b900c71debb82ca4eb79e044",
    "spherical-delta1": "0f1a787b33393e21780b17c45de530f64d08c3979ca11fea7511f1205824d2b5",
    "hyperbolic-delta-1": "c19e57bc03c382f200f7a057684d4575eabd8102754b116bf949014592f54123",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_envelope(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["euclidean-delta0", "spherical-delta1", "hyperbolic-delta-1"])
def test_curvature_case_frames_match_dop853(name):
    # the hashes below pin the integrator's last bits; this pins what they mean
    cfg = RunConfig.from_dict(ENVELOPE_CASES[name][0])
    curv = CurvatureFamily(cfg.curve["delta"], [[Fraction(c) for c in kappa] for kappa in KAPPA])
    field = cfg.build_field()
    reference = dop853_frames(curv, field.s)
    assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


@pytest.mark.parametrize("name", sorted(FRAME_HASHES))
def test_frame_tables_are_byte_stable(tmp_path, name):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ENVELOPE_CASES[name][0]))
    out = tmp_path / "out"
    assert main(["frame", "--config", str(cfg), "--out", str(out)]) == 0
    assert _sha256(out / "frames.txt") == FRAME_HASHES[name]


@pytest.mark.parametrize("name", sorted(ENVELOPE_CASES))
def test_envelope_exports_are_byte_stable(tmp_path, name):
    config, mesh_hash, locus_hash = ENVELOPE_CASES[name]
    out = _run_envelope(tmp_path, config)
    assert _sha256(out / "envelope.obj") == mesh_hash
    assert _sha256(out / "envelope.locus.obj") == locus_hash


@pytest.mark.parametrize(
    "delta", [pytest.param(1, id="euclidean-delta1"), pytest.param(-1, id="euclidean-delta-1")]
)
def test_euclidean_curvature_with_nonzero_delta_is_a_numeric_failure(tmp_path, capsys, delta):
    # the geometry fixes delta, 0 for euclidean; an explicit delta that
    # disagrees is refused when the config loads, and nothing is written
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_curvature("euclidean", delta)))
    out = tmp_path / "out"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"delta {delta} disagrees with geometry 'euclidean' (delta 0)" in err
    assert not out.exists()


def test_normal_form_exports_are_byte_stable(tmp_path):
    assert main(["normal-form", "--type", "1,2,5", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "normal-form-125.obj") == (
        "a71cc27630752bfa318e44ac532ca84e26b189083757523864c57fa9153d767b"
    )
    assert _sha256(tmp_path / "normal-form-125.locus.obj") == (
        "bbe708838dd91df4fc4420403bf26286003d546cde42ce24a1508298ccc9ceec"
    )


#: the other five classified types at the default window: (mesh hash, locus hash)
NORMAL_FORM_CASES = {
    (1, 2, 3): (
        "a614ad0b2957757f4fb59043ccd3d69d39797190674dd5894ce4609324c6bd9a",
        "9f82415470f80efb7b6795098829c7a921f8e0a332b6ccafb39ceb10c8e0f2a8",
    ),
    (1, 2, 4): (
        "9099f230ce8144d3bd645f5170ec262cf8cd94c680ae938173b2e93524db506c",
        "3973712eb604ac5dda64e79e81b789bff491bab0b8930e62c4915bc7108a66b5",
    ),
    (1, 3, 4): (
        "2adeeb08f849da788f4fe1228f403fe9f4cd3012e85b99b4cc19f2b7d28378a3",
        "40fc800646b52c8fd8c815c5cffa4eca36486dd0d3d5bae4fd7a3720cb285205",
    ),
    (2, 3, 4): (
        "e1e7f0c385253d77e0b3717a9cf7fc2f01f74290a6de5634aa3a433e74175979",
        "c1227e2ed73725eec65f9679f689d397afad249f48617dac6f8457d512fb0773",
    ),
    (3, 4, 5): (
        "788307cbb1f6ab2b353bbe0f3e338290a7c0ef2eb878c02e77c5fd0b455972c9",
        "c4c6d50a88c950cdd7e942eb69a637e929a0a14ccbc89c5f339bd40fc03b6a77",
    ),
}


@pytest.mark.parametrize("a", sorted(NORMAL_FORM_CASES))
def test_every_normal_form_export_is_byte_stable(tmp_path, a):
    mesh_hash, locus_hash = NORMAL_FORM_CASES[a]
    name = "".join(map(str, a))
    assert main(["normal-form", "--type", ",".join(map(str, a)), "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / f"normal-form-{name}.obj") == mesh_hash
    assert _sha256(tmp_path / f"normal-form-{name}.locus.obj") == locus_hash


def test_enumerate_tables_are_byte_stable(capsys):
    # the type lists and their Schubert numbers and adapted and osculating
    # codimensions, for n 1-4 at budgets 0-4 in every mode (660 rows)
    h = hashlib.sha256()
    for n in range(1, 5):
        for budget in range(5):
            for mode in ("ordinary", "adapted", "osculating"):
                assert main(["enumerate", "--n", str(n), "--budget", str(budget), "--mode", mode]) == 0
                h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "de4edace450f6f86548f260f848232dfad5946147f5f8200dd7c5d5d8d98e40a"


@pytest.mark.parametrize("name", ["helix-frenet", "euclidean-delta0", "spherical-delta1"])
def test_report_counts_the_marked_vertices(tmp_path, name):
    out = _run_envelope(tmp_path, ENVELOPE_CASES[name][0])
    marks = (out / "envelope.obj").read_text().count("\n# mark singular-locus\n")
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"]["marked_singular"] == marks


# -- scan, osculating-scan and flag-chart pins ---------------------------------------

#: criterion 7's family kappa3 = t^2 - lambda (event at the origin only)
BUTTERFLY_SCAN = {
    "curve": {
        "kind": "curvature",
        "delta": 0,
        "kappa": [["1"], ["0"], {"2,0": "1", "0,1": "-1"}],
    },
    "grids": {"t": [-1.0, 1.0, 400], "lambda": [-0.2, 0.2, 81]},
}


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def test_scan_exports_are_byte_stable(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(BUTTERFLY_SCAN))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert _sha256(out / "events.csv") == (
        "c2362b45b2a11686abdddde93ab080ff93290ff8241f0d94819b0ccbc905f80d"
    )
    # re-pinned when the "roots" string came to describe root-sized boxes
    assert _sha256(out / "report.json") == (
        "18342ff28ab9200b46ebba061caa158b7cf61c82183930d01986710757a75962"
    )


def test_osculating_scan_is_bit_stable():
    # the Frenet family of the chart diagonal (t, t, t^3 - lambda t); the
    # curve's own type is the frame dual's dual
    t, u = Poly.t(), Poly.u()
    fam = CurvatureFamily.frenet(1, Poly.const(3) * t * t - u)
    res = scan_family(fam, np.linspace(-1.0, 1.0, 201), np.linspace(-0.2, 0.2, 41))
    events = np.array([[ev.lam, ev.t] for ev in res.events])
    assert [(ev.dual, ev.confidence) for ev in res.events] == [((1, 2, 5), "exact")]
    assert _digest(events) == (
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"
    )
    assert _digest(*(s.params for s in res.strata)) == (
        "0738867ab34750da6ccab9b4e353df748a74651fca85fadb3964eb96bc176d9b"
    )


def test_scans_take_no_float_root_path(monkeypatch):
    # every root of a scan comes from exact isolation and every type at a
    # rational lambda from exact ranks: with numpy's companion matrix,
    # eigenvalue and singular-value solvers and the float rank profile gone,
    # criterion 7 and the osculating scan still pass with the same bytes
    def refuse(*args, **kwargs):
        raise AssertionError("a float root finder or rank profile was called")

    monkeypatch.setattr(np, "roots", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(jets, "float_rank_profile", refuse)
    res = criterion_7()
    assert res.ok, res.line()
    test_osculating_scan_is_bit_stable()


def test_flag_charts_are_bit_stable():
    nodes = np.linspace(-0.5, 0.5, 21)
    from_curve = flag_from_curve(helix_curve(), nodes)
    keys = sorted(from_curve.coords)
    assert _digest(*(from_curve.coords[k] for k in keys)) == (
        "e779292d15aa37bcdc31876e517bf87a2b44a81ec9b03db4f0d0de2cf7f12a26"
    )
    assert _digest(*(from_curve.derivs[k] for k in keys)) == (
        "1ddd7631b8c05737c36c5e1b1def8b2e9dc711651fdaaed0b715eb9d53c3a219"
    )


def test_exact_flag_residuals_are_bit_stable():
    # the integral monomial lift (all residuals 0) and a bent copy of it
    # (nonzero residuals), on the built-in lift charts' nodes and on an off-center grid
    exact = c_lift_monomial((1, 2, 3))
    bent = dict(exact)
    bent[(2, 0)] = bent[(2, 0)] + Poly.monomial_t(3, Fraction(1, 7))
    bent[(3, 1)] = bent[(3, 1)] + Poly.t() * Fraction(2, 3)
    charts = [[lift_chart(lift, nodes) for nodes in (np.linspace(-0.5, 0.5, 21), np.linspace(-0.7, 0.9, 17))]
              for lift in (exact, bent)]
    digests = [
        _digest(*(residual(fc) for fc in pair for residual in (c_integrality_residual, d_integrality_residual)))
        for pair in charts
    ]
    assert digests == [
        "4beb641f77c3df2749a5dffc0a23f4270dc4b94e1e940287fc3ebfa05b720662",
        "35e90cfef5d66cd01ce99a2446b07ffce01b6181728f997c991dd2ef85baec3c",
    ]


def test_scan_family_roots_and_refinement_are_bit_stable():
    # strata params carry the exactly isolated line roots, rounded to floats;
    # _refine_event locates the event at each root of the discriminant's
    # factors in the lambda bracket
    family = CurvatureFamily.frenet(1, Poly.t() * Poly.t() - Poly.u())
    res = scan_family(family, np.linspace(-1.0, 1.0, 400), np.linspace(-0.2, 0.2, 81))
    assert _digest(*(s.params for s in res.strata)) == (
        "46438444620206ea210e8066daab6bfa11b90925b5b5828f5bc341906611d3e0"
    )
    detector = _FactoredDetector(family.detector())
    hit = [(midpoint(t), midpoint(lam)) for e, line, gcd in detector.multiple_root_lines()
           for lam in isolate_real_roots(e, -1 / 400, 1 / 300)
           for t in _refine_event(line, gcd, lam, (-1.0, 1.0))]
    assert _digest(np.array(hit)) == (
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"
    )


def test_the_degree_70_scan_is_bit_stable_and_builds_its_chain_once(monkeypatch):
    # kappa = (1 + lambda t, t - lambda, t^3 - lambda t + 1/5): the detector's
    # square-free part has 12 t-rows and a discriminant of degree 70, and the
    # subresultant chain of sf and d sf/dt that finds sf square-free is the
    # one the discriminant and the event split read
    t, u = Poly.t(), Poly.u()
    family = CurvatureFamily(0, (Poly.const(1) + u * t, t - u, t**3 - u * t + Poly.const("1/5")))
    sf = _FactoredDetector(family.detector()).sf
    calls, prs = [], ratpoly.subresultants

    def counted(rows):
        calls.append(rows)
        return prs(rows)

    monkeypatch.setattr(ratpoly, "subresultants", counted)
    monkeypatch.setattr(classify, "subresultants", counted)
    res = scan_family(family, np.linspace(-1.0, 1.0, 21), np.linspace(-1.0, 1.0, 5))
    assert len(sf) == 12 and sum(a == sf for a in calls) == 1
    assert [(ev.type, ev.confidence) for ev in res.events] == [
        ((1, 2, 5), "high"), ((2, 3, 4), "high"), ((1, 2, 5), "high"), ((1, 2, 5), "high")]
    assert [(s.type, s.confidence, len(s.params)) for s in res.strata] == [
        ((1, 2, 4), "exact", 2), ((1, 2, 4), "exact", 3)]
    assert _digest(np.array([[ev.lam, ev.t] for ev in res.events])) == (
        "0b2d73ce0cee0422f984dcd5c944a93a3b285a50400405c32d8f002991bb9ec4"
    )
    assert _digest(*(s.params for s in res.strata)) == (
        "8c4ded77d1590e1b7c5f87f042b98364b9da11e600845deb19616397004a4a1f"
    )
