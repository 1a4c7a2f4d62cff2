"""Byte-level pins on the CLI's mesh and locus exports.

Each case runs one subcommand and compares SHA-256 hashes of the OBJ files it
writes.  A change to vertex order, float formatting, singular marks or face
layout changes a hash.  The curvature cases put the degenerate node t = 0 of
kappa = (1, 0, t^2) on the grid (39 of 40 strips survive) and reach the
frame-relative characteristic lines in all three geometries.  Their
hashes also pin the frame integrator's last bits, so each of them is checked
against an independent DOP853 solution as well.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from framedcurves import jets
from framedcurves.acceptance import criterion_7
from framedcurves.classify import (
    CurvatureFamily,
    DiagonalFamily,
    _exact_roots,
    _FactoredDetector,
    _refine_event,
    classify_osculating_scan,
    scan_family,
)
from framedcurves.cli import main
from framedcurves.config import RunConfig
from framedcurves.examples import helix_curve
from framedcurves.frames import CurvatureData
from framedcurves.flags import (
    FlagCurve,
    c_integrality_residual,
    c_lift_monomial,
    d_integrality_residual,
    flag_from_curve,
)
from framedcurves.ratpoly import Poly
from frame_reference import dop853_frames, relative_frame_error

KAPPA = [["1"], ["0"], ["0", "0", "1"]]
CURVATURE_GRIDS = {"t": [0.0, 3.0, 40], "s": [-1.0, 1.0, 9]}


def _curvature(geometry, delta):
    return {
        "geometry": geometry,
        "curve": {"kind": "curvature", "delta": delta, "kappa": KAPPA},
        "grids": CURVATURE_GRIDS,
    }


ENVELOPE_CASES = {
    "helix-frenet": (
        {"curve": {"kind": "builtin", "name": "helix-frenet"}},
        "2f2a3bc84f7f95eaafb617687e7f44cfd4e8ced0a6cdd23fd8be355e297f8c50",
        "388b403500cf28958661274a18f34b362bd05f64e9ad0b1a254ccc0c4932d5c9",
    ),
    "euclidean-delta0": (
        _curvature("euclidean", 0),
        "c09f5a047f0f072c8581d7776551bb82f7646eb346a16185d5c83bb19374a9c0",
        "07edfa469b485b3ee85e08722687b02ce0e4003dc06668d771457de48402904b",
    ),
    "spherical-delta1": (
        _curvature("spherical", 1),
        "f2922757f6791680b3217c417fe7a3fdc370fa30538fa6b05417c420f038ec86",
        "2c93354d93b1682345cf1b3598c03f9a3d6b4c1069aedad1fc72a6182a278839",
    ),
    "hyperbolic-delta-1": (
        _curvature("hyperbolic", -1),
        "f24f2158314db4a06f0fdc41b83f67a3aa04f20568d93549488feb3b5d280974",
        "b1f189f41c5e299f165188bfc2701830ba0da4c43cc9ba370482522238edceeb",
    ),
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
    curv = CurvatureData(cfg.curve["delta"], [[Fraction(c) for c in kappa] for kappa in KAPPA])
    field = cfg.build_field()
    reference = dop853_frames(curv, field.s)
    assert float(np.max(relative_frame_error(field.matrices, reference))) <= 1e-9


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
    # the euclidean structure equation has delta = 0; any other value is not
    # a euclidean curve, so the envelope is refused rather than written
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_curvature("euclidean", delta)))
    out = tmp_path / "out"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numeric failure (DomainError)" in capsys.readouterr().err
    assert not (out / "envelope.obj").exists()


def test_normal_form_exports_are_byte_stable(tmp_path):
    assert main(["normal-form", "--type", "1,2,5", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "normal-form-125.obj") == (
        "49a2f498fde6dfea0145c4753da2d61875c34b3b54939985637834c2d06a425a"
    )
    assert _sha256(tmp_path / "normal-form-125.locus.obj") == (
        "e230d6bb69fa1a0a915dd43f1237f2decf6eef48407921a701e7a2a1836d32d0"
    )


#: the other five classified types at the default window: (mesh hash, locus hash)
NORMAL_FORM_CASES = {
    (1, 2, 3): (
        "a68adbf019db3eefad79ca4559d31da267b1bd3b69eb3848934c4ae77af87a64",
        "64eec3e06947ad6bc861386314052270d7d2581b17bb91aba94242941f016ca0",
    ),
    (1, 2, 4): (
        "e6885e6608853254bc9aea08ecf74c9f83e6e104b1a34ad870fa7d464ce95df8",
        "abd7141c859130151e65005486f4df64ad1a352805d860089924b9060382a8f6",
    ),
    (1, 3, 4): (
        "018e49b3d939968afff44764d675e2ab8642025cb6481287443d3b3b1a9582f9",
        "96be3a4e3d180349e111e1330caa0d58415fe37c617c9ca8977ba963a8405d53",
    ),
    (2, 3, 4): (
        "3a6c2ad05459e02c71f779550d587ab610f24a6174ba735f0160fa6a4d8044a2",
        "94647495afac11e8cef8bce6cb55a0561383d828d90b776124d5a7d0e8a636c8",
    ),
    (3, 4, 5): (
        "71625aaf1819019a807e692d565415b065501e350e5bdedc1bd1b80e63253a9b",
        "04c2545e6133018b57e0649ed2608af41192439c6e8e4eb71682ab734b00e7b0",
    ),
}


@pytest.mark.parametrize("a", sorted(NORMAL_FORM_CASES))
def test_every_normal_form_export_is_byte_stable(tmp_path, a):
    mesh_hash, locus_hash = NORMAL_FORM_CASES[a]
    name = "".join(map(str, a))
    assert main(["normal-form", "--type", ",".join(map(str, a)), "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / f"normal-form-{name}.obj") == mesh_hash
    assert _sha256(tmp_path / f"normal-form-{name}.locus.obj") == locus_hash


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
        "b479f9dcbc2526fcb2bbcb87e99812f210d178c84cfdb96eceaede779aeabe85"
    )
    assert _sha256(out / "report.json") == (
        "45488d41ea660e976a71555f1368bddf30b6286621ab63332000967403da2d55"
    )


def test_osculating_scan_is_bit_stable():
    t, u = Poly.t(), Poly.u()
    fam = DiagonalFamily((t, t, t * t * t - u * t))
    res = classify_osculating_scan(fam, np.linspace(-1.0, 1.0, 201), np.linspace(-0.2, 0.2, 41))
    events = np.array([[ev.lam, ev.t] for ev in res.events])
    assert [(ev.type, ev.confidence) for ev in res.events] == [((1, 2, 5), "exact")]
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
        "4f953dd86779a2970538c8510fe93d8afba172aa77ade4fd0d2a8d6b860a7c18"
    )
    assert _digest(*(from_curve.derivs[k] for k in keys)) == (
        "eb5138a30489b312cc50017801455ce493d74a14984cb1d87d018bc49f5de5f7"
    )


def test_exact_flag_residuals_are_bit_stable():
    # the integral monomial lift (all residuals 0) and a bent copy of it
    # (nonzero residuals), on the default nodes and on an off-center grid
    exact = c_lift_monomial((1, 2, 3))
    polys = dict(exact.polys)
    polys[(2, 0)] = polys[(2, 0)] + Poly.monomial_t(3, Fraction(1, 7))
    polys[(3, 1)] = polys[(3, 1)] + Poly.t() * Fraction(2, 3)
    bent = FlagCurve(dim=exact.dim, polys=polys)
    nodes = np.linspace(-0.7, 0.9, 17)
    digests = [
        _digest(c_integrality_residual(fc), d_integrality_residual(fc),
                c_integrality_residual(fc, nodes), d_integrality_residual(fc, nodes))
        for fc in (exact, bent)
    ]
    assert digests == [
        "4beb641f77c3df2749a5dffc0a23f4270dc4b94e1e940287fc3ebfa05b720662",
        "abc8cadcfc9df4351abd8d28f57faecb7b4849d4dcfd9ac2d1f7d60bcc3a8d0a",
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
    hit = [(t, lam) for e, line, gcd in detector.multiple_root_lines()
           for lam, _ in _exact_roots(e, -1 / 400, 1 / 300)
           for t in _refine_event(line, gcd, lam, (-1.0, 1.0))[0]]
    assert _digest(np.array(hit)) == (
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"
    )
