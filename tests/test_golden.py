"""Byte-level pins on the CLI's mesh and locus exports.

Each case runs one subcommand and compares SHA-256 hashes of the OBJ files it
writes.  A change to vertex order, float formatting, singular marks or face
layout changes a hash.  The curvature cases put the degenerate node t = 0 of
kappa = (1, 0, t^2) on the grid (39 of 40 strips survive) and reach both
quadric strip paths through the spherical and hyperbolic geometries.
"""

import hashlib
import json

import pytest

from framedcurves.cli import main

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
        "e908f882479a5d87d7293e7edeeb09918dd3d52d01c9e58b4118a456c7a58463",
        "ba517e766503e22d6b73547fe26c7c201f160343964b44688458e5a7eed1b7a3",
    ),
    "euclidean-delta0": (
        _curvature("euclidean", 0),
        "722697c95e20f070fafe26e68557bfa1396344e923ac7cd5f187eb6ac297cd60",
        "f175fdec8b57cb65b5683ef91f9045f1425dfd37d013ae4a959c2b45c5c2d78b",
    ),
    "euclidean-delta1": (
        _curvature("euclidean", 1),
        "4f79c893e0a148617df561c5a2fa949f85380b646a897c981eb79e52d4d0d745",
        "db6a250870e60c8004227158d433a36afe450840627d0d93a40872336a57c883",
    ),
    "euclidean-delta-1": (
        _curvature("euclidean", -1),
        "6f84ec366e3dc55fbac0e410a14c7bbf68f0e7bd8df030d461bdf4d56dc08465",
        "e4df2a6450ed3dcd9cd323e1f6134d7a3ab31ae79911409d75ca31f52b862bb7",
    ),
    "spherical-delta1": (
        _curvature("spherical", 1),
        "bd7af28469afa11642d7cbcda7dba3d704f1f77b94b22f076826e51ec9b1d926",
        "4825a5d7af9917ead66fd7073cc336c0c3217c884eb16822a0cfc7f7e50709a1",
    ),
    "hyperbolic-delta-1": (
        _curvature("hyperbolic", -1),
        "91d785aefae24fdbcf906ebbb21f16450478da5d9fcc1ab85b3e932940a831cf",
        "2c188734d817c6533819c93ea6129ceac38d8f89d0b3ad306044eacb00bbef81",
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


@pytest.mark.parametrize("name", sorted(ENVELOPE_CASES))
def test_envelope_exports_are_byte_stable(tmp_path, name):
    config, mesh_hash, locus_hash = ENVELOPE_CASES[name]
    out = _run_envelope(tmp_path, config)
    assert _sha256(out / "envelope.obj") == mesh_hash
    assert _sha256(out / "envelope.locus.obj") == locus_hash


def test_normal_form_exports_are_byte_stable(tmp_path):
    assert main(["normal-form", "--type", "1,2,5", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "normal-form-125.obj") == (
        "49a2f498fde6dfea0145c4753da2d61875c34b3b54939985637834c2d06a425a"
    )
    assert _sha256(tmp_path / "normal-form-125.locus.obj") == (
        "e230d6bb69fa1a0a915dd43f1237f2decf6eef48407921a701e7a2a1836d32d0"
    )


@pytest.mark.parametrize("name", ["helix-frenet", "euclidean-delta1", "spherical-delta1"])
def test_report_counts_the_marked_vertices(tmp_path, name):
    out = _run_envelope(tmp_path, ENVELOPE_CASES[name][0])
    marks = (out / "envelope.obj").read_text().count("\n# mark singular-locus\n")
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"]["marked_singular"] == marks
