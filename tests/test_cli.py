"""Command-line surface: subcommands, exit codes, artifacts, and determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framedcurves
from framedcurves.cli import main
from framedcurves.config import RunConfig
from framedcurves.fileio import format_float
from framedcurves.frames import gram_defect

BUTTERFLY_CONFIG = {
    "curve": {
        "kind": "curvature",
        "delta": 0,
        "kappa": [["1"], ["0"], {"2,0": "1", "0,1": "-1"}],
    },
    "grids": {"t": [-1.0, 1.0, 200], "lambda": [-0.2, 0.2, 41]},
}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- exit codes -----------------------------------------------------------------


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"geometri": "euclidean"})
    assert main(["type", "--config", cfg, "--t", "0.0"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n", 2), ("seed", 0)])
def test_n_and_seed_are_unknown_config_keys(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, {key: value})
    assert main(["frame", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command,name,geometry", [("envelope", "helix-frenet", "hyperbolic"),
                                                   ("frame", "circle-radial", "spherical")])
def test_a_framed_builtin_is_euclidean_only(tmp_path, capsys, command, name, geometry):
    cfg = _write_config(tmp_path, {"geometry": geometry, "curve": {"kind": "builtin", "name": name}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{name!r} is euclidean" in capsys.readouterr().err
    assert not out.exists()


def test_bad_geometry_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"geometry": "parabolic"})
    assert main(["type", "--config", cfg, "--t", "0.0"]) == 2


def test_float_in_exact_slot_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"curve": {"kind": "polynomial", "coefficients": [[0, 0.5], [0, 1], [0, 0, 1]]}},
    )
    assert main(["type", "--config", cfg, "--t", "0.0"]) == 2
    assert "exact" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["type", "--config", str(path), "--t", "0.0"]) == 2


def test_degenerate_curve_is_a_numeric_failure(tmp_path, capsys):
    # three proportional components never span: finite type detection fails
    cfg = _write_config(
        tmp_path,
        {"curve": {"kind": "polynomial", "coefficients": [["1"], ["0", "1"], ["0", "2"]]}},
    )
    assert main(["type", "--config", cfg, "--t", "0.0"]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, curvature",
    [
        (["type", "--t", "nan"], False),
        (["type", "--t", "inf"], False),
        (["type", "--t=-inf"], False),
        (["type", "--t", "nan"], True),
        (["type", "--lam", "nan"], True),
        (["frame", "--lam", "nan"], True),
        (["envelope", "--lam", "inf"], True),
    ],
)
def test_non_finite_parameters_are_numeric_failures(tmp_path, capsys, argv, curvature):
    if curvature:
        argv = argv + ["--config", _write_config(tmp_path, BUTTERFLY_CONFIG)]
    if argv[0] != "type":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["frame", "envelope"])
def test_a_curvature_below_the_float_range_reads_as_the_flow_read_it(tmp_path, capsys, command):
    # 1e-330 rounds to 0.0, so the flow integrates kappa_3 = 0, and K at the
    # nodes reads it the same way, though 40^200 alone has no float: the run
    # is that of kappa_3 = 0 (whose hyperplane family is degenerate)
    runs = []
    for name, kappa_3 in (("tiny", {"200,0": "1e-330"}), ("zero", ["0"])):
        config = {"curve": {"kind": "curvature", "delta": 0, "kappa": [["1"], ["0"], kappa_3]},
                  "grids": {"t": [0.0, 40.0, 5], "s": [-1.0, 1.0, 3]}}
        out = tmp_path / name
        code = main([command, "--config", _write_config(tmp_path, config, f"{name}.json"),
                     "--out", str(out)])
        frames_txt = (out / "frames.txt").read_bytes() if (out / "frames.txt").exists() else None
        runs.append((code, capsys.readouterr().err, frames_txt))
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if command == "frame" else 3)


@pytest.mark.parametrize("command", ["frame", "envelope"])
@pytest.mark.parametrize("curve", [
    pytest.param({"kind": "builtin", "name": "helix-frenet"}, id="builtin"),
    pytest.param({"kind": "curvature", "delta": 0, "kappa": [["1"], ["0"], ["0", "0", "1"]]},
                 id="curvature"),
])
def test_lam_on_a_curve_without_lambda_is_a_config_error(tmp_path, capsys, command, curve):
    config = {"curve": curve, "grids": {"t": [0.1, 1.0, 8], "s": [-0.5, 0.5, 3]}}
    out = tmp_path / "out"
    argv = [command, "--config", _write_config(tmp_path, config), "--lam", "0.3", "--out", str(out)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kappa1", ["1e400", "1e300"])
def test_curvatures_beyond_float_range_are_numeric_failures(tmp_path, capsys, kappa1):
    # 1e400 has no float; 1e300 overflows the flow, which must not stall the integrator
    config = {"curve": {"kind": "curvature", "delta": 0, "kappa": [[kappa1], ["0"], ["1"]]},
              "grids": {"t": [0.0, 1.0, 5], "s": [-1.0, 1.0, 3]}}
    argv = ["frame", "--config", _write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_scan_coefficient_beyond_float_range_is_scanned_exactly(tmp_path):
    # kappa_3 = 1e400 t^2 - lambda has no float coefficients, and needs none:
    # its butterfly at the origin and its two branches are typed exactly
    config = {"curve": {"kind": "curvature", "delta": 0,
                        "kappa": [["1"], ["0"], {"2,0": "1e400", "0,1": "-1"}]},
              "grids": {"t": [-1.0, 1.0, 50], "lambda": [-0.2, 0.2, 9]}}
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [(ev["type"], ev["confidence"]) for ev in report["events"]] == [([3, 4, 5], "exact")]
    assert [(s["type"], s["points"], s["confidence"]) for s in report["strata"]] == [([2, 3, 4], 4, "exact")] * 2
    assert report["residual_maxima"]["detector_at_events"] == 0.0


def test_scan_coefficient_below_float_range_exits_0_or_3(tmp_path):
    # kappa_3 = 1e-400 t^2 - lambda: 1e-400 rounds to 0.0, but the monic
    # lines carry 1e400 lambda, beyond the float range
    config = {"curve": {"kind": "curvature", "delta": 0,
                        "kappa": [["1"], ["0"], {"2,0": "1e-400", "0,1": "-1"}]},
              "grids": {"t": [-1.0, 1.0, 50], "lambda": [-0.2, 0.2, 9]}}
    argv = ["scan", "--config", _write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 3)


def test_integration_past_the_step_budget_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    from framedcurves import frames

    monkeypatch.setattr(frames, "MAX_STEPS", 300)
    config = {"curve": {"kind": "curvature", "delta": 0, "kappa": [["1"], ["0"], ["0"] * 200 + ["1"]]},
              "grids": {"t": [0.0, 40.0, 40], "s": [-1.0, 1.0, 3]}}
    argv = ["frame", "--config", _write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    # 39 node intervals plus the budget's ceiling, 4 * 300, as t^200 has no float integral
    assert ("numeric failure (IntegrationError): integration needs more than 1239 intervals"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "config",
    [
        {"grids": {"t": [0, float("inf"), 10]}},
        {"grids": {"s": [0, 1, 1e9]}},
        {"tolerances": {"rank_tol": 1e300}},
    ],
)
def test_out_of_bounds_config_is_a_config_error(tmp_path, capsys, config):
    assert main(["type", "--config", _write_config(tmp_path, config)]) == 2
    assert "config error" in capsys.readouterr().err


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


#: (1, t, t^2, t^3): exact coefficients, so typed on the exact path
TWISTED_CUBIC = {"curve": {"kind": "polynomial",
                           "coefficients": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]}}


# both the attached "--t=-1e-05" and the detached "--t -1e-05" form, on the
# default builtin (float path) and on a polynomial curve (exact path)
@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_type_exits_0_or_3_for_every_float(x):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cubic.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(TWISTED_CUBIC, handle)
        for config in ([], ["--config", path]):
            attached = _run_quietly(["type", *config, f"--t={x!r}"])
            assert attached[0] in (0, 3)
            assert _run_quietly(["type", *config, "--t", repr(x)]) == attached


@pytest.mark.parametrize("t", ["1e200", "-1e300"])
def test_type_of_the_helix_far_out_is_its_regular_type(tmp_path, t):
    # the jet's point column holds 1e200 beside entries of size 1; the exact
    # path ranks the Krylov columns K^k e_0 instead, which do not depend on t
    cfg = _write_config(tmp_path, {"curve": {"kind": "builtin", "name": "helix"}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_quietly(["type", "--config", cfg, "--t", t])
    assert code == 0
    assert "type: (1, 2, 3)" in out
    assert "mode: exact  confidence: exact" in out


@pytest.mark.parametrize("name, code", [("helix", 0), ("circle", 3), ("great-circle", 3)])
def test_type_of_a_builtin_is_exact_at_every_t(tmp_path, name, code):
    # a planar circle never reaches full rank, exactly as its Krylov columns say
    cfg = _write_config(tmp_path, {"curve": {"kind": "builtin", "name": name}})
    for t in ("0.5", "1e200", "-1e300"):
        got, out = _run_quietly(["type", "--config", cfg, "--t", t])
        assert got == code
        assert ("mode: exact  confidence: exact" in out) == (code == 0)


@pytest.mark.parametrize("value", ["-1e-05", "-2.5E+1", "-inf", "-nan", "-0.5", "-3"])
def test_detached_negative_float_flags_parse_like_attached_ones(tmp_path, value):
    config = {**BUTTERFLY_CONFIG, "grids": {"t": [-1.0, 1.0, 5], "s": [-0.5, 0.5, 3]}}
    cfg = _write_config(tmp_path, config)
    for flags in (["--t", value], ["--lam", value], ["--la", value], ["--l", value],
                  ["--t", value, "--lam", value], ["--t", value, "--la", value]):
        attached = [f"{flag}={v}" for flag, v in zip(flags[::2], flags[1::2])]
        expect = _run_quietly(["type", "--config", cfg, *attached])
        assert expect[0] in (0, 3)
        assert _run_quietly(["type", "--config", cfg, *flags]) == expect


def test_envelope_takes_a_detached_negative_lambda(tmp_path):
    config = {**BUTTERFLY_CONFIG, "grids": {"t": [0.1, 1.0, 8], "s": [-0.5, 0.5, 3]}}
    cfg = _write_config(tmp_path, config)
    outs = []
    for flags in (["--lam", "-1e-05"], ["--lam=-1e-05"]):
        out = tmp_path / flags[-1]
        assert _run_quietly(["envelope", "--config", cfg, *flags, "--out", str(out)])[0] == 0
        outs.append([(out / name).read_bytes() for name in ("envelope.obj", "report.json")])
    assert outs[0] == outs[1]


def test_a_detached_non_number_is_still_a_usage_error():
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["type", "--t", "--lam", "0"])
    assert exc.value.code == 2


def test_an_ambiguous_float_flag_prefix_is_still_a_usage_error(monkeypatch):
    from framedcurves import cli

    monkeypatch.setattr(cli, "_FLOAT_FLAGS", ("--t", "--lam", "--lab"))
    assert _run_quietly(["type", "--lam", "-1e-05"])[0] == 0
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["type", "--la", "-1e-05"])
    assert exc.value.code == 2


# -- type -----------------------------------------------------------------------------


def test_type_of_default_builtin(capsys):
    assert main(["type", "--t", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2, 3)" in out
    assert "confidence" in out


def test_type_of_monomial_polynomial(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "curve": {
                "kind": "polynomial",
                "coefficients": [["1"], ["0", "1"], ["0", "0", "1/2"], ["0", "0", "0", "0", "1/24"]],
            }
        },
    )
    assert main(["type", "--config", cfg, "--t", "0"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2, 4)" in out


def test_type_of_a_curvature_family_comes_from_its_exact_jets(tmp_path, capsys):
    # kappa3 = t^2 - lambda: (1/10, 1/100), the decimals as typed, is on the
    # (2, 3, 4) branch t^2 = lambda, whatever the t grid, and a t between its
    # nodes or outside the grid is typed as well
    config = {**BUTTERFLY_CONFIG, "grids": {"t": [-1.0, 1.0, 401], "lambda": [-0.2, 0.2, 41]}}
    assert main(["type", "--config", _write_config(tmp_path, config), "--t", "0.1", "--lam", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "subject: frame dual" in out and "type: (2, 3, 4)" in out
    assert "mode: exact  confidence: exact" in out
    for t in ("0.123", "4"):
        assert main(["type", "--config", _write_config(tmp_path, BUTTERFLY_CONFIG), f"--t={t}"]) == 0
        assert "type: (1, 2, 3)" in capsys.readouterr().out


@pytest.mark.parametrize("t", ["1e200", "1e150", "-3e30"])
def test_type_of_a_curvature_family_beyond_the_float_range_is_typed_exactly(tmp_path, capsys, t):
    # the exact jets of kappa3 = t^2 - lambda carry a t whose square overflows a float
    assert main(["type", "--config", _write_config(tmp_path, BUTTERFLY_CONFIG), f"--t={t}"]) == 0
    out = capsys.readouterr().out
    assert "type: (1, 2, 3)" in out and "mode: exact  confidence: exact" in out


@pytest.mark.parametrize("t", ["0", "1000"])
def test_type_of_a_polynomial_curve_is_typed_exactly(tmp_path, capsys, t):
    # at t = 1000 the float jet's singular values stall at rank 3
    assert main(["type", "--config", _write_config(tmp_path, TWISTED_CUBIC), f"--t={t}"]) == 0
    out = capsys.readouterr().out
    assert "type: (1, 2, 3)" in out and "mode: exact  confidence: exact" in out


# -- enumerate --------------------------------------------------------------------------


def test_enumerate_adapted_table(capsys):
    assert main(["enumerate", "--n", "2", "--budget", "2", "--mode", "adapted"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a1,a2,a3,schubert,codim_D,codim_C"
    assert lines[1] == "1,2,3,0,0,0"
    assert lines[-1] == "2,3,4,3,2,1"
    assert len(lines) == 6


@pytest.mark.parametrize("n,budget,rows", [(30, 4, 12), (1000, 0, 1)])
def test_enumerate_of_a_long_type_vector_finishes(capsys, n, budget, rows):
    assert main(["enumerate", "--n", str(n), "--budget", str(budget)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + rows
    assert lines[1].startswith(",".join(str(i) for i in range(1, n + 2)) + ",0,0,0")


def test_enumerate_writes_csv(tmp_path, capsys):
    assert main(["enumerate", "--n", "2", "--budget", "2", "--out", str(tmp_path)]) == 0
    path = tmp_path / "enumerate.csv"
    assert path.exists()
    assert path.read_text().splitlines()[0] == "a1,a2,a3,schubert,codim_D,codim_C"


# -- normal-form --------------------------------------------------------------------------


def test_normal_form_mesh_contains_the_reference_vertex(tmp_path):
    assert main(["normal-form", "--type", "1,2,3", "--out", str(tmp_path)]) == 0
    obj = (tmp_path / "normal-form-123.obj").read_text()
    assert "v 0.0 -0.5 0.3333333333333333" in obj
    assert (tmp_path / "normal-form-123.locus.obj").exists()


def test_normal_form_rejects_bad_type(capsys):
    assert main(["normal-form", "--type", "3,2,1"]) == 2


@pytest.mark.parametrize("text", ["1,2,171", "1,2,1000000000"])
def test_normal_form_rejects_a_type_entry_beyond_the_float_factorials(text, capsys):
    # 171! does not fit a float; the bound is checked before any factorial
    assert main(["normal-form", "--type", text]) == 2
    assert "at most 170" in capsys.readouterr().err


@pytest.mark.parametrize("text, t_max", [("1,2,3", 1e300), ("1,2,5", 1e100)])
def test_normal_form_past_the_float_range_is_a_domain_error(tmp_path, capsys, text, t_max):
    # t^a3 / a3! overflows at the window's ends: no inf vertex is written
    cfg = _write_config(tmp_path, {"grids": {"t": [-t_max, t_max, 3]}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["normal-form", "--type", text, "--config", cfg, "--out", str(out)]) == 3
    assert f"t = {-t_max!r}" in capsys.readouterr().err
    assert not out.exists()


_TYPE_ENTRY = st.integers(min_value=-3, max_value=400) | st.sampled_from([10**9, 10**30])


@settings(max_examples=40, deadline=None)
@given(st.lists(_TYPE_ENTRY.map(str), max_size=4).map(",".join)
       | st.text(alphabet="0123456789,-+ _.e", max_size=12))
def test_normal_form_type_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as out:
        assert _run_quietly(["normal-form", f"--type={text}", "--out", out])[0] in (0, 2)


@pytest.mark.parametrize("argv", [["normal-form", "--type=--"], ["frame", "--lam=--"],
                                  ["envelope", "--threads=--"]])
def test_a_lone_double_dash_value_is_a_config_error(tmp_path, capsys, argv):
    # argparse turns "--flag=--" into an empty list that skips the flag's type
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "needs a value" in capsys.readouterr().err


# -- scan ------------------------------------------------------------------------------------


def test_scan_butterfly_event_csv(tmp_path):
    cfg = _write_config(tmp_path, BUTTERFLY_CONFIG)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "lambda,t,a1,a2,a3,class,codim_D,codim_C,schubert,confidence"
    assert lines[1] == "0.0,0.0,3,4,5,Unresolved(3,4,5),4,2,6,exact"
    report = json.loads((out / "report.json").read_text())
    assert len(report["events"]) == 1
    assert report["events"][0]["dual"] == [1, 2, 5]


def test_scan_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, BUTTERFLY_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scan", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_scan_requires_a_curvature_family(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"curve": {"kind": "builtin", "name": "helix"}})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2


# -- envelope and frame -------------------------------------------------------------------------


def test_envelope_writes_mesh_locus_and_report(tmp_path):
    out = tmp_path / "env"
    assert main(["envelope", "--out", str(out)]) == 0
    assert (out / "envelope.obj").exists()
    assert (out / "envelope.locus.obj").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"]["vertices"] > 0
    assert "residual_maxima" in report


def test_envelope_residual_is_relative_to_the_frame_size(tmp_path):
    # hyperbolic frames grow like e^t, so absolute |F|, |F_t| carry their round-off
    config = {
        "geometry": "hyperbolic",
        "curve": {"kind": "curvature", "delta": -1, "kappa": [["1"], ["0"], ["0", "0", "1"]]},
        "grids": {"t": [0.0, 10.0, 200]},
    }
    cfg, out = _write_config(tmp_path, config), tmp_path / "out"
    assert _run_quietly(["envelope", "--config", cfg, "--out", str(out)])[0] == 0
    report = json.loads((out / "report.json").read_text())
    assert report["residual_maxima"]["envelope"] <= 1e-10


def test_envelope_threads_flag_is_accepted_and_ignored(tmp_path):
    for name, extra in (("plain", []), ("threads", ["--threads", "4"])):
        assert _run_quietly(["envelope", "--out", str(tmp_path / name), *extra])[0] == 0
    for name in ("envelope.obj", "envelope.locus.obj", "report.json"):
        assert (tmp_path / "threads" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_envelope_of_the_radial_circle_is_a_cylinder(tmp_path):
    cfg = _write_config(tmp_path, {"curve": {"kind": "builtin", "name": "circle-radial"}})
    out = tmp_path / "cyl"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
    rows = [
        [float(x) for x in line.split()[1:]]
        for line in (out / "envelope.obj").read_text().splitlines()
        if line.startswith("v ")
    ]
    radii = np.hypot(*np.array(rows)[:, :2].T)
    assert float(np.max(np.abs(radii - 1.0))) < 1e-9


def test_frame_writes_orthonormal_table(tmp_path, capsys):
    out = tmp_path / "fr"
    assert main(["frame", "--out", str(out)]) == 0
    lines = (out / "frames.txt").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) > 100
    out_text = capsys.readouterr().out
    assert "gram" in out_text.lower()


def _reference_frame_table(field):
    """The per-entry ``format_float`` rows that frames.txt must match byte for byte."""
    lines = ["# t  e0..e3 column-major (16 entries)  gram_defect"]
    for t, matrix in zip(field.s, field.matrices):
        entries = " ".join(format_float(x) for x in matrix.T.ravel())
        lines.append(f"{format_float(t)} {entries} {format_float(gram_defect(matrix, field.sf))}")
    return "\n".join(lines) + "\n"


def _curvature_config(geometry, delta):
    return {"geometry": geometry, "grids": {"t": [0.0, 10.0, 101]},
            "curve": {"kind": "curvature", "delta": delta, "kappa": [["1"], ["0"], ["0", "0", "1"]]}}


#: a closed-form field, and kappa = (1, 0, t^2) integrated in each geometry
FRAME_TABLE_CASES = {
    "helix-frenet": {},
    "euclidean": _curvature_config("euclidean", 0),
    "spherical": _curvature_config("spherical", 1),
    "hyperbolic": _curvature_config("hyperbolic", -1),
}


@pytest.mark.parametrize("name", sorted(FRAME_TABLE_CASES))
def test_frame_table_matches_the_per_entry_formatter(tmp_path, name):
    config = FRAME_TABLE_CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["frame", "--config", _write_config(tmp_path, config), "--out", str(tmp_path)]) == 0
    field = RunConfig.from_dict(config).build_field()
    assert (tmp_path / "frames.txt").read_bytes() == _reference_frame_table(field).encode()


# -- help and argument basics -----------------------------------------------------------------


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in ("type", "frame", "envelope", "normal-form", "scan", "enumerate", "verify"):
        assert name in out


_SCIPY_PROBE = """
import contextlib, io, json, sys
from framedcurves.cli import main
config, scan_config, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["type", "--t", "0.5"]),
             main(["frame", "--config", config, "--out", out + "/frame"]),
             main(["envelope", "--config", config, "--out", out + "/envelope"]),
             main(["normal-form", "--type", "1,2,3", "--out", out + "/normal-form"]),
             main(["scan", "--config", scan_config, "--out", out + "/scan"]),
             main(["enumerate", "--n", "2", "--budget", "2", "--out", out + "/enumerate"]),
             main(["verify"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
"""


def test_every_subcommand_leaves_scipy_unimported(tmp_path):
    # scipy is a test-only dependency (tests/frame_reference.py): no
    # subcommand may import it, and scipy.linalg alone would cost about 26 MB
    # of peak memory
    config = {"geometry": "hyperbolic",
              "curve": {"kind": "curvature", "delta": -1, "kappa": [["1"], ["0"], ["0", "0", "1"]]},
              "grids": {"t": [0.0, 3.0, 40], "s": [-1.0, 1.0, 9]}}
    scan_config = _write_config(tmp_path, BUTTERFLY_CONFIG, name="scan.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(framedcurves.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, _write_config(tmp_path, config), scan_config,
                          str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    codes, scipy_modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * 7
    assert scipy_modules == []
