"""Command-line surface: subcommands, exit codes, artifacts, and determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framedcurves
from framedcurves import CurvatureFamily, SpaceForm, cli, envelope, export_events_csv, frames, scan_family
from framedcurves.classify import _AdaptedTypeOracle
from framedcurves.cli import main
from framedcurves.config import MAX_GRID_COUNT, MAX_MESH_VERTICES, RunConfig
from framedcurves.errors import ConfigError
from framedcurves.fileio import format_float
from framedcurves.frames import FrameField, gram_defect

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


@pytest.mark.parametrize("bits", [80, 100])
def test_event_jets_beyond_the_float_range_exit_3_without_a_warning(tmp_path, capsys, bits):
    # kappa_3 = t^2 - (lambda^2 - 2)(lambda - 2^bits): the event columns at
    # lambda* = -+sqrt 2 carry powers of c whose norms overflow; numpy's
    # overflow warning, an error under this suite's filter, is not raised
    c = 2**bits
    kappa3 = {"2,0": "1", "0,3": "-1", "0,2": str(c), "0,1": "2", "0,0": str(-2 * c)}
    config = {"curve": {"kind": "curvature", "kappa": [["1"], ["0"], kappa3]},
              "grids": {"t": [-1.0, 1.0, 50], "lambda": [-2.0, 4.0, 9]}}
    argv = ["scan", "--config", _write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "a jet is beyond the float range at an event" in capsys.readouterr().err


def test_scan_residual_beyond_float_range_writes_no_output(tmp_path, capsys):
    # kappa_3 = t^2 - 2e200 t + 1e400 - lambda on a 1e300 t window: the
    # detector at an event is beyond the float range, checked before any write
    config = {"curve": {"kind": "curvature", "kappa": [
                  ["1"], ["0"], {"2,0": "1", "1,0": "-2e200", "0,0": "1e400", "0,1": "-1"}]},
              "grids": {"t": [-1e300, 1e300, 5], "lambda": [-1.0, 1.0, 5]}}
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 3
    assert "the detector at an event is beyond the float range" in capsys.readouterr().err
    assert not (out / "events.csv").exists()


def test_scan_coefficient_below_float_range_exits_0_or_3(tmp_path):
    # kappa_3 = 1e-400 t^2 - lambda: 1e-400 rounds to 0.0, but the monic
    # lines carry 1e400 lambda, beyond the float range
    config = {"curve": {"kind": "curvature", "delta": 0,
                        "kappa": [["1"], ["0"], {"2,0": "1e-400", "0,1": "-1"}]},
              "grids": {"t": [-1.0, 1.0, 50], "lambda": [-0.2, 0.2, 9]}}
    argv = ["scan", "--config", _write_config(tmp_path, config), "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 3)


@pytest.mark.parametrize("lam_hi", [2.0, 1e40, 1e300])
def test_scan_events_keep_their_bits_on_a_wide_lambda_window(tmp_path, lam_hi):
    # kappa_3 = t^2 - lambda^2 + 2 has its events at lambda = -+sqrt 2; their
    # root boxes are sized by the root bound, not by the window, so a lambda
    # window 1e40 or 1e300 wide finds and types them as one 4 wide does
    config = {"curve": {"kind": "curvature", "delta": 0,
                        "kappa": [["1"], ["0"], {"2,0": "1", "0,2": "-1", "0,0": "2"}]},
              "grids": {"t": [-1.0, 1.0, 50], "lambda": [-2.0, lam_hi, 9]}}
    out = tmp_path / "out"
    assert main(["scan", "--config", _write_config(tmp_path, config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [(ev["lambda"], ev["type"]) for ev in report["events"]] == [
        (-1.4142135623730951, [3, 4, 5]), (1.4142135623730951, [3, 4, 5])]


def test_integration_past_the_step_budget_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
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


@pytest.mark.parametrize("argv", [["envelope"], ["normal-form", "--type", "1,2,3"]])
def test_a_mesh_above_the_vertex_cap_is_a_config_error(tmp_path, capsys, argv):
    # both counts at MAX_GRID_COUNT ask for 1e10 vertices, about 320 GB of ambient
    # coordinates alone; the config is refused before any grid or field is built
    big = MAX_GRID_COUNT
    config = {"grids": {"t": [-1.0, 1.0, big], "s": [-1.5, 1.5, big]}}
    cfg = _write_config(tmp_path, config)
    tracemalloc.start()
    try:
        code = main([*argv, "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"mesh vertices is above {MAX_MESH_VERTICES}" in capsys.readouterr().err
    assert peak < 2**19  # one grid of 100,000 nodes alone takes 800 kB
    assert not (tmp_path / "out").exists()


def test_the_mesh_vertex_cap_admits_a_mesh_of_exactly_the_cap():
    at_cap = RunConfig.from_dict({"grids": {"t": [-1.0, 1.0, MAX_MESH_VERTICES // 100],
                                            "s": [-1.5, 1.5, 100]}})
    at_cap.check_mesh_size()
    over = RunConfig.from_dict({"grids": {"t": [-1.0, 1.0, MAX_MESH_VERTICES // 100],
                                          "s": [-1.5, 1.5, 101]}})
    with pytest.raises(ConfigError):
        over.check_mesh_size()


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


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"], ["--budget", "-1"]])
def test_enumerate_rejects_a_bad_n_or_budget(flags, capsys):
    assert main(["enumerate", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: enumerate needs --n >= 1 and --budget >= 0")


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


#: t-grid ends: the float range's edges, subnormals and a few ordinary values
_T_END = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0,
                          1e16, 1e300, -1e300]) | st.floats(min_value=-20.0, max_value=20.0)
#: a curvature term map: at most 3 terms of degree at most 4 with small rational coefficients
_KAPPA = st.dictionaries(st.integers(min_value=0, max_value=4).map(str),
                         st.fractions(min_value=-4, max_value=4, max_denominator=8).map(str), max_size=3)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["frame", "envelope"]),
       geometry=st.sampled_from(["euclidean", "spherical", "hyperbolic"]),
       kappa=st.lists(_KAPPA, min_size=3, max_size=3),
       ends=st.lists(_T_END, min_size=2, max_size=2, unique=True).map(sorted),
       count=st.integers(min_value=2, max_value=12))
def test_curvature_frames_and_envelopes_exit_0_2_or_3(command, geometry, kappa, ends, count):
    config = {"geometry": geometry, "curve": {"kind": "curvature", "kappa": kappa},
              "grids": {"t": [*ends, count], "s": [-1.0, 1.0, 3]}}
    threads = ["--threads", "1"] if command == "envelope" else []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "MAX_STEPS", 300)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = [command, *threads, "--config", path, "--out", os.path.join(tmp, "out")]
        assert _run_quietly(argv)[0] in (0, 2, 3)


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
    assert lines[1] == '0.0,0.0,3,4,5,"Unresolved(3,4,5)",4,2,6,exact'
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


def test_scan_builds_the_detector_once(tmp_path, monkeypatch):
    # the report's residual at the events reads the scan's own detector
    calls = []
    detector = CurvatureFamily.detector
    monkeypatch.setattr(CurvatureFamily, "detector", lambda self, *a: calls.append(1) or detector(self, *a))
    assert main(["scan", "--config", _write_config(tmp_path, BUTTERFLY_CONFIG), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command,outputs", [
    ("scan", {"events": "same.txt", "report": "same.txt"}),
    ("scan", {"events": "sub/../e.csv", "report": "./e.csv"}),
    ("envelope", {"mesh": "m.obj", "report": "m.locus.obj"}),
    ("envelope", {"mesh": "m", "events": "m.locus.obj"}),
])
def test_outputs_that_name_one_file_twice_are_a_config_error(tmp_path, capsys, command, outputs):
    # the later write would replace the earlier one: refused before anything is written
    config = {**BUTTERFLY_CONFIG, "outputs": outputs} if command == "scan" else {"outputs": outputs}
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, config), "--out", str(out)]) == 2
    assert "must be four different files" in capsys.readouterr().err
    assert not out.exists()


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


def test_envelope_past_the_float_range_is_a_domain_error(tmp_path, capsys):
    # cosh and sinh of 1000 overflow: no NaN vertex or residual is written
    config = {
        "geometry": "hyperbolic",
        "curve": {"kind": "curvature", "kappa": [["1"], ["0"], ["1"]]},
        "grids": {"t": [0.0, 1.0, 5], "s": [-1000.0, 1000.0, 3]},
    }
    cfg, out = _write_config(tmp_path, config), tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["envelope", "--config", cfg, "--out", str(out)]) == 3
    assert "t = 0.0" in capsys.readouterr().err
    assert not out.exists()


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
    "helix-frenet-two-blocks": {"grids": {"t": [-2.0, 2.0, envelope._EXPORT_CHUNK + 7]}},
}


@pytest.mark.parametrize("name", sorted(FRAME_TABLE_CASES))
def test_frame_table_matches_the_per_entry_formatter(tmp_path, name):
    config = FRAME_TABLE_CASES[name]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["frame", "--config", _write_config(tmp_path, config), "--out", str(tmp_path)]) == 0
    field = RunConfig.from_dict(config).build_field()
    assert (tmp_path / "frames.txt").read_bytes() == _reference_frame_table(field).encode()


def test_the_frame_table_holds_one_block_of_scratch(tmp_path):
    # frames.txt is formatted and written _EXPORT_CHUNK rows at a time, so the
    # traced peak of the write is one block's text and formatting scratch, about
    # 20 MB for 4,096 rows of 18 values, at any node count.  Formatting the whole
    # table at once takes about 4.9 kB per node: 49 MB at 10,000 nodes.
    for nodes in (10_000, 40_000):
        rng = np.random.default_rng(nodes)
        t, matrices, defects = rng.normal(size=nodes), rng.normal(size=(nodes, 4, 4)), rng.random(nodes)
        tracemalloc.start()
        try:
            cli._write_frame_table(tmp_path / "frames.txt", t, matrices, defects)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, nodes


@pytest.mark.parametrize("kind", ["euclidean", "spherical", "hyperbolic"])
def test_gram_defects_hold_one_block_of_scratch(kind):
    # FrameField.gram_defects forms the (N, 4, 4) products a block of frames at
    # a time: at 100,000 nodes its traced peak is the 0.8 MB result and one
    # block's scratch, 1.4-1.8 MB, where the whole field's took 15-24.5 MB
    sf = SpaceForm(kind)
    matrices = np.random.default_rng(3).normal(size=(100_000, 4, 4))
    field = FrameField(sf, np.arange(100_000.0), matrices, np.zeros((100_000, 3)), np.zeros((100_000, 3)))
    tracemalloc.start()
    try:
        defects = field.gram_defects()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert np.array_equal(defects, gram_defect(matrices, sf))


#: kappa = (t^2 - lambda, 1, 1): its frame dual has type (1, 2, 4) at the origin
#: in euclidean space and (1, 2, 3) on the sphere, and only the sphere has an event
SPHERICAL_KAPPA = [{"2,0": "1", "0,1": "-1"}, ["1"], ["1"]]


def test_scan_and_type_take_delta_from_the_geometry(tmp_path):
    config = {"geometry": "spherical", "curve": {"kind": "curvature", "kappa": SPHERICAL_KAPPA},
              "grids": {"t": [-1.0, 1.0, 41], "lambda": [-0.5, 0.5, 9]}}
    cfg = _write_config(tmp_path, config)
    assert RunConfig.from_file(cfg).resolved()["curve"]["delta"] == 1
    assert _run_quietly(["scan", "--config", cfg, "--out", str(tmp_path / "scan")])[0] == 0
    kappa = RunConfig.from_file(cfg)._kappa_polys()
    grids = (np.linspace(-1.0, 1.0, 41), np.linspace(-0.5, 0.5, 9))
    events = {}
    for delta in (1, 0):
        events[delta] = scan_family(CurvatureFamily(delta, kappa), *grids).events
        export_events_csv(events[delta], tmp_path / f"delta{delta}.csv")
    assert (tmp_path / "scan" / "events.csv").read_bytes() == (tmp_path / "delta1.csv").read_bytes()
    assert len(events[1]) == 1 and events[0] == []
    code, out = _run_quietly(["type", "--config", cfg, "--t", "0", "--lam", "0"])
    origin = ([0, 1], Fraction(0), Fraction(0)), Fraction(0)
    types = {delta: _AdaptedTypeOracle(CurvatureFamily(delta, kappa), 1e-8).classify(*origin)[0]
             for delta in (1, 0)}
    assert code == 0 and f"type: {types[1]}" in out.splitlines()
    assert types == {1: (1, 2, 3), 0: (1, 2, 4)}


# -- help and argument basics -----------------------------------------------------------------


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in ("type", "frame", "envelope", "normal-form", "scan", "enumerate", "verify"):
        assert name in out


#: ``verify``'s stdout with each "[elapsed / budget]" suffix taken off
VERIFY_LINES = [
    "criterion 1 PASS: exact 35/35, float 10/10",
    "criterion 2 PASS: involution on 372 types, 20 lifted duals detected",
    "criterion 3 PASS: chain on 372 types; ordinary/adapted/osculating lists match frozen",
    "criterion 4 PASS: max Gram defect: euclidean 1.04e-14, spherical 1.15e-14, hyperbolic 3.73e-14",
    "criterion 5 PASS: cylinder distance 0.00e+00, developable pointwise distance 9.02e-16",
    "criterion 6 PASS: 6 types, worst pointwise 0.00e+00, spot values exact",
    "criterion 7 PASS: one event at (0,0), carrier (1,2,5); branch count 2/0 at lambda=+/-0.1",
    "criterion 8 PASS: worst c 5.55e-17, worst d 6.94e-18, witnesses 0.50/1.00",
]


def test_verify_prints_the_pinned_detail_of_every_criterion():
    code, out = _run_quietly(["verify"])
    assert code == 0
    suffix = re.compile(r" \[\d+\.\d\ds / budget \d+s\]$")
    lines = out.splitlines()
    assert all(suffix.search(line) for line in lines)
    assert [suffix.sub("", line) for line in lines] == VERIFY_LINES


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
print(json.dumps([codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))]))
"""


@pytest.fixture(scope="module")
def subcommand_modules(tmp_path_factory):
    """Exit codes of all seven subcommands run in one fresh process, then the
    scipy and numpy.ma modules that process loaded."""
    tmp_path = tmp_path_factory.mktemp("probe")
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
    return json.loads(run.stdout.splitlines()[-1])


def test_every_subcommand_leaves_scipy_unimported(subcommand_modules):
    # scipy is a test-only dependency (tests/frame_reference.py): no
    # subcommand may import it, and scipy.linalg alone would cost about 26 MB
    # of peak memory
    codes, scipy_modules, _ = subcommand_modules
    assert codes == [0] * 7
    assert scipy_modules == []


def test_every_subcommand_leaves_numpy_ma_unimported(subcommand_modules):
    # numpy.ma costs about 9 ms and 0.55 MB of RSS to import; np.setdiff1d
    # (through np.unique's np.ma.is_masked) pulled it into the polyline export
    codes, _, ma_modules = subcommand_modules
    assert codes == [0] * 7
    assert ma_modules == []
