"""Tests of the benchmark itself: generator, oracles, metric names, tracer hygiene.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SMALL = {"envelope_t": 30, "envelope_s": 7, "normal_form_t": 20, "normal_form_s": 9,
         "scan_t": 60, "scan_lambda": 21, "frames_t": 30, "frames_s": 5,
         "frames_t_end": 2.0}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_op(op, out):
    """Run one generated op into ``out``; return the CLI's stdout."""
    import framedcurves.cli as cli

    os.makedirs(out, exist_ok=True)
    argv = list(op["argv"])
    if op["config"] is not None:
        cfg = os.path.join(out, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(op["config"])
        argv += ["--config", cfg, "--out", out]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _edit_lines(path, prefix, edit, index=0):
    """Apply ``edit`` to the index-th line starting with ``prefix``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[hits[index]] = edit(lines[hits[index]])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _shift_numbers(line, delta, skip):
    head = line.split()[:skip]
    nums = [float(x) + delta for x in line.split()[skip:]]
    return " ".join(head + [repr(x) for x in nums])


# -- generator -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 7)
    assert [op["config"] for op in a] == [op["config"] for op in b]
    assert [op["argv"] for op in a] == [op["argv"] for op in b]
    assert len(a) % workloads.CYCLE[name] == 0
    for op in a:
        if op["config"] is not None:
            json.loads(op["config"])


@pytest.mark.parametrize("name", ["mesh-export", "scan-unfold", "curvature-frames"])
def test_generator_depends_on_seed(name):
    a = [op["config"] for op in workloads.generate(name, 7)]
    b = [op["config"] for op in workloads.generate(name, 8)]
    assert a != b


def test_scan_draws_stay_inside_the_window():
    for seed in range(20):
        for op in workloads.generate("scan-unfold", seed):
            grids = json.loads(op["config"])["grids"]
            t0 = Fraction(op["expect"]["t0"])
            lam0 = Fraction(op["expect"]["lam0"])
            assert grids["t"][0] < t0 < grids["t"][1]
            assert grids["lambda"][0] < lam0 < grids["lambda"][1]


# -- oracles reject corrupted outputs --------------------------------------------------


@pytest.mark.parametrize("field", ["helix-frenet", "circle-radial"])
def test_builtin_envelope_check_rejects_a_shifted_vertex(tmp_path, field):
    ops = workloads.generate("mesh-export", 3, SMALL)
    op = next(o for o in ops if o["kind"] == "envelope")
    cfg = json.loads(op["config"])
    cfg["curve"]["name"] = field
    op = {**op, "config": json.dumps(cfg), "expect": {**op["expect"], "field": field}}
    out = str(tmp_path)
    _run_op(op, out)
    assert checks.check_builtin_envelope(out, op["expect"]) == []
    _edit_lines(os.path.join(out, "envelope.obj"), "v ",
                lambda line: _shift_numbers(line, 1e-4, 1), index=5)
    assert checks.check_builtin_envelope(out, op["expect"])


def test_normal_form_check_rejects_a_shifted_vertex(tmp_path):
    op = next(o for o in workloads.generate("mesh-export", 3, SMALL)
              if o["kind"] == "normal-form")
    out = str(tmp_path)
    _run_op(op, out)
    assert checks.check_normal_form(out, op["expect"]) == []
    a = op["expect"]["type"]
    _edit_lines(os.path.join(out, f"normal-form-{a[0]}{a[1]}{a[2]}.obj"), "v ",
                lambda line: _shift_numbers(line, 1e-3, 1), index=30)
    assert checks.check_normal_form(out, op["expect"])


def test_normal_form_check_rejects_an_out_of_range_face(tmp_path):
    op = next(o for o in workloads.generate("mesh-export", 3, SMALL)
              if o["kind"] == "normal-form")
    out = str(tmp_path)
    _run_op(op, out)
    a = op["expect"]["type"]
    _edit_lines(os.path.join(out, f"normal-form-{a[0]}{a[1]}{a[2]}.obj"), "f ",
                lambda line: "f 1 2 3 999999")
    assert checks.check_normal_form(out, op["expect"])


def test_scan_check_rejects_a_moved_event(tmp_path):
    grids = {"t": [-1.0, 1.0, 60], "lambda": [-0.2, 0.2, 21]}
    cfg = {"curve": {"kind": "curvature", "delta": 0,
                     "kappa": [["1"], ["0"], workloads.butterfly_kappa3(
                         Fraction(0), Fraction(1, 20), Fraction(1))]},
           "grids": grids}
    op = {"kind": "scan", "argv": ["scan"], "config": json.dumps(cfg),
          "expect": {"t0": "0", "lam0": "1/20", "c": "1"}}
    out = str(tmp_path)
    _run_op(op, out)
    assert checks.check_scan(out, op["expect"]) == []
    path = os.path.join(out, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["events"][0]["t"] += 1e-3
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert checks.check_scan(out, op["expect"])


def test_scan_check_rejects_a_second_event(tmp_path):
    path = tmp_path / "report.json"
    event = {"t": 0.0, "lambda": 0.0, "type": [3, 4, 5], "dual": [1, 2, 5],
             "confidence": "exact"}
    path.write_text(json.dumps({"events": [event]}))
    assert checks.check_scan(str(tmp_path), {"t0": "0", "lam0": "0"}) == []
    path.write_text(json.dumps({"events": [event, {**event, "t": 0.5}]}))
    assert checks.check_scan(str(tmp_path), {"t0": "0", "lam0": "0"})


@pytest.fixture(scope="module")
def frame_ops():
    ops = workloads.generate("curvature-frames", 5, SMALL)
    return ops, {op["config"]: checks.FrameReference(op["expect"]) for op in ops}


@pytest.mark.parametrize("geometry", ["euclidean", "spherical", "hyperbolic"])
def test_frame_check_rejects_a_perturbed_frame(tmp_path, frame_ops, geometry):
    ops, refs = frame_ops
    op = next(o for o in ops if o["kind"] == "frame" and o["expect"]["geometry"] == geometry)
    out = str(tmp_path)
    _run_op(op, out)
    ref = refs[op["config"]]
    assert checks.check_frames(out, op["expect"], ref) == []

    def perturb(line):
        parts = line.split()
        parts[3] = repr(float(parts[3]) * (1 + 1e-4) + 1e-4)
        return " ".join(parts)

    _edit_lines(os.path.join(out, "frames.txt"), "", perturb, index=12)
    assert checks.check_frames(out, op["expect"], ref)


@pytest.mark.parametrize("geometry", ["euclidean", "spherical", "hyperbolic"])
def test_curvature_envelope_check_rejects_a_shifted_vertex(tmp_path, frame_ops, geometry):
    ops, refs = frame_ops
    op = next(o for o in ops
              if o["kind"] == "envelope" and o["expect"]["geometry"] == geometry)
    out = str(tmp_path)
    _run_op(op, out)
    ref = refs[op["config"]]
    assert checks.check_curvature_envelope(out, op["expect"], ref) == []
    shutil.copy(os.path.join(out, "envelope.obj"), os.path.join(out, "good.obj"))
    _edit_lines(os.path.join(out, "envelope.obj"), "v ",
                lambda line: _shift_numbers(line, 1e-3, 1), index=7)
    assert checks.check_curvature_envelope(out, op["expect"], ref)
    shutil.copy(os.path.join(out, "good.obj"), os.path.join(out, "envelope.obj"))
    _edit_lines(os.path.join(out, "envelope.obj"), "# ambient ",
                lambda line: _shift_numbers(line, 1e-3, 2), index=7)
    assert checks.check_curvature_envelope(out, op["expect"], ref)


def test_verify_check_rejects_a_fail_line():
    good = "\n".join(f"criterion {k} PASS: fine [0.01s / budget 5s]" for k in range(1, 9))
    assert checks.check_verify(good + "\n", {"criteria": 8}) == []
    bad = good.replace("criterion 4 PASS", "criterion 4 FAIL")
    assert checks.check_verify(bad + "\n", {"criteria": 8})
    assert checks.check_verify("\n".join(good.splitlines()[:7]), {"criteria": 8})


# -- metric names and tracer hygiene ------------------------------------------------------


def test_tail_has_ten_ops_beyond_it():
    assert run.tail(list(range(10))) == (None, None)
    assert run.tail(list(range(11))) == (0, 0.0)
    value, pct = run.tail(list(range(21)))
    assert value == 10 and pct == 50.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_count_fixes_the_tail_percentile_above_the_median(name):
    seconds = _benchmark_json()["run_seconds"]
    count = workloads.op_count(name, seconds, run.MIN_OPS)
    assert count == workloads.op_count(name, seconds, run.MIN_OPS)
    assert count % workloads.CYCLE[name] == 0
    assert run.tail(list(range(count)))[1] > 50.0
    assert workloads.op_count(name, 4 * seconds, run.MIN_OPS) > count


def test_sidecar_calibrates_and_checks(tmp_path):
    op = {"kind": "scan", "argv": ["scan"], "config": "{}",
          "expect": {"t0": "0", "lam0": "0", "c": "1"}}
    with run.Sidecar() as sidecar:
        assert sidecar.calibrate() > 0
        assert sidecar.check(op, str(tmp_path), "") == ["report.json missing"]
        (tmp_path / "report.json").write_text("{not json")
        assert "unreadable" in sidecar.check(op, str(tmp_path), "")[0]
    assert sidecar.proc.returncode == 0


def test_layer_metric_names_match_benchmark_json():
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert names == [name for name, _ in tracer.PER_LAYER]
    empty = tracer.layer_metrics([], {}, [], {}, 0.0)
    assert list(empty) == names


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    out = {}
    for trace in (0, 1):
        workdir = str(tmp_path_factory.mktemp(f"ops{trace}"))
        out[trace] = run.run_workload("scan-unfold", 4, 0.01, trace, sizes=SMALL,
                                      setup_probes=1, workdir=workdir)
    return out


def test_printed_metric_names_match_benchmark_json(small_runs):
    spec = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line(small_runs[trace])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        json.dumps(line)


def test_traced_run_restores_every_wrapped_attribute(small_runs):
    import framedcurves.cli
    from framedcurves import acceptance, classify, frames, ratpoly

    t = tracer.Tracer()
    before = []
    for _, module_name, attr in tracer.SPANS + tracer.PROBES:
        before += t._resolve(module_name, attr)
    criteria = acceptance.CRITERIA
    t.install()
    assert framedcurves.cli.main is not before[0][2]
    assert acceptance.CRITERIA is not criteria
    assert len(t._patches) >= len(before)
    t.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
    assert acceptance.CRITERIA is criteria
    # the traced small run above left nothing behind either
    assert not any(hasattr(f, "__wrapped__") for f in (
        framedcurves.cli.main, frames.structure_matrix, ratpoly.Poly.eval,
        classify._line_roots, classify._AdaptedTypeOracle.classify))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mesh-export",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
