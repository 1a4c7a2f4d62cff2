"""The benchmark's built-in envelope check passes on the CLI's own envelopes.

``perfbench/checks.py`` compares the helix and circle envelopes the benchmark
writes against their closed forms, and a problem there refuses the whole
benchmark run.  The checks are read as text and run in a fresh module
namespace, as ``test_perfbench_targets.py`` does with the tracer: nothing
under ``perfbench/`` is imported as a package or written to.
"""

import json
import pathlib
import types

import pytest

from framedcurves.cli import main

CHECKS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    module = types.ModuleType("perfbench_checks")
    module.__file__ = str(CHECKS_PATH)
    exec(compile(CHECKS_PATH.read_text(encoding="utf-8"), str(CHECKS_PATH), "exec"), module.__dict__)
    return module


checks = _load_checks()


@pytest.mark.parametrize("field", ["helix-frenet", "circle-radial"])
def test_builtin_envelopes_pass_the_benchmark_check(tmp_path, field):
    grids = {"t": [-3.0, 3.0, 40], "s": [-1.5, 1.5, 7]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"curve": {"kind": "builtin", "name": field}, "grids": grids}))
    out = tmp_path / "out"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    assert checks.check_builtin_envelope(str(out), {"field": field, "grids": grids}) == []
