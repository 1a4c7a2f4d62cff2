"""Every layer entry point the benchmark tracer wraps must still exist.

``perfbench/tracer.py`` patches functions and methods by name, so deleting or
renaming one of them under ``src/`` makes every traced benchmark op raise.  The
tracer is read as text and run in a fresh module namespace: nothing under
``perfbench/`` is imported as a package or written to.
"""

import pathlib
import types

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    return module


tracer = _load_tracer()
TARGETS = [(module, attr) for _, module, attr in tracer.SPANS + tracer.PROBES]


@pytest.mark.parametrize("module, attr", TARGETS)
def test_tracer_target_resolves(module, attr):
    assert tracer.Tracer()._resolve(module, attr)
