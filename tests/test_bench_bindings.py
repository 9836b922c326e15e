"""The benchmark's tracer wraps package callables by name; each name must resolve.

`bench/tracer.py` installs its wrappers from outside the package, so a
deleted or renamed function would otherwise surface only when the benchmark
itself runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    """The "module:qualname" strings of the tracer's SPANS and COUNTERS tables."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTERS"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "COUNTERS"}
    return [target for table in tables.values() for targets in table.values() for target in targets]


@pytest.mark.parametrize("target", _tracer_targets())
def test_tracer_target_resolves(target):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # the tracer wraps the function stored on the class itself
        assert attr in vars(getattr(module, owner_name)), target
    else:
        assert callable(getattr(module, attr)), target
