"""The benchmark's tracer wraps package callables by name; each name must resolve.

`bench/tracer.py` installs its wrappers from outside the package, so a
deleted or renamed function would otherwise surface only when the benchmark
itself runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACER = REPO_ROOT / "bench" / "tracer.py"


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


def test_tracer_finds_each_target_module_after_importing_the_cli():
    """The tracer imports only `pmcong.cli`, then looks each target's module up
    in `sys.modules`, in table order.

    A module that the package imports only inside a function would be missing
    there and fail every traced benchmark run.  Resolving a target reads an
    attribute of its module, which runs a lazily registered module and so
    imports that module's own dependencies, as the tracer's lookups do.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, pmcong.cli\n"
        "missing = []\n"
        "for target in sys.argv[1:]:\n"
        "    module_name, _, qualname = target.partition(':')\n"
        "    if module_name not in sys.modules:\n"
        "        missing.append(target)\n"
        "        continue\n"
        "    getattr(sys.modules[module_name], qualname.partition('.')[0])\n"
        "print(missing)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *_tracer_targets()], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
