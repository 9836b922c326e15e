"""Every name a `pmcong` module exports in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import pmcong

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(pmcong.__path__, prefix="pmcong.")
)


def test_modules_are_found():
    assert {"pmcong.sigma", "pmcong.pseudomeasure", "pmcong.groupring"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
