"""`__all__` of every `pmcong` module is exactly its public surface: each
exported name resolves, and each public function or class it defines is
exported."""

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


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    defined = [
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == name
    ]
    unlisted = sorted(set(defined) - set(module.__all__))
    assert not unlisted, f"{name} defines public names missing from __all__: {unlisted}"
