"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import pmcong


def _clear_package_caches():
    """Empty every `lru_cache` of every `pmcong` module, those stored on its
    classes (as functions, static or class methods) included."""
    for info in pkgutil.iter_modules(pmcong.__path__):
        module = importlib.import_module(f"pmcong.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for member in members:
                member = getattr(member, "__func__", member)
                if hasattr(member, "cache_clear"):
                    member.cache_clear()


@pytest.fixture
def fresh_caches():
    """Every package cache is empty when the test starts and again after it.

    The package memoizes its tables, Δ and λ with `lru_cache`, so a value
    cached by an earlier test could hide a fault a test patches in, and a
    faulty value cached during a test would leak into later ones.  The
    fixture's value empties the caches again when called mid-test.
    """
    _clear_package_caches()
    yield _clear_package_caches
    _clear_package_caches()
