"""Every exported name exists, so tooling that walks ``__all__`` never meets a
stale entry left behind by a deletion."""

import importlib
import pkgutil

import pytest

import sowitness

MODULES = [
    importlib.import_module(f"sowitness.{info.name}")
    for info in pkgutil.iter_modules(sowitness.__path__)
]
EXPORTING = [sowitness] + [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sowitness import *", namespace)
    assert set(sowitness.__all__) <= set(namespace)
