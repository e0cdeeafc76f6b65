"""Every name in the package's and each submodule's `__all__` resolves.

perfbench's tracer reads each listed name with `getattr(module, name,
None)`, so a name left behind when its object is removed would drop a
per-layer span silently; here it fails.
"""

import importlib
import pkgutil

import pytest

import oscspec

MODULES = ["oscspec", *(f"oscspec.{info.name}"
                        for info in pkgutil.iter_modules(oscspec.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
