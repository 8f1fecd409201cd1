"""Every module of ``repro`` imports, whether or not a test uses it."""
import importlib
import pkgutil

import pytest

import repro

MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
