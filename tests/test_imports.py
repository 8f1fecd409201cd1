"""Every module of ``repro`` imports, whether or not a test uses it."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_kernel_task_module_loads_no_pandas():
    """A kernel task unpickles ``repro.core.paral``; in a fresh
    interpreter that import loads no pandas, which only the driver's
    ``repro.core.api`` needs."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, repro.core.paral; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pandas'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
