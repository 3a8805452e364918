"""Every pwsrom module imports on its own in a fresh interpreter, so an
import cycle between modules fails here whichever module is loaded first."""

import os
import pkgutil
import subprocess
import sys

import pytest

import pwsrom

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pwsrom.__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(pwsrom.__path__))


def test_every_module_is_listed():
    assert {"core", "rom", "ssm_analytic", "ssm_data", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    path = [PKG_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    r = subprocess.run([sys.executable, "-c", f"import pwsrom.{name}"],
                       env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
