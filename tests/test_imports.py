"""Every pwsrom module imports on its own in a fresh interpreter, so an
import cycle between modules fails here whichever module is loaded first.
No import generates code: the float steppers and the SSM evaluators are
built by exec on first use, and every module-level cache of the package is
still empty after it."""

import os
import pkgutil
import subprocess
import sys

import pytest

import pwsrom

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pwsrom.__file__)))
MODULES = sorted(m.name for m in pkgutil.iter_modules(pwsrom.__path__))


def test_every_module_is_listed():
    assert {"core", "rom", "ssm_analytic", "ssm_data", "problem",
            "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    path = [PKG_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (f"import pwsrom.{name}\n"
            "import sys\n"
            "from pwsrom import core, ssm_model\n"
            "caches = {(m, k): v for m, mod in list(sys.modules.items())\n"
            "          if m.startswith('pwsrom')\n"
            "          for k, v in vars(mod).items() if hasattr(v, 'cache_info')}\n"
            "assert ('pwsrom.core', '_float_stepper') in caches\n"
            "assert ('pwsrom.ssm_model', '_evaluator') in caches\n"
            "full = [k for k, v in caches.items() if v.cache_info().currsize]\n"
            "assert not full, full\n")
    r = subprocess.run([sys.executable, "-c", code],
                       env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_cli_import_leaves_multiprocessing_unloaded():
    # frc_sweep imports multiprocessing only to start workers
    path = [PKG_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys\n"
            "import pwsrom.cli\n"
            "assert 'multiprocessing' not in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", code],
                       env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
