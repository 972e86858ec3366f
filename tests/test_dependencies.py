"""The runtime needs only numpy and pyyaml: every ltcl module must import
with scipy and the test tools unavailable."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None  # makes `import name` raise ImportError
import ltcl
names = sorted(info.name for info in pkgutil.iter_modules(ltcl.__path__))
for name in names:
    importlib.import_module("ltcl." + name)
print(" ".join(names))
"""


def test_every_module_imports_without_optional_packages():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert {"bounds", "cli", "continual", "datasets", "models", "training"} <= set(modules)
