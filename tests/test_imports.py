import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sadmm

# Imports each named module in a fresh copy of the package: every sadmm entry
# is dropped from sys.modules first, so no module can lean on another having
# been imported before it. The package itself re-exports nothing: the public
# API is its submodules.
SCRIPT = """
import importlib, sys
import sadmm
assert [k for k in vars(sadmm) if not k.startswith("__")] == [], "sadmm re-exports names"
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "sadmm"]:
        del sys.modules[key]
    importlib.import_module(name)
"""


def test_each_module_imports_on_its_own():
    names = [f"sadmm.{m.name}" for m in pkgutil.iter_modules(sadmm.__path__)]
    assert "sadmm.harness" in names and "sadmm.errors" in names
    src = str(Path(sadmm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *names], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
