"""The package's only third-party dependency is numpy (``pyproject.toml``)."""

import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import varnamer
for info in pkgutil.iter_modules(varnamer.__path__):
    importlib.import_module("varnamer." + info.name)
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names) - {"varnamer"})))
"""


def test_numpy_is_the_only_third_party_import():
    # A fresh interpreter: the test session has imported pytest, hypothesis
    # and the benchmark's modules. What a site ``.pth`` hook loads at
    # start-up (``_distutils_hack``, say) is in ``before`` and not counted.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["numpy"]
