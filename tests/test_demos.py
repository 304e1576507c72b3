"""Each demo script runs to completion against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import varnamer

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SLOW_DEMOS = {"03_train_and_suggest.py"}   # trains three stages, ~12 s


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
    for path in DEMOS
])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(varnamer.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
