"""Smoke tests: the example scripts run to completion against the public API."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize("argv", [
    ["scripts/decompose_demo.py"],
    ["scripts/law_census.py", "--trials", "200"],
])
def test_script_exits_0(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
