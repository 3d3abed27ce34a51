"""The suite's per-test time limit (`conftest.time_limit`) fails a hanging test instead of waiting."""

import os
import subprocess
import sys

from conftest import ROOT, src_env

HANGING = '''
import time

from hypothesis import given, strategies as st

import conftest

conftest.TIME_LIMIT_S = 0.5


def test_spins():
    while True:
        pass


def test_sleeps():
    time.sleep(3600)


@given(st.integers())
def test_spins_on_an_example(x):
    while x == x:
        pass


def test_returns():
    assert conftest.TIME_LIMIT_S == 0.5
'''


def test_a_hanging_test_fails_with_its_traceback_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_hanging.py").write_text(HANGING, encoding="utf-8")
    # `-p conftest` loads this suite's conftest, and its fixture, for a file outside the suite
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(ROOT / "tests")])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest", "--rootdir", str(tmp_path),
         str(tmp_path / "test_hanging.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # hypothesis reports the first alarm instead of rerunning the example, which would hang again
    assert "3 failed, 1 passed" in proc.stdout
    assert proc.stdout.count("TimeLimitExceeded: the test ran past its limit of 0.5 s") == 3
    # each traceback ends in the test's own line, where the alarm interrupted it
    assert ">       while True:" in proc.stdout and ">       time.sleep(3600)" in proc.stdout
    assert "in test_spins_on_an_example\n    while x == x:" in proc.stdout
