"""Smoke tests: the example scripts and the benchmark's oracles run against the public API."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT, src_env


def run_script(argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["scripts/decompose_demo.py"],
])
def test_script_exits_0(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the pinned reason for keeping `xbar` cites this example
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "xbar()" in code
    proc = run_script(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_benchmark_self_test_catches_every_corrupted_answer():
    proc = run_script(["perfbench/run.py", "--self-test"])
    assert proc.returncode == 0, proc.stderr
    assert "self-test passed" in proc.stdout


def test_benchmark_oracles_accept_every_lattice_answer():
    proc = run_script(["perfbench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_oracles_accept_every_algebraic_answer():
    # the workload's Eisenstein generators and reducible products, checked by the factoriser
    proc = run_script(["perfbench/run.py", "--workload", "algebraic", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_oracles_accept_every_layered_answer():
    # its algebraic scalars go through validate_generator and positive_at_root
    proc = run_script(["perfbench/run.py", "--workload", "layered", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_traced_pass_finds_the_lattice_layers():
    # the traced pass counts `intlinalg._echelon` and `intlinalg.smith` by name, so a rename of
    # either would make its counter read 0; every `decompose_extension` runs one Smith form.  No
    # query builds the n-wide basis, so `bipotent.lattice_builds` reads 0 and is not checked
    proc = run_script(["perfbench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert details["answers_match_untraced"] is True and details["self_within_wall"] is True
    metrics = result["metrics"]
    assert metrics["intlinalg.echelon_calls"]["value"] > 0
    assert metrics["intlinalg.smith_calls"]["value"] > 0


def test_benchmark_traced_pass_finds_the_cancellative_layers():
    # the traced pass finds `polys.is_irreducible`, `polys.sturm_chain` and
    # `ExtElem.__mul__` by name and the `uniform` layer's functions and class
    # methods by module and class `__dict__`, so a rename or a reshaped class
    # would make a counter read 0
    proc = run_script(["perfbench/run.py", "--workload", "algebraic", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert details["answers_match_untraced"] is True and details["self_within_wall"] is True
    metrics = result["metrics"]
    for name in ("polys.irreducible_calls", "polys.sturm_calls", "cancellative.ext_mul_calls", "uniform.calls"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_traced_pass_finds_the_tropical_layer():
    # the traced pass counts `LayeredElem.__add__` and `__mul__` as operators of a class the
    # `tropical` module defines, so moving them elsewhere would make `tropical.ops` read 0
    proc = run_script(["perfbench/run.py", "--workload", "layered", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert details["answers_match_untraced"] is True and details["self_within_wall"] is True
    assert result["metrics"]["tropical.ops"]["value"] > 0
