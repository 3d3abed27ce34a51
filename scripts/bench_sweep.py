#!/usr/bin/env python3
"""Time each `layext` subcommand as a child process and write the figures as JSON.

    python scripts/bench_sweep.py --out BENCH_<n>.json [--runs 15] [--checkout NAME=DIR ...]

Each CLI row is one subcommand on the sample files in `schemas/`, run as
`python -m layext.cli ...` with a checkout's `src/` first on PYTHONPATH;
`import layext.cli` alone is a row too.  A row's figure is the median, over
`--runs` runs, of the child's CPU time (user + system, from
`getrusage(RUSAGE_CHILDREN)`), in ms; every run is kept.  Bare interpreter
start-up is reported separately, with and without the `site` module
(`python -c pass`, `python -S -c pass`), as is whether the environment sets
PYTHONDONTWRITEBYTECODE and whether a checkout holds compiled bytecode:
without it every child compiles layext's sources again.

`--checkout` names a checkout root to time, once per checkout (default: the
one holding this script).  Rounds go over every row and every checkout in
turn, so that the checkouts share the drift of a busy machine.  The script
uses the standard library only and imports no layext module itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one command line per subcommand, on the samples in schemas/ (children run in this checkout's root)
SUBCOMMANDS = (
    ["decompose", "schemas/presentation.json"],
    ["eval", "schemas/layered_poly.json", "schemas/scalar.json"],
    ["closure", "schemas/descriptor.json", "schemas/scalar.json"],
    ["kernel", "schemas/poly_pos.json", "schemas/poly_pos_const.json", "schemas/generator.json"],
    ["semifield", "schemas/descriptor.json"],
    ["torsion-degree", "schemas/presentation.json", "--exps=1,0"],
    ["rank", "schemas/presentation.json", "--over=0"],
)


def child_cpu_ms(cmd, env) -> float:
    """The CPU time of one child process running `cmd`, in ms; the child must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return 1e3 * (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)


def git(root: Path, *args) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(root: Path) -> dict:
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git(root, "rev-parse", "--short", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "bytecode_cached": any((root / "src" / "layext" / "__pycache__").glob("*.pyc")),
    }


def rows_to_time(checkouts: dict) -> list:
    """(row, command, environment) for the interpreter rows and each checkout's CLI rows."""
    rows = [
        ({"layer": "interpreter", "operation": "python -c pass", "checkout": None},
         [sys.executable, "-c", "pass"], dict(os.environ)),
        ({"layer": "interpreter", "operation": "python -S -c pass", "checkout": None},
         [sys.executable, "-S", "-c", "pass"], dict(os.environ)),
    ]
    for name, root in checkouts.items():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        rows.append(({"layer": "cli", "operation": "import layext.cli", "checkout": name},
                     [sys.executable, "-c", "import layext.cli"], env))
        for argv in SUBCOMMANDS:
            rows.append(({"layer": "cli", "operation": argv[0], "argv": argv, "checkout": name},
                         [sys.executable, "-m", "layext.cli", *argv], env))
    return rows


def sweep(checkouts: dict, runs: int) -> dict:
    rows = rows_to_time(checkouts)
    times = [[] for _ in rows]
    for _ in range(runs):
        for (_, cmd, env), samples in zip(rows, times):
            samples.append(child_cpu_ms(cmd, env))
    return {
        "script": "scripts/bench_sweep.py",
        "statistic": "median CPU time (user + system) of one child process, ms",
        "runs": runs,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "checkouts": {name: describe(root) for name, root in checkouts.items()},
        "rows": [
            {**row, "cpu_ms": round(statistics.median(samples), 2), "runs_ms": [round(t, 2) for t in samples]}
            for (row, _, _), samples in zip(rows, times)
        ],
    }


def checkout_arg(text: str) -> tuple:
    name, eq, path = text.partition("=")
    root = Path(path).resolve()
    if not eq or not name or not (root / "src" / "layext" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(f"expected NAME=DIR with DIR a checkout holding src/layext, got {text!r}")
    return name, root


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    ap.add_argument("--runs", type=int, default=15, help="runs per row (default 15)")
    ap.add_argument("--checkout", type=checkout_arg, action="append", metavar="NAME=DIR",
                    help="a checkout to time (repeatable; default: this one, named by its commit)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = dict(args.checkout or [(git(ROOT, "rev-parse", "--short", "HEAD") or "this", ROOT)])
    doc = sweep(checkouts, args.runs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
