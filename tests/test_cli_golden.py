"""Byte-for-byte comparison of the CLI's output with golden files.

Every subcommand runs over the sample files in schemas/, once plain and once
with --json --notes.  cli_schemas.txt records, per invocation, the command
line, the exit code, standard output and standard error.  cli_help.txt records
`layext --help` and each subcommand's --help, formatted for an 80-column
terminal.  Regenerate them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_schemas.txt
    PYTHONPATH=src COLUMNS=80 python tests/test_cli_golden.py --help-text > tests/golden/cli_help.txt
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

from layext.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_schemas.txt"
GOLDEN_HELP = ROOT / "tests" / "golden" / "cli_help.txt"

P, PS = "schemas/presentation.json", "schemas/presentation_symbolic.json"
D, G = "schemas/descriptor.json", "schemas/generator.json"
F = "schemas/layered_poly.json"
S, SA = "schemas/scalar.json", "schemas/scalar_algebraic.json"
A, B = "schemas/poly_pos.json", "schemas/poly_pos_const.json"

CASES = [
    ["decompose", P],
    ["decompose", PS],
    ["eval", F, S],
    ["eval", F, SA],
    ["closure", D, S],
    ["closure", D, SA],
    ["kernel", A, B, G],
    ["kernel", B, A, G],
    ["kernel", A, A, G],
    ["semifield", D],
    *(["torsion-degree", p, f"--exps={e}"] for p in (P, PS) for e in ("1,0", "0,1", "1,1", "0,2")),
    *(["rank", p] + ([f"--over={o}"] if o else []) for p in (P, PS) for o in ("", "0", "1", "0,1")),
]


def render() -> str:
    """Every case, plain and with --json --notes, in one text."""
    parts = []
    for case in CASES:
        for flags in ([], ["--json", "--notes"]):
            argv = flags + case
            out, err = io.StringIO(), io.StringIO()
            rc = main(argv, out=out, err=err)
            parts.append(f"$ layext {' '.join(argv)}\nexit: {rc}\n{out.getvalue()}{err.getvalue()}")
    return "".join(parts)


def render_help() -> str:
    """`layext --help` and every subcommand's --help, each under its command line."""
    parts = []
    for argv in [["--help"], *([name, "--help"] for name, *_ in COMMANDS)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            build_parser().parse_args(argv)
        parts.append(f"$ layext {' '.join(argv)}\n{out.getvalue()}")
    return "".join(parts)


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert render().encode("utf-8") == GOLDEN.read_bytes()


def test_cli_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render_help().encode("utf-8") == GOLDEN_HELP.read_bytes()


def test_every_subcommand_has_a_golden_case():
    subcommands = re.search(r"\{([\w,-]+)\}", build_parser().format_usage()).group(1).split(",")
    assert subcommands and set(subcommands) <= {case[0] for case in CASES}


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write(render_help() if sys.argv[1:] == ["--help-text"] else render())
