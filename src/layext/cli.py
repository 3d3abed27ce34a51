"""Command-line front end: parse JSON inputs, run the algebra, emit reports.

Subcommands (`COMMANDS`): decompose, eval, closure, kernel, semifield,
torsion-degree, rank.  Inputs are JSON files ("-" reads stdin) read through
`jsonio`; output is a human-readable report, or the machine payload with
--json.  --notes adds one line per derived field naming the operation that
produced it.  Output is deterministic byte for byte for identical inputs, and
the exit code is 0 exactly when no error occurred; an error is one `error:` line.

Each `cmd_*` imports the layers it calls once its inputs have parsed, so a
process loads only those: `rank`, `decompose` and `torsion-degree` load `bipotent` and
not `polys`, `cancellative` or `uniform`; `kernel` loads `cancellative` and
not `bipotent`; and input that fails as JSON loads no layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import jsonio
from .errors import LayextError, ParseError, ResultTooLarge


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot decode {path} as UTF-8: {e.reason} at byte {e.start}") from None


def _load(path: str, parse):
    return parse(jsonio.load_document(_read(path), source=path))


def _fin(x) -> object:
    from .bipotent import INFINITE

    return "infinite" if x == INFINITE else int(x)


def cmd_decompose(args) -> tuple:
    P = _load(args.presentation, jsonio.parse_presentation)
    from .bipotent import decompose_extension, extension_rank

    dec = decompose_extension(P)
    payload = {
        "free_rank": dec.free_rank,
        "torsion_orders": list(dec.torsion_orders),
        "free_monomials": [list(m) for m in dec.free_monomials],
        "torsion_monomials": [
            {"exps": list(m), "order": o}
            for m, o in zip(dec.torsion_monomials, dec.torsion_orders)
        ],
        "rank": _fin(extension_rank(P)),
        "generator_expressions": [
            {"free_coeffs": list(fc), "torsion_coeffs": list(tc)}
            for fc, tc in dec.generator_coords
        ],
    }
    if P.symbolic_indices():
        notes = [
            "free_rank and torsion_orders come from the Smith normal form of the value-group quotient, "
            "one column per symbolic generator and one for the numeric values",
            "monomials lift rows of the inverse column transform; torsion coefficients are residues in (-d/2, d/2]",
        ]
    else:
        notes = [
            "without symbolic generators Z^n modulo the exponent lattice is cyclic (free over a trivial base), "
            "so free_rank and torsion_orders come from one gcd",
            "the one monomial is reduced by the lattice's Hermite basis; torsion coefficients are residues in (-d/2, d/2]",
        ]
    notes.append("rank is the product of the torsion orders, infinite when a free part exists")
    return payload, notes


def cmd_eval(args) -> tuple:
    f = _load(args.poly, jsonio.parse_layered_poly)
    a = _load(args.scalar, jsonio.parse_scalar)
    from .tropical import LayeredElem
    from .uniform import essential_indices, eval_layered_poly

    layer, value = eval_layered_poly(f, a)
    ess = essential_indices(f, a)
    payload = {"layer": layer, "value": value, "essential": list(ess)}
    if isinstance(layer, Fraction):
        payload["rendered"] = LayeredElem(layer, value)
    notes = [
        "value is the maximum of coefficient value + exponent * scalar value",
        "layer sums coefficient layer * scalar layer^exponent over the essential exponents",
    ]
    return payload, notes


def cmd_closure(args) -> tuple:
    H = _load(args.descriptor, jsonio.parse_descriptor)
    a = _load(args.scalar, jsonio.parse_scalar)
    from .uniform import is_layerset_semiring, uniform_closure

    C = uniform_closure(H, a)
    payload = {
        "descriptor": jsonio.render_descriptor(C),
        "layerset_semiring": is_layerset_semiring(H, a),
    }
    notes = [
        "the closure extends the sort part by the scalar layer and the value part by the scalar value",
        "layerset_semiring is the membership of the scalar value in the base value group",
    ]
    return payload, notes


def cmd_kernel(args) -> tuple:
    a = _load(args.numerator, jsonio.parse_pos_poly)
    b = _load(args.denominator, jsonio.parse_pos_poly)
    gen = _load(args.generator, jsonio.parse_generator)
    from .cancellative import kernel_contains

    payload = {"in_kernel": kernel_contains(a, b, gen)}
    notes = ["membership holds when the minimal polynomial divides numerator - denominator"]
    return payload, notes


def cmd_semifield(args) -> tuple:
    H = _load(args.descriptor, jsonio.parse_descriptor)
    from .bipotent import extension_rank, is_bipotent_semifield
    from .uniform import is_uniform_semifield, sort_is_semifield

    payload = {
        "semifield": is_uniform_semifield(H),
        "sort_part_semifield": sort_is_semifield(H.sort_part),
        "value_part_semifield": is_bipotent_semifield(H.value_part),
        "value_part_rank": _fin(extension_rank(H.value_part)),
    }
    notes = [
        "a uniform layered domain is a semifield when both its parts are",
        "the value part qualifies exactly when its quotient group is finite (all generators torsion)",
    ]
    return payload, notes


def _int_list(text: str) -> tuple:
    """A comma-separated list of integers; the empty string is the empty list."""
    return tuple(jsonio.parse_int(x) for x in text.split(",")) if text else ()


def cmd_torsion_degree(args) -> tuple:
    P = _load(args.presentation, jsonio.parse_presentation)
    from .bipotent import torsion_degree

    payload = {"degree": _fin(jsonio._built(torsion_degree, P, _int_list(args.exps)))}
    notes = ["the degree is the order of the monomial class in the quotient by the exponent lattice"]
    return payload, notes


def cmd_rank(args) -> tuple:
    P = _load(args.presentation, jsonio.parse_presentation)
    from .bipotent import extension_rank

    payload = {"rank": _fin(jsonio._built(extension_rank, P, _int_list(args.over)))}
    notes = ["the rank is the size of the quotient group over the chosen sub-extension"]
    return payload, notes


COMMANDS = (
    ("decompose", cmd_decompose, ("presentation",), "free/torsion decomposition of a bipotent presentation"),
    ("eval", cmd_eval, ("poly", "scalar"), "evaluate a layered polynomial at a scalar"),
    ("closure", cmd_closure, ("descriptor", "scalar"), "uniform closure of a descriptor by a scalar"),
    ("kernel", cmd_kernel, ("numerator", "denominator", "generator"),
     "kernel membership of a quotient of positive polynomials"),
    ("semifield", cmd_semifield, ("descriptor",), "semifield test for a uniform descriptor"),
    ("torsion-degree", cmd_torsion_degree, ("presentation",), "minimal power of a monomial landing in the base"),
    ("rank", cmd_rank, ("presentation",), "extension rank over a sub-presentation"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a flag given before the subcommand from being reset by
    # the subparser's own defaults
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the machine-readable report")
    common.add_argument("--notes", action="store_true", default=argparse.SUPPRESS,
                        help="include derivation notes")

    ap = argparse.ArgumentParser(
        prog="layext",
        description="exact computations in layered (max-plus) semifield extensions",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, run, inputs, help_text in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg in inputs:
            p.add_argument(arg)
        p.set_defaults(run=run)
    sub.choices["torsion-degree"].add_argument("--exps", required=True, help="comma-separated exponent vector")
    sub.choices["rank"].add_argument("--over", default="",
                                     help="comma-separated generator indices of the sub-extension")
    return ap


def _render(payload: dict, notes: list, args) -> str:
    """The whole report as one string; a payload value that is not JSON becomes its str() here.

    Raises ResultTooLarge when the interpreter's int-to-str digit limit refuses a value.
    """
    try:
        if args.json:
            doc = {"command": args.command, "result": payload}
            if args.notes:
                doc["notes"] = notes
            return json.dumps(doc, sort_keys=True, separators=(", ", ": "), default=str) + "\n"
        lines = [f"command: {args.command}"]
        for key, val in payload.items():
            lines.append(f"{key}: {json.dumps(val, sort_keys=True) if isinstance(val, (dict, list)) else val}")
        if args.notes:
            lines += [f"note: {note}" for note in notes]
        return "".join(line + "\n" for line in lines)
    except ValueError:
        raise ResultTooLarge(f"a number in the result has more than {sys.get_int_max_str_digits()} digits") from None


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    for name in ("json", "notes"):
        vars(args).setdefault(name, False)
    try:
        text = _render(*args.run(args), args)
    except LayextError as e:
        err.write(f"error: {type(e).__name__}: {e}\n")
        return 1
    try:
        out.write(text)
        out.flush()
    except BrokenPipeError:
        # the reader has gone: send the unflushed rest to devnull so exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
