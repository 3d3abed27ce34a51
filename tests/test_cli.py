import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference as R
from conftest import src_env
from layext import jsonio
from layext.bipotent import extension_rank
from layext.cli import COMMANDS, FLAGS, _parse_args, build_parser, main
from layext.cancellative import PosPoly
from layext.errors import ParseError
from layext.tropical import LayeredElem
from layext.uniform import FreeLayer
from test_cli_golden import CASES, GOLDEN, ROOT


def run(args, tmp_path=None):
    out, err = io.StringIO(), io.StringIO()
    rc = main(args, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def write(tmp_path, name, doc):
    """A JSON document, or raw bytes written as they are."""
    p = tmp_path / name
    if isinstance(doc, bytes):
        p.write_bytes(doc)
    else:
        p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


PRES_SIXTHS = {"base": ["1"], "generators": [{"num": "1/2"}, {"num": "1/3"}]}
PRES_FREE = {"base": ["1"], "generators": [{"sym": "g"}]}
GEN_SQRT2 = {"m": {"2": "1", "0": "-2"}, "interval": ["1", "2"]}
GEN_TWO_ROOTS = {"m": {"2": "1", "1": "-3", "0": "1"}, "interval": ["2", "3"]}
DESC_BASE = {"sort": {"kind": "base"}, "value": {"base": ["1"], "generators": []}}
LPOLY = [
    {"layer": "1", "value": "0", "exp": 0},
    {"layer": "1", "value": "0", "exp": 1},
    {"layer": "1", "value": "0", "exp": 2},
]
SCALAR_3_0 = {"layer": {"kind": "rational", "value": "3"}, "value": "0"}
SCALAR_SQRT2_HALF = {
    "layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": ["0", "1"]},
    "value": "1/2",
}


class TestDecompose:
    def test_sixths(self, tmp_path):
        path = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, out, err = run(["--json", "decompose", path])
        assert rc == 0 and not err
        doc = json.loads(out)
        res = doc["result"]
        assert res["free_rank"] == 0
        assert res["torsion_orders"] == [6]
        assert res["rank"] == 6

    def test_free(self, tmp_path):
        path = write(tmp_path, "p.json", PRES_FREE)
        rc, out, _ = run(["--json", "decompose", path])
        res = json.loads(out)["result"]
        assert res["free_rank"] == 1
        assert res["torsion_orders"] == []
        assert res["rank"] == "infinite"

    def test_64_numeric_generators_print_their_order(self, tmp_path):
        # ROADMAP items 2 and 10: Smith's coordinates for this input had more than
        # 4300 digits, so the command refused its answer with ResultTooLarge
        P = R.item_10_presentation(64)
        rc, out, err = run(["decompose", write(tmp_path, "p.json", jsonio.render_presentation(P))])
        assert (rc, err) == (0, "")
        order = extension_rank(P)
        assert len(str(order)) == 284
        assert f"torsion_orders: [{order}]\n" in out

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"base": [', encoding="utf-8")
        rc, out, err = run(["decompose", str(p)])
        assert rc == 1
        assert "ParseError" in err and "column" in err

    def test_inconsistent_relations_forwarded(self, tmp_path):
        doc = {
            "base": ["1"],
            "generators": [{"num": "1/3"}, {"sym": "g"}],
            "relations": [{"exps": [1, 1], "beta": "0"}, {"exps": [2, 2], "beta": "1"}],
        }
        rc, _, err = run(["decompose", write(tmp_path, "p.json", doc)])
        assert rc == 1 and "InconsistentRelations" in err


class TestEval:
    def test_layer_13(self, tmp_path):
        poly = write(tmp_path, "f.json", LPOLY)
        scalar = write(tmp_path, "a.json", SCALAR_3_0)
        rc, out, _ = run(["--json", "eval", poly, scalar])
        res = json.loads(out)["result"]
        assert res == {"layer": "13", "value": "0", "essential": [0, 1, 2], "rendered": "[13]0"}

    def test_constant(self, tmp_path):
        poly = write(tmp_path, "f.json", [{"layer": "2", "value": "5", "exp": 0}])
        scalar = write(tmp_path, "a.json", SCALAR_3_0)
        rc, out, _ = run(["--json", "eval", poly, scalar])
        res = json.loads(out)["result"]
        assert (res["layer"], res["value"]) == ("2", "5")

    def test_symbolic_scalar_mismatch(self, tmp_path):
        poly = write(tmp_path, "f.json", LPOLY)
        scalar = write(tmp_path, "a.json", {"layer": "3", "value": {"sym": "w"}})
        rc, _, err = run(["eval", poly, scalar])
        assert rc == 1 and "DescriptorMismatch" in err

    def test_algebraic_layer_with_a_508_bit_coefficient(self, tmp_path):
        # x - p/q for a convergent p/q < √2 with q of 509 bits: positive, below 2^-1000
        p, q = 1, 1
        while q.bit_length() < 508 or p * p > 2 * q * q:
            p, q = p + 2 * q, p + q
        poly = write(tmp_path, "f.json", LPOLY)
        layer = {"kind": "algebraic", **GEN_SQRT2, "coeffs": [f"-{p}/{q}", "1"]}
        scalar = write(tmp_path, "a.json", {"layer": layer, "value": "0"})
        start = time.process_time()
        rc, out, err = run(["--json", "eval", poly, scalar])
        assert time.process_time() - start < 1.0
        assert rc == 0 and not err
        # 1 + a + a^2 with a = X - r, r = p/q, reduced by X^2 = 2; the X coefficient 1 - 2r is negative
        r = F(p, q)
        res = json.loads(out)["result"]
        assert res == {"layer": f"{3 - r + r * r} - {2 * r - 1}*X", "value": "0", "essential": [0, 1, 2]}

    def test_algebraic_layer_positive_at_both_roots(self, tmp_path):
        # a = X + 1 over x^2 - 3x + 1: a^2 = 5X, as X^2 = 3X - 1, so 1 + a + a^2 = 2 + 6X
        poly = write(tmp_path, "f.json", LPOLY)
        layer = {"kind": "algebraic", **GEN_TWO_ROOTS, "coeffs": ["1", "1"]}
        rc, out, err = run(["--json", "eval", poly, write(tmp_path, "a.json", {"layer": layer, "value": "0"})])
        assert rc == 0 and not err
        assert json.loads(out)["result"]["layer"] == "2 + 6*X"

    def test_free_layer_prints_its_polynomial(self, tmp_path):
        # 1 + a + a^2 at a = [y/2 + 1](1/3): only the square is essential
        scalar = write(tmp_path, "a.json", {
            "layer": {"kind": "free", "name": "y", "poly": {"1": "1/2", "0": "1"}}, "value": "1/3"})
        rc, out, err = run(["eval", str(ROOT / "schemas" / "layered_poly.json"), scalar])
        assert (rc, err) == (0, "")
        assert out == "command: eval\nlayer: 1/4*y^2 + y + 1\nvalue: 2/3\nessential: [2]\n"


class TestClosure:
    def test_sqrt2_half(self, tmp_path):
        desc = write(tmp_path, "d.json", DESC_BASE)
        scalar = write(tmp_path, "a.json", SCALAR_SQRT2_HALF)
        rc, out, _ = run(["--json", "closure", desc, scalar])
        res = json.loads(out)["result"]
        assert res["descriptor"]["sort"]["kind"] == "algebraic"
        assert res["descriptor"]["value"]["generators"] == [{"num": "1/2"}]
        assert res["layerset_semiring"] is False
        # the emitted descriptor re-parses
        jsonio.parse_descriptor(res["descriptor"])


class TestKernel:
    def test_member(self, tmp_path):
        a = write(tmp_path, "a.json", {"poly": {"2": "1"}})
        b = write(tmp_path, "b.json", {"poly": {"0": "2"}})
        g = write(tmp_path, "g.json", GEN_SQRT2)
        rc, out, _ = run(["--json", "kernel", a, b, g])
        assert json.loads(out)["result"] == {"in_kernel": True}

    def test_non_member(self, tmp_path):
        a = write(tmp_path, "a.json", {"poly": {"1": "1"}})
        b = write(tmp_path, "b.json", {"poly": {"0": "1"}})
        g = write(tmp_path, "g.json", GEN_SQRT2)
        rc, out, _ = run(["--json", "kernel", a, b, g])
        assert json.loads(out)["result"] == {"in_kernel": False}


class TestSemifield:
    def test_base(self, tmp_path):
        rc, out, _ = run(["--json", "semifield", write(tmp_path, "d.json", DESC_BASE)])
        assert json.loads(out)["result"]["semifield"] is True

    def test_free_value_part(self, tmp_path):
        doc = {"sort": {"kind": "base"}, "value": PRES_FREE}
        rc, out, _ = run(["--json", "semifield", write(tmp_path, "d.json", doc)])
        assert json.loads(out)["result"]["semifield"] is False


class TestDegreeAndRank:
    def test_torsion_degree(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, out, _ = run(["--json", "torsion-degree", p, "--exps", "1,1"])
        assert json.loads(out)["result"] == {"degree": 6}

    def test_degree_infinite(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_FREE)
        rc, out, _ = run(["--json", "torsion-degree", p, "--exps", "1"])
        assert json.loads(out)["result"] == {"degree": "infinite"}

    def test_rank(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, out, _ = run(["--json", "rank", p])
        assert json.loads(out)["result"] == {"rank": 6}
        rc, out, _ = run(["--json", "rank", p, "--over", "0"])
        assert json.loads(out)["result"] == {"rank": 3}

    def test_rank_bad_indices(self, tmp_path):
        # the library checks the arguments, and its message is the error line
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, _, err = run(["rank", p, "--over", "5"])
        assert (rc, err) == (1, "error: ParseError: generator indices must lie in range(2)\n")
        rc, _, err = run(["torsion-degree", p, "--exps", "1,1,1"])
        assert (rc, err) == (1, "error: ParseError: an exponent vector needs 2 entries, one per generator\n")
        one = write(tmp_path, "one.json", {"base": ["1"], "generators": [{"num": "1/2"}]})
        rc, _, err = run(["torsion-degree", one, "--exps", "1,1"])
        assert (rc, err) == (1, "error: ParseError: an exponent vector needs 1 entry, one per generator\n")

    def test_a_long_rejected_number_is_cut_in_its_error_line(self, tmp_path):
        # the echo keeps the first 40 characters of the repr and counts the rest; a short one is whole
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, out, err = run(["torsion-degree", p, "--exps", "9" * 5000 + "x,0"])
        assert (rc, out) == (1, "")
        assert err == f"error: ParseError: bad integer '{'9' * 39}... (4963 more characters)\n"
        rc, out, err = run(["rank", write(tmp_path, "q.json", {"base": ["1"], "generators": [{"num": [1] * 5000}]})])
        assert (rc, out) == (1, "")
        assert err == f"error: ParseError: expected rational text or a JSON integer, got [{'1, ' * 13}... (14960 more characters)\n"
        rc, out, err = run(["torsion-degree", p, "--exps", "1x,0"])
        assert (rc, out, err) == (1, "", "error: ParseError: bad integer '1x'\n")

    def test_a_long_rejected_document_is_cut_in_its_error_line(self, tmp_path):
        # an extra 5000-element key in one generator printed a 15,055-character line
        doc = {"base": ["1"], "generators": [{"num": "1/2", "x": [1] * 5000}]}
        rc, out, err = run(["rank", write(tmp_path, "p.json", doc)])
        assert (rc, out) == (1, "")
        assert err == f"error: ParseError: bad generator {{'num': '1/2', 'x': [{'1, ' * 6}1... (14981 more characters)\n"
        doc = {"base": ["1"], "generators": [{"num": "1/2", "x": 1}]}
        rc, out, err = run(["rank", write(tmp_path, "q.json", doc)])
        assert (rc, out, err) == (1, "", "error: ParseError: bad generator {'num': '1/2', 'x': 1}\n")


class TestOutputContract:
    def test_deterministic_bytes(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        runs = [run(["--json", "--notes", "decompose", p]) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_notes_flag(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        _, with_notes, _ = run(["--json", "--notes", "decompose", p])
        _, without, _ = run(["--json", "decompose", p])
        assert "notes" in json.loads(with_notes)
        assert "notes" not in json.loads(without)

    def test_plain_notes_follow_the_fields(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, with_notes, _ = run(["--notes", "decompose", p])
        _, without, _ = run(["decompose", p])
        assert rc == 0 and with_notes.startswith(without)
        notes = with_notes[len(without):].splitlines()
        assert len(notes) == 3 and all(line.startswith("note: ") for line in notes)

    def test_human_output_lists_fields(self, tmp_path):
        p = write(tmp_path, "p.json", PRES_SIXTHS)
        rc, out, _ = run(["decompose", p])
        assert out.startswith("command: decompose\n")
        assert "free_rank: 0" in out

    def test_report_payload_reparses(self, tmp_path):
        desc = write(tmp_path, "d.json", DESC_BASE)
        scalar = write(tmp_path, "a.json", SCALAR_SQRT2_HALF)
        _, out, _ = run(["--json", "closure", desc, scalar])
        doc = json.loads(out)
        again = json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"
        assert again == out


class Watched(dict):
    """A JSON object that counts the calls of its repr."""

    reprs = 0

    def __repr__(self):
        Watched.reprs += 1
        return super().__repr__()


def test_a_valid_document_builds_no_error_message(monkeypatch):
    # a check formats its message only when it fails, so a valid parse takes no repr of its values
    monkeypatch.setattr(Watched, "reprs", 0)
    jsonio.parse_presentation({"base": ["1"], "generators": [Watched(num="1/2"), Watched(sym="g")],
                               "relations": [Watched(exps=[0, 2], beta="1")]})
    jsonio.parse_layered_poly([Watched(layer="1", value="0", exp=0)])
    jsonio.parse_scalar(Watched(layer=Watched(kind="rational", value="3"), value=Watched(sym="w")))
    assert Watched.reprs == 0


class TestJsonRoundTrips:
    def test_presentation(self):
        P = jsonio.parse_presentation(PRES_SIXTHS)
        assert jsonio.parse_presentation(jsonio.render_presentation(P)) == P

    def test_presentation_with_relations(self):
        doc = {
            "base": ["1"],
            "generators": [{"num": "1/2"}, {"sym": "g"}],
            "relations": [{"exps": [0, 2], "beta": "1"}],
            "monoid": True,
        }
        P = jsonio.parse_presentation(doc)
        assert jsonio.parse_presentation(jsonio.render_presentation(P)) == P

    def test_generator(self):
        g = jsonio.parse_generator(GEN_SQRT2)
        assert jsonio.parse_generator(jsonio.render_generator(g)) == g

    def test_descriptor(self):
        for doc in [
            DESC_BASE,
            {"sort": {"kind": "algebraic", **GEN_SQRT2}, "value": PRES_SIXTHS},
            {"sort": {"kind": "free", "name": "y", "fractions": False}, "value": PRES_FREE},
        ]:
            H = jsonio.parse_descriptor(doc)
            assert jsonio.parse_descriptor(jsonio.render_descriptor(H)) == H

    # polynomials and scalars are read only: these check the parsed fields
    def test_layered_poly(self):
        f = jsonio.parse_layered_poly(LPOLY)
        assert f.terms == tuple((e, LayeredElem.make(1, 0)) for e in range(3))
        f = jsonio.parse_layered_poly([{"layer": "2/3", "value": "-1/2", "exp": 4},
                                       {"layer": 5, "value": 1, "exp": 0}])
        assert f.terms == ((0, LayeredElem.make(5, 1)), (4, LayeredElem.make("2/3", "-1/2")))

    def test_scalar(self):
        sqrt2 = jsonio.parse_generator(GEN_SQRT2)
        for doc, layer, value in [
            (SCALAR_3_0, F(3), F(0)),
            ({"layer": "3", "value": 0}, F(3), F(0)),
            (SCALAR_SQRT2_HALF, sqrt2.xbar(), F(1, 2)),
            ({"layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": ["1/2"]}, "value": "-2"},
             sqrt2.element([F(1, 2), 0]), F(-2)),
            ({"layer": {"kind": "free", "name": "y", "poly": {"1": "1"}}, "value": {"sym": "w"}},
             FreeLayer("y", PosPoly.of({1: 1})), "w"),
        ]:
            a = jsonio.parse_scalar(doc)
            assert (a.layer, a.value) == (layer, value)
            assert type(a.layer) is type(layer) and type(a.value) is type(value)

    def test_exponent_text_is_refused_before_it_is_expanded(self):
        start = time.process_time()
        with pytest.raises(ParseError):
            jsonio.parse_rational("1e9999999")
        assert time.process_time() - start < 1.0

    def test_bad_inputs_raise_parse_error(self):
        for fn, doc in [
            (jsonio.parse_presentation, {"generators": [{"zzz": 1}]}),
            (jsonio.parse_presentation, {"generators": [{"num": "x"}]}),
            (jsonio.parse_generator, {"m": {"2": "1"}}),
            (jsonio.parse_descriptor, {"sort": {"kind": "wat"}, "value": {}}),
            (jsonio.parse_layered_poly, []),
            (jsonio.parse_scalar, {"layer": {"kind": "?"}, "value": "0"}),
            (jsonio.parse_pos_poly, {"poly": {"2": "-1"}}),
            (jsonio.parse_signed_poly, {"2": "1", " 2": "-3", "0": "1"}),
        ]:
            with pytest.raises(ParseError):
                fn(doc)

    @given(st.integers(-40, 40), st.integers(1, 12))
    def test_rational_round_trip(self, num, den):
        from fractions import Fraction

        q = Fraction(num, den)
        assert jsonio.parse_rational(str(q)) == q

    @given(st.data())
    def test_random_presentations_round_trip(self, data):
        from fractions import Fraction

        from layext.bipotent import BipotentPresentation, Numeric, Symbolic
        from layext.tropical import ValueLattice

        n = data.draw(st.integers(1, 4))
        gens = []
        for i in range(n):
            if data.draw(st.booleans()):
                gens.append(Numeric(Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 6)))))
            else:
                gens.append(Symbolic(f"s{i}"))
        P = BipotentPresentation(
            ValueLattice.of(Fraction(data.draw(st.integers(1, 4)))),
            tuple(gens),
            (),
            data.draw(st.booleans()),
        )
        assert jsonio.parse_presentation(jsonio.render_presentation(P)) == P


def test_schema_samples_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "schemas"
    parsers = {
        "presentation.json": jsonio.parse_presentation,
        "presentation_symbolic.json": jsonio.parse_presentation,
        "generator.json": jsonio.parse_generator,
        "poly_pos.json": jsonio.parse_pos_poly,
        "poly_pos_const.json": jsonio.parse_pos_poly,
        "layered_poly.json": jsonio.parse_layered_poly,
        "scalar.json": jsonio.parse_scalar,
        "scalar_algebraic.json": jsonio.parse_scalar,
        "descriptor.json": jsonio.parse_descriptor,
    }
    for name, parse in parsers.items():
        parse(jsonio.load_document((root / name).read_text(), source=name))


class TestSessionAndStdin:
    def test_stdin_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PRES_SIXTHS)))
        rc, out, err = run(["--json", "decompose", "-"])
        assert rc == 0
        assert json.loads(out)["result"]["rank"] == 6

    def test_closed_stdout_exits_1_without_traceback(self):
        # the child blocks reading stdin, so its stdout is closed before it writes
        child = subprocess.Popen(
            [sys.executable, "-m", "layext.cli", "decompose", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        child.stdout.close()
        _, err = child.communicate(json.dumps(PRES_SIXTHS).encode(), timeout=60)
        assert child.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err

    def test_bound_flag_is_gone(self, tmp_path):
        path = write(tmp_path, "p.json", PRES_SIXTHS)
        with pytest.raises(SystemExit) as exc:
            run(["--bound", "5", "decompose", path])
        assert exc.value.code == 2


def parsed_by_argparse(argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr) of `build_parser().parse_args(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(build_parser().parse_args(argv)), None
        except SystemExit as e:
            result = None, e.code
    return *result, out.getvalue(), err.getvalue()


VALUES = st.sampled_from(["0", "1,0", "", "p.json", "a=b", "x y", "-", "-1", "-1,0", "--json", "-h"])
NOISE = st.sampled_from(["-h", "--help", "--", "--js", "--no", "--exp=1", "--over", "--exps", "--bound", "-x",
                         "--json=1", "-", "extra", *(name for name, *_ in COMMANDS)]) | VALUES


@st.composite
def command_lines(draw):
    """(argv, plain): a subcommand's tokens in any order, perhaps changed; plain when nothing was changed."""
    name, _, inputs, options, _ = draw(st.sampled_from(COMMANDS))
    units = [[draw(VALUES.filter(lambda v: v == "-" or not v.startswith("-")))] for _ in inputs]
    plain = True
    for flag, default, _ in options:
        if default is None or draw(st.booleans()):
            value = draw(VALUES)
            if draw(st.booleans()):
                units.append([f"{flag}={value}"])
            else:
                units.append([flag, value])
                plain = plain and not value.startswith("-")
    before = []
    for flag in FLAGS:
        where = draw(st.sampled_from(["absent", "before", "after"]))
        (before if where == "before" else units if where == "after" else []).append([flag])
    argv = [token for unit in [*before, [name], *draw(st.permutations(units))] for token in unit]
    for _ in range(draw(st.integers(0, 2))):
        plain = False
        if argv and draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv, plain


class TestCommandLine:
    @settings(max_examples=600)
    @given(command_lines())
    def test_an_accepted_command_line_parses_as_argparse_parses_it(self, case):
        argv, plain = case
        fast = _parse_args(argv)
        assert fast is not None or not plain
        if fast is not None:
            assert parsed_by_argparse(argv) == (vars(fast), None, "", "")

    def test_every_golden_command_line_skips_argparse(self):
        for case in CASES:
            for argv in (case, ["--json", "--notes", *case], [*case, "--notes"]):
                fast = _parse_args(argv)
                assert fast is not None and parsed_by_argparse(argv)[0] == vars(fast), argv

    @pytest.mark.parametrize("argv, code", [
        ([], 2),
        (["decompose"], 2),
        (["torsion-degree", "p.json", "--exps", "-1,0"], 2),
        (["--bound", "5", "decompose", "p.json"], 2),
        (["--js"], 2),
        (["rank", "--help"], 0),
    ], ids=["no-arguments", "missing-positional", "dash-value", "unknown-flag", "abbreviation", "help"])
    def test_a_refused_command_line_prints_what_argparse_prints(self, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parse_args(argv) is None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert parsed_by_argparse(argv) == (None, code, out.getvalue(), err.getvalue())
        assert (out.getvalue() if code == 0 else err.getvalue()).startswith("usage: layext")

    def test_an_abbreviation_runs_through_argparse(self, tmp_path):
        path = write(tmp_path, "p.json", PRES_SIXTHS)
        assert _parse_args(["--js", "decompose", path]) is None
        assert run(["--js", "decompose", path]) == run(["--json", "decompose", path])


MALFORMED = {
    "sort_not_object": (["semifield", "h.json"], {"h.json": {"sort": "base", "value": PRES_SIXTHS}}),
    "generators_not_list": (["decompose", "p.json"], {"p.json": {"base": ["1"], "generators": 5}}),
    "exps_not_integers": (["decompose", "p.json"], {"p.json": {
        "base": ["1"], "generators": [{"num": "1/2"}, {"sym": "g"}],
        "relations": [{"exps": ["a", 2], "beta": "1"}]}}),
    "exps_float": (["decompose", "p.json"], {"p.json": {
        "base": ["1"], "generators": [{"sym": "g"}], "relations": [{"exps": [2.7], "beta": "1"}]}}),
    "exp_not_integer": (["eval", "f.json", "a.json"], {
        "f.json": [{"layer": "1", "value": "0", "exp": "x"}], "a.json": SCALAR_3_0}),
    "exp_float": (["eval", "f.json", "a.json"], {
        "f.json": [{"layer": "1", "value": "0", "exp": 1.9}], "a.json": SCALAR_3_0}),
    "monoid_string": (["decompose", "p.json"], {"p.json": {**PRES_SIXTHS, "monoid": "false"}}),
    "fractions_string": (["semifield", "h.json"], {"h.json": {
        "sort": {"kind": "free", "name": "t", "fractions": "no"}, "value": PRES_SIXTHS}}),
    "free_sort_name_not_string": (["semifield", "h.json"], {"h.json": {
        "sort": {"kind": "free", "name": 3}, "value": PRES_SIXTHS}}),
    "free_sort_name_not_identifier": (["semifield", "h.json"], {"h.json": {
        "sort": {"kind": "free", "name": "1"}, "value": PRES_SIXTHS}}),
    "free_sort_without_name": (["semifield", "h.json"], {"h.json": {"sort": {"kind": "free"}, "value": PRES_SIXTHS}}),
    "free_layer_name_not_identifier": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY, "a.json": {"layer": {"kind": "free", "name": ""}, "value": "0"}}),
    "free_layer_without_name": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY, "a.json": {"layer": {"kind": "free"}, "value": "0"}}),
    "symbol_repeated": (["decompose", "p.json"], {"p.json": {
        "base": ["1"], "generators": [{"sym": "g"}, {"sym": "g"}]}}),
    "symbol_not_identifier": (["decompose", "p.json"], {"p.json": {
        "base": ["1"], "generators": [{"sym": "1/2"}]}}),
    "symbol_not_string": (["decompose", "p.json"], {"p.json": {"base": ["1"], "generators": [{"sym": 2}]}}),
    "scalar_symbol_not_identifier": (["closure", "h.json", "a.json"], {
        "h.json": {"sort": {"kind": "base"}, "value": PRES_SIXTHS}, "a.json": {"layer": "2", "value": {"sym": "1"}}}),
    "rational_layer_without_value": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY, "a.json": {"layer": {"kind": "rational"}, "value": "0"}}),
    "layer_list": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY, "a.json": {"layer": ["x"], "value": "0"}}),
    "coeffs_not_list": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY,
        "a.json": {"layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": 5}, "value": "0"}}),
    "coeffs_too_long": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY,
        "a.json": {"layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": ["0", "1", "2"]}, "value": "0"}}),
    "coeffs_string": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY,
        "a.json": {"layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": "01"}, "value": "0"}}),
    "algebraic_layer_negative_at_root": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY,
        "a.json": {"layer": {"kind": "algebraic", **GEN_SQRT2, "coeffs": ["1", "-1"]}, "value": "0"}}),
    # X - 1 is positive at the adjoined root 2.618 of x^2 - 3x + 1, negative at its conjugate 0.382
    "algebraic_layer_negative_at_a_conjugate_root": (["eval", "f.json", "a.json"], {
        "f.json": LPOLY,
        "a.json": {"layer": {"kind": "algebraic", **GEN_TWO_ROOTS, "coeffs": ["-1", "1"]}, "value": "0"}}),
    "generator_not_monic": (["kernel", "p.json", "p.json", "g.json"], {
        "p.json": {"1": "1"}, "g.json": {"m": {"2": "2", "0": "-1"}, "interval": ["0", "1"]}}),
    "generator_zero": (["kernel", "p.json", "p.json", "g.json"], {
        "p.json": {"1": "1"}, "g.json": {"m": {}, "interval": ["0", "1"]}}),
    "nesting_too_deep": (["decompose", "p.json"], {"p.json": b"[" * 200_000}),
    "integer_over_the_digit_limit": (["decompose", "p.json"], {
        "p.json": b'{"base": ["1"], "generators": [{"num": ' + b"7" * 5000 + b"}]}"}),
    "utf16_byte_order_mark": (["decompose", "p.json"], {
        "p.json": b"\xff\xfe" + json.dumps(PRES_SIXTHS).encode("utf-16-le")}),
    # number text other than what layext writes for the value
    "degree_key_with_leading_zero": (["kernel", "a.json", "b.json", "g.json"], {
        "a.json": {"poly": {"2": "1", "02": "5"}}, "b.json": {"poly": {"0": "2"}}, "g.json": GEN_SQRT2}),
    "degree_key_with_space": (["kernel", "a.json", "a.json", "g.json"], {
        "a.json": {"poly": {"0": "2"}},
        "g.json": {"m": {"2": "1", " 2": "1", "0": "-2"}, "interval": ["1", "2"]}}),
    "exps_non_ascii_digits": (["decompose", "p.json"], {"p.json": {
        "base": ["1"], "generators": [{"num": "1/2"}, {"sym": "g"}],
        "relations": [{"exps": ["\u0662", " 1"], "beta": "1"}]}}),
    "exps_flag_non_ascii_digit": (["torsion-degree", "p.json", "--exps=\u0661,0"], {"p.json": PRES_SIXTHS}),
    "over_flag_underscore": (["rank", "p.json", "--over=0_0"], {"p.json": PRES_SIXTHS}),
    "exps_flag_too_short": (["torsion-degree", "p.json", "--exps=1"], {"p.json": PRES_SIXTHS}),
    "over_flag_negative": (["rank", "p.json", "--over=-1"], {"p.json": PRES_SIXTHS}),
    "rational_not_in_lowest_terms": (["decompose", "p.json"], {
        "p.json": {"base": ["1"], "generators": [{"num": "2/4"}]}}),
    "rational_decimal": (["decompose", "p.json"], {
        "p.json": {"base": ["1"], "generators": [{"num": "1.5"}]}}),
    "rational_exponent": (["decompose", "p.json"], {
        "p.json": {"base": ["1"], "generators": [{"num": "1e3"}]}}),
    "missing_file": (["decompose", "no-such-dir/p.json"], {}),
    # 2g = 1 and 1/2 + g = 0 give g two values; `semifield` on the same file already refused it
    "closure_inconsistent_relations": (["closure", "h.json", "a.json"], {
        "h.json": {"sort": {"kind": "base"}, "value": {
            "base": ["1"], "generators": [{"num": "1/2"}, {"sym": "g"}],
            "relations": [{"exps": [0, 2], "beta": "1"}, {"exps": [1, 1], "beta": "0"}]}},
        "a.json": {"layer": "2", "value": {"sym": "g"}}}, "InconsistentRelations"),
}


def run_kernel(tmp_path, gen):
    paths = [write(tmp_path, f, doc) for f, doc in (("a.json", {"1": "1"}), ("b.json", {"0": "1"}), ("g.json", gen))]
    return run(["kernel", *paths])


def assert_one_error_line(tmp_path, m, kind):
    rc, out, err = run_kernel(tmp_path, {"m": m, "interval": ["1", "2"]})
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")


def test_degree_above_irreducibility_limit_is_one_error_line(tmp_path):
    assert_one_error_line(tmp_path, {"32": "1", "0": "-2"}, "DegreeTooLarge")


def test_reducible_degree_18_generator_is_one_error_line(tmp_path):
    # (x^9 - 2)(x^9 - 3), below the factoriser's degree limit
    assert_one_error_line(tmp_path, {"18": "1", "9": "-5", "0": "6"}, "Reducible")


small_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))


@settings(max_examples=60, deadline=None)
@given(
    degree=st.integers(0, 34),
    data=st.data(),
    lead=st.sampled_from([F(1), F(1), F(1), F(2), F(-1), F(1, 2)]),
    interval=st.tuples(small_rationals, small_rationals),
)
def test_fuzzed_generators_give_a_result_or_one_error_line(tmp_path_factory, degree, data, lead, interval):
    coeffs = data.draw(st.lists(small_rationals, min_size=degree, max_size=degree)) + [lead]
    gen = {"m": {str(i): str(c) for i, c in enumerate(coeffs) if c}, "interval": [str(v) for v in interval]}
    rc, out, err = run_kernel(tmp_path_factory.mktemp("gen"), gen)
    lines = err.splitlines()
    assert rc in (0, 1)
    if rc == 1:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    checks_irreducibility = lead == 1 and 2 <= degree <= 31 and any(c < 0 for c in coeffs)
    if rc == 0 or checks_irreducibility:
        # validation reaches the irreducibility test exactly for these, and it must agree with sympy
        m = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), domain="QQ")
        reducible = rc == 1 and lines[0].startswith("error: Reducible: ")
        assert checks_irreducibility and reducible != m.is_irreducible
        assert rc == 0 or not lines[0].startswith("error: DegreeTooLarge: ")
    if degree > 31 and lead == 1:
        assert rc == 1 and lines[0].startswith(("error: DegreeTooLarge: ", "error: AllPositiveCoefficients: "))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(tmp_path, name):
    argv, files, *kind = MALFORMED[name]  # a ParseError unless the entry names another error
    paths = {f: write(tmp_path, f, doc) for f, doc in files.items()}
    rc, out, err = run([paths.get(a, a) for a in argv])
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {kind[0] if kind else 'ParseError'}: ")


@pytest.mark.parametrize("argv, files, key", [
    # without the check the last "2" would win and the kernel query would answer for 3x^2
    (["kernel", "a.json", "b.json", "g.json"], {
        "a.json": b'{"poly": {"2": "1", "2": "3"}}', "b.json": {"poly": {"0": "2"}}, "g.json": GEN_SQRT2}, "2"),
    (["rank", "p.json"], {"p.json": b'{"base": ["1"], "base": ["2"], "generators": [{"num": "1/2"}]}'}, "base"),
])
def test_duplicate_keys_are_one_error_line(tmp_path, argv, files, key):
    paths = {f: write(tmp_path, f, doc) for f, doc in files.items()}
    rc, out, err = run([paths.get(a, a) for a in argv])
    assert (rc, out, err) == (1, "", f'error: ParseError: duplicate key "{key}" in a JSON object\n')


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_result_over_the_digit_limit_is_one_error_line(tmp_path, flags):
    # two generators 1/(10^k + 1), 1/(10^k + 3) with coprime denominators:
    # the rank is their product, twice as many digits as either input
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter has no int-to-str digit limit")
    k = limit // 2 + 100
    doc = {"base": ["1"], "generators": [{"num": f"1/{10**k + 1}"}, {"num": f"1/{10**k + 3}"}]}
    rc, out, err = run(flags + ["rank", write(tmp_path, "p.json", doc)])
    assert (rc, out) == (1, "")
    assert err == f"error: ResultTooLarge: a number in the result has more than {limit} digits\n"


# Arbitrary JSON for the fuzz tests: small leaves, the schema's own keys
# among the object keys so that documents get past the first checks.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["0", "1", "2", "-1/2", "base", "rational", "algebraic", "free"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["base", "generators", "relations", "num", "sym", "exps", "beta", "m", "interval",
                         "poly", "layer", "value", "exp", "kind", "coeffs", "name", "sort", "0", "1", "2"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def assert_result_or_one_error_line(argv):
    """Plain and --json, twice each: exit 0 and no stderr, or exit 1, no stdout and one error line."""
    for flags in ([], ["--json"]):
        first = run(flags + argv)
        assert run(flags + argv) == first
        rc, out, err = first
        assert rc in (0, 1)
        if rc == 0:
            assert err == ""
        else:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data(), indices=st.text("0123456789,-", max_size=5))
def test_fuzzed_documents_give_a_result_or_one_error_line(tmp_path_factory, command, data, indices):
    name, _, inputs, options, _ = command
    base = tmp_path_factory.mktemp("fuzz")
    argv = [name] + [write(base, f"{arg}.json", data.draw(json_values)) for arg in inputs]
    assert_result_or_one_error_line(argv + [f"{flag}={indices}" for flag, _, _ in options])


def json_paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_mutated_samples_give_a_result_or_one_error_line(tmp_path_factory, case, data):
    argv = [str(ROOT / a) if a.startswith("schemas/") else a for a in case]
    slot = data.draw(st.sampled_from([i for i, a in enumerate(case) if a.startswith("schemas/")]))
    doc = json.loads(Path(argv[slot]).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(json_values)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    argv[slot] = write(tmp_path_factory.mktemp("mutated"), "doc.json", doc)
    assert_result_or_one_error_line(argv)


LAYERS = {"tropical", "intlinalg", "bipotent", "polys", "cancellative", "uniform"}
BIPOTENT = {"bipotent", "intlinalg", "tropical"}
BROKEN = "broken.json"
# runs `cli.main` on its arguments, then writes every module loaded since the
# snapshot as the last line of stderr; the snapshot leaves out what the
# interpreter's site hooks load before any user code runs
CHILD = (
    "import sys; before = set(sys.modules); from layext.cli import main; rc = main(sys.argv[1:]); "
    "print(*sorted(set(sys.modules) - before), file=sys.stderr); sys.exit(rc)"
)


def golden_output(argv) -> str:
    """The standard output `tests/golden/cli_schemas.txt` records for `layext argv`, a run that exited 0."""
    text = GOLDEN.read_text(encoding="utf-8")
    head = f"$ layext {' '.join(argv)}\nexit: 0\n"
    start = text.index(head) + len(head)
    end = text.find("\n$ layext ", start)
    return text[start:end + 1 if end >= 0 else None]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["decompose", "schemas/presentation.json"], BIPOTENT),
        (["torsion-degree", "schemas/presentation.json", "--exps=1,0"], BIPOTENT),
        (["rank", "schemas/presentation.json"], BIPOTENT),
        (["kernel", "schemas/poly_pos.json", "schemas/poly_pos_const.json", "schemas/generator.json"],
         {"cancellative", "polys", "tropical"}),
        (["eval", "schemas/layered_poly.json", "schemas/scalar.json"], BIPOTENT | {"uniform"}),
        (["closure", "schemas/descriptor.json", "schemas/scalar.json"], BIPOTENT | {"uniform"}),
        (["semifield", "schemas/descriptor.json"], BIPOTENT | {"uniform"}),
        (["rank", BROKEN], set()),
    ],
    ids=["decompose", "torsion-degree", "rank", "kernel", "eval", "closure", "semifield", "broken-json"],
)
def test_cli_imports_only_the_standard_library(tmp_path, argv, layers):
    # each subcommand loads only the layers it calls, and input that fails as JSON loads none
    argv = [write(tmp_path, a, b'{"base": [') if a == BROKEN else a for a in argv]
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=src_env(), cwd=ROOT,
                         capture_output=True, text=True)
    *errors, modules = out.stderr.splitlines()
    loaded = modules.split()
    tops = {m.partition(".")[0] for m in loaded}
    assert "layext" in tops
    assert [m for m in tops if m not in sys.stdlib_module_names and m != "layext"] == []
    assert {"dataclasses", "inspect"} & tops == set()
    # every one of these command lines parses without argparse, and so without gettext and locale
    assert {"argparse", "gettext", "locale"} & tops == set()
    assert {m.partition(".")[2] for m in loaded if m.startswith("layext.")} & LAYERS == layers
    if layers:
        assert (out.returncode, errors, out.stdout) == (0, [], golden_output(argv))
    else:
        assert (out.returncode, out.stdout, len(errors)) == (1, "", 1)
        assert errors[0].startswith("error: ParseError: ")
