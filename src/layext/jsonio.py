"""JSON encodings of the library's objects, shared by the CLI and fixtures.

All rationals travel as strings in lowest terms ("5", "-1/2").  The concrete
shapes are documented in schemas/README.md with one example file per format;
parse/render are inverse to each other on every well-formed document.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bipotent import BipotentPresentation, Numeric, Relation, Symbolic
from .cancellative import AlgebraicGenerator, ExtElem, PosPoly, SignedPoly, validate_generator
from .errors import ParseError
from .tropical import ValueLattice
from .uniform import (
    AlgebraicSort,
    BaseSort,
    ExtScalar,
    FreeLayer,
    FreeSort,
    LayeredPoly,
    UniformDescriptor,
)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"expected a rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}: {e}") from None


def parse_int(s) -> int:
    """An integer given as a JSON integer or a decimal string; bools and floats are refused."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ParseError(f"expected an integer, got {s!r}")
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"bad integer {s!r}") from None


def parse_bool(s) -> bool:
    """A JSON true or false; strings and numbers are refused."""
    _require(isinstance(s, bool), f"expected true or false, got {s!r}")
    return s


def render_rational(q: Fraction) -> str:
    return str(q)


def load_document(text: str, source: str = "<input>") -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: line {e.lineno} column {e.colno}: {e.msg}") from None


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def parse_presentation(doc) -> BipotentPresentation:
    _require(isinstance(doc, dict), "presentation must be an object")
    base = doc.get("base", ["1"])
    generators = doc.get("generators", [])
    relations = doc.get("relations", [])
    for key, val in (("base", base), ("generators", generators), ("relations", relations)):
        _require(isinstance(val, list), f"presentation {key} must be a list")
    base = ValueLattice.of(*[parse_rational(g) for g in base])
    gens = []
    for g in generators:
        _require(isinstance(g, dict) and len(g) == 1, f"bad generator {g!r}")
        if "num" in g:
            gens.append(Numeric(parse_rational(g["num"])))
        elif "sym" in g:
            _require(isinstance(g["sym"], str), f"bad symbolic generator {g!r}")
            gens.append(Symbolic(g["sym"]))
        else:
            raise ParseError(f"generator must have 'num' or 'sym': {g!r}")
    rels = []
    for r in relations:
        _require(isinstance(r, dict) and isinstance(r.get("exps"), list) and "beta" in r, f"bad relation {r!r}")
        rels.append(Relation(tuple(parse_int(e) for e in r["exps"]), parse_rational(r["beta"])))
    try:
        return BipotentPresentation(base, tuple(gens), tuple(rels), parse_bool(doc.get("monoid", False)))
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from None


def render_presentation(P: BipotentPresentation) -> dict:
    doc: dict = {
        "base": [render_rational(g) for g in P.base.generators],
        "generators": [
            {"num": render_rational(g.value)} if isinstance(g, Numeric) else {"sym": g.name}
            for g in P.generators
        ],
    }
    if P.relations:
        doc["relations"] = [
            {"exps": list(r.exps), "beta": render_rational(r.beta)} for r in P.relations
        ]
    if P.monoid_exponents:
        doc["monoid"] = True
    return doc


def parse_poly_terms(doc) -> dict:
    _require(isinstance(doc, dict), "polynomial must be an object of degree -> coefficient")
    out = {}
    for k, v in doc.items():
        try:
            deg = int(k)
        except ValueError:
            raise ParseError(f"bad degree {k!r}") from None
        out[deg] = parse_rational(v)
    return out


def _parse_poly(doc, cls):
    body = doc.get("poly", doc) if isinstance(doc, dict) else doc
    try:
        return cls.of(parse_poly_terms(body))
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_signed_poly(doc) -> SignedPoly:
    return _parse_poly(doc, SignedPoly)


def parse_pos_poly(doc) -> PosPoly:
    return _parse_poly(doc, PosPoly)


def render_poly(terms) -> dict:
    return {str(d): render_rational(c) for d, c in terms}


def parse_generator(doc) -> AlgebraicGenerator:
    _require(isinstance(doc, dict) and "m" in doc and "interval" in doc, "generator needs 'm' and 'interval'")
    m = parse_signed_poly(doc["m"])
    iv = doc["interval"]
    _require(isinstance(iv, list) and len(iv) == 2, "interval must be [lo, hi]")
    try:
        return validate_generator(m, (parse_rational(iv[0]), parse_rational(iv[1])))
    except ValueError as e:
        raise ParseError(str(e)) from None


def render_generator(gen: AlgebraicGenerator) -> dict:
    return {
        "m": render_poly(gen.m.terms),
        "interval": [render_rational(gen.lo), render_rational(gen.hi)],
    }


def parse_descriptor(doc) -> UniformDescriptor:
    _require(isinstance(doc, dict) and "sort" in doc and "value" in doc, "descriptor needs 'sort' and 'value'")
    sort_doc = doc["sort"]
    _require(isinstance(sort_doc, dict), "descriptor sort must be an object")
    kind = sort_doc.get("kind")
    if kind == "base":
        sort = BaseSort()
    elif kind == "algebraic":
        sort = AlgebraicSort(parse_generator(sort_doc))
    elif kind == "free":
        _require(isinstance(sort_doc.get("name"), str), "free sort needs a name string")
        sort = FreeSort(sort_doc["name"], parse_bool(sort_doc.get("fractions", True)))
    else:
        raise ParseError(f"unknown sort kind {kind!r}")
    return UniformDescriptor(sort, parse_presentation(doc["value"]))


def render_descriptor(H: UniformDescriptor) -> dict:
    part = H.sort_part
    if isinstance(part, BaseSort):
        sort: dict = {"kind": "base"}
    elif isinstance(part, AlgebraicSort):
        sort = {"kind": "algebraic", **render_generator(part.gen)}
    else:
        sort = {"kind": "free", "name": part.name, "fractions": part.with_fractions}
    return {"sort": sort, "value": render_presentation(H.value_part)}


def parse_layered_poly(doc) -> LayeredPoly:
    _require(isinstance(doc, list) and doc, "layered polynomial must be a non-empty list of terms")
    triples = []
    for t in doc:
        _require(isinstance(t, dict) and {"layer", "value", "exp"} <= t.keys(), f"bad term {t!r}")
        triples.append((parse_rational(t["layer"]), parse_rational(t["value"]), parse_int(t["exp"])))
    try:
        return LayeredPoly.from_triples(triples)
    except ValueError as e:
        raise ParseError(str(e)) from None


def render_layered_poly(f: LayeredPoly) -> list:
    return [
        {"layer": render_rational(c.layer), "value": render_rational(c.value), "exp": e}
        for e, c in f.terms
    ]


def parse_scalar(doc) -> ExtScalar:
    _require(isinstance(doc, dict) and "layer" in doc and "value" in doc, "scalar needs 'layer' and 'value'")
    lay_doc = doc["layer"]
    if isinstance(lay_doc, (str, int)):
        layer = parse_rational(lay_doc)
    else:
        _require(isinstance(lay_doc, dict), f"scalar layer must be a rational or an object, got {lay_doc!r}")
        kind = lay_doc.get("kind")
        if kind == "rational":
            _require("value" in lay_doc, "rational layer needs a value")
            layer = parse_rational(lay_doc["value"])
        elif kind == "algebraic":
            gen = parse_generator(lay_doc)
            coeffs = lay_doc.get("coeffs", ["0", "1"])
            _require(isinstance(coeffs, list) and len(coeffs) <= gen.n,
                     f"algebraic layer coeffs must be a list of at most {gen.n} rationals")
            layer = gen.element([parse_rational(c) for c in coeffs])
        elif kind == "free":
            _require(isinstance(lay_doc.get("name"), str), "free layer needs a name string")
            layer = FreeLayer(lay_doc["name"], parse_pos_poly(lay_doc.get("poly", {"1": "1"})))
        else:
            raise ParseError(f"unknown layer kind {kind!r}")
    val_doc = doc["value"]
    if isinstance(val_doc, dict):
        _require("sym" in val_doc, f"bad scalar value {val_doc!r}")
        value = val_doc["sym"]
    else:
        value = parse_rational(val_doc)
    try:
        return ExtScalar(layer, value)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from None


def render_scalar(a: ExtScalar) -> dict:
    lay = a.layer
    if isinstance(lay, Fraction):
        layer: object = {"kind": "rational", "value": render_rational(lay)}
    elif isinstance(lay, ExtElem):
        layer = {
            "kind": "algebraic",
            **render_generator(lay.gen),
            "coeffs": [render_rational(c) for c in lay.coeffs],
        }
    else:
        layer = {"kind": "free", "name": lay.name, "poly": render_poly(lay.poly.terms)}
    value = {"sym": a.value} if isinstance(a.value, str) else render_rational(a.value)
    return {"layer": layer, "value": value}
