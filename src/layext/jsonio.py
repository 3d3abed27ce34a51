"""JSON encodings of the library's objects, shared by the CLI and fixtures.

Numbers are JSON integers or exactly the text layext writes for them: rationals
in lowest terms ("5", "-1/2"), integers in decimal; an object names each key
once.  Any other input, and any `ValueError` or `TypeError` the library raises
while building an object or checking a query's arguments, is a `ParseError`.
schemas/README.md documents the shapes with one sample file per format;
descriptors, presentations and generators are also written back, and parse
back to the same objects.

Each parse or render function imports the layer whose objects it builds or
reads when it runs; `load_document` and the number parsers import none, so
input that fails as JSON loads no layer.  The annotations name those layers'
classes and are never evaluated (`from __future__ import annotations`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError


def _parse_number(s, kind, what: str):
    """A JSON integer, or a string `s` with `str(kind(s)) == s`; bools and floats are refused."""
    if isinstance(s, int) and not isinstance(s, bool):
        return kind(s)
    _require(isinstance(s, str), f"expected {what} text or a JSON integer, got {s!r}")
    try:
        # characters first: kind() would expand an exponent ("1e999999999") before str() could refuse it
        x = kind(s) if set(s) <= set("-/0123456789") else None
    except (ValueError, ZeroDivisionError):
        x = None
    _require(x is not None and str(x) == s, f"bad {what} {s!r}")
    return x


def parse_rational(s) -> Fraction:
    """A rational given as a JSON integer or a string in lowest terms ("5", "-1/2")."""
    return _parse_number(s, Fraction, "rational")


def parse_int(s) -> int:
    """An integer given as a JSON integer or a decimal string ("-3")."""
    return _parse_number(s, int, "integer")


def parse_bool(s) -> bool:
    """A JSON true or false; strings and numbers are refused."""
    _require(isinstance(s, bool), f"expected true or false, got {s!r}")
    return s


def _object(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice raises ParseError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in obj if keys.count(k) > 1)
        raise ParseError(f"duplicate key {json.dumps(key)} in a JSON object")
    return obj


def load_document(text: str, source: str = "<input>") -> object:
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        # an integer over the interpreter's digit limit, or nesting too deep to decode
        raise ParseError(f"{source}: {e}") from None


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _built(make, *args):
    """`make(*args)`, with a `ValueError` or `TypeError` of the library raised as a `ParseError`."""
    try:
        return make(*args)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e)) from None


def parse_presentation(doc) -> BipotentPresentation:
    from .bipotent import BipotentPresentation, Numeric, Relation, Symbolic
    from .tropical import ValueLattice

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
            gens.append(_built(Symbolic, g["sym"]))
        else:
            raise ParseError(f"generator must have 'num' or 'sym': {g!r}")
    rels = []
    for r in relations:
        _require(isinstance(r, dict) and isinstance(r.get("exps"), list) and "beta" in r, f"bad relation {r!r}")
        rels.append(Relation(tuple(parse_int(e) for e in r["exps"]), parse_rational(r["beta"])))
    return _built(BipotentPresentation, base, tuple(gens), tuple(rels), parse_bool(doc.get("monoid", False)))


def render_presentation(P: BipotentPresentation) -> dict:
    from .bipotent import Numeric

    doc: dict = {
        "base": [str(g) for g in P.base.generators],
        "generators": [
            {"num": str(g.value)} if isinstance(g, Numeric) else {"sym": g.name}
            for g in P.generators
        ],
    }
    if P.relations:
        doc["relations"] = [
            {"exps": list(r.exps), "beta": str(r.beta)} for r in P.relations
        ]
    if P.monoid_exponents:
        doc["monoid"] = True
    return doc


def _parse_poly(doc, cls):
    body = doc.get("poly", doc) if isinstance(doc, dict) else doc
    _require(isinstance(body, dict), "polynomial must be an object of degree -> coefficient")
    return _built(cls.of, {parse_int(k): parse_rational(v) for k, v in body.items()})


def parse_signed_poly(doc) -> SignedPoly:
    from .cancellative import SignedPoly

    return _parse_poly(doc, SignedPoly)


def parse_pos_poly(doc) -> PosPoly:
    from .cancellative import PosPoly

    return _parse_poly(doc, PosPoly)


def render_poly(terms) -> dict:
    return {str(d): str(c) for d, c in terms}


def parse_generator(doc) -> AlgebraicGenerator:
    from .cancellative import validate_generator

    _require(isinstance(doc, dict) and "m" in doc and "interval" in doc, "generator needs 'm' and 'interval'")
    m = parse_signed_poly(doc["m"])
    iv = doc["interval"]
    _require(isinstance(iv, list) and len(iv) == 2, "interval must be [lo, hi]")
    return _built(validate_generator, m, (parse_rational(iv[0]), parse_rational(iv[1])))


def render_generator(gen: AlgebraicGenerator) -> dict:
    return {
        "m": render_poly(gen.m.terms),
        "interval": [str(gen.lo), str(gen.hi)],
    }


def parse_descriptor(doc) -> UniformDescriptor:
    from .uniform import AlgebraicSort, BaseSort, FreeSort, UniformDescriptor

    _require(isinstance(doc, dict) and "sort" in doc and "value" in doc, "descriptor needs 'sort' and 'value'")
    sort_doc = doc["sort"]
    _require(isinstance(sort_doc, dict), "descriptor sort must be an object")
    kind = sort_doc.get("kind")
    if kind == "base":
        sort = BaseSort()
    elif kind == "algebraic":
        sort = AlgebraicSort(parse_generator(sort_doc))
    elif kind == "free":
        sort = _built(FreeSort, sort_doc.get("name"), parse_bool(sort_doc.get("fractions", True)))
    else:
        raise ParseError(f"unknown sort kind {kind!r}")
    return UniformDescriptor(sort, parse_presentation(doc["value"]))


def render_descriptor(H: UniformDescriptor) -> dict:
    from .uniform import AlgebraicSort, BaseSort

    part = H.sort_part
    if isinstance(part, BaseSort):
        sort: dict = {"kind": "base"}
    elif isinstance(part, AlgebraicSort):
        sort = {"kind": "algebraic", **render_generator(part.gen)}
    else:
        sort = {"kind": "free", "name": part.name, "fractions": part.with_fractions}
    return {"sort": sort, "value": render_presentation(H.value_part)}


def parse_layered_poly(doc) -> LayeredPoly:
    from .uniform import LayeredPoly

    _require(isinstance(doc, list) and doc, "layered polynomial must be a non-empty list of terms")
    triples = []
    for t in doc:
        _require(isinstance(t, dict) and {"layer", "value", "exp"} <= t.keys(), f"bad term {t!r}")
        triples.append((parse_rational(t["layer"]), parse_rational(t["value"]), parse_int(t["exp"])))
    return _built(LayeredPoly.from_triples, triples)


def parse_scalar(doc) -> ExtScalar:
    from .uniform import ExtScalar, FreeLayer

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
            _require(isinstance(coeffs, list), "algebraic layer coeffs must be a list of rationals")
            layer = _built(gen.element, [parse_rational(c) for c in coeffs])
        elif kind == "free":
            layer = _built(FreeLayer, lay_doc.get("name"), parse_pos_poly(lay_doc.get("poly", {"1": "1"})))
        else:
            raise ParseError(f"unknown layer kind {kind!r}")
    val_doc = doc["value"]
    if isinstance(val_doc, dict):
        _require("sym" in val_doc, f"bad scalar value {val_doc!r}")
        value = val_doc["sym"]
    else:
        value = parse_rational(val_doc)
    return _built(ExtScalar, layer, value)
