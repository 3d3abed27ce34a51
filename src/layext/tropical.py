"""Exact max-plus arithmetic with layered elements.

Values are rationals under (max, +): "addition" is maximum and
"multiplication" is ordinary rational addition.  A layered element pairs a
value with a layer, a positive rational that records summation multiplicity:
adding two elements with equal values adds their layers, otherwise the larger
value wins outright.  The additive zero (minus infinity) is `ZERO`, the one
element with no layer and no value: it is neutral for addition and absorbing
for multiplication.

An element stores its layer and value as reduced integer numerators and
denominators.  `+`, `*` and `**` compute on those ints and build no
`Fraction`; `.layer` and `.value` build one per read.  `_top_terms`, the
value pass of polynomial evaluation, runs on the same ints.  An operand of
any other type is refused.

>>> x = LayeredElem.make(2, 5)
>>> y = LayeredElem.make(3, 5)
>>> print(x + y)
[5]5
>>> print(x * y)
[6]10

Everything is an immutable value; no floats are accepted anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from ._record import Value, record


def as_fraction(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact Fraction; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _cleared(coeffs) -> tuple[list[int], int]:
    """The integer numerators of Fractions over their least common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class LayeredElem(Value):
    """A layered element: Zero, or a pair (layer, value) with layer > 0.

    `layer is None` exactly when the element is the zero of the semiring.
    The constructor takes Fractions only; `make` coerces ints and strings.

    An element stores the reduced numerator and denominator of its layer and
    of its value as four ints (Zero's layer numerator is 0), and `.layer` and
    `.value` build a Fraction from them on each read.  Its fields are
    (layer, value): equality, hash, repr, copies, pickles and immutability
    are `Value`'s, and a second `__init__` call changes nothing, as for the
    value classes `record` builds.
    """

    __slots__ = ("_ints",)
    _fields = ("layer", "value")

    def __new__(cls, layer: Fraction | None, value: Fraction | None):
        if layer is None or value is None:
            if layer is not value:
                raise ValueError("layer and value must both be present or both absent")
            ints = (0, 1, 0, 1)
        elif not (isinstance(layer, Fraction) and isinstance(value, Fraction)):
            raise TypeError("layer and value must be Fractions; use LayeredElem.make")
        elif layer.numerator <= 0:
            raise ValueError("layer must be a positive rational")
        else:
            ints = (layer.numerator, layer.denominator, value.numerator, value.denominator)
        self = _new(cls)
        _set_ints(self, ints)
        return self

    @staticmethod
    def make(layer, value) -> "LayeredElem":
        return LayeredElem(as_fraction(layer), as_fraction(value))

    @property
    def layer(self) -> Fraction | None:
        n, d, _, _ = self._ints
        return Fraction(n, d) if n else None

    @property
    def value(self) -> Fraction | None:
        n, _, vn, vd = self._ints
        return Fraction(vn, vd) if n else None

    @property
    def is_zero(self) -> bool:
        return not self._ints[0]

    # The operators build their results with `_new` and `_set_ints`, inline
    # and without validation: sums, products and powers of positive layers
    # are positive.  Each reduces a result field with one gcd, and only when
    # its denominator is not 1.

    def __add__(self, other: "LayeredElem") -> "LayeredElem":
        """Layered addition: larger value wins, equal values sum their layers."""
        if not isinstance(other, LayeredElem):
            return NotImplemented
        kn, kd, an, ad = self._ints
        if not kn:
            return other
        mn, md, bn, bd = other._ints
        if not mn:
            return self
        d = an * bd - bn * ad
        if d:
            return self if d > 0 else other
        n, den = kn * md + mn * kd, kd * md
        if den != 1:
            g = gcd(n, den)
            n, den = n // g, den // g
        x = _new(LayeredElem)
        _set_ints(x, (n, den, an, ad))
        return x

    def __mul__(self, other: "LayeredElem") -> "LayeredElem":
        """Layered multiplication: layers multiply, values add; Zero absorbs."""
        if not isinstance(other, LayeredElem):
            return NotImplemented
        kn, kd, an, ad = self._ints
        mn, md, bn, bd = other._ints
        if not (kn and mn):
            return ZERO
        n, den = kn * mn, kd * md
        if den != 1:
            g = gcd(n, den)
            n, den = n // g, den // g
        vn, vd = an * bd + bn * ad, ad * bd
        if vd != 1:
            g = gcd(vn, vd)
            vn, vd = vn // g, vd // g
        x = _new(LayeredElem)
        _set_ints(x, (n, den, vn, vd))
        return x

    def __pow__(self, n: int) -> "LayeredElem":
        if type(n) is not int or n < 0:  # bools are refused
            raise ValueError("exponent must be a natural number")
        if n == 0:
            return ONE
        kn, kd, an, ad = self._ints
        if not kn:
            return ZERO
        g = gcd(n, ad)
        x = _new(LayeredElem)
        _set_ints(x, (kn**n, kd**n, n // g * an, ad // g))
        return x

    def __str__(self) -> str:
        if self.is_zero:
            return "Zero"
        return f"[{self.layer}]{self.value}"


_new = object.__new__
_set_ints = LayeredElem._ints.__set__

ZERO = LayeredElem(None, None)
ONE = LayeredElem(Fraction(1), Fraction(0))


def _top_terms(terms, nu: Fraction) -> tuple[Fraction, list]:
    """The largest term value c.value + e·nu over (e, c) in `terms`, and the terms that reach it.

    The coefficients c are nonzero elements; the values are compared on
    their ints, and only the largest becomes a Fraction.
    """
    nn, nd = nu.numerator, nu.denominator
    top, bn, bd = [], 0, 1
    for e, c in terms:
        _, _, vn, vd = c._ints
        tn = vn * nd + e * nn * vd  # the term value times nd·vd
        d = tn * bd - bn * vd if top else 1
        if d > 0:
            top, bn, bd = [(e, c)], tn, vd
        elif not d:
            top.append((e, c))
    return Fraction(bn, bd * nd), top


_LAYERED_RE = re.compile(r"^\[(?P<layer>\d+(?:/\d+)?)\](?P<value>-?\d+(?:/\d+)?)$", re.ASCII)


def parse_layered(text: str) -> LayeredElem:
    """Parse the canonical rendering "[l]v" (or "Zero"): exactly what `str` writes.

    Any other spelling of an element, such as "[2/4]1", "[02]5" or one with
    surrounding blanks, raises `ValueError`, as does a zero denominator or a
    layer that is not positive.
    """
    if text == "Zero":
        return ZERO
    m = _LAYERED_RE.match(text)
    try:
        x = LayeredElem.make(m.group("layer"), m.group("value")) if m else None
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or str(x) != text:
        raise ValueError(f"not a layered element: {text!r}")
    return x


@record
class ValueLattice:
    """A finitely generated subgroup of (Q, +), given by rational generators.

    Every such subgroup is cyclic; `single_generator` returns the canonical
    non-negative generator (0 for the trivial subgroup), computed once when
    the lattice is built and kept in a slot outside equality, hash and repr.
    """

    generators: tuple[Fraction, ...]
    __slots__ = ("_single",)  # filled in by __post_init__

    def __post_init__(self):
        if not (isinstance(self.generators, tuple) and all(isinstance(g, Fraction) for g in self.generators)):
            raise TypeError("a lattice's generators must be a tuple of Fractions; use ValueLattice.of")
        nums, den = _cleared(self.generators)
        object.__setattr__(self, "_single", Fraction(gcd(*nums), den))

    @classmethod
    def of(cls, *gens) -> "ValueLattice":
        return cls(tuple(as_fraction(g) for g in gens))

    def single_generator(self) -> Fraction:
        return self._single

    def contains(self, q) -> bool:
        q, g = as_fraction(q), self._single
        if not g:
            return q == 0
        return not q.numerator * g.denominator % (q.denominator * g.numerator)
