"""Exact max-plus arithmetic with layered elements.

Values are rationals under (max, +): "addition" is maximum and
"multiplication" is ordinary rational addition.  A layered element pairs a
value with a layer, a positive rational that records summation multiplicity:
adding two elements with equal values adds their layers, otherwise the larger
value wins outright.  The additive zero (minus infinity) is `ZERO`, the one
element with no layer and no value: it is neutral for addition and absorbing
for multiplication.

`+` and `*` compute on the integer numerators and denominators of the
operands' fields and build one `Fraction` per field of the result, which
`Fraction` keeps in lowest terms; an operand of any other type is refused.

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

from ._record import record


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


@record
class LayeredElem:
    """A layered element: Zero, or a pair (layer, value) with layer > 0.

    `layer is None` exactly when the element is the zero of the semiring.
    The constructor takes Fractions only; `make` coerces ints and strings.
    """

    layer: Fraction | None
    value: Fraction | None

    def __post_init__(self):
        if (self.layer is None) != (self.value is None):
            raise ValueError("layer and value must both be present or both absent")
        if self.layer is None:
            return
        if not (isinstance(self.layer, Fraction) and isinstance(self.value, Fraction)):
            raise TypeError("layer and value must be Fractions; use LayeredElem.make")
        if self.layer <= 0:
            raise ValueError("layer must be a positive rational")

    @staticmethod
    def make(layer, value) -> "LayeredElem":
        return LayeredElem(as_fraction(layer), as_fraction(value))

    @property
    def is_zero(self) -> bool:
        return self.layer is None

    def __add__(self, other: "LayeredElem") -> "LayeredElem":
        """Layered addition: larger value wins, equal values sum their layers."""
        if not isinstance(other, LayeredElem):
            return NotImplemented
        if self.layer is None:
            return other
        if other.layer is None:
            return self
        a, b = self.value, other.value
        d = a.numerator * b.denominator - b.numerator * a.denominator
        if d:
            return self if d > 0 else other
        k, m = self.layer, other.layer
        return _positive(Fraction(k.numerator * m.denominator + m.numerator * k.denominator,
                                  k.denominator * m.denominator), a)

    def __mul__(self, other: "LayeredElem") -> "LayeredElem":
        """Layered multiplication: layers multiply, values add; Zero absorbs."""
        if not isinstance(other, LayeredElem):
            return NotImplemented
        if self.layer is None or other.layer is None:
            return ZERO
        k, m, a, b = self.layer, other.layer, self.value, other.value
        ad, bd = a.denominator, b.denominator
        value = (Fraction(a.numerator + b.numerator) if ad == bd == 1
                 else Fraction(a.numerator * bd + b.numerator * ad, ad * bd))
        return _positive(Fraction(k.numerator * m.numerator, k.denominator * m.denominator), value)

    def __pow__(self, n: int) -> "LayeredElem":
        if type(n) is not int or n < 0:  # bools are refused
            raise ValueError("exponent must be a natural number")
        if n == 0:
            return ONE
        if self.layer is None:
            return ZERO
        return _positive(self.layer**n, n * self.value)

    def __str__(self) -> str:
        if self.is_zero:
            return "Zero"
        return f"[{self.layer}]{self.value}"


_set_layer = LayeredElem.layer.__set__
_set_value = LayeredElem.value.__set__


def _positive(layer, value) -> LayeredElem:
    """A nonzero element built without validation, for the operations' results.

    Sums, products and powers of positive layers are positive, so they need
    no check; the public constructor keeps validating its input.
    """
    x = object.__new__(LayeredElem)
    _set_layer(x, layer)
    _set_value(x, value)
    return x


ZERO = LayeredElem(None, None)
ONE = LayeredElem(Fraction(1), Fraction(0))


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


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q: the generator of the subgroup a·Z + b·Z.
    return Fraction(
        gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


@record
class ValueLattice:
    """A finitely generated subgroup of (Q, +), given by rational generators.

    Every such subgroup is cyclic; `single_generator` returns the canonical
    non-negative generator (0 for the trivial subgroup).
    """

    generators: tuple[Fraction, ...]

    def __post_init__(self):
        if not (isinstance(self.generators, tuple) and all(isinstance(g, Fraction) for g in self.generators)):
            raise TypeError("a lattice's generators must be a tuple of Fractions; use ValueLattice.of")

    @classmethod
    def of(cls, *gens) -> "ValueLattice":
        return cls(tuple(as_fraction(g) for g in gens))

    def single_generator(self) -> Fraction:
        g = Fraction(0)
        for x in self.generators:
            g = _rational_gcd(g, abs(x))
        return g

    def contains(self, q) -> bool:
        q = as_fraction(q)
        g = self.single_generator()
        if g == 0:
            return q == 0
        return (q / g).denominator == 1

    def join(self, *extra) -> "ValueLattice":
        """The subgroup generated by this lattice together with extra rationals."""
        return ValueLattice(self.generators + tuple(as_fraction(x) for x in extra))
