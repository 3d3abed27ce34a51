"""Uniform layered extensions: polynomial evaluation, pure extensions, closures.

A uniform layered domain is described by two independent parts: a sort part
(the semifield the layers live in: positive rationals, possibly extended by
one algebraic or one free generator) and a value part (a bipotent extension
presentation over the base value lattice).  Evaluating a polynomial with
layered coefficients at a layered scalar splits the same way: the value is
the maximum of the term values, and the layer is the sum of the layers of the
value-maximal (essential) terms, a polynomial expression in the scalar's
layer.

Extending by a scalar whose value stays in the base extends only the sort
part (pure-layer); extending by a scalar whose layer stays in the base
extends only the value part (pure-value); an arbitrary scalar extends both at
once, yielding the smallest uniform layered domain containing it, and the two
single-part extensions commute.

Only an algebraic layer loads `cancellative`: `ExtScalar` imports it to
check a layer that is neither a rational nor a `FreeLayer`, and the other
functions tell an `ExtElem` from the other layers without loading it.  The
annotations that name its classes are never evaluated
(`from __future__ import annotations`).
"""

from __future__ import annotations

import sys
from fractions import Fraction

from ._record import record
from .bipotent import (
    BipotentPresentation,
    Numeric,
    Symbolic,
    _check_name,
    _in_value_group,
    is_bipotent_semifield,
)
from .errors import DescriptorMismatch, LayerNotInBase, ValueNotInBase
from .tropical import LayeredElem, ValueLattice, _top_terms, as_fraction


@record
class FreeLayer:
    """A layer in a free (transcendental) sort extension: a positive polynomial
    in the named symbol.  Like `ExtElem` it answers `+`, `**`, `scale` and
    `is_constant`, each result in the same symbol."""

    name: str
    poly: PosPoly

    def __post_init__(self):
        _check_name(self.name, "a free layer")

    @property
    def is_constant(self) -> bool:
        return len(self.poly.coeffs) == 1

    def __add__(self, other: "FreeLayer") -> "FreeLayer":
        if not isinstance(other, FreeLayer):
            return NotImplemented
        if other.name != self.name:
            raise DescriptorMismatch("free layers in different symbols")
        return FreeLayer(self.name, self.poly + other.poly)

    def __pow__(self, k: int) -> "FreeLayer":
        return FreeLayer(self.name, self.poly**k)

    def scale(self, c) -> "FreeLayer":
        return FreeLayer(self.name, self.poly.scale(c))

    def __str__(self) -> str:
        return str(self.poly).replace("x", self.name)


@record
class BaseSort:
    """The unextended sort semifield: the positive rationals."""


@record
class AlgebraicSort:
    """Sort semifield extended by one validated algebraic generator."""

    gen: AlgebraicGenerator


@record
class FreeSort:
    """Sort semifield extended by one free generator.

    `with_fractions` distinguishes the fraction semifield (a semifield) from
    the plain polynomial extension (not a semifield: the generator has no
    inverse among polynomials).
    """

    name: str
    with_fractions: bool = True

    def __post_init__(self):
        _check_name(self.name, "a free sort")
        if type(self.with_fractions) is not bool:
            raise TypeError(f"a free sort's with_fractions must be a bool, got {self.with_fractions!r}")


@record
class UniformDescriptor:
    """A uniform layered domain: sort part and value part, independently queryable."""

    sort_part: object
    value_part: BipotentPresentation


@record
class ExtScalar:
    """A layered scalar: a sort-part layer and a value.

    The value is a rational, or an identifier naming a symbolic value outside
    the rationals (transcendental over the base value group).
    """

    layer: object
    value: object

    def __post_init__(self):
        v = self.value
        if isinstance(v, str):
            _check_name(v, "a symbolic scalar value")
        elif not isinstance(v, Fraction):
            raise TypeError("scalar value must be a Fraction or a symbolic name")
        lay = self.layer
        if isinstance(lay, Fraction):
            if lay <= 0:
                raise ValueError("scalar layer must be positive")
        elif not isinstance(lay, FreeLayer):
            from .cancellative import ExtElem, in_layer_semifield

            if not isinstance(lay, ExtElem):
                raise TypeError("scalar layer must be rational, algebraic or free")
            if not in_layer_semifield(lay):
                raise ValueError("algebraic scalar layer must be a positive element")


@record
class LayeredPoly:
    """A polynomial with nonzero layered coefficients, sparse in the exponent."""

    terms: tuple  # ((exp, LayeredElem), ...) in strictly increasing exponent order

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a layered polynomial has at least one term")
        exps = [e for e, _ in self.terms]
        if any(type(e) is not int for e in exps):  # bools and floats are refused
            raise ValueError("exponents must be ints")
        if exps[0] < 0 or any(e >= f for e, f in zip(exps, exps[1:])):
            raise ValueError("exponents must be naturals in strictly increasing order")
        for _, c in self.terms:
            if not isinstance(c, LayeredElem):
                raise TypeError(f"a layered polynomial's coefficients must be LayeredElems, got {c!r}")
            if c.is_zero:
                raise ValueError("zero coefficients are not stored")

    @classmethod
    def of(cls, pairs) -> "LayeredPoly":
        return cls(tuple(sorted(pairs, key=lambda t: t[0])))

    @classmethod
    def from_triples(cls, triples) -> "LayeredPoly":
        """Build from (layer, value, exp) triples."""
        return cls.of((e, LayeredElem.make(l, v)) for l, v, e in triples)


def _rational_value(a: ExtScalar) -> Fraction:
    if not isinstance(a.value, Fraction):
        raise DescriptorMismatch("evaluation needs a rational scalar value")
    return a.value


def essential_indices(f: LayeredPoly, a: ExtScalar) -> tuple[int, ...]:
    """Exponents of the value-dominant terms of f at the scalar."""
    return tuple(e for e, _ in _top_terms(f.terms, _rational_value(a))[1])


def eval_layered_poly(f: LayeredPoly, a: ExtScalar):
    """Evaluate f at the scalar; returns (layer, value).

    The value is the maximum term value; the layer is the sum over the
    essential exponents of coefficient-layer times scalar-layer power, an
    element of the sort part extended by the scalar's layer.
    """
    value, top = _top_terms(f.terms, _rational_value(a))
    layer = None
    for e, c in top:
        power = a.layer**e
        term = c.layer * power if isinstance(power, Fraction) else power.scale(c.layer)
        layer = term if layer is None else layer + term
    return layer, value


def _is_ext_elem(layer) -> bool:
    """Whether `layer` is an `ExtElem`, loading nothing: none exists before `cancellative` has loaded."""
    cancellative = sys.modules.get(f"{__package__}.cancellative")
    return cancellative is not None and isinstance(layer, cancellative.ExtElem)


def sort_contains(part, layer) -> bool:
    """Whether a layer already lies in the sort part; a constant extension layer is a rational."""
    if isinstance(layer, Fraction):
        return True
    if isinstance(layer, FreeLayer):
        return layer.is_constant or isinstance(part, FreeSort) and part.name == layer.name
    if not _is_ext_elem(layer):
        raise TypeError(f"not a layer: {layer!r}")
    return layer.is_constant or isinstance(part, AlgebraicSort) and part.gen == layer.gen


def extend_sort(part, layer):
    """The sort part extended by one layer; unchanged if already contained."""
    if sort_contains(part, layer):
        return part
    if not isinstance(part, BaseSort):
        raise DescriptorMismatch(
            "only one sort extension step is supported; the layer is outside it"
        )
    if isinstance(layer, FreeLayer):
        return FreeSort(layer.name)
    return AlgebraicSort(layer.gen)


def value_group_contains(P: BipotentPresentation, value) -> bool:
    """Whether a value lies in the value group generated by the presentation.

    For rationals this is membership in the subgroup spanned by the base
    lattice together with the numeric generator values, one gcd on P's
    congruence (`bipotent._in_value_group`); a symbolic value is contained
    exactly when a symbolic generator of the same name is present (declared
    relations that would identify symbolic values with rationals are not
    chased here).  Either way P's cache entry is read, so inconsistent
    declared relations raise InconsistentRelations.
    """
    return _in_value_group(P, value if isinstance(value, str) else as_fraction(value))


def extend_value(P: BipotentPresentation, value) -> BipotentPresentation:
    """The value part extended by one value; unchanged if already contained."""
    if value_group_contains(P, value):
        return P
    gen = Symbolic(value) if isinstance(value, str) else Numeric(as_fraction(value))
    return P.with_generator(gen)


def pure_layer_ext(H: UniformDescriptor, a: ExtScalar) -> UniformDescriptor:
    """Extend the sort part by the scalar's layer; the value must already be in the base."""
    if not value_group_contains(H.value_part, a.value):
        raise ValueNotInBase(f"scalar value {a.value} is outside the base value group")
    return UniformDescriptor(extend_sort(H.sort_part, a.layer), H.value_part)


def pure_value_ext(H: UniformDescriptor, a: ExtScalar) -> UniformDescriptor:
    """Extend the value part by the scalar's value; the layer must already be in the base."""
    if not sort_contains(H.sort_part, a.layer):
        raise LayerNotInBase(f"scalar layer {a.layer} is outside the base sort part")
    return UniformDescriptor(H.sort_part, extend_value(H.value_part, a.value))


def uniform_closure(H: UniformDescriptor, a: ExtScalar) -> UniformDescriptor:
    """The smallest uniform layered domain containing H and the scalar.

    Extends the sort part by the layer and the value part by the value; the
    two single-part extensions commute and the result is idempotent.
    """
    return UniformDescriptor(
        extend_sort(H.sort_part, a.layer),
        extend_value(H.value_part, a.value),
    )


def is_layerset_semiring(H: UniformDescriptor, a: ExtScalar) -> bool:
    """Whether the layer set of the simple extension by the scalar is a semiring.

    Holds exactly when the scalar's value lies in the base value group.  When
    it does not, the formal layers at exponents 0 and 1 of the scalar cannot
    sum inside the layer set: their sum needs the two values to match, and
    they differ by the scalar's value, which the base group does not contain.
    """
    return value_group_contains(H.value_part, a.value)


def sort_is_semifield(part) -> bool:
    """Whether the sort part is a semifield on its own.

    The base and any simple algebraic extension of it are; a free extension
    is one only when fractions are included (the generator has no inverse
    among polynomials).
    """
    if isinstance(part, (BaseSort, AlgebraicSort)):
        return True
    return part.with_fractions


def is_uniform_semifield(H: UniformDescriptor) -> bool:
    """Whether the described uniform layered domain is a semifield.

    Needs both parts to be semifields: the value part must be torsion over
    its base (finite quotient group) and the sort part must pass
    `sort_is_semifield`.
    """
    return is_bipotent_semifield(H.value_part) and sort_is_semifield(H.sort_part)


_BASE = UniformDescriptor(BaseSort(), BipotentPresentation(ValueLattice.of(1), ()))


def base_descriptor() -> UniformDescriptor:
    """The unextended uniform semifield, positive-rational layers over the value lattice <1>: one object."""
    return _BASE
