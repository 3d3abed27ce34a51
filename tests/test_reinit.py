"""A second `__init__` call on a built value changes nothing, for every value class."""

import copy
from fractions import Fraction as F

import pytest

from layext import tropical
from layext.bipotent import (
    BipotentPresentation,
    DependenceWitness,
    ExtDecomposition,
    Numeric,
    Relation,
    Symbolic,
)
from layext.cancellative import AlgebraicGenerator, ExtElem, PosPoly, SignedPoly, validate_generator
from layext.tropical import LayeredElem, ValueLattice
from layext.uniform import (
    AlgebraicSort,
    BaseSort,
    ExtScalar,
    FreeLayer,
    FreeSort,
    LayeredPoly,
    UniformDescriptor,
)
from test_records import CASES, _values

CBRT2 = validate_generator(SignedPoly.of({3: 1, 0: -2}), (1, 2))
HALVES = ValueLattice((F(1, 2),))
Q = BipotentPresentation(HALVES, (Numeric(F(1, 3)),), (), True)

# a second value of each class, whose fields are passed to the second `__init__`
OTHERS = [
    LayeredElem(F(3), F(-1)),
    HALVES,
    Numeric(F(5)),
    Symbolic("h"),
    Relation((3,), F(2)),
    Q,
    ExtDecomposition(((2,),), (), (), ((2,),)),
    DependenceWitness(3, (2,), F(1, 5)),
    SignedPoly((F(1), F(2))),
    PosPoly((F(2),)),
    CBRT2,
    ExtElem(CBRT2, (F(3), F(1, 2), F(0))),
    FreeLayer("u", PosPoly((F(2),))),
    BaseSort(),
    AlgebraicSort(CBRT2),
    FreeSort("u", False),
    UniformDescriptor(FreeSort("u"), Q),
    ExtScalar(F(3), F(1)),
    LayeredPoly(((1, LayeredElem(F(3), F(-1))),)),
]
OTHER = {type(y): y for y in OTHERS}


def test_every_value_class_has_another_value():
    assert set(OTHER) == {type(x) for x, _, _ in CASES} and len(OTHER) == len(OTHERS)


@pytest.mark.parametrize("x, names, text", CASES, ids=[type(x).__name__ for x, _, _ in CASES])
def test_second_init_changes_nothing(x, names, text):
    x, before = copy.copy(x), copy.copy(x)
    h = hash(x)
    other = _values(OTHER[type(x)], names)
    assert other != _values(x, names) or not names
    x.__init__(*other)
    x.__init__(**dict(zip(names, other)))
    assert x == before and hash(x) == h and repr(x) == text and _values(x, names) == _values(before, names)


def test_shared_constants_stay_as_built():
    tropical.ONE.__init__(F(3), F(1))
    tropical.ZERO.__init__(F(3), F(1))
    assert (str(tropical.ONE), str(tropical.ZERO)) == ("[1]0", "Zero")
    assert isinstance(AlgebraicGenerator.__dict__["__new__"], staticmethod)
    assert "__init__" not in AlgebraicGenerator.__dict__ and "__init__" not in LayeredElem.__dict__
