"""Parity of the 19 value classes: fields, construction, equality, hash, repr, immutability."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from layext.bipotent import (
    BipotentPresentation,
    DependenceWitness,
    ExtDecomposition,
    Numeric,
    Relation,
    Symbolic,
    decompose_extension,
    extension_rank,
)
from layext.cancellative import (
    AlgebraicGenerator,
    ExtElem,
    PosPoly,
    SignedPoly,
    in_layer_semifield,
    positive_at_root,
    validate_generator,
)
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

Z = ValueLattice((F(1),))
Z_REPR = "ValueLattice(generators=(Fraction(1, 1),))"
SQRT2 = validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))
SQRT2_REPR = (
    "AlgebraicGenerator(m=SignedPoly(coeffs=(Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1))), "
    "lo=Fraction(1, 1), hi=Fraction(2, 1))"
)
ONE_PLUS_X = PosPoly((F(1), F(1)))
ONE_PLUS_X_REPR = "PosPoly(coeffs=(Fraction(1, 1), Fraction(1, 1)))"
P = BipotentPresentation(Z, (Symbolic("g"),))
P_REPR = (
    f"BipotentPresentation(base={Z_REPR}, generators=(Symbolic(name='g'),), relations=(), "
    "monoid_exponents=False)"
)
ELEM = LayeredElem(F(2), F(5))
ELEM_REPR = "LayeredElem(layer=Fraction(2, 1), value=Fraction(5, 1))"

# (instance, field names in order, exact repr)
CASES = [
    (ELEM, ("layer", "value"), ELEM_REPR),
    (Z, ("generators",), Z_REPR),
    (Numeric(F(1, 2)), ("value",), "Numeric(value=Fraction(1, 2))"),
    (Symbolic("g"), ("name",), "Symbolic(name='g')"),
    (Relation((2,), F(1)), ("exps", "beta"), "Relation(exps=(2,), beta=Fraction(1, 1))"),
    (P, ("base", "generators", "relations", "monoid_exponents"), P_REPR),
    (
        ExtDecomposition(((1,),), (), (), ((1,),)),
        ("free_monomials", "torsion_monomials", "torsion_orders", "generator_coords"),
        "ExtDecomposition(free_monomials=((1,),), torsion_monomials=(), torsion_orders=(), "
        "generator_coords=((1,),))",
    ),
    (
        DependenceWitness(2, (1,), F(1, 3)),
        ("power", "exponents", "beta"),
        "DependenceWitness(power=2, exponents=(1,), beta=Fraction(1, 3))",
    ),
    (SignedPoly((F(-1), F(1))), ("coeffs",), "SignedPoly(coeffs=(Fraction(-1, 1), Fraction(1, 1)))"),
    (ONE_PLUS_X, ("coeffs",), ONE_PLUS_X_REPR),
    (SQRT2, ("m", "lo", "hi"), SQRT2_REPR),
    (
        ExtElem(SQRT2, (F(0), F(1))),
        ("gen", "coeffs"),
        f"ExtElem(gen={SQRT2_REPR}, coeffs=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    (FreeLayer("t", ONE_PLUS_X), ("name", "poly"), f"FreeLayer(name='t', poly={ONE_PLUS_X_REPR})"),
    (BaseSort(), (), "BaseSort()"),
    (AlgebraicSort(SQRT2), ("gen",), f"AlgebraicSort(gen={SQRT2_REPR})"),
    (FreeSort("t"), ("name", "with_fractions"), "FreeSort(name='t', with_fractions=True)"),
    (
        UniformDescriptor(BaseSort(), P),
        ("sort_part", "value_part"),
        f"UniformDescriptor(sort_part=BaseSort(), value_part={P_REPR})",
    ),
    (ExtScalar(F(2), "s"), ("layer", "value"), "ExtScalar(layer=Fraction(2, 1), value='s')"),
    (LayeredPoly(((0, ELEM),)), ("terms",), f"LayeredPoly(terms=((0, {ELEM_REPR}),))"),
]

def _values(x, names):
    return tuple(getattr(x, f) for f in names)


def test_every_value_class_has_a_case():
    assert len({type(x) for x, _, _ in CASES}) == len(CASES) == 19


@pytest.mark.parametrize("x, names, text", CASES, ids=[type(x).__name__ for x, _, _ in CASES])
def test_fields_construction_repr_and_immutability(x, names, text):
    cls = type(x)
    assert cls(*_values(x, names)) == x
    assert cls(**dict(zip(names, _values(x, names)))) == x
    assert not (x != cls(*_values(x, names)))
    assert x != object()
    assert repr(x) == text
    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("x, names, text", CASES, ids=[type(x).__name__ for x, _, _ in CASES])
def test_hash_is_the_hash_of_the_field_tuple(x, names, text):
    assert hash(x) == hash(_values(x, names))


def test_equal_fields_of_another_class_are_not_equal():
    coeffs = ONE_PLUS_X.coeffs
    assert SignedPoly(coeffs) != PosPoly(coeffs)
    assert PosPoly(coeffs) != SignedPoly(coeffs)
    assert SignedPoly(coeffs) == SignedPoly(coeffs)


def test_defaults():
    assert BipotentPresentation(Z, ()).relations == ()
    assert BipotentPresentation(Z, ()).monoid_exponents is False
    assert FreeSort("t").with_fractions is True
    assert BipotentPresentation(base=Z, generators=(), monoid_exponents=True).monoid_exponents is True
    assert FreeSort(name="t", with_fractions=False) == FreeSort("t", False)


def test_generator_table_and_m_int_stay_out_of_equality_hash_and_repr():
    g = AlgebraicGenerator(m=SQRT2.m, lo=SQRT2.lo, hi=SQRT2.hi)
    assert g.table == SQRT2.table and g.m_int == SQRT2.m_int
    object.__setattr__(g, "table", None)
    object.__setattr__(g, "m_int", None)
    assert g == SQRT2 and hash(g) == hash(SQRT2) and repr(g) == SQRT2_REPR
    with pytest.raises(TypeError):
        AlgebraicGenerator(SQRT2.m, SQRT2.lo, SQRT2.hi, SQRT2.table)
    with pytest.raises(AttributeError):
        SQRT2.table = None


def test_refined_intervals_stay_out_of_equality_hash_and_repr():
    # sign queries narrow the cached intervals; copies and pickles start from fresh ones
    g = validate_generator(SQRT2.m, (SQRT2.lo, SQRT2.hi))
    fresh = list(g.intervals)
    hard = [g.element([577, -408]), g.element([-1, 1]) ** 60, g.element([-99, 70])]

    def answers(gen):
        elems = [gen.element(e.coeffs) for e in hard]
        return [positive_at_root(e) for e in elems] + [in_layer_semifield(e.scale(-1)) for e in elems]

    expected = answers(g)
    assert expected == [True, True, False, False, False, True]  # 577/408 and 99/70 exceed √2
    assert g.intervals != fresh and g.intervals[0][2] > fresh[0][2]
    assert g == SQRT2 and hash(g) == hash(SQRT2) and repr(g) == SQRT2_REPR
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin is not g and twin == g and twin.intervals == fresh
        assert answers(twin) == expected


def test_a_presentations_entry_stays_out_of_equality_hash_and_repr():
    # a query fills the presentation's cache entry; copies and pickles start with none
    gens, rels = (Numeric(F(1, 2)), Numeric(F(1, 3)), Symbolic("g")), (Relation((0, 2, 2), F(1)),)
    queried, fresh = BipotentPresentation(Z, gens, rels), BipotentPresentation(Z, gens, rels)
    expected = (extension_rank(queried), decompose_extension(queried))
    assert queried._derived is not None and fresh._derived is None
    assert queried == fresh and hash(queried) == hash(fresh) and repr(queried) == repr(fresh)
    for twin in (copy.copy(queried), copy.deepcopy(queried), pickle.loads(pickle.dumps(queried))):
        assert twin is not queried and twin == queried and twin._derived is None
        assert (extension_rank(twin), decompose_extension(twin)) == expected


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: BipotentPresentation(Z, [Numeric(F(1))]), "generators"),
        (lambda: BipotentPresentation(Z, (Symbolic("g"),), [Relation((2,), F(1))]), "relations"),
        (lambda: Relation([2], F(1)), "exps"),
        (lambda: ValueLattice([F(1)]), "generators"),
        (lambda: SignedPoly([F(-1), F(1)]), "coeffs"),
        (lambda: PosPoly([F(1)]), "coeffs"),
    ],
    ids=["presentation-generators", "presentation-relations", "relation-exps", "lattice-generators",
         "signed-poly-coeffs", "pos-poly-coeffs"],
)
def test_tuple_fields_given_as_lists_are_refused(build, field):
    # a list field fails later instead: it cannot be hashed or joined to a tuple
    with pytest.raises(TypeError, match=field):
        build()


def test_pos_poly_keeps_its_validation():
    with pytest.raises(ValueError):
        PosPoly(())
    with pytest.raises(ValueError):
        PosPoly((F(1), F(-1)))
    assert SignedPoly(()).coeffs == ()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda flag: FreeSort("y", flag), "with_fractions"),
        (lambda flag: BipotentPresentation(Z, (), (), flag), "monoid_exponents"),
        (lambda flag: BipotentPresentation(Z, (), monoid_exponents=flag), "monoid_exponents"),
    ],
    ids=["free-sort", "presentation", "presentation-keyword"],
)
@pytest.mark.parametrize("flag", ["no", "yes", 0, 1, None], ids=repr)
def test_flag_fields_must_be_bools(build, field, flag):
    # a truthy or falsy stand-in would be carried along and answered back in place of a bool
    with pytest.raises(TypeError, match=field):
        build(flag)
    assert build(False) != build(True)


def test_every_value_class_takes_its_methods_from_value():
    from layext._record import Value

    for cls in {type(x) for x, _, _ in CASES}:
        assert issubclass(cls, Value)
        for name in ("__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__"):
            assert getattr(cls, name) is getattr(Value, name), (cls.__name__, name)
        # the one method `record` generates from source text is the constructor
        generated = {name for klass in cls.__mro__ for name, f in vars(klass).items()
                     if getattr(getattr(f, "__code__", None), "co_filename", None) == "<string>"}
        assert generated <= {"__new__"}, (cls.__name__, generated)
