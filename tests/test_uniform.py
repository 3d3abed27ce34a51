import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference as R
from conftest import positive_rationals, rationals
from layext import bipotent
from layext import intlinalg as la
from layext.bipotent import BipotentPresentation, Numeric, Relation, Symbolic, extension_rank
from layext.cancellative import PosPoly, SignedPoly, validate_generator
from layext.errors import DescriptorMismatch, LayerNotInBase, ValueNotInBase
from layext.tropical import ZERO, LayeredElem, ValueLattice
from layext.uniform import (
    AlgebraicSort,
    BaseSort,
    ExtScalar,
    FreeLayer,
    FreeSort,
    LayeredPoly,
    UniformDescriptor,
    base_descriptor,
    essential_indices,
    eval_layered_poly,
    is_layerset_semiring,
    is_uniform_semifield,
    pure_layer_ext,
    pure_value_ext,
    sort_contains,
    uniform_closure,
    value_group_contains,
)

SQRT2 = validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))
H = base_descriptor()
Z = ValueLattice.of(1)


def unit_poly():
    one = LayeredElem.make(1, 0)
    return LayeredPoly.of([(0, one), (1, one), (2, one)])


def layered_polys(max_deg=6):
    coeffs = st.builds(LayeredElem, positive_rationals(), rationals())
    return st.dictionaries(st.integers(0, max_deg), coeffs, min_size=1, max_size=5).map(
        lambda d: LayeredPoly.of(d.items())
    )


def rational_scalars():
    return st.builds(ExtScalar, positive_rationals(), rationals())


class TestEssentialAndEval:
    def test_all_terms_essential_at_zero(self):
        assert essential_indices(unit_poly(), R.scalar(3, 0)) == (0, 1, 2)

    def test_top_term_dominates(self):
        assert essential_indices(unit_poly(), R.scalar(3, 1)) == (2,)

    def test_single_term(self):
        f = LayeredPoly.of([(3, LayeredElem.make(2, 5))])
        assert essential_indices(f, R.scalar(7, -2)) == (3,)

    def test_eval_layer_13(self):
        layer, value = eval_layered_poly(unit_poly(), R.scalar(3, 0))
        assert (layer, value) == (13, 0)

    def test_eval_single_essential(self):
        layer, value = eval_layered_poly(unit_poly(), R.scalar(3, 1))
        assert (layer, value) == (9, 2)

    def test_eval_constant(self):
        f = LayeredPoly.of([(0, LayeredElem.make(2, 5))])
        assert eval_layered_poly(f, R.scalar(7, 100)) == (2, 5)

    def test_eval_algebraic_layer(self):
        f = unit_poly()
        a = ExtScalar(SQRT2.xbar(), F(0))
        layer, value = eval_layered_poly(f, a)
        # 1 + s + s^2 at s = sqrt(2): 3 + sqrt(2)
        assert layer == SQRT2.element([3, 1])
        assert value == 0

    def test_eval_free_layer(self):
        f = unit_poly()
        a = ExtScalar(FreeLayer("y", R.monomial()), F(0))
        layer, value = eval_layered_poly(f, a)
        assert layer == FreeLayer("y", PosPoly.of({0: 1, 1: 1, 2: 1}))

    def test_eval_free_layer_scales_by_coefficient_layers(self):
        # 2 + 3·y^2 from the layers 2 and 3 of the two essential terms; the middle term is not essential
        f = LayeredPoly.from_triples([(2, 0, 0), (5, -1, 1), (3, 0, 2)])
        a = ExtScalar(FreeLayer("y", R.monomial()), F(0))
        layer, value = eval_layered_poly(f, a)
        assert (layer, value) == (FreeLayer("y", PosPoly.of({0: 2, 2: 3})), 0)

    def test_free_layers_add_in_one_symbol_only(self):
        y, y2 = FreeLayer("y", R.monomial()), FreeLayer("y", PosPoly.constant(2))
        assert y + y2 == FreeLayer("y", PosPoly.of({0: 2, 1: 1}))
        with pytest.raises(DescriptorMismatch):
            y + FreeLayer("z", R.monomial())

    def test_symbolic_value_rejected(self):
        with pytest.raises(DescriptorMismatch):
            eval_layered_poly(unit_poly(), ExtScalar(F(3), "w"))

    def test_terms_out_of_exponent_order_are_refused(self):
        # a second order of the same terms would be a second, unequal polynomial with reordered essential exponents
        x, y = LayeredElem.make(1, 0), LayeredElem.make(1, -2)
        assert essential_indices(LayeredPoly.of([(2, x), (0, y)]), R.scalar(1, -1)) == (0, 2)
        for terms in [((2, x), (0, y)), ((1, x), (1, y)), ((-1, x),)]:
            with pytest.raises(ValueError, match="strictly increasing"):
                LayeredPoly(terms)

    def test_ties_match_a_fraction_reference(self):
        # exponents 0, 2 and 5 tie at the top value -5/6, with numerators and denominators above 2**64
        big = 2**64 + 13
        nu, top = F(big, 7), F(-5, 6)
        triples = [(F(2, 3), top, 0), (F(big, 5), top - nu - F(1, big), 1), (F(7), top - 2 * nu, 2),
                   (F(1, big), top - 5 * nu, 5), (F(3), top - 6 * nu - F(1, 3), 6)]
        f, a = LayeredPoly.from_triples(triples), R.scalar(F(3, 2), nu)
        values = [v + e * nu for _, v, e in triples]
        best = max(values)
        ess = [e for (_, _, e), v in zip(triples, values) if v == best]
        assert best == top and ess == [0, 2, 5]
        assert essential_indices(f, a) == tuple(ess)
        assert eval_layered_poly(f, a) == (sum(l * a.layer**e for l, _, e in triples if e in ess), best)

    @given(layered_polys(), rational_scalars())
    def test_value_ignores_layers(self, f, a):
        # the evaluated value only depends on the scalar's value
        _, value = eval_layered_poly(f, a)
        _, value2 = eval_layered_poly(f, ExtScalar(F(1), a.value))
        assert value == value2

    @given(layered_polys(), rational_scalars())
    def test_layer_is_polynomial_in_scalar_layer(self, f, a):
        # reconstruct the essential layer polynomial and evaluate it independently
        layer, _ = eval_layered_poly(f, a)
        g = R.essential_layer_poly(f, a)
        assert layer == sum(c * a.layer**e for e, c in g.items())


class TestPureExtensions:
    def test_pure_layer_adds_algebraic_sort(self):
        a = ExtScalar(SQRT2.xbar(), F(0))
        E = pure_layer_ext(H, a)
        assert E == UniformDescriptor(AlgebraicSort(SQRT2), H.value_part)

    def test_pure_layer_rational_layer_unchanged(self):
        assert pure_layer_ext(H, R.scalar(2, 0)) == H

    def test_pure_layer_requires_base_value(self):
        with pytest.raises(ValueNotInBase):
            pure_layer_ext(H, ExtScalar(SQRT2.xbar(), F(1, 2)))

    def test_pure_value_adds_generator(self):
        E = pure_value_ext(H, R.scalar(2, F(1, 2)))
        assert E == UniformDescriptor(BaseSort(), BipotentPresentation(Z, (Numeric.of("1/2"),)))

    def test_pure_value_integer_unchanged(self):
        assert pure_value_ext(H, R.scalar(2, 3)) == H

    def test_pure_value_requires_base_layer(self):
        with pytest.raises(LayerNotInBase):
            pure_value_ext(H, ExtScalar(SQRT2.xbar(), F(1, 2)))

    def test_pure_extensions_are_uniform(self):
        # outputs are fixed points of the closure by the same scalar
        a = ExtScalar(SQRT2.xbar(), F(0))
        E = pure_layer_ext(H, a)
        assert uniform_closure(E, a) == E
        b = R.scalar(2, F(1, 2))
        E2 = pure_value_ext(H, b)
        assert uniform_closure(E2, b) == E2


class TestClosure:
    def test_closure_of_sqrt2_half(self):
        a = ExtScalar(SQRT2.xbar(), F(1, 2))
        C = uniform_closure(H, a)
        expected = UniformDescriptor(
            AlgebraicSort(SQRT2), BipotentPresentation(Z, (Numeric.of("1/2"),))
        )
        assert C == expected
        assert is_uniform_semifield(C)

    def test_closure_nothing_to_add(self):
        assert uniform_closure(H, R.scalar(2, 3)) == H

    def test_closure_idempotent(self):
        a = ExtScalar(SQRT2.xbar(), F(1, 2))
        C = uniform_closure(H, a)
        assert uniform_closure(C, a) == C

    def test_order_independence(self):
        a = ExtScalar(SQRT2.xbar(), F(1, 2))
        layer_first = pure_value_ext(
            pure_layer_ext(H, ExtScalar(a.layer, F(0))), R.scalar(1, a.value)
        )
        value_first = pure_layer_ext(
            pure_value_ext(H, R.scalar(1, a.value)), ExtScalar(a.layer, F(0))
        )
        assert layer_first == value_first == uniform_closure(H, a)

    def test_closure_minimality(self):
        a = ExtScalar(SQRT2.xbar(), F(1, 2))
        C = uniform_closure(H, a)
        # value part generated by the base and the scalar value only
        assert C.value_part.generators == (Numeric(F(1, 2)),)
        assert C.value_part.base == Z
        # sort part generated by the scalar layer only
        assert C.sort_part == AlgebraicSort(SQRT2)

    def test_closure_by_a_free_layer(self):
        y = FreeLayer("y", PosPoly.of({0: 1, 1: F(1, 2)}))
        a = ExtScalar(y, F(1, 2))
        C = uniform_closure(H, a)
        assert C == UniformDescriptor(FreeSort("y"), BipotentPresentation(Z, (Numeric.of("1/2"),)))
        assert sort_contains(C.sort_part, y)
        assert not sort_contains(C.sort_part, FreeLayer("z", R.monomial()))
        assert uniform_closure(C, a) == C

    @pytest.mark.parametrize("sort, layer", [
        (AlgebraicSort(SQRT2), FreeLayer("y", R.monomial())),
        (FreeSort("y"), FreeLayer("z", R.monomial())),
        (FreeSort("y"), SQRT2.xbar()),
    ])
    def test_second_sort_step_is_refused(self, sort, layer):
        with pytest.raises(DescriptorMismatch):
            uniform_closure(UniformDescriptor(sort, H.value_part), ExtScalar(layer, F(0)))

    def test_closure_with_symbolic_value(self):
        a = ExtScalar(F(2), "w")
        C = uniform_closure(H, a)
        assert C.value_part.generators == (Symbolic("w"),)
        assert uniform_closure(C, a) == C

    @pytest.mark.parametrize("name", ["1", "", "1/2", "a b", 3, None])
    def test_symbol_names_are_identifiers(self, name):
        for make in (lambda: FreeSort(name), lambda: FreeLayer(name, R.monomial()), lambda: ExtScalar(F(2), name)):
            with pytest.raises((ValueError, TypeError)):
                make()

    @given(st.lists(st.tuples(positive_rationals(), rationals()), min_size=1, max_size=4))
    def test_closure_laws_random(self, pairs):
        D = H
        for lay, val in pairs:
            a = ExtScalar(lay, val)
            D1 = uniform_closure(D, a)
            assert uniform_closure(D1, a) == D1
            # contains the scalar: layer in sort part, value in value group
            from layext.uniform import sort_contains, value_group_contains

            assert sort_contains(D1.sort_part, a.layer)
            assert value_group_contains(D1.value_part, a.value)
            D = D1


class TestLayeredElemClosureLaws:
    @given(positive_rationals(), positive_rationals(), rationals(), rationals())
    def test_unit_distributes_over_value_sum(self, s, t, va, vb):
        unit_s = LayeredElem(s, F(0))
        a = LayeredElem(F(1), va)
        b = LayeredElem(F(1), vb)
        assert unit_s * (a + b) == unit_s * a + unit_s * b
        assert (LayeredElem(s, F(0)) + LayeredElem(t, F(0))) * a == unit_s * a + LayeredElem(t, F(0)) * a


class TestLayersetSemiring:
    def test_base_value_is_semiring(self):
        assert is_layerset_semiring(H, ExtScalar(SQRT2.xbar(), F(0)))
        assert is_layerset_semiring(H, R.scalar(2, 3))

    def test_torsion_value_is_not(self):
        assert not is_layerset_semiring(H, ExtScalar(SQRT2.xbar(), F(1, 2)))

    def test_symbolic_value_is_not(self):
        assert not is_layerset_semiring(H, ExtScalar(SQRT2.xbar(), "w"))
        assert not is_layerset_semiring(H, ExtScalar(F(2), F(1, 3)))

    def test_matches_value_group_criterion(self):
        rng = random.Random(99)
        for _ in range(30):
            val = F(rng.randint(-8, 8), rng.randint(1, 6))
            a = ExtScalar(F(rng.randint(1, 5)), val)
            assert is_layerset_semiring(H, a) == (val.denominator == 1)


class TestUniformSemifield:
    def test_closure_is_semifield(self):
        C = uniform_closure(H, ExtScalar(SQRT2.xbar(), F(1, 2)))
        assert is_uniform_semifield(C)

    def test_free_value_generator_is_not(self):
        D = UniformDescriptor(BaseSort(), BipotentPresentation(Z, (Symbolic("g"),)))
        assert not is_uniform_semifield(D)
        assert extension_rank(D.value_part) == float("inf")

    def test_base_is_semifield(self):
        assert is_uniform_semifield(H)

    def test_free_sort_needs_fractions(self):
        with_frac = UniformDescriptor(FreeSort("y", with_fractions=True), H.value_part)
        without = UniformDescriptor(FreeSort("y", with_fractions=False), H.value_part)
        assert is_uniform_semifield(with_frac)
        assert not is_uniform_semifield(without)


class TestValueGroup:
    @given(
        st.lists(positive_rationals(), max_size=2),
        st.lists(st.one_of(rationals(), st.sampled_from(["g", "h"])), max_size=4, unique=True),
        st.one_of(rationals(), st.sampled_from(["g", "h"])),
    )
    def test_membership_agrees_with_the_joined_lattice(self, base, gens, value):
        P = BipotentPresentation(
            ValueLattice(tuple(base)), tuple(Symbolic(g) if isinstance(g, str) else Numeric(g) for g in gens))
        if isinstance(value, str):
            want = value in gens
        else:
            want = ValueLattice.of(*base, *(g for g in gens if not isinstance(g, str))).contains(value)
        assert value_group_contains(P, value) is want

    def test_base_descriptor_is_one_immutable_value(self):
        assert base_descriptor() is base_descriptor()
        assert base_descriptor() == UniformDescriptor(BaseSort(), BipotentPresentation(ValueLattice.of(1), ()))
        with pytest.raises(AttributeError):
            base_descriptor().value_part = None

    def test_numeric_tower_derives_one_congruence_per_step_and_no_basis(self, monkeypatch):
        # each closure reads the entry its value part's semifield and rank queries left; the base
        # descriptor's value part keeps its entry for the process, so it is derived before counting
        calls = {"echelon": 0, "congruence_hnf": 0, "congruence": 0}

        def count(module, name, key):
            fn = getattr(module, name)

            def counted(*args):
                calls[key] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        extension_rank(base_descriptor().value_part)
        count(la, "_echelon", "echelon")
        count(la, "congruence_hnf", "congruence_hnf")
        count(bipotent, "_cleared", "congruence")
        D, parts = base_descriptor(), [base_descriptor().value_part]
        for value, rank in [("1/2", 2), ("1/3", 6), ("-2/5", 30), ("3/7", 210)]:
            D = uniform_closure(D, R.scalar(2, value))
            parts.append(D.value_part)
            assert is_uniform_semifield(D)
            assert extension_rank(D.value_part) == rank
        assert len({id(P) for P in parts}) == 5
        assert calls == {"echelon": 0, "congruence_hnf": 0, "congruence": 4}


class TestNuIdentity:
    @given(layered_polys(), rational_scalars())
    def test_value_of_eval_equals_eval_of_value(self, f, a):
        # evaluating at the scalar or at its value-only image gives the same value
        _, v1 = eval_layered_poly(f, a)
        _, v2 = eval_layered_poly(f, ExtScalar(F(1), a.value))
        assert v1 == v2

    @given(layered_polys(), rational_scalars())
    def test_eval_matches_term_by_term_expansion(self, f, a):
        # independent oracle: expand f(a) with plain layered arithmetic
        from layext.tropical import ZERO

        acc = ZERO
        for e, c in f.terms:
            acc = acc + LayeredElem(c.layer * a.layer**e, c.value + e * a.value)
        layer, value = eval_layered_poly(f, a)
        assert (acc.layer, acc.value) == (layer, value)


class TestDegenerateLayers:
    def test_constant_algebraic_layer_is_base(self):
        from layext.uniform import extend_sort, sort_contains

        const = SQRT2.element([3])
        assert sort_contains(BaseSort(), const)
        assert extend_sort(BaseSort(), const) == BaseSort()
        # closing over a constant-layer scalar does not grow the sort part
        a = ExtScalar(const, F(0))
        assert uniform_closure(H, a) == H

    def test_constant_free_layer_is_base(self):
        from layext.uniform import sort_contains

        assert sort_contains(BaseSort(), FreeLayer("y", PosPoly.constant(2)))


C = LayeredElem.make(2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Relation.of((2.5,), 1),
        lambda: Relation.of((True,), 1),
        lambda: Relation((2.5,), F(1)),
        lambda: LayeredPoly.of([(1.5, C)]),
        lambda: LayeredPoly.of([(True, C)]),
        lambda: LayeredPoly(((1.5, C),)),
        lambda: SignedPoly.of({1.5: 1}),
        lambda: PosPoly.of({True: 1}),
        lambda: PosPoly.of({2.5: 1}),
        lambda: C ** True,
        lambda: SQRT2.xbar() ** True,
        lambda: SQRT2.xbar() ** 1.5,
        lambda: SQRT2.xbar() ** -1.5,
        lambda: PosPoly.of({1: 1}) ** True,
        lambda: PosPoly.of({1: 1}) ** 1.5,
        lambda: FreeLayer("t", PosPoly.of({1: 1})) ** True,
    ],
    ids=[
        "relation-float", "relation-bool", "relation-direct", "layered-poly-float", "layered-poly-bool",
        "layered-poly-direct", "signed-poly-float", "pos-poly-bool", "pos-poly-x-float", "layered-elem-pow-bool",
        "ext-elem-pow-bool", "ext-elem-pow-float", "ext-elem-pow-negative-float", "pos-poly-pow-bool",
        "pos-poly-pow-float", "free-layer-pow-bool",
    ],
)
def test_non_int_exponents_and_degrees_are_refused(build):
    # truncating 2.5 to 2 or reading True as 1 would answer for another input
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "x",
    [SQRT2.xbar(), PosPoly.of({1: 1}), FreeLayer("t", PosPoly.of({1: 1}))],
    ids=["ext-elem", "pos-poly", "free-layer"],
)
@pytest.mark.parametrize("other", [1, F(1), "1", None, C], ids=["int", "fraction", "str", "none", "layered"])
def test_other_operand_types_are_refused(x, other):
    for op in (lambda: x + other, lambda: x * other, lambda: other + x, lambda: other * x):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ExtScalar(F(0), F(1)), ValueError, "scalar layer must be positive"),
        (lambda: ExtScalar(F(-1, 2), F(1)), ValueError, "scalar layer must be positive"),
        (lambda: ExtScalar(2, F(1)), TypeError, "scalar layer must be rational, algebraic or free"),
        (lambda: ExtScalar(None, F(1)), TypeError, "scalar layer must be rational, algebraic or free"),
        (lambda: LayeredPoly(()), ValueError, "at least one term"),
        (lambda: LayeredPoly.of([]), ValueError, "at least one term"),
        (lambda: LayeredPoly(((0, C), (1, ZERO))), ValueError, "zero coefficients are not stored"),
        (lambda: sort_contains(BaseSort(), 2), TypeError, "not a layer"),
        (lambda: sort_contains(AlgebraicSort(SQRT2), C), TypeError, "not a layer"),
    ],
    ids=["scalar-layer-zero", "scalar-layer-negative", "scalar-layer-int", "scalar-layer-none", "poly-empty",
         "poly-of-empty", "poly-zero-coefficient", "sort-contains-int", "sort-contains-layered-elem"],
)
def test_malformed_scalars_polynomials_and_layers_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("coeff", [5, F(5), None, (1, 5)], ids=["int", "fraction", "none", "pair"])
def test_layered_poly_coefficients_are_layered_elements(coeff):
    with pytest.raises(TypeError, match="LayeredElem"):
        LayeredPoly.of([(1, coeff)])
