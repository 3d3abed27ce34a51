from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import layered_elems, positive_rationals, rationals
from layext.errors import BottomValue, ZeroHasNoLayer
from layext.tropical import (
    BOTTOM,
    ONE,
    ZERO,
    LayeredElem,
    ValueLattice,
    ghost_map,
    parse_layered,
    rebuild,
    sort_map,
)


def L(layer, value):
    return LayeredElem.make(layer, value)


class TestTropAdd:
    def test_larger_value_wins(self):
        assert L(2, 5) + L(1, 3) == L(2, 5)

    def test_equal_values_sum_layers(self):
        assert L(2, 5) + L(3, 5) == L(5, 5)

    def test_zero_is_neutral(self):
        assert ZERO + L(1, 7) == L(1, 7)
        assert L(1, 7) + ZERO == L(1, 7)


class TestTropMul:
    def test_componentwise(self):
        assert L(2, 5) * L(3, 1) == L(6, 6)

    def test_identity(self):
        assert L(1, 0) * L(4, -2) == L(4, -2)
        assert ONE == L(1, 0)

    def test_zero_absorbs(self):
        assert ZERO * L(4, -2) == ZERO


class TestProjections:
    def test_sort_map(self):
        assert sort_map(L(2, 5)) == 2

    def test_sort_map_multiplicative(self):
        assert sort_map(L(3, 5) * L(2, 1)) == 6

    def test_sort_map_zero_errors(self):
        with pytest.raises(ZeroHasNoLayer):
            sort_map(ZERO)

    def test_ghost_map(self):
        assert ghost_map(L(2, 5)) == 5
        assert ghost_map(L(2, 5) + L(3, 5)) == 5
        assert ghost_map(ZERO) is BOTTOM

    def test_rebuild(self):
        assert rebuild(2, 5) == L(2, 5)
        x = L(F(7, 2), -3)
        assert rebuild(sort_map(x), ghost_map(x)) == x

    def test_rebuild_bottom_errors(self):
        with pytest.raises(BottomValue):
            rebuild(1, BOTTOM)


class TestRendering:
    def test_str(self):
        assert str(L(2, 5)) == "[2]5"
        assert str(L(F(7, 2), F(-1, 3))) == "[7/2]-1/3"
        assert str(ZERO) == "Zero"

    @given(layered_elems())
    def test_parse_round_trip(self, x):
        assert parse_layered(str(x)) == x

    def test_parse_refuses_non_ascii_digits(self):
        with pytest.raises(ValueError):
            parse_layered("[\u0663]5")

    @pytest.mark.parametrize("text", ["[1/0]5", "[2]1/0", "[2/4]1", "[02]5", " [2]5"])
    def test_parse_refuses_zero_denominators_and_non_canonical_text(self, text):
        with pytest.raises(ValueError):
            parse_layered(text)


class TestTropValue:
    @given(rationals())
    def test_bottom_is_neutral_and_absorbing(self, q):
        from layext.tropical import value_max, value_plus

        assert value_max(BOTTOM, q) == q
        assert value_max(q, BOTTOM) == q
        assert value_plus(BOTTOM, q) is BOTTOM
        assert value_plus(q, BOTTOM) is BOTTOM
        assert value_max(BOTTOM, BOTTOM) is BOTTOM

    @given(rationals(), rationals())
    def test_value_addition_is_bipotent(self, x, y):
        from layext.tropical import value_max

        assert value_max(x, y) in (x, y)


class TestLattice:
    def test_integers_contain_integers(self):
        assert ValueLattice.of(1).contains(5)

    def test_integers_exclude_halves(self):
        assert not ValueLattice.of(1).contains(F(1, 2))

    def test_sixths(self):
        # oracle: brute-force integer combinations with |k| <= 6
        target = F(1, 6)
        gens = (F(1, 2), F(1, 3))
        brute = any(
            k1 * gens[0] + k2 * gens[1] == target
            for k1 in range(-6, 7)
            for k2 in range(-6, 7)
        )
        assert brute is True
        assert ValueLattice.of(*gens).contains(target)

    @given(st.lists(rationals(), max_size=4), rationals(), st.integers(-6, 6))
    def test_members_are_detected(self, gens, extra, k):
        lat = ValueLattice.of(*gens)
        if gens:
            assert lat.contains(k * gens[0])
        assert lat.join(extra).contains(extra)

    @given(st.lists(rationals(max_num=6, max_den=4), min_size=1, max_size=3), rationals(max_num=6, max_den=4))
    def test_agrees_with_bounded_search(self, gens, q):
        from itertools import product

        lat = ValueLattice.of(*gens)
        if lat.contains(q):
            g = lat.single_generator()
            # membership implies an explicit combination exists; the single
            # generator is itself a combination, so check against it
            assert g != 0 and (q / g).denominator == 1 or q == 0
        else:
            assert not any(
                sum(k * g for k, g in zip(ks, gens)) == q
                for ks in product(range(-8, 9), repeat=len(gens))
            )


class TestLaws:
    @given(layered_elems(), layered_elems())
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    @given(layered_elems(), layered_elems(), layered_elems())
    def test_add_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(layered_elems(), layered_elems())
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(layered_elems(), layered_elems(), layered_elems())
    def test_mul_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(layered_elems(), layered_elems(), layered_elems())
    def test_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(layered_elems(allow_zero=False), layered_elems(allow_zero=False))
    def test_bipotent_on_distinct_values(self, x, y):
        if x.value != y.value:
            assert x + y in (x, y)

    @given(layered_elems(), layered_elems())
    def test_ghost_is_a_morphism(self, x, y):
        gx, gy = ghost_map(x), ghost_map(y)
        from layext.tropical import value_max, value_plus

        assert ghost_map(x + y) == value_max(gx, gy)
        assert ghost_map(x * y) == value_plus(gx, gy)

    @given(layered_elems(allow_zero=False), layered_elems(allow_zero=False))
    def test_sort_is_multiplicative(self, x, y):
        assert sort_map(ONE) == 1
        assert sort_map(x * y) == sort_map(x) * sort_map(y)

    @given(layered_elems(allow_zero=False), st.integers(1, 12))
    def test_torsion_free(self, x, n):
        # x^n = (layer^n, n*value); it equals one only when x is one
        if x**n == ONE:
            assert x == ONE
        if x != ONE:
            assert x**n != ONE


@given(layered_elems(allow_zero=False), layered_elems(allow_zero=False), st.integers(1, 8))
def test_results_equal_validated_elements(x, y, n):
    # sums, products and powers skip validation; they must match the checked constructor
    if x.value == y.value:
        total = (x.layer + y.layer, x.value)
    else:
        total = max((x.layer, x.value), (y.layer, y.value), key=lambda pair: pair[1])
    cases = [
        (x + y, total),
        (x * y, (x.layer * y.layer, x.value + y.value)),
        (x**n, (x.layer**n, n * x.value)),
    ]
    for got, (layer, value) in cases:
        want = LayeredElem.make(layer, value)
        assert got == want and hash(got) == hash(want)
        assert got.layer > 0


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        LayeredElem(F(0), F(1))
    with pytest.raises(ValueError):
        LayeredElem(None, F(1))
    for layer, value in [(1.5, F(2)), (F(1), 0.5), (2, F(1))]:  # Fractions only; `make` coerces
        with pytest.raises(TypeError):
            LayeredElem(layer, value)
    assert LayeredElem(None, None).is_zero
