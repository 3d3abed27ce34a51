import copy
import pickle
import random
import sys
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, strategies as st

import reference as R
from conftest import layered_elems, positive_rationals, rationals
from layext.tropical import ONE, ZERO, LayeredElem, ValueLattice, parse_layered


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
    # the sort map is `.layer` and the ghost (value) map is `.value`; ZERO has neither
    def test_sort_map(self):
        assert L(2, 5).layer == 2

    def test_sort_map_multiplicative(self):
        assert (L(3, 5) * L(2, 1)).layer == 6

    def test_zero_has_no_layer_and_no_value(self):
        assert ZERO.is_zero and ZERO.layer is None and ZERO.value is None
        assert not L(2, 5).is_zero

    def test_ghost_map(self):
        assert L(2, 5).value == 5
        assert (L(2, 5) + L(3, 5)).value == 5

    def test_rebuild(self):
        x = L(F(7, 2), -3)
        assert LayeredElem.make(x.layer, x.value) == x


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

    @pytest.mark.parametrize("text", ["[1/0]5", "[2]1/0", "[2/4]1", "[02]5", " [2]5", "[-1]2", "[0]2"])
    def test_parse_refuses_zero_denominators_and_non_canonical_text(self, text):
        with pytest.raises(ValueError, match="not a layered element"):
            parse_layered(text)


class TestTropValue:
    @given(layered_elems())
    def test_bottom_is_neutral_and_absorbing(self, x):
        assert ZERO + x == x
        assert x + ZERO == x
        assert (ZERO * x).is_zero
        assert (x * ZERO).is_zero
        assert (ZERO + ZERO).is_zero

    @given(layered_elems(allow_zero=False), layered_elems(allow_zero=False))
    def test_value_addition_is_bipotent(self, x, y):
        assert (x + y).value in (x.value, y.value)


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
        assert ValueLattice.of(*gens, extra).contains(extra)

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
        # ZERO's missing value stands for minus infinity
        if x.is_zero or y.is_zero:
            assert (x + y).value == (y.value if x.is_zero else x.value)
            assert (x * y).is_zero
        else:
            assert (x + y).value == max(x.value, y.value)
            assert (x * y).value == x.value + y.value

    @given(layered_elems(allow_zero=False), layered_elems(allow_zero=False))
    def test_sort_is_multiplicative(self, x, y):
        assert ONE.layer == 1
        assert (x * y).layer == x.layer * y.layer

    @given(layered_elems(allow_zero=False), st.integers(1, 12))
    def test_torsion_free(self, x, n):
        # x^n = (layer^n, n*value); it equals one only when x is one
        if x**n == ONE:
            assert x == ONE
        if x != ONE:
            assert x**n != ONE


def assert_exact(got, want):
    # each field a Fraction in lowest terms over a positive denominator, rendered and hashed as `make`'s
    assert got == want
    for f in () if got.is_zero else (got.layer, got.value):
        assert type(f) is F and f.denominator > 0 and gcd(f.numerator, f.denominator) == 1
    assert (repr(got), str(got), hash(got)) == (repr(want), str(want), hash(want))


def as_pair(e):
    return None if e.is_zero else (e.layer, e.value)


@given(layered_elems(allow_zero=False), layered_elems(allow_zero=False), st.integers(1, 8))
def test_results_equal_validated_elements(x, y, n):
    # sums, products and powers skip validation; they must match the checked constructor
    px, py = (x.layer, x.value), (y.layer, y.value)
    cases = [
        (x + y, R.pair_add(px, py)),
        (x * y, R.pair_mul(px, py)),
        (x**n, (x.layer**n, n * x.value)),
    ]
    for got, (layer, value) in cases:
        assert_exact(got, LayeredElem.make(layer, value))
        assert got.layer > 0


BIG = 2**64 + 13


@pytest.mark.parametrize("x, y, total, product", [
    # numerators and denominators above 2**64
    (L(F(BIG, 3), F(-BIG, 7)), L(F(5, BIG), F(-BIG, 7)), (F(BIG, 3) + F(5, BIG), F(-BIG, 7)),
     (F(5, 3), F(-2 * BIG, 7))),
    (L(F(BIG**2, BIG + 2), F(1, BIG)), L(F(BIG + 2, BIG), F(BIG)), (F(BIG + 2, BIG), F(BIG)),
     (F(BIG**2, BIG + 2) * F(BIG + 2, BIG), F(1, BIG) + BIG)),
    # cancelling sums and products: layers 1/2 + 1/2 on a tie, layers 2/3 * 3/2, values -1/3 + 1/3
    (L(F(1, 2), F(2, 3)), L(F(1, 2), F(2, 3)), (1, F(2, 3)), (F(1, 4), F(4, 3))),
    (L(F(2, 3), F(-1, 3)), L(F(3, 2), F(1, 3)), (F(3, 2), F(1, 3)), (1, 0)),
    (L(F(2, 3), 7), L(F(3, 2), -7), (F(2, 3), 7), (1, 0)),
])
def test_results_are_exact_at_any_size(x, y, total, product):
    for got, want in [(x + y, total), (y + x, total), (x * y, product), (y * x, product)]:
        assert_exact(got, LayeredElem.make(*want))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(layered_elems(), min_size=n, max_size=n), min_size=1, max_size=6),
    st.lists(layered_elems(), min_size=n, max_size=n),
)))
def test_matvec_fold_matches_pair_reference(mv):
    rows, v = mv
    got = []
    for row in rows:
        acc = ZERO
        for a, b in zip(row, v):
            acc = acc + a * b
        got.append(acc)
    want = R.pair_matvec([[as_pair(a) for a in row] for row in rows], [as_pair(b) for b in v])
    assert [as_pair(e) for e in got] == want


@pytest.mark.parametrize("x", [L(2, 5), ZERO], ids=["nonzero", "zero"])
@pytest.mark.parametrize("other", [1, F(1), "1", None])
def test_other_operand_types_are_refused(x, other):
    for op in (lambda: x + other, lambda: x * other, lambda: other + x, lambda: other * x):
        with pytest.raises(TypeError):
            op()


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        LayeredElem(F(0), F(1))
    with pytest.raises(ValueError):
        LayeredElem(None, F(1))
    for layer, value in [(1.5, F(2)), (F(1), 0.5), (2, F(1))]:  # Fractions only; `make` coerces
        with pytest.raises(TypeError):
            LayeredElem(layer, value)
    assert LayeredElem(None, None).is_zero


@pytest.mark.parametrize("layer, value, message", [
    (True, 1, "booleans are not rational values"),
    (2, False, "booleans are not rational values"),
    (1.5, 1, "expected an exact rational, got float"),
    (2, 0.5, "expected an exact rational, got float"),
    (2, None, "expected an exact rational, got NoneType"),
], ids=["bool-layer", "bool-value", "float-layer", "float-value", "none-value"])
def test_make_takes_exact_rationals_only(layer, value, message):
    # no floats are accepted anywhere, and True is not the rational 1
    with pytest.raises(TypeError, match=message):
        LayeredElem.make(layer, value)


def wide_elems():
    # ZERO, small fields that often tie, and numerators and denominators above 2**64
    big = st.integers(2**64, 2**66)
    layers = st.one_of(positive_rationals(), st.builds(F, big, big))
    values = st.one_of(rationals(max_num=3, max_den=2), st.builds(F, big, big),
                       st.builds(F, big.map(lambda n: -n), big))
    return st.one_of(st.just(ZERO), st.builds(LayeredElem, layers, values))


def pair_pow(x, n):
    if n == 0:
        return (F(1), F(0))
    return None if x is None else (x[0] ** n, n * x[1])


@given(wide_elems(), st.lists(st.tuples(st.sampled_from("+*^"), wide_elems(), st.integers(0, 2)), max_size=5))
def test_results_cannot_be_told_apart_from_constructed_elements(start, steps):
    r, want = start, as_pair(start)
    for op, y, n in steps:
        if op == "+":
            r, want = (r + y, R.pair_add(want, as_pair(y))) if n else (y + r, R.pair_add(as_pair(y), want))
        elif op == "*":
            r, want = r * y, R.pair_mul(want, as_pair(y))
        else:
            r, want = r**n, pair_pow(want, n)
        assert as_pair(r) == want
        built = LayeredElem(r.layer, r.value)
        assert_exact(r, built)
        assert built == r and not (r != built) and not (built != r)
        assert hash(r) == hash((r.layer, r.value))
        assert parse_layered(str(r)) == r
        assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r


@pytest.mark.parametrize("x", [L(F(7, 2), -3), ONE, ZERO], ids=["nonzero", "one", "zero"])
@pytest.mark.parametrize("name", ["layer", "value", "is_zero", "_ints", "other"])
def test_no_attribute_can_be_set_or_deleted(x, name):
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)


def test_operators_build_no_fraction():
    # a 14 x 14 A^4 x and a row/column sum, on the layers and values the layered benchmark draws from
    rng = random.Random(20)
    pool = [L(F(a, b), v) for a in range(1, 5) for b in (1, 2) for v in range(-4, 5)] + [ZERO]
    A = [[rng.choice(pool) for _ in range(14)] for _ in range(14)]
    x = [rng.choice(pool) for _ in range(14)]
    new = F.__new__.__code__
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is new:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(count)
    try:
        v = x
        for _ in range(4):
            v = [reduce(lambda acc, ab: acc + ab[0] * ab[1], zip(row, v), ZERO) for row in A]
        totals = [reduce(lambda acc, e: acc + e, (e for line in lines for e in line), ZERO) for lines in (A, zip(*A))]
    finally:
        sys.setprofile(None)
    assert calls == []
    w = [as_pair(e) for e in x]
    for _ in range(4):
        w = R.pair_matvec([[as_pair(e) for e in row] for row in A], w)
    assert [as_pair(e) for e in v] == w
    assert [as_pair(t) for t in totals] == [reduce(R.pair_add, [as_pair(e) for row in A for e in row])] * 2


@given(st.lists(rationals(), max_size=8))
def test_single_generator_generates_exactly_the_lattice(gens):
    # g >= 0, every generator is an integer multiple of g, and those integers are coprime
    g = ValueLattice.of(*gens).single_generator()
    assert type(g) is F and g >= 0
    if g == 0:
        assert not any(gens)
    else:
        ks = [x / g for x in gens]
        assert all(k.denominator == 1 for k in ks) and gcd(*(k.numerator for k in ks)) == 1
