import copy
import math
import pickle
import random
import sys
import threading
import time
from decimal import Decimal, localcontext
from fractions import Fraction as F
from functools import lru_cache, reduce

import pytest
from hypothesis import given, strategies as st

import reference as R
from conftest import positive_rationals
from layext import cancellative, polys
from layext.cancellative import (
    AlgebraicGenerator,
    ExtElem,
    PosPoly,
    SignedPoly,
    in_layer_semifield,
    kernel_contains,
    positive_at_root,
    validate_generator,
)
from layext.errors import (
    AllPositiveCoefficients,
    DegreeTooLarge,
    GeneratorMismatch,
    IntervalNotIsolating,
    NoPositiveRoot,
    Reducible,
    TrivialExtension,
    ZeroElement,
)
from layext.cancellative import _REFINE_STEPS
from layext.uniform import ExtScalar, FreeLayer

SQRT2 = validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))
CBRT2 = validate_generator(SignedPoly.of({3: 1, 0: -2}), (1, 2))
GOLDEN = validate_generator(SignedPoly.of({2: 1, 1: -1, 0: -1}), (1, 2))
MODULI = [SQRT2, CBRT2, GOLDEN]


def pos_polys(max_deg=4):
    return st.dictionaries(
        st.integers(0, max_deg), positive_rationals(max_num=9, max_den=4), min_size=1, max_size=4
    ).map(PosPoly.of)


def ext_elems(gen):
    return st.lists(
        st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
        min_size=gen.n,
        max_size=gen.n,
    ).map(lambda cs: ExtElem(gen, tuple(cs)))


class TestDiffSplit:
    def test_square_minus_two(self):
        plus, minus = R.diff_split(SQRT2.m)
        assert (str(plus), str(minus)) == ("x^2", "2")

    def test_cubic(self):
        plus, minus = R.diff_split(SignedPoly.of({3: 1, 1: -3, 0: 1}))
        assert (str(plus), str(minus)) == ("x^3 + 1", "3*x")

    def test_single_sign_rejected(self):
        with pytest.raises(ValueError):
            R.diff_split(SignedPoly.of({2: 1, 0: 1}))

    @given(
        st.dictionaries(st.integers(0, 5), st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 4)), min_size=2, max_size=5)
    )
    def test_round_trip(self, terms):
        m = SignedPoly.of(terms)
        signs = {c > 0 for _, c in m.terms}
        if len(signs) < 2:
            with pytest.raises(ValueError):
                R.diff_split(m)
            return
        plus, minus = R.diff_split(m)
        assert R.diff(plus, minus) == m
        assert not ({d for d, _ in plus.terms} & {d for d, _ in minus.terms})


class TestValidateGenerator:
    def test_sqrt2_valid(self):
        assert SQRT2.n == 2
        assert SQRT2.m.degree == 2
        assert CBRT2.n == 3

    def test_reducible(self):
        with pytest.raises(Reducible):
            validate_generator(SignedPoly.of({2: 1, 1: -3, 0: 2}), (1, 2))

    def test_no_positive_root(self):
        with pytest.raises(AllPositiveCoefficients):
            validate_generator(SignedPoly.of({2: 1, 0: 1}), (1, 2))
        with pytest.raises(NoPositiveRoot):
            validate_generator(SignedPoly.of({2: 1, 1: -1, 0: 1}), (1, 2))

    def test_interval_not_isolating(self):
        with pytest.raises(IntervalNotIsolating):
            validate_generator(SignedPoly.of({2: 1, 0: -2}), (2, 3))
        with pytest.raises(IntervalNotIsolating):
            validate_generator(SignedPoly.of({2: 1, 0: -2}), (-1, 2))

    def test_degree_one_rejected(self):
        with pytest.raises(TrivialExtension):
            validate_generator(SignedPoly.of({1: 1, 0: -2}), (1, 3))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            validate_generator(SignedPoly.of({2: 2, 0: -2}), (1, 2))

    @pytest.mark.parametrize("m, interval, error", [
        ({2: 1, 1: -3, 0: 2}, (1, 2), Reducible),
        ({2: 1, 0: 1}, (1, 2), AllPositiveCoefficients),
        ({2: 1, 1: -1, 0: 1}, (1, 2), NoPositiveRoot),
        ({2: 1, 0: -2}, (2, 3), IntervalNotIsolating),
        ({2: 1, 0: -2}, (-1, 2), IntervalNotIsolating),
        ({1: 1, 0: -2}, (1, 3), TrivialExtension),
        ({2: 2, 0: -2}, (1, 2), ValueError),
        ({18: 1, 9: -5, 0: 6}, (1, 2), Reducible),
        ({32: 1, 0: -2}, (1, 2), DegreeTooLarge),
    ])
    def test_the_constructor_checks_what_validate_generator_checks(self, m, interval, error):
        m = SignedPoly.of(m)
        for build in (lambda: validate_generator(m, interval),
                      lambda: AlgebraicGenerator(m, F(interval[0]), F(interval[1]))):
            with pytest.raises(error) as caught:
                build()
            assert type(caught.value) is error

    @pytest.mark.parametrize("lo, hi", [(1, F(2)), (F(1), 2), (1.0, F(2)), ("1", "2")])
    def test_the_constructor_takes_fraction_ends_only(self, lo, hi):
        with pytest.raises(TypeError):
            AlgebraicGenerator(SQRT2.m, lo, hi)

    def test_copies_are_checked_again(self):
        assert copy.copy(SQRT2) == SQRT2 == pickle.loads(pickle.dumps(SQRT2))
        broken = copy.copy(SQRT2)
        object.__setattr__(broken, "lo", F(3, 2))  # (3/2, 2) holds no root of x^2 - 2
        with pytest.raises(IntervalNotIsolating):
            copy.copy(broken)
        with pytest.raises(IntervalNotIsolating):
            pickle.loads(pickle.dumps(broken))


class TestArithmetic:
    def test_one_plus_root_squared(self):
        e = SQRT2.one() + SQRT2.xbar()
        assert (e * e).coeffs == (F(3), F(2))

    def test_root_squared(self):
        assert (SQRT2.xbar() * SQRT2.xbar()).coeffs == (F(2), F(0))

    def test_identity(self):
        e = SQRT2.element([F(1, 3), F(-5, 7)])
        assert e * SQRT2.one() == e
        assert e + SQRT2.element([]) == e

    def test_componentwise_addition(self):
        got = SQRT2.element([1, 1]) + SQRT2.element([2, 1])
        assert got.coeffs == (F(3), F(2))
        assert R.in_cone(got)

    def test_inverse_of_one(self):
        assert SQRT2.one().inverse() == SQRT2.one()

    def test_inverse_of_root(self):
        assert SQRT2.xbar().inverse().coeffs == (F(0), F(1, 2))

    def test_inverse_of_one_plus_root(self):
        inv = (SQRT2.one() + SQRT2.xbar()).inverse()
        assert inv.coeffs == (F(-1), F(1))

    def test_cubic_elements_print_their_square_terms(self):
        assert str(CBRT2.element([1, 0, 1])) == "1 + X^2"
        assert str(CBRT2.element([0, 2, F(1, 2)])) == "2*X + 1/2*X^2"
        assert str(CBRT2.element([0, 0, -3])) == "-3*X^2"

    def test_negative_coefficients_print_as_differences(self):
        assert str(CBRT2.element([1, 0, -3])) == "1 - 3*X^2"
        assert str(CBRT2.element([-1, -2])) == "-1 - 2*X"
        assert str(CBRT2.element([F(-1, 2), -1, 1])) == "-1/2 - X + X^2"
        assert str(CBRT2.element([])) == "0"

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroElement):
            SQRT2.element([]).inverse()

    def test_generator_mismatch(self):
        with pytest.raises(GeneratorMismatch):
            SQRT2.one() + CBRT2.one()

    @given(st.sampled_from(MODULI), st.data())
    def test_field_laws(self, gen, data):
        a = data.draw(ext_elems(gen))
        b = data.draw(ext_elems(gen))
        c = data.draw(ext_elems(gen))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == gen.one()

    @given(st.sampled_from(MODULI), st.data())
    def test_addition_is_cancellative(self, gen, data):
        a = data.draw(ext_elems(gen))
        b = data.draw(ext_elems(gen))
        c = data.draw(ext_elems(gen))
        if a + c == b + c:
            assert a == b


def fold_product(x, k, one):
    """Reference power: k successive products, no squaring."""
    out = one
    for _ in range(k):
        out = out * x
    return out


class TestPowers:
    @given(st.sampled_from(MODULI), st.data(), st.integers(0, 20))
    def test_power_is_repeated_product(self, gen, data, k):
        e = data.draw(ext_elems(gen))
        assert e ** k == fold_product(e, k, gen.one())

    @given(st.sampled_from(MODULI), st.data(), st.integers(-20, -1))
    def test_negative_power_is_power_of_inverse(self, gen, data, k):
        e = data.draw(ext_elems(gen))
        if e.is_zero:
            with pytest.raises(ZeroElement):
                e ** k
            return
        assert e ** k == e.inverse() ** -k
        assert e ** k * e ** -k == gen.one()

    @given(pos_polys(max_deg=3), st.integers(0, 6))
    def test_pos_poly_power_is_repeated_product(self, p, k):
        assert p ** k == fold_product(p, k, PosPoly.constant(1))

    def test_pos_poly_negative_power_rejected(self):
        with pytest.raises(ValueError):
            R.monomial() ** -1


def positive_root_interval(m):
    """(lo, hi) around the one positive root of a monic m with m(0) < 0 and one sign change, by bisection."""
    def value(x):
        acc = F(0)
        for c in reversed(m):
            acc = acc * x + c
        return acc

    lo, hi = F(0), F(1)
    while value(hi) <= 0:
        hi *= 2
    while lo == 0 or hi - lo > F(1, 8):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if value(mid) < 0 else (lo, mid)
    return lo, hi


def eisenstein_scaled(n, s):
    """f(s·x)/s^n for f = x^n + ... - 6, Eisenstein at 2 with one sign change: monic, irreducible, over Q."""
    f = [F(-6)] + [F(2 * (i % 3)) * (1 if 2 * i >= n else -1) for i in range(1, n)] + [F(1)]
    return [c * F(s) ** (i - n) for i, c in enumerate(f)]


def generator(m):
    return validate_generator(SignedPoly.from_coeffs(m), positive_root_interval(m))


# degrees 2-7; the scaled ones and x^2 - x/2 - 1/3 have non-integer coefficients,
# so their reduction tables have a denominator D > 1
KERNEL_GENS = [generator([F(-1, 3), F(-1, 2), F(1)])] + [
    generator(eisenstein_scaled(n, s))
    for n, s in [(2, 1), (3, F(2, 3)), (4, F(3, 2)), (5, 1), (5, F(1, 2)), (6, F(2, 3)), (7, F(3, 2)), (7, 1)]
]


def ref_mul(a, b, m):
    """Schoolbook product on Fractions, reduced top-down by the monic m."""
    n = len(m) - 1
    prod = [F(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        for i, mi in enumerate(m):
            prod[k - n + i] -= c * mi
    return tuple(prod[:n])


def ref_inverse(a, m):
    """Gauss-Jordan on Fractions: the y with a·y = 1, columns of the system a·x^j."""
    n = len(m) - 1
    cols = [ref_mul(a, tuple(F(int(i == j)) for i in range(n)), m) for j in range(n)]
    rows = [[cols[j][i] for j in range(n)] + [F(int(i == 0))] for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return tuple(row[n] for row in rows)


def ref_pow(a, k, m):
    if k < 0:
        a, k = ref_inverse(a, m), -k
    out = tuple(F(int(i == 0)) for i in range(len(m) - 1))
    for _ in range(k):
        out = ref_mul(out, a, m)
    return out


class TestIntegerKernels:
    """Products, powers and inverses on integers against Fraction references written here."""

    def test_tables_with_non_integer_denominators(self):
        dens = [gen.table[0] for gen in KERNEL_GENS]
        assert sorted({gen.n for gen in KERNEL_GENS}) == [2, 3, 4, 5, 6, 7]
        assert dens[0] == 6 and sum(d > 1 for d in dens) >= 5
        assert all(len(gen.table[1]) == gen.n - 1 for gen in KERNEL_GENS)

    def test_table_takes_no_part_in_equality_or_repr(self):
        gen = KERNEL_GENS[0]
        again = validate_generator(gen.m, (gen.lo, gen.hi))
        assert again == gen and hash(again) == hash(gen) and again.table == gen.table
        assert "table" not in repr(gen)

    @given(st.sampled_from(KERNEL_GENS), st.data(), st.integers(-5, 60))
    def test_against_schoolbook(self, gen, data, k):
        m = gen.m.coeffs
        a = data.draw(ext_elems(gen))
        b = data.draw(ext_elems(gen))
        prod = a * b
        assert prod.coeffs == ref_mul(a.coeffs, b.coeffs, m)
        assert all(type(c) is F for c in prod.coeffs)
        assert (a ** 0) == gen.one() and (a ** 1) == a
        if a.is_zero:
            with pytest.raises(ZeroElement):
                a.inverse()
            if k < 0:
                with pytest.raises(ZeroElement):
                    a ** k
            else:
                assert (a ** k).coeffs == ref_pow(a.coeffs, k, m)
            return
        assert a.inverse().coeffs == ref_inverse(a.coeffs, m)
        assert (a ** k).coeffs == ref_pow(a.coeffs, k, m)

    def test_mismatched_generators_raise(self):
        a, b = KERNEL_GENS[0], KERNEL_GENS[1]
        with pytest.raises(GeneratorMismatch):
            a.xbar() * b.xbar()
        with pytest.raises(GeneratorMismatch):
            SQRT2.xbar() * validate_generator(SQRT2.m, (1, F(3, 2))).xbar()

    def test_zero_has_no_inverse_in_any_degree(self):
        for gen in KERNEL_GENS:
            with pytest.raises(ZeroElement):
                gen.element([]).inverse()
            with pytest.raises(ZeroElement):
                gen.element([]) ** -1


def test_validation_builds_one_sturm_chain(monkeypatch):
    # also with two positive roots, whose other root is isolated on the same chain
    calls = []
    build = polys.sturm_chain
    monkeypatch.setattr(polys, "sturm_chain", lambda p: calls.append(p) or build(p))
    validate_generator(SignedPoly.of({3: 1, 1: -3, 0: -1}), (1, 2))
    assert len(calls) == 1
    assert len(validate_generator(SignedPoly.of({2: 1, 1: -3, 0: 1}), (2, 3)).intervals) == 2
    assert len(calls) == 2


# (x-1)(x-2)(x-3)(x-4) + 1/2 has four positive roots, near 1.10, 1.76, 3.24 and 3.90;
# x^4 - 10x^2 + 1 has two, near 0.32 and 3.15
@pytest.mark.parametrize("m, interval, roots, evaluations", [
    ({4: 1, 3: -10, 2: 35, 1: -50, 0: F(49, 2)}, (F(7, 2), 4), 4, 5),
    ({4: 1, 3: -10, 2: 35, 1: -50, 0: F(49, 2)}, (1, F(3, 2)), 4, 9),
    ({4: 1, 2: -10, 0: 1}, (3, 4), 2, 3),
], ids=["four-roots-top", "four-roots-bottom", "two-roots"])
def test_validation_evaluates_the_sturm_chain_once_per_point(monkeypatch, m, interval, roots, evaluations):
    # 0, lo and hi once each, then one midpoint per bisection that splits two or more roots;
    # the search above hi starts from the variations at +infinity, with no evaluation
    calls = []
    evaluate = polys._variations_at
    monkeypatch.setattr(polys, "_variations_at", lambda chain, *x: calls.append(x) or evaluate(chain, *x))
    gen = validate_generator(SignedPoly.of(m), interval)
    assert len(gen.intervals) == gen.positive_roots == roots
    assert len(calls) == evaluations


def test_sign_and_kernel_queries_reuse_the_cleared_minimal_polynomial(monkeypatch):
    # m = x^2 - x/2 - 1/3 has denominators; its integer form is built once, at validation
    gen = KERNEL_GENS[0]

    def refuse(p):
        raise AssertionError("the minimal polynomial was cleared again")

    monkeypatch.setattr(polys, "_primitive", refuse)
    assert positive_at_root(gen.xbar())
    assert not positive_at_root(gen.xbar().scale(-1))
    num, den = R.kernel_sample(gen, R.monomial(), PosPoly.constant(1))
    assert kernel_contains(num, den, gen)
    assert not kernel_contains(R.monomial(), PosPoly.constant(1), gen)


class TestSignedPoly:
    @given(st.dictionaries(st.integers(0, 8), st.builds(F, st.integers(-9, 9), st.integers(1, 4)), max_size=6))
    def test_sparse_and_dense_forms_round_trip(self, raw):
        m = SignedPoly.of(raw)
        assert SignedPoly.of(dict(m.terms)) == m
        assert SignedPoly.from_coeffs(m.coeffs) == m
        assert m.terms == tuple(sorted((d, c) for d, c in raw.items() if c))
        assert m.degree == (max(d for d, _ in m.terms) if m.terms else -1)
        assert (not m.coeffs) == (not m.terms)
        # the same dict with every coefficient made non-negative, as a PosPoly
        positive = {d: abs(c) for d, c in raw.items()}
        if not any(positive.values()):
            with pytest.raises(ValueError, match="zero polynomial"):
                PosPoly.of(positive)
            return
        p = PosPoly.of(positive)
        assert PosPoly.of(dict(p.terms)) == p
        assert PosPoly.from_coeffs(p.coeffs) == p
        assert p.terms == tuple(sorted((d, c) for d, c in positive.items() if c))
        assert p.degree == max(d for d, _ in p.terms)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: SignedPoly((F(1), F(0))), ValueError, "leading coefficient must be nonzero"),
        (lambda: SignedPoly((F(-2), F(0), F(1), F(0))), ValueError, "leading coefficient must be nonzero"),
        (lambda: SignedPoly((F(0),)), ValueError, "leading coefficient must be nonzero"),
        (lambda: SignedPoly((-2.0, 0.0, 1.0)), TypeError, "tuple of Fractions"),
        (lambda: SignedPoly((1.5, 2)), TypeError, "tuple of Fractions"),
        (lambda: SignedPoly((1, 2)), TypeError, "tuple of Fractions"),
        (lambda: PosPoly((F(1), F(0))), ValueError, "leading coefficient must be nonzero"),
        (lambda: PosPoly((1, 2)), TypeError, "tuple of Fractions"),
        (lambda: SignedPoly.of([(1, 1), (1, 2)]), ValueError, "duplicate degrees"),
        (lambda: SignedPoly.of({-1: 1}), ValueError, "negative degrees"),
        (lambda: PosPoly.of({1: 1}).scale(0), ValueError, "scaling factor must be positive"),
        (lambda: PosPoly.of({1: 1}).scale(F(-1, 2)), ValueError, "scaling factor must be positive"),
    ], ids=["trailing-zero", "trailing-zero-quadratic", "zero-constant", "floats", "float-and-int", "ints",
            "pos-trailing-zero", "pos-ints", "duplicate-degree", "negative-degree", "scale-zero", "scale-negative"])
    def test_malformed_polynomials_are_refused(self, build, error, message):
        # a trailing zero would print like a lower-degree polynomial that compares unequal to it
        with pytest.raises(error, match=message):
            build()

    def test_the_coercing_constructors_trim(self):
        one = SignedPoly.of({0: 1})
        assert SignedPoly.from_coeffs([1, 0]) == one == SignedPoly.of({0: 1, 1: 0})
        assert (str(one), one.degree) == ("1", 0)
        assert validate_generator(SignedPoly.from_coeffs([-2, 0, 1, 0]), (1, 2)) == SQRT2

    def test_degree_18_product_is_reducible(self):
        # (x^9 - 2)(x^9 - 3): its degree-9 factors are found
        with pytest.raises(Reducible):
            validate_generator(SignedPoly.of({18: 1, 9: -5, 0: 6}), (1, 2))

    def test_degree_beyond_the_irreducibility_limit_raises(self):
        with pytest.raises(DegreeTooLarge):
            validate_generator(SignedPoly.of({32: 1, 0: -2}), (1, 2))


class TestCone:
    def test_cone_closure_for_binomial_moduli(self):
        rng = random.Random(5)
        for gen in (SQRT2, CBRT2):
            for _ in range(50):
                a = gen.element([F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(gen.n)])
                b = gen.element([F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(gen.n)])
                if not (R.in_cone(a) and R.in_cone(b)):
                    continue
                assert R.in_cone(a + b)
                assert R.in_cone(a * b)

    def test_report_disagreement_for_non_binomial(self):
        # -1 + X at the golden ratio is positive but outside the coefficient cone
        e = GOLDEN.element([-1, 1])
        assert not R.in_cone(e) and positive_at_root(e)

    def test_report_agreement_in_cone(self):
        e = GOLDEN.element([1, 2])
        assert R.in_cone(e) and positive_at_root(e)

    def test_negative_element(self):
        e = SQRT2.element([-3, 0])
        assert not R.in_cone(e) and not positive_at_root(e)
        assert positive_at_root(SQRT2.element([])) is False


def sign(e):
    return 0 if e.is_zero else 1 if positive_at_root(e) else -1


class TestNumericConsistency:
    @given(st.sampled_from(MODULI), st.data())
    def test_signs_respect_arithmetic(self, gen, data):
        # evaluation at the root is a ring homomorphism to the reals, so the signs
        # of reduced products, negations and sums follow those of the factors
        a = data.draw(ext_elems(gen))
        b = data.draw(ext_elems(gen))
        assert sign(a * b) == sign(a) * sign(b)
        assert sign(a.scale(-1)) == -sign(a)
        if sign(a) > 0 and sign(b) > 0:
            assert sign(a + b) > 0


def _to_decimal(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


def _horner(cs, x):
    acc = Decimal(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _decimal_root(m, lo, hi, digits):
    """The root of m in (lo, hi) to within 10^-digits, by bisection at digits + 10 digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        dm = [_to_decimal(c) for c in m]
        a, b = _to_decimal(lo), _to_decimal(hi)
        negative_at_a = _horner(dm, a) < 0
        while b - a > Decimal(10) ** -digits:
            mid = (a + b) / 2
            if (_horner(dm, mid) < 0) == negative_at_a:
                a = mid
            else:
                b = mid
        return a


def decimal_sign(e):
    """The sign of e at the root by `decimal` bisection, independent of polys: -1, 0 or 1.

    The digits double until the value exceeds a bound on its error, the root's
    uncertainty times the derivative's size on the interval, with rounding slack.
    """
    if e.is_zero:
        return 0
    gen = e.gen
    for digits in (40, 80, 160, 320, 640, 1280):
        root = _decimal_root(gen.m.coeffs, gen.lo, gen.hi, digits)
        with localcontext() as ctx:
            ctx.prec = digits + 10
            cs = [_to_decimal(c) for c in e.coeffs]
            v = _horner(cs, root)
            bound = 4 * sum((i + 1) * abs(c) for i, c in enumerate(cs)) * max(_to_decimal(gen.hi), 1) ** len(cs)
            if abs(v) > bound * Decimal(10) ** -digits:
                return 1 if v > 0 else -1
    raise ArithmeticError("too close to zero for the oracle")


def sqrt2_convergents():
    p, q = 1, 1
    while True:
        yield p, q
        p, q = p + 2 * q, p + q


class TestSignAtRoot:
    def test_against_decimal_bisection(self):
        rng = random.Random(20261020)
        seen = set()
        for trial in range(240):
            gen = KERNEL_GENS[trial % len(KERNEL_GENS)]
            a = gen.element([F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(gen.n)])
            k = rng.choice([1, 1, 2, 3, 7, 12, 20, -1, -3])
            if a.is_zero and k < 0:
                continue
            e = a ** k
            assert sign(e) == decimal_sign(e), (gen.m, a.coeffs, k)
            seen.add((gen.n, sign(e)))
        assert {n for n, _ in seen} == {2, 3, 4, 5, 6, 7} and {s for _, s in seen} == {-1, 1}

    def test_convergents_of_sqrt2_at_508_bits(self):
        # x - p/q for the convergents p/q of √2 around a 508-bit q: the value is
        # below 2^-1000 in size, so numeric refinement would need over 1000 bits
        convergents = sqrt2_convergents()
        p, q = next((p, q) for p, q in convergents if q.bit_length() >= 508)
        pairs = [(p, q), next(convergents)]
        start = time.process_time()
        signs = [positive_at_root(SQRT2.element([F(-p, q), 1])) for p, q in pairs]
        assert time.process_time() - start < 0.1
        assert signs == [p * p < 2 * q * q for p, q in pairs]
        assert signs in ([True, False], [False, True])

    def test_zero_is_not_positive_in_any_degree(self):
        for gen in KERNEL_GENS + MODULI:
            assert positive_at_root(gen.element([])) is False
            assert not R.in_cone(gen.element([]))


class TestKernel:
    def test_contains_examples(self):
        assert kernel_contains(R.monomial(2), PosPoly.constant(2), SQRT2)
        assert not kernel_contains(R.monomial(), PosPoly.constant(1), SQRT2)
        p = PosPoly.of({3: 2, 1: 5})
        assert kernel_contains(p, p, SQRT2)

    def test_sample_unit(self):
        one = PosPoly.constant(1)
        num, den = R.kernel_sample(SQRT2, one, one)
        assert num == den
        assert str(num) == "x^2 + 2"

    def test_sample_defaults(self):
        num, den = R.kernel_sample(SQRT2, PosPoly.constant(1))
        assert (str(num), str(den)) == ("x^2", "2")
        assert kernel_contains(num, den, SQRT2)

    def test_sample_full(self):
        num, den = R.kernel_sample(SQRT2, R.monomial(), PosPoly.constant(1), PosPoly.constant(1))
        assert kernel_contains(num, den, SQRT2)

    @given(st.sampled_from(MODULI), pos_polys(), st.one_of(st.none(), pos_polys()), st.one_of(st.none(), pos_polys()))
    def test_samples_are_kernel_members(self, gen, g1, g2, h):
        num, den = R.kernel_sample(gen, g1, g2, h)
        assert kernel_contains(num, den, gen)

    @given(st.sampled_from(MODULI), pos_polys(max_deg=6), pos_polys(max_deg=6))
    def test_membership_matches_naive_division(self, gen, a, b):
        # independent oracle: schoolbook synthetic remainder of a - b by m
        m = list(gen.m.coeffs)
        diff = [F(0)] * (max(a.degree, b.degree) + 1)
        for d, c in a.terms:
            diff[d] += c
        for d, c in b.terms:
            diff[d] -= c
        while len(diff) >= len(m):
            lead = diff.pop()
            if lead:
                k = len(diff) - (len(m) - 1)
                for i, c in enumerate(m[:-1]):
                    diff[k + i] -= lead * c
        oracle = all(c == 0 for c in diff)
        assert kernel_contains(a, b, gen) == oracle


class TestPosPoly:
    def test_zero_not_representable(self):
        with pytest.raises(ValueError):
            PosPoly.of({})
        with pytest.raises(ValueError):
            PosPoly.of({1: 0})
        with pytest.raises(ValueError):
            PosPoly.of({1: -1})

    @given(pos_polys(), pos_polys(), pos_polys())
    def test_cancellative_addition(self, a, b, c):
        assert (a + c == b + c) == (a == b)

    @given(pos_polys(), pos_polys())
    def test_semiring_laws(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    def test_from_coeffs_refuses_negative_and_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            PosPoly.from_coeffs([1, -1])
        with pytest.raises(ValueError, match="zero polynomial"):
            PosPoly.from_coeffs([0, 0])

    @given(pos_polys(max_deg=6), pos_polys(max_deg=6), positive_rationals(max_num=9, max_den=4))
    def test_arithmetic_matches_the_dense_reference(self, a, b, c):
        assert (a + b).coeffs == R.add(a.coeffs, b.coeffs)
        assert (a * b).coeffs == R.mul(a.coeffs, b.coeffs)
        assert a.scale(c).coeffs == R.scale(a.coeffs, c)
        # the gaps of a product are Fraction zeros too
        assert all(type(x) is F for x in (a * b).coeffs)

    def test_sum_and_product_build_no_dense_form(self, monkeypatch):
        # the operators build their own coefficient tuple, so `_dense` has nothing to coerce or check
        rng = random.Random(29)

        def draw():
            return PosPoly.of({rng.randint(0, 6): F(rng.randint(1, 9), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 4))})

        pairs = [(draw(), draw()) for _ in range(50)] + [(R.monomial(2), R.monomial(2))]
        dense, calls = cancellative._dense, []
        monkeypatch.setattr(cancellative, "_dense", lambda obj: calls.append(obj) or dense(obj))
        for a, b in pairs:
            total, product = a + b, a * b
            assert total.coeffs == R.add(a.coeffs, b.coeffs)
            assert product.coeffs == R.mul(a.coeffs, b.coeffs)
            assert all(type(x) is F for x in total.coeffs + product.coeffs)
        for k in range(4):
            assert (pairs[0][0] ** k).coeffs == reduce(R.mul, [pairs[0][0].coeffs] * k, (F(1),))
            assert FreeLayer("x", pairs[1][0]) ** k == FreeLayer("x", pairs[1][0] ** k)
        assert calls == []


GENS = MODULI + KERNEL_GENS  # degrees 2-7; most KERNEL_GENS tables have a denominator D > 1


def assert_reduced(r):
    """r is stored in lowest terms: the element built again from its Fractions has the same ints and hash."""
    assert r._den > 0 and math.gcd(r._den, *r._nums) == 1
    again = ExtElem(r.gen, r.coeffs)
    assert (again._nums, again._den) == (r._nums, r._den) and hash(again) == hash(r)


class TestReducedIntegers:
    """The integer operators against the Fraction arithmetic they replaced (`reference.ext_*`)."""

    @given(st.sampled_from(GENS), st.data(), st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
           st.integers(-12, 50))
    def test_against_the_fraction_arithmetic(self, gen, data, c, k):
        a = data.draw(ext_elems(gen))
        b = data.draw(ext_elems(gen))
        pairs = [
            (a * b, R.ext_mul(gen, a.coeffs, b.coeffs)),
            (a + b, R.ext_add(a.coeffs, b.coeffs)),
            (a.scale(c), R.ext_scale(a.coeffs, c)),
            (b.scale(k), R.ext_scale(b.coeffs, k)),
        ]
        if not a.is_zero:
            pairs.append((a.inverse(), R.ext_inverse(gen, a.coeffs)))
        if k >= 0 or not a.is_zero:
            pairs.append((a ** k, R.ext_pow(gen, a.coeffs, k)))
        for got, want in pairs:
            assert got.coeffs == want and all(type(x) is F for x in got.coeffs)
            assert_reduced(got)
        # equal elements reached along different paths have equal ints and hashes
        same = [(a * b, b * a), (a + b, b + a), (a * gen.one(), a), (a + gen.element([]), a)]
        if c:
            same.append((a.scale(c).scale(1 / c), a))
        if not a.is_zero:
            same.append((a * a.inverse(), gen.one()))
        for x, y in same:
            assert x == y and (x._nums, x._den) == (y._nums, y._den) and hash(x) == hash(y)

    def test_constructor_reduces_and_checks_its_coefficients(self):
        e = ExtElem(SQRT2, (F(2, 6), 1))
        assert (e._nums, e._den) == ((1, 3), 3) and e.coeffs == (F(1, 3), F(1))
        assert ExtElem(gen=SQRT2, coeffs=(F(0), F(0)))._den == 1
        with pytest.raises(TypeError):
            ExtElem(SQRT2, (0.5, F(1)))
        with pytest.raises(TypeError):
            ExtElem(SQRT2, (True, F(1)))
        with pytest.raises(TypeError):
            ExtElem(SQRT2.m, (F(1), F(1)))
        with pytest.raises(ValueError):
            ExtElem(SQRT2, (F(1),))

    def test_operators_build_no_fraction(self):
        # every operator on nonzero elements of degrees 2-7, powers up to 50 and below 0
        rng = random.Random(21)
        elems = []
        for gen in KERNEL_GENS:
            while len(elems) % 2 or not elems or elems[-1].gen is not gen:
                e = gen.element([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(gen.n)])
                if not e.is_zero:
                    elems.append(e)
        pairs = list(zip(elems[::2], elems[1::2]))
        c = F(-3, 7)
        new = F.__new__.__code__
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is new:
                calls.append(frame.f_back.f_code.co_name)

        out = []
        sys.setprofile(count)
        try:
            for a, b in pairs:
                out.append([a * b, a + b, a.scale(c), a.scale(5), a.inverse(), positive_at_root(a),
                            [a ** k for k in range(2, 51)], [b ** k for k in (-1, -2, -7)]])
        finally:
            sys.setprofile(None)
        assert calls == []
        assert sorted({a.gen.n for a, _ in pairs}) == [2, 3, 4, 5, 6, 7]
        for (a, b), (prod, total, scaled, five, inv, positive, powers, negative) in zip(pairs, out):
            gen, x, y = a.gen, a.coeffs, b.coeffs
            assert prod.coeffs == R.ext_mul(gen, x, y) and total.coeffs == R.ext_add(x, y)
            assert scaled.coeffs == R.ext_scale(x, c) and five.coeffs == R.ext_scale(x, 5)
            assert inv.coeffs == R.ext_inverse(gen, x) and positive is (decimal_sign(a) > 0)
            assert [p.coeffs for p in powers] == [R.ext_pow(gen, x, k) for k in range(2, 51)]
            assert [p.coeffs for p in negative] == [R.ext_pow(gen, y, k) for k in (-1, -2, -7)]


@pytest.fixture(scope="module")
def several():
    """Irreducible generators of degrees 2-8 with two or more positive roots, and those roots.

    Per degree d: x^d - 4x^(d-1) + 2 (Eisenstein at 2; one root in (0, 1),
    one above 1) and the irreducible ones of (x - 1)(x - 2)...(x - d) -+ 1.
    sympy isolates the roots and places the interval around one of them.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    out = []
    for d in range(2, 9):
        line = sympy.prod([x - i for i in range(1, d + 1)])
        for k, expr in enumerate([x**d - 4 * x**(d - 1) + 2, line - 1, line + 1]):
            p = sympy.Poly(expr, x)
            roots = [r for r in sympy.real_roots(p) if r > 0]
            if len(roots) < 2 or not p.is_irreducible:
                continue
            lo, hi = [(a, b) for (a, b), _ in p.intervals(eps=sympy.Rational(1, 100)) if b > 0][k % len(roots)]
            m = [F(int(c)) for c in reversed(p.all_coeffs())]
            gen = validate_generator(SignedPoly.from_coeffs(m), (F(lo.p, lo.q), F(hi.p, hi.q)))
            out.append((gen, [r.evalf(80) for r in roots]))
    return out


# x^2 - 3x + 1 has roots (3 +- sqrt 5)/2, about 2.618 and 0.382; the generator adjoins the larger
TWO_ROOTS = validate_generator(SignedPoly.of({2: 1, 1: -3, 0: 1}), (2, 3))


def signs_at(e, roots):
    """The signs of e at the given roots, at 80 digits."""
    sympy = pytest.importorskip("sympy")
    values = [sum(sympy.Rational(c.numerator, c.denominator) * r**i for i, c in enumerate(e.coeffs)) for r in roots]
    assert all(abs(v) > sympy.Float(10) ** -40 for v in values)
    return [bool(v > 0) for v in values]


class TestSemifieldMembership:
    """An element is in the layer semifield exactly when it is positive at every positive root."""

    @pytest.mark.parametrize("coeffs, member", [
        ([-1, 1], False), ([-2, 1], False), ([1, 1], True), ([0, 1], True), ([F(-1, 3), 1], True),
    ])
    def test_negative_at_the_conjugate_root(self, coeffs, member):
        # all five are positive at 2.618; X - 1 and X - 2 are negative at 0.382
        e = TWO_ROOTS.element(coeffs)
        assert TWO_ROOTS.positive_roots == 2 and positive_at_root(e)
        assert in_layer_semifield(e) is member
        if member:
            assert ExtScalar(e, F(1, 2)).layer == e
        else:
            with pytest.raises(ValueError, match="positive element"):
                ExtScalar(e, F(1, 2))

    def test_generators_count_their_positive_roots(self, several):
        assert [gen.positive_roots for gen in MODULI] == [1, 1, 1]
        assert sorted({gen.n for gen, _ in several}) == [2, 3, 4, 5, 6, 7, 8]
        assert [gen.positive_roots for gen, _ in several] == [len(roots) for _, roots in several]
        assert max(gen.positive_roots for gen, _ in several) >= 5

    @given(st.data())
    def test_against_the_signs_at_sympy_roots(self, several, data):
        gen, roots = data.draw(st.sampled_from(several))
        a = data.draw(ext_elems(gen))
        if a.is_zero:
            assert not in_layer_semifield(a)
            return
        at_root = [r for r in roots if gen.lo < r < gen.hi]
        assert len(at_root) == 1
        assert positive_at_root(a) is signs_at(a, at_root)[0]
        assert in_layer_semifield(a) is all(signs_at(a, roots))
        # a square is positive at every real root, its negation at none
        square = a * a
        assert in_layer_semifield(square) and not in_layer_semifield(square.scale(-1))


def fresh_sqrt2():
    """A new generator of the square root of 2, whose cached interval is still (1, 2)."""
    return validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))


def counted(query, e):
    """query(e), the bisections it made of each cached interval, and the remainder sequences it built.

    A bisection doubles an interval's denominator d; each Sturm-Tarski query
    builds one remainder sequence, counted with `sys.setprofile`.
    """
    sequence = polys._remainder_sequence.__code__
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is sequence:
            calls.append(frame.f_back.f_code.co_name)

    before = list(e.gen.intervals)
    sys.setprofile(count)
    try:
        out = query(e)
    finally:
        sys.setprofile(None)
    steps = [(d1 // d0).bit_length() - 1 for (_, _, d0), (_, _, d1) in zip(before, e.gen.intervals)]
    return out, steps, len(calls)


class TestCachedIntervals:
    """Signs at roots from the cached isolating intervals: bound, bisection in place, Sturm-Tarski fallback."""

    def test_powers_of_sqrt2_minus_one(self):
        # (√2 - 1)^k is below 2.4^-k: at k = 400 the bound needs over 500 bits of the root.
        # Asked in turn on one generator, each power refines the cached interval a little
        # further; asked on a fresh generator, a high power takes the fallback.
        gen = fresh_sqrt2()
        base, e = gen.element([-1, 1]), gen.one()
        fallbacks = 0
        for k in range(1, 401):
            e = e * base
            fresh = fresh_sqrt2()
            pairs = [(e, True), (e.scale(-1), False)]
            pairs += [(fresh.element(e.coeffs), True), (fresh.element(e.coeffs).scale(-1), False)]
            for x, expected in pairs:
                positive, [steps], sequences = counted(positive_at_root, x)
                assert positive is (decimal_sign(x) > 0) is expected, k
                assert steps <= _REFINE_STEPS and sequences <= 1
                assert not sequences or steps == _REFINE_STEPS
                fallbacks += sequences
        assert fallbacks > 300
        assert gen.intervals[0][2].bit_length() > 500
        for x, expected in [(e, True), (e.scale(-1), False)]:
            x = fresh_sqrt2().element(x.coeffs)
            assert counted(positive_at_root, x) == (expected, [_REFINE_STEPS], 1)

    def test_fallback_at_the_adjoined_root_runs_on_the_cached_interval(self, monkeypatch):
        # (√2 - 1)^400 on a fresh generator falls back at root 0; the query must read the
        # refined cached triple there, as at every other root, and not the validated (lo, hi)
        gen = fresh_sqrt2()
        e = gen.element([-1, 1]) ** 400
        calls, query = [], polys.tarski_query

        def recorded(f, g, lo, hi):
            calls.append((lo, hi))
            return query(f, g, lo, hi)

        monkeypatch.setattr(polys, "tarski_query", recorded)
        assert positive_at_root(e)
        a, b, d = gen.intervals[0]
        assert calls == [(F(a, d), F(b, d))] != [(gen.lo, gen.hi)]

    @pytest.mark.parametrize("p, q", [(577, 408), (665857, 470832)])
    def test_convergents_are_refined_until_the_bound_settles_them(self, p, q):
        # p/q is a convergent of √2: p - q√2 = ±1/(p + q√2), 8.7e-4 and 7.5e-7 in size, so the
        # bound needs the root to about 2^-19 and 2^-40; past _REFINE_STEPS a query falls back
        for sign in (1, -1):
            e = fresh_sqrt2().element([p * sign, -q * sign])
            expected = decimal_sign(e) > 0
            assert expected is ((sign > 0) == (p * p > 2 * q * q))
            work = [counted(positive_at_root, e)]
            while work[-1][2]:
                work.append(counted(positive_at_root, e))
            assert all(answer is expected and steps <= [_REFINE_STEPS] for answer, steps, _ in work)
            assert all(sequences == (steps == [_REFINE_STEPS]) for _, steps, sequences in work[:-1])
            assert len(work) == (1 if q == 408 else 3)
            assert counted(positive_at_root, e) == (expected, [0], 0)
            assert counted(in_layer_semifield, e) == (expected, [0], 0)

    def test_work_counts_on_seeded_elements(self):
        # a query the bound settles builds no remainder sequence, a repeat of it bisects
        # nothing, no query bisects more than _REFINE_STEPS times, and the bound settles
        # nearly every query on fresh generators
        rng = random.Random(2024)
        checked = settled = 0
        for gen in KERNEL_GENS:
            gen = validate_generator(gen.m, (gen.lo, gen.hi))
            for _ in range(24):
                e = gen.element([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(gen.n)])
                if e.is_zero:
                    continue
                e = e ** rng.choice([1, 1, 2, 3, 7, -1])
                expected = decimal_sign(e) > 0
                work = [counted(query, e) for query in (positive_at_root, in_layer_semifield, positive_at_root)]
                for answer, steps, sequences in work:
                    assert answer is expected, (gen.m, e.coeffs)
                    assert max(steps) <= _REFINE_STEPS and sequences <= steps.count(_REFINE_STEPS)
                checked += 1
                if not work[0][2]:
                    settled += 1
                    assert [w[1:] for w in work[1:]] == [([0], 0), ([0], 0)]
        assert checked > 150 and settled >= 0.9 * checked

    def test_threads_sharing_a_generator_agree_with_one_thread(self):
        # the cache is written without a lock: every store is one whole isolating interval
        gen = fresh_sqrt2()
        elems = [gen.element([(-1) ** k, 1]) ** k for k in range(1, 120)]
        elems += [e.scale(-1) for e in elems]
        expected = [positive_at_root(fresh_sqrt2().element(e.coeffs)) for e in elems]
        results = [None] * 6

        def work(t):
            results[t] = [positive_at_root(e) for e in elems[t % 2::2] + elems[1 - t % 2::2]]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for t, got in enumerate(results):
            assert got == expected[t % 2::2] + expected[1 - t % 2::2]
        chain = polys.sturm_chain(gen.m_int)
        [(a, b, d)] = gen.intervals
        assert polys.count_roots(chain, F(a, d), F(b, d)) == 1 and d.bit_length() > 100

    def test_cached_intervals_isolate_each_positive_root(self, several):
        for gen, _ in several:
            chain = polys.sturm_chain(gen.m_int)
            intervals = [(F(a, d), F(b, d)) for a, b, d in gen.intervals]
            assert len(intervals) == gen.positive_roots >= 2
            assert gen.lo <= intervals[0][0] < intervals[0][1] <= gen.hi
            assert all(0 <= a < b and polys.count_roots(chain, a, b) == 1 for a, b in intervals)
            intervals.sort()
            assert all(b <= a for (_, b), (a, _) in zip(intervals, intervals[1:]))

    def test_deep_queries_at_every_root(self, several):
        # (X - c)^2 for c within 10^-12 of one positive root is positive at every root but
        # below 10^-23 at that one, so the query refines that root's interval past
        # _REFINE_STEPS; the roots reached that way include non-adjoined ones
        deep = set()
        for gen, roots in several:
            gen = validate_generator(gen.m, (gen.lo, gen.hi))
            for r in roots:
                e = gen.element([-F(int(r * 10**12), 10**12), 1]) ** 2
                answer, steps, sequences = counted(in_layer_semifield, e)
                assert answer is all(signs_at(e, roots)) is True
                assert max(steps) <= _REFINE_STEPS and sequences <= steps.count(_REFINE_STEPS)
                assert counted(positive_at_root, e.scale(-1))[0] is False
                deep.update(i for i, s in enumerate(steps) if s == _REFINE_STEPS)
        assert 0 in deep and len(deep) > 3
