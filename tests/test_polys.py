import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, strategies as st

from layext import polys as P
from layext.errors import DegreeTooLarge


def polys_st(max_deg=5, zero_ok=True):
    lists = st.lists(
        st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
        max_size=max_deg + 1,
    )
    strat = lists.map(P.poly)
    if not zero_ok:
        strat = strat.filter(lambda p: p != ())
    return strat


@given(polys_st(), polys_st())
def test_ring_laws(a, b):
    assert P.add(a, b) == P.add(b, a)
    assert P.mul(a, b) == P.mul(b, a)
    assert P.sub(P.add(a, b), b) == a


@given(polys_st(), polys_st())
def test_divmod_identity(a, b):
    if not b:
        return
    q, r = P.divmod_poly(a, b)
    assert P.add(P.mul(q, b), r) == a
    assert P.degree(r) < P.degree(b)


@given(polys_st(zero_ok=False), polys_st(zero_ok=False))
def test_xgcd(a, b):
    g, s, t = P.xgcd_poly(a, b)
    assert P.add(P.mul(s, a), P.mul(t, b)) == g
    assert not P.rem(a, g) and not P.rem(b, g)


def test_sturm_counts():
    x2m2 = P.poly([-2, 0, 1])
    assert P.count_positive_roots(x2m2) == 1
    assert P.count_roots(x2m2, 1, 2) == 1
    assert P.count_roots(x2m2, 2, 3) == 0
    assert P.count_roots(x2m2, -2, 3) == 2
    assert P.count_positive_roots(P.poly([1, 0, 1])) == 0
    # golden ratio polynomial x^2 - x - 1: one positive root
    fib = P.poly([-1, -1, 1])
    assert P.count_positive_roots(fib) == 1
    assert P.count_roots(fib, 1, 2) == 1


def test_sturm_handles_repeated_roots():
    # (x-1)^2 (x-3): squarefree reduction keeps the count of distinct roots
    p = P.mul(P.mul(P.poly([-1, 1]), P.poly([-1, 1])), P.poly([-3, 1]))
    assert P.count_positive_roots(p) == 2
    assert P.count_roots(p, F(1, 2), 2) == 1


def test_bisect_narrows():
    x2m2 = P.poly([-2, 0, 1])
    lo, hi = P.bisect_root(x2m2, 1, 2, F(1, 10**6))
    assert hi - lo <= F(1, 10**6)
    assert lo * lo < 2 < hi * hi


def test_interval_eval_bounds():
    p = P.poly([-2, 0, 1])
    lo, hi = P.interval_eval(p, F(14, 10), F(15, 10))
    assert lo <= P.eval_poly(p, F(141421, 100000)) <= hi


class TestIrreducibility:
    def test_known_irreducibles(self):
        for coeffs in [[-2, 0, 1], [-2, 0, 0, 1], [-1, -1, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 0, 1]]:
            assert P.is_irreducible(P.poly(coeffs)), coeffs

    def test_known_reducibles(self):
        assert not P.is_irreducible(P.poly([2, -3, 1]))       # (x-1)(x-2)
        assert not P.is_irreducible(P.poly([-4, 0, 0, 0, 1]))  # (x^2-2)(x^2+2)
        assert not P.is_irreducible(P.poly([4, 0, 0, 0, 1]))   # (x^2-2x+2)(x^2+2x+2)
        assert not P.is_irreducible(P.poly([1, 2, 1]))          # (x+1)^2

    def test_degree_18_product_is_reducible(self):
        # (x^9 - 2)(x^9 - 3): degree-9 factors, out of reach of the former sample-point search
        f = P.mul(x_n_minus(9, 2), x_n_minus(9, 3))
        assert not P.is_irreducible(f)
        assert P.factor(f) == [x_n_minus(9, 3), x_n_minus(9, 2)]

    def test_degree_above_limit_raises(self):
        f = x_n_minus(P.MAX_DEGREE + 1, 2)
        for call in (P.factor, P.is_irreducible):
            with pytest.raises(DegreeTooLarge):
                call(f)

    @given(polys_st(max_deg=2, zero_ok=False), polys_st(max_deg=2, zero_ok=False))
    def test_products_are_reducible(self, a, b):
        if P.degree(a) < 1 or P.degree(b) < 1:
            return
        assert not P.is_irreducible(P.mul(a, b))


def x_n_minus(n, a):
    return P.poly([-a] + [0] * (n - 1) + [1])


def swinnerton_dyer(primes):
    """The product of x - (±√p1 ± ... ± √pk), built one prime at a time as g(x+√p)·g(x-√p)."""
    x = P.poly([0, 1])
    g = x
    for p in primes:
        # g(x + √p) = a + √p·b by Horner over Q[x][√p]; the product is a² - p·b²
        a, b = (), ()
        for c in reversed(g):
            a, b = P.add(P.add(P.mul(a, x), P.scale(b, p)), P.poly([c])), P.add(P.mul(b, x), a)
        g = P.sub(P.mul(a, a), P.scale(P.mul(b, b), p))
    return g


def sympy_factors(f):
    """sympy's factors of an integer polynomial, in the normal form of `factor`."""
    _, pairs = sympy.Poly([int(c) for c in reversed(f)], sympy.Symbol("x"), domain="ZZ").factor_list()
    out = []
    for g, k in pairs:
        cs = [F(int(c)) for c in reversed(g.all_coeffs())]
        out += [tuple(cs if cs[-1] > 0 else [-c for c in cs])] * k
    return sorted(out, key=lambda g: (len(g), g))


class TestFactor:
    def test_matches_sympy_on_seeded_products(self):
        rng = random.Random(20240611)
        checked = 0
        while checked < 300:
            f, total = P.poly([1]), 0
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 6)
                if total + d > 20:
                    break
                total += d
                lead = rng.choice([1, 1, 1, -1, 2, 3, 6])
                f = P.mul(f, P.poly([rng.randint(-9, 9) for _ in range(d)] + [lead]))
            if P.degree(f) < 1:
                continue
            assert P.factor(f) == sympy_factors(f), f
            checked += 1

    @pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 5, 7)])
    def test_swinnerton_dyer_is_irreducible(self, primes):
        f = swinnerton_dyer(primes)
        assert P.degree(f) == 2 ** len(primes) and f == sympy_factors(f)[0]
        assert P.factor(f) == [f]
        assert P.is_irreducible(f)

    def test_swinnerton_dyer_product_splits_into_its_factors(self):
        a, b = swinnerton_dyer((2, 3, 5)), swinnerton_dyer((2, 3, 7))
        assert P.factor(P.mul(a, b)) == sorted([a, b])

    @pytest.mark.parametrize("n, a", [(6, 210), (8, 2), (10, 2), (12, 2)])
    def test_pure_powers_are_irreducible_quickly(self, n, a):
        # the former divisor search took 4.4 s, 0.46 s, 24 s and over 65 s on these
        start = time.process_time()
        assert P.is_irreducible(x_n_minus(n, a))
        assert time.process_time() - start < 1.0

    def test_repeated_factors_keep_their_multiplicity(self):
        x_minus_1, x2_minus_2 = P.poly([-1, 1]), x_n_minus(2, 2)
        f = P.mul(P.mul(x_minus_1, x_minus_1), P.mul(x2_minus_2, P.mul(x2_minus_2, x2_minus_2)))
        assert P.factor(f) == [x_minus_1, x_minus_1, x2_minus_2, x2_minus_2, x2_minus_2]
        assert not P.is_irreducible(P.mul(x2_minus_2, x2_minus_2))

    def test_zero_constant_term(self):
        x = P.poly([0, 1])
        assert P.factor(x) == [x]
        assert P.factor(P.mul(x, x_n_minus(3, 2))) == [x, x_n_minus(3, 2)]
        assert P.factor(P.mul(x, P.mul(x, P.poly([1, 1])))) == [x, x, P.poly([1, 1])]

    def test_rational_coefficients(self):
        # (x/2 - 1/3)(2/5·x^2 - 4/5) = (1/15)·(3x - 2)(x^2 - 2)
        f = P.mul(P.poly([F(-1, 3), F(1, 2)]), P.poly([F(-4, 5), 0, F(2, 5)]))
        assert P.factor(f) == [P.poly([-2, 3]), x_n_minus(2, 2)]

    def test_constants_have_no_factors_and_zero_is_refused(self):
        assert P.factor(P.poly([F(-3, 7)])) == []
        assert not P.is_irreducible(P.poly([5]))
        with pytest.raises(ValueError):
            P.factor(())

    @given(st.lists(polys_st(max_deg=4, zero_ok=False), min_size=1, max_size=4))
    def test_product_times_content_is_the_input(self, parts):
        f = P.poly([1])
        for g in parts:
            f = P.mul(f, g)
        factors = P.factor(f)
        prod = P.poly([1])
        for g in factors:
            assert all(c.denominator == 1 for c in g) and g[-1] > 0
            assert P.is_irreducible(g)
            prod = P.mul(prod, g)
        assert P.scale(prod, f[-1] / prod[-1]) == f
        assert factors == sorted(factors, key=lambda g: (len(g), g))
