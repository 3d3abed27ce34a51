import ast
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, strategies as st

import reference as R
from layext import polys as P
from layext.errors import DegreeTooLarge


def polys_st(max_deg=5, zero_ok=True):
    lists = st.lists(
        st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
        max_size=max_deg + 1,
    )
    strat = lists.map(R.poly)
    if not zero_ok:
        strat = strat.filter(lambda p: p != ())
    return strat


@given(polys_st(), polys_st())
def test_ring_laws(a, b):
    assert R.add(a, b) == R.add(b, a)
    assert R.mul(a, b) == R.mul(b, a)
    assert R.sub(R.add(a, b), b) == a


@given(polys_st(), polys_st())
def test_divmod_identity(a, b):
    if not b:
        return
    q, r = R.divmod_poly(a, b)
    assert R.add(R.mul(q, b), r) == a
    assert R.degree(r) < R.degree(b)


@given(polys_st(zero_ok=False), polys_st(zero_ok=False))
def test_xgcd(a, b):
    g, s, t = R.xgcd_poly(a, b)
    assert R.add(R.mul(s, a), R.mul(t, b)) == g
    assert not R.rem(a, g) and not R.rem(b, g)


def count_roots(p, lo, hi):
    return P.count_roots(P.sturm_chain(p), lo, hi)


def count_positive_roots(p):
    return P.count_roots(P.sturm_chain(p), 0)


def test_sturm_counts():
    x2m2 = [-2, 0, 1]
    assert count_positive_roots(x2m2) == 1
    assert count_roots(x2m2, 1, 2) == 1
    assert count_roots(x2m2, 2, 3) == 0
    assert count_roots(x2m2, -2, 3) == 2
    assert count_positive_roots([1, 0, 1]) == 0
    # golden ratio polynomial x^2 - x - 1: one positive root
    fib = [-1, -1, 1]
    assert count_positive_roots(fib) == 1
    assert count_roots(fib, 1, 2) == 1


def test_sturm_handles_repeated_roots():
    # (x-1)^2 (x-3): the chain ends at gcd(p, p') and counts distinct roots
    p = P._mul(P._mul([-1, 1], [-1, 1]), [-3, 1])
    assert count_positive_roots(p) == 2
    assert count_roots(p, F(1, 2), 2) == 1


def sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], sympy.Symbol("x"))


class TestSturmAgainstSympy:
    """Counts of distinct roots against sympy's `count_roots` (closed interval, endpoints not roots)."""

    def test_seeded_polynomials(self):
        rng = random.Random(20261018)
        refused = 0
        for trial in range(300):
            if trial % 3 == 1:  # sparse: the remainder degrees drop by more than one
                p = R.poly([rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(rng.randint(3, 7))] + [1])
            else:
                p = R.poly([F(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7])) for _ in range(rng.randint(2, 9))])
            if trial % 3 == 0:  # a repeated factor
                q = R.poly([rng.randint(-5, 5) for _ in range(rng.randint(2, 3))])
                p = R.mul(p, R.mul(q, q))
            if R.degree(p) < 1:
                continue
            p = R.integer_form(p)
            chain = P.sturm_chain(p)
            ref = sympy_poly(p)
            lo, hi = sorted(F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(2))
            if ref.eval(lo) == 0 or ref.eval(hi) == 0:
                with pytest.raises(ValueError):
                    P.count_roots(chain, lo, hi)
                refused += 1
            elif lo < hi:
                assert P.count_roots(chain, lo, hi) == ref.count_roots(lo, hi), (p, lo, hi)
            if p[0] == 0:
                with pytest.raises(ValueError):
                    P.count_roots(chain, 0)
            else:
                assert P.count_roots(chain, 0) == ref.count_roots(0), p
        assert refused > 0

    def test_defective_steps_keep_their_signs(self):
        # x^5 - 2x^4 + 1: a remainder degree drops by two under a negative leading
        # coefficient, where an odd power of lc(b) in the pseudo-remainder flips a sign
        p = [1, 0, 0, 0, -2, 1]
        chain = P.sturm_chain(p)
        assert P.count_roots(chain, 0) == sympy_poly(p).count_roots(0) == 2
        assert P.count_roots(chain, -3, 3) == sympy_poly(p).count_roots(-3, 3) == 3

    def test_roots_at_the_endpoints_are_refused(self):
        p = P._mul([-1, 3], [-2, 0, 1])  # (3x - 1)(x^2 - 2)
        chain = P.sturm_chain(p)
        assert P.count_roots(chain, 0, 2) == sympy_poly(p).count_roots(0, 2) == 2
        for lo, hi in [(F(1, 3), 2), (-1, F(1, 3))]:
            with pytest.raises(ValueError):
                P.count_roots(chain, lo, hi)
        with pytest.raises(ValueError):
            P.count_roots(P.sturm_chain(P._mul(p, [0, 1])), 0)

    def test_degree_31_with_100_bit_coefficients(self):
        # a Fraction chain with a square-free pre-pass took about 15 s of CPU on this
        # input; sympy's count_roots(0) answers 2 in about 8 s, too slow to run here
        rng = random.Random(7)
        p = [rng.randint(-2**100, 2**100) for _ in range(31)] + [1]
        start = time.process_time()
        assert P.count_roots(P.sturm_chain(p), 0) == 2
        assert time.process_time() - start < 1.0


def random_int_poly(rng, max_deg, bound=9):
    return [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg))] + [rng.choice([1, 2, -1, -3])]


def test_gcd_int_matches_sympy_on_products_with_shared_factors():
    x = sympy.Symbol("x")
    rng = random.Random(20261021)
    for _ in range(120):
        shared = random_int_poly(rng, 3)
        a, b = (P._mul(shared, random_int_poly(rng, 4)) for _ in range(2))
        want = sympy.Poly(list(reversed(a)), x, domain="ZZ").gcd(sympy.Poly(list(reversed(b)), x, domain="ZZ"))
        want = [int(c) for c in reversed(want.primitive()[1].all_coeffs())]
        assert P._gcd_int(a, b) == want, (a, b)


class TestTarskiQueryAgainstSympy:
    """The sum of sign g(r) over the roots r of f in (lo, hi), against sympy's exact real roots."""

    def test_seeded_polynomials(self):
        x = sympy.Symbol("x")
        rng = random.Random(20261019)
        zero_signs = 0
        for trial in range(160):
            a = sympy.Poly(list(reversed(random_int_poly(rng, 5))), x)
            b = sympy.Poly(list(reversed(random_int_poly(rng, 3))), x)
            f = (a * b).sqf_part()
            if f.degree() < 1:
                continue
            if trial % 3 == 0:  # g shares the roots of b with f, where its sign is 0
                g = b * sympy.Poly(list(reversed(random_int_poly(rng, 4))), x)
            elif trial % 3 == 1:  # g of higher degree than f
                g = sympy.Poly(list(reversed(random_int_poly(rng, 12))), x)
            else:
                g = sympy.Poly(list(reversed(random_int_poly(rng, 3))), x)
            f_int = [int(c) for c in reversed(f.all_coeffs())]
            g_int = [int(c) for c in reversed(g.all_coeffs())] + [0] * (trial % 2)  # untrimmed too
            lo, hi = sorted(F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(2))
            if lo == hi or f.eval(lo) == 0 or f.eval(hi) == 0:
                continue
            # the roots of f shared with g are those of h; g is nonzero at the others
            h = sympy.gcd(f, g)
            k = sympy.quo(f, h)
            expected = positive = 0
            for r in k.real_roots():
                if lo < r < hi or r > 0:
                    v = g.as_expr().subs(x, r).evalf(60)
                    assert abs(v) > 1e-30
                    expected += (1 if v > 0 else -1) if lo < r < hi else 0
                    positive += (1 if v > 0 else -1) if r > 0 else 0
            zero_signs += sum(1 for r in h.real_roots() if lo < r < hi) if h.degree() > 0 else 0
            assert P.tarski_query(f_int, g_int, lo, hi) == expected, (f, g, lo, hi)
            if f_int[0]:  # the same chain read on (0, +infinity)
                assert P.count_roots(P.tarski_chain(f_int, g_int), 0) == positive, (f, g)
        assert zero_signs > 0

    def test_constant_and_zero_g(self):
        f = [-2, 0, 0, 1]  # x^3 - 2 has one real root
        assert P.tarski_query(f, [1], 0, 2) == 1 == P.count_roots(P.sturm_chain(f), 0, 2)
        assert P.tarski_query(f, [-5], 0, 2) == -1
        assert P.tarski_query(f, [], 0, 2) == 0
        assert P.tarski_query(f, [1], 2, 3) == 0
        assert P.tarski_chain(f, [1]) == P.sturm_chain(f)
        assert P.count_roots(P.tarski_chain(f, [-5]), 0) == -1

    def test_roots_at_the_endpoints_are_refused(self):
        with pytest.raises(ValueError):
            P.tarski_query([-1, 0, 1], [1], 1, 2)


class TestIrreducibility:
    def test_known_irreducibles(self):
        for coeffs in [[-2, 0, 1], [-2, 0, 0, 1], [-1, -1, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 0, 1]]:
            assert P.is_irreducible(coeffs), coeffs

    def test_known_reducibles(self):
        assert not P.is_irreducible([2, -3, 1])       # (x-1)(x-2)
        assert not P.is_irreducible([-4, 0, 0, 0, 1])  # (x^2-2)(x^2+2)
        assert not P.is_irreducible([4, 0, 0, 0, 1])   # (x^2-2x+2)(x^2+2x+2)
        assert not P.is_irreducible([1, 2, 1])          # (x+1)^2

    def test_degree_18_product_is_reducible(self):
        # (x^9 - 2)(x^9 - 3): degree-9 factors, out of reach of the former sample-point search
        f = P._mul(x_n_minus(9, 2), x_n_minus(9, 3))
        assert not P.is_irreducible(f)
        assert P.factor(f) == [x_n_minus(9, 3), x_n_minus(9, 2)]

    def test_degree_above_limit_raises(self):
        f = x_n_minus(P.MAX_DEGREE + 1, 2)
        for call in (P.factor, P.is_irreducible):
            with pytest.raises(DegreeTooLarge):
                call(f)

    @given(polys_st(max_deg=2, zero_ok=False), polys_st(max_deg=2, zero_ok=False))
    def test_products_are_reducible(self, a, b):
        if R.degree(a) < 1 or R.degree(b) < 1:
            return
        assert not P.is_irreducible(R.integer_form(R.mul(a, b)))


def x_n_minus(n, a):
    return (-a,) + (0,) * (n - 1) + (1,)


def swinnerton_dyer(primes):
    """The product of x - (±√p1 ± ... ± √pk), built one prime at a time as g(x+√p)·g(x-√p)."""
    x = R.poly([0, 1])
    g = x
    for p in primes:
        # g(x + √p) = a + √p·b by Horner over Q[x][√p]; the product is a² - p·b²
        a, b = (), ()
        for c in reversed(g):
            a, b = R.add(R.add(R.mul(a, x), R.scale(b, p)), R.poly([c])), R.add(R.mul(b, x), a)
        g = R.sub(R.mul(a, a), R.scale(R.mul(b, b), p))
    return R.integer_form(g)


def sympy_factors(f):
    """sympy's factors of an integer polynomial, in the normal form of `factor`."""
    _, pairs = sympy.Poly([int(c) for c in reversed(f)], sympy.Symbol("x"), domain="ZZ").factor_list()
    out = []
    for g, k in pairs:
        cs = [int(c) for c in reversed(g.all_coeffs())]
        out += [tuple(cs if cs[-1] > 0 else [-c for c in cs])] * k
    return sorted(out, key=lambda g: (len(g), g))


class TestFactor:
    def test_matches_sympy_on_seeded_products(self):
        rng = random.Random(20240611)
        checked = 0
        while checked < 300:
            f, total = [1], 0
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 6)
                if total + d > 20:
                    break
                total += d
                lead = rng.choice([1, 1, 1, -1, 2, 3, 6])
                f = P._mul(f, [rng.randint(-9, 9) for _ in range(d)] + [lead])
            if len(f) < 2:
                continue
            assert P.factor(f) == sympy_factors(f), f
            checked += 1

    @pytest.mark.parametrize("primes", [(2, 3), (2, 3, 5), (2, 3, 5, 7)])
    def test_swinnerton_dyer_is_irreducible(self, primes):
        f = swinnerton_dyer(primes)
        assert len(f) - 1 == 2 ** len(primes) and f == sympy_factors(f)[0]
        assert P.factor(f) == [f]
        assert P.is_irreducible(f)

    def test_swinnerton_dyer_product_splits_into_its_factors(self):
        a, b = swinnerton_dyer((2, 3, 5)), swinnerton_dyer((2, 3, 7))
        assert P.factor(P._mul(a, b)) == sorted([a, b])

    @pytest.mark.parametrize("n, a", [(6, 210), (8, 2), (10, 2), (12, 2)])
    def test_pure_powers_are_irreducible_quickly(self, n, a):
        # the former divisor search took 4.4 s, 0.46 s, 24 s and over 65 s on these
        start = time.process_time()
        assert P.is_irreducible(x_n_minus(n, a))
        assert time.process_time() - start < 1.0

    def test_repeated_factors_keep_their_multiplicity(self):
        x_minus_1, x2_minus_2 = (-1, 1), x_n_minus(2, 2)
        f = P._mul(P._mul(x_minus_1, x_minus_1), P._mul(x2_minus_2, P._mul(x2_minus_2, x2_minus_2)))
        assert P.factor(f) == [x_minus_1, x_minus_1, x2_minus_2, x2_minus_2, x2_minus_2]
        assert not P.is_irreducible(P._mul(x2_minus_2, x2_minus_2))

    def test_zero_constant_term(self):
        x = (0, 1)
        assert P.factor(x) == [x]
        assert P.factor(P._mul(x, x_n_minus(3, 2))) == [x, x_n_minus(3, 2)]
        assert P.factor(P._mul(x, P._mul(x, [1, 1]))) == [x, x, (1, 1)]

    def test_rational_coefficients(self):
        # (x/2 - 1/3)(2/5·x^2 - 4/5) = (1/15)·(3x - 2)(x^2 - 2), cleared to integers
        f = R.mul(R.poly([F(-1, 3), F(1, 2)]), R.poly([F(-4, 5), 0, F(2, 5)]))
        assert P.factor(R.integer_form(f)) == [(-2, 3), x_n_minus(2, 2)]

    def test_constants_have_no_factors_and_zero_is_refused(self):
        assert P.factor([-3]) == []
        assert not P.is_irreducible([5])
        with pytest.raises(ValueError):
            P.factor(())

    @given(st.lists(polys_st(max_deg=4, zero_ok=False), min_size=1, max_size=4))
    def test_product_times_content_is_the_input(self, parts):
        f = R.poly([1])
        for g in parts:
            f = R.mul(f, g)
        factors = P.factor(R.integer_form(f))
        prod = R.poly([1])
        for g in factors:
            assert all(c.denominator == 1 for c in g) and g[-1] > 0
            assert P.is_irreducible(g)
            prod = R.mul(prod, g)
        assert R.scale(prod, f[-1] / prod[-1]) == f
        assert factors == sorted(factors, key=lambda g: (len(g), g))


class TestIntegerContract:
    """`polys` takes integer polynomials of any content and sign."""

    def test_factor_of_a_negative_multiple(self):
        f = (12, 0, -6)  # -6x^2 + 12
        assert P.factor(f) == [(-2, 0, 1)]
        assert tuple(-6 * c for c in P.factor(f)[0]) == f

    def test_sturm_chain_of_the_primitive_part(self):
        for f, primitive in [((12, 0, -6), [-2, 0, 1]), ([-6, 0, 0, 3], [-2, 0, 0, 1]), ([4, -6, 2], [2, -3, 1])]:
            assert P.sturm_chain(f) == P.sturm_chain(primitive)


def test_polys_imports_only_errors_from_layext_and_no_fractions():
    tree = ast.parse(open(P.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            # `from . import x` names modules; `from .x import y` names one
            imported.update(f"layext.{node.module}" if node.module else f"layext.{a.name}" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "layext"} == {"layext.errors"}
    assert "fractions" not in {m.split(".")[0] for m in imported}
