from fractions import Fraction as F

import pytest
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

    def test_degree_above_limit_raises(self):
        # (x^9 - 2)(x^9 - 3) is reducible, but its degree-9 factors lie beyond the search
        f = P.mul(P.poly([-2] + [0] * 8 + [1]), P.poly([-3] + [0] * 8 + [1]))
        assert P.degree(f) == P.IRREDUCIBLE_MAX_DEGREE + 1
        with pytest.raises(DegreeTooLarge):
            P.is_irreducible(f)

    @given(polys_st(max_deg=2, zero_ok=False), polys_st(max_deg=2, zero_ok=False))
    def test_products_are_reducible(self, a, b):
        if P.degree(a) < 1 or P.degree(b) < 1:
            return
        assert not P.is_irreducible(P.mul(a, b))
