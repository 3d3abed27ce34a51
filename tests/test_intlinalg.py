import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference as R
from layext import intlinalg as la
from layext.bipotent import BipotentPresentation, Numeric, Relation, Symbolic
from layext.tropical import ValueLattice


def matrices(max_rows=4, max_cols=4, lo=-8, hi=8):
    return st.integers(1, max_cols).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=0,
            max_size=max_rows,
        ).map(lambda rows: (rows, n))
    )


@given(matrices())
def test_smith_diagonalizes(mat):
    rows, n = mat
    u, diag, v, _ = la.smith(rows, n)
    d = R.mat_mul(R.mat_mul(u, rows), v) if rows else []
    for i in range(len(rows)):
        for j in range(n):
            want = diag[i] if i == j and i < len(diag) else 0
            assert d[i][j] == want
    assert abs(R.det(u)) == 1
    assert abs(R.det(v)) == 1
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # zeros only at the tail
    if 0 in diag:
        assert all(x == 0 for x in diag[diag.index(0):])


@given(matrices(), st.data())
def test_hnf_preserves_span(mat, data):
    rows, n = mat
    basis = la.hnf(rows, n)
    # every generated vector reduces to zero
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    if rows:
        vec = R.vec_mat(coeffs, rows)
        rem = la.reduce_by_hnf(vec, basis)
        assert all(x == 0 for x in rem)
    # basis rows are in echelon with positive pivots
    pivots = R.pivot_columns(basis)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for row, p in zip(basis, pivots):
        assert row[p] > 0


@given(matrices())
def test_kernel_annihilates(mat):
    rows, n = mat
    ker = R.kernel(rows, n)
    for k in ker:
        assert all(x == 0 for x in R.vec_mat(list(k), rows))


@given(matrices(), st.data())
def test_solve_left_finds_constructed_solutions(mat, data):
    rows, n = mat
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    target = R.vec_mat(coeffs, rows) if rows else [0] * n
    sol = R.solve_left(rows, n, target)
    assert sol is not None
    got = R.vec_mat(list(sol), rows) if rows else [0] * n
    assert list(got) == list(target)


@given(matrices())
def test_solve_left_rejects_non_members(mat):
    rows, n = mat
    basis = la.hnf(rows, n)
    pivots = set(R.pivot_columns(basis))
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return
    # a unit vector on a non-pivot coordinate is never in the row span
    target = [0] * n
    target[free[0]] = 1
    assert R.solve_left(rows, n, target) is None


def test_smith_diagonal_matches_sympy():
    # test-only oracle: sympy's Smith normal form over ZZ, on 200 random matrices
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(20261017)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        # zeros in about a third of the entries give rank-deficient cases too
        rows = [[rng.randint(-20, 20) if rng.random() < 0.65 else 0 for _ in range(n)] for _ in range(m)]
        _, diag, _, _ = la.smith(rows, n)
        want = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        assert diag == [abs(want[i, i]) for i in range(min(m, n))]


@given(matrices(), st.data())
def test_hnf_carries_columns_past_ncols(mat, data):
    # a trailing column rides through the row operations: pivots ignore it,
    # and every output row keeps it equal to the row's dot product with w
    rows, n = mat
    w = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))

    def dot(row):
        return sum(x * y for x, y in zip(row, w))

    out = la.hnf([(*row, dot(row)) for row in rows], n)
    assert tuple(row[:n] for row in out) == la.hnf(rows, n)
    assert all(row[n] == dot(row[:n]) for row in out)


@given(matrices(), st.data())
def test_reduce_by_hnf_carries_the_payload(mat, data):
    # rows with a payload column w·row: a vector c·rows + r, with r reduced,
    # comes back as r on the pivot columns and minus w·(c·rows) at the end
    rows, n = mat
    w = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    c = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    combo = R.vec_mat(c, rows) if rows else [0] * n
    r = la.reduce_by_hnf(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)), la.hnf(rows, n))
    basis = la.hnf([(*row, sum(x * y for x, y in zip(row, w))) for row in rows], n)
    out = la.reduce_by_hnf((*(x + y for x, y in zip(combo, r)), 0), basis)
    assert out[:n] == r
    assert out[n] == -sum(x * y for x, y in zip(combo, w))


def _smith_pin_inputs():
    """300 seeded random matrices up to 7x7, then the exponent-lattice bases
    of 200 seeded presentations with 2-10 generators, some symbolic."""
    rng = random.Random("smith-pin")
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n
    for _ in range(200):
        n = rng.randint(2, 10)
        base = rng.choice([(), (1,), (F(1, 2),), (2,), (F(1, 6),), (3,)])
        gens = []
        for _ in range(n):
            d = math.prod(p ** rng.randint(1, 2) for p in rng.sample((2, 3, 5, 7), rng.randint(1, 3)))
            gens.append(Numeric(F(rng.choice([i for i in range(-30, 31) if i]), d)))
        rels = []
        if rng.random() < 0.35:
            # symbolic generators with upper-triangular declared relations on them:
            # independent symbolic parts, so any base value is a consistent beta
            sym = rng.sample(range(n), rng.randint(1, min(3, n)))
            for i in sym:
                gens[i] = Symbolic(f"s{i}")
            for r, i in enumerate(sym[: rng.randint(0, len(sym))]):
                exps = [0 if j in sym else rng.randint(-3, 3) for j in range(n)]
                exps[i] = rng.randint(1, 4)
                for j in sym[r + 1:]:
                    exps[j] = rng.randint(-2, 2)
                g = base[0] if base else 0
                rels.append(Relation.of(exps, rng.randint(-3, 3) * g))
        P = BipotentPresentation(ValueLattice.of(*base), tuple(gens), tuple(rels))
        yield R.reference_exponent_lattice(P)[0], n


def test_smith_transforms_are_pinned():
    # SHA-256 of repr((U, diag, V, V⁻¹)) plus a newline per input of
    # `_smith_pin_inputs`, computed with the earlier `smith` that kept U and V
    # as matrices of their own beside A.  A change to the pivot rule or to
    # the order of operations changes the digest.
    h = hashlib.sha256()
    count = 0
    for rows, n in _smith_pin_inputs():
        h.update((repr(la.smith(rows, n)) + "\n").encode())
        count += 1
    assert count == 500
    assert h.hexdigest() == "4f13eac65525c69ca2fc6082b35cfbb083d18d1c1500079b1718acb6b2bb3998"


@st.composite
def padded_matrices(draw, max_rows=6, max_cols=5, payload=True):
    """(rows, ncols, width): random rows of `width` >= ncols entries, some zero, some combinations of others."""
    n = draw(st.integers(1, max_cols))
    width = n + (draw(st.integers(0, 2)) if payload else 0)
    row = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=max_rows))
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            c = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            extra.append(R.vec_mat(c, rows))
        else:
            extra.append([0] * width)
    return draw(st.permutations(rows + extra)), n, width


@given(padded_matrices())
def test_echelon_matches_the_whole_row_reference(mat):
    rows, n, _ = mat
    assert la._echelon(rows, n) == R.reference_echelon(rows, n)


@given(padded_matrices(), st.data())
def test_reduce_by_hnf_matches_the_whole_row_reference(mat, data):
    rows, n, width = mat
    basis = la.hnf(rows, n)
    vec = data.draw(st.lists(st.integers(-30, 30), min_size=width, max_size=width))
    assert la.reduce_by_hnf(vec, basis) == R.reference_reduce_by_hnf(vec, basis)


@given(padded_matrices(max_rows=7, max_cols=6, payload=False))
def test_smith_matches_the_whole_row_reference(mat):
    rows, n, _ = mat
    assert la.smith(rows, n) == R.reference_smith(rows, n)


@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-60, 60)), max_size=7),
       st.one_of(st.just(0), st.integers(1, 4), st.integers(1, 720)), st.data())
def test_congruence_solve_is_the_reduced_solution_of_the_congruence(ts, m, data):
    # the lattice by elimination: rows [t_i | e_i] and [m | 0], Hermite form, rows with t = 0
    n = len(ts)
    rows = [[t] + [int(j == i) for j in range(n)] for i, t in enumerate(ts)] + ([[m] + [0] * n] if m else [])
    basis = tuple(row[1:] for row in R.reference_echelon(rows, n + 1) if row[0] == 0)
    v = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    c = sum(x * t for x, t in zip(v, ts))
    x = la.congruence_solve(ts, m, c)
    assert x == la.reduce_by_hnf(v, basis)
    assert not m or all(0 <= e < m for e in x)
    g = math.gcd(m, *ts)
    if g != 1:  # a c outside gcd(m, t)·Z has no solution
        with pytest.raises(ValueError):
            la.congruence_solve(ts, m, c + data.draw(st.integers(1, g - 1) if g else st.integers(-9, 9).filter(bool)))
