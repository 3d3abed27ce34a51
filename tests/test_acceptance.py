"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact (no tolerances); the stated time budgets are
asserted where the criterion carries one.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations, product

import reference as R
from layext import intlinalg as la
from layext.bipotent import (
    BipotentPresentation,
    Numeric,
    Relation,
    Symbolic,
    decompose_extension,
    extension_rank,
    is_divisibly_dependent,
    torsion_degree,
)
from layext.cancellative import (
    ExtElem,
    PosPoly,
    SignedPoly,
    kernel_contains,
    validate_generator,
)
from layext.tropical import LayeredElem, ONE, ValueLattice, ZERO
from layext.uniform import (
    AlgebraicSort,
    ExtScalar,
    LayeredPoly,
    UniformDescriptor,
    base_descriptor,
    eval_layered_poly,
    is_layerset_semiring,
    is_uniform_semifield,
    pure_layer_ext,
    pure_value_ext,
    uniform_closure,
)

Z = ValueLattice.of(1)
SQRT2 = validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))


def _rand_fraction(rng, max_num=20, max_den=8, signed=True):
    num = rng.randint(-max_num, max_num) if signed else rng.randint(1, max_num)
    return F(num, rng.randint(1, max_den))


def _rand_layered(rng, allow_zero=True):
    if allow_zero and rng.random() < 0.1:
        return ZERO
    return LayeredElem(_rand_fraction(rng, signed=False), _rand_fraction(rng))


def test_criterion_01_layered_arithmetic_laws():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(10_000):
        x, y, z = (_rand_layered(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero and not y.is_zero and x.value != y.value:
            assert x + y in (x, y)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: 10000 layered arithmetic law checks, 0 failures ({elapsed:.2f}s)")


def _rand_layered_poly(rng, max_deg=6):
    exps = rng.sample(range(max_deg + 1), rng.randint(1, max_deg + 1))
    return LayeredPoly.of(
        (e, LayeredElem(_rand_fraction(rng, signed=False), _rand_fraction(rng))) for e in exps
    )


def test_criterion_02_value_of_evaluation_identity():
    rng = random.Random(202)
    start = time.monotonic()
    for _ in range(1_000):
        f = _rand_layered_poly(rng)
        a = ExtScalar(_rand_fraction(rng, signed=False), _rand_fraction(rng))
        _, v1 = eval_layered_poly(f, a)
        _, v2 = eval_layered_poly(f, ExtScalar(F(1), a.value))
        assert v1 == v2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: 1000 exact evaluation-value identities ({elapsed:.2f}s)")


def test_criterion_03_smith_decomposition_of_sixths():
    start = time.monotonic()
    P = BipotentPresentation.from_values(Z, "1/2", "1/3")
    dec = decompose_extension(P)
    assert dec.free_rank == 0
    basis = R.reference_exponent_lattice(P)[0]
    factors, _, _ = R.smith_invariants(basis, 2)
    assert factors[-1] == 6
    assert extension_rank(P) == 6
    # explicit coset enumeration of Z^2 modulo the exponent lattice
    cosets = {la.reduce_by_hnf(v, basis) for v in product(range(-6, 7), repeat=2)}
    assert len(cosets) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 3: sixths extension has rank 6 with chain ending in 6 ({elapsed:.2f}s)")


def test_criterion_04_rank_multiplicativity():
    # fixed tower: integers, then halves, then sixths
    P = BipotentPresentation.from_values(Z, "1/2", "1/6")
    d_over_k = extension_rank(P, over=(0,))
    k_over_h = extension_rank(BipotentPresentation.from_values(Z, "1/2"))
    assert (d_over_k, k_over_h) == (3, 2)
    assert extension_rank(P) == 6 == d_over_k * k_over_h

    rng = random.Random(404)
    violations = 0
    for _ in range(100):
        k_vals = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(1, 2))]
        d_vals = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(1, 2))]
        P_d = BipotentPresentation.from_values(Z, *(k_vals + d_vals))
        P_k = BipotentPresentation.from_values(Z, *k_vals)
        whole = extension_rank(P_d)
        upper = extension_rank(P_d, over=tuple(range(len(k_vals))))
        lower = extension_rank(P_k)
        if whole != upper * lower:
            violations += 1
    assert violations == 0
    print("PASS criterion 4: tower 2 x 3 = 6 and 100 random towers multiplicative, 0 violations")


def _random_mixed_presentation(rng, max_n=4):
    n = rng.randint(1, max_n)
    gens = []
    for i in range(n):
        if rng.random() < 0.35:
            gens.append(Symbolic(f"g{i}"))
        else:
            gens.append(Numeric(F(rng.randint(1, 9), rng.randint(1, 8))))
    rels = []
    sym_idx = [i for i, g in enumerate(gens) if isinstance(g, Symbolic)]
    if sym_idx and rng.random() < 0.3:
        i = rng.choice(sym_idx)
        d = rng.randint(2, 5)
        exps = tuple(d if j == i else 0 for j in range(n))
        rels.append(Relation.of(exps, rng.randint(-3, 3)))
    return BipotentPresentation(Z, tuple(gens), tuple(rels))


def test_criterion_05_decomposition_round_trip():
    rng = random.Random(505)
    for _ in range(200):
        P = _random_mixed_presentation(rng)
        n = P.n
        dec = decompose_extension(P)
        basis = R.reference_exponent_lattice(P)[0]
        # free part divisibly independent: no nonzero combination in the lattice
        if dec.free_monomials:
            stacked = [list(m) for m in dec.free_monomials] + [list(r) for r in basis]
            for kvec in R.kernel(stacked, n):
                assert all(c == 0 for c in kvec[: len(dec.free_monomials)])
        # torsion orders are exactly the invariant factors > 1
        if basis:
            assert dec.torsion_orders == R.smith_invariants(basis, n)[2]
        for mono, order in zip(dec.torsion_monomials, dec.torsion_orders):
            assert torsion_degree(P, mono) == order
        # every generator regenerated from the monomials modulo the lattice
        for j, (fc, tc) in enumerate(dec.generator_coords):
            combo = [0] * n
            for c, m in list(zip(fc, dec.free_monomials)) + list(zip(tc, dec.torsion_monomials)):
                combo = [a + c * b for a, b in zip(combo, m)]
            diff = tuple((1 if i == j else 0) - combo[i] for i in range(n))
            assert R.in_lattice(basis, diff)
        # invariance of the shape under generator permutations; without symbolic generators the
        # output is canonical: after re-indexing, the same coordinates, and monomials of the same
        # value (g/D modulo the base).  The monomial vectors may differ, because the Hermite basis
        # that reduces them depends on the column order.
        t, orders = dec.free_rank, sorted(dec.torsion_orders)
        canonical = not P.symbolic_indices()
        values = [R.coset_value(P, m) for m in dec.free_monomials + dec.torsion_monomials]
        if canonical:
            assert values == [P.base.single_generator() / D for D in dec.torsion_orders]
        perms = list(permutations(range(n)))
        sample = perms if len(perms) <= 6 else rng.sample(perms, 6)
        for perm in sample:
            Q = R.permuted(P, perm)
            dp = decompose_extension(Q)
            assert dp.free_rank == t
            assert sorted(dp.torsion_orders) == orders
            if canonical:
                assert dp.generator_coords == tuple(dec.generator_coords[p] for p in perm)
                assert [R.coset_value(Q, m) for m in dp.free_monomials + dp.torsion_monomials] == values
    print("PASS criterion 5: 200 decompositions round-trip with permutation-invariant output")


def test_criterion_06_dependence_matches_exhaustive_search():
    rng = random.Random(606)
    agreements = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        values = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n)]
        P = BipotentPresentation.from_values(Z, *values)
        size = rng.randint(1, n)
        subset = tuple(sorted(rng.sample(range(n), size)))
        fast = is_divisibly_dependent(P, subset)
        brute = any(
            P.base.contains(sum(k * values[i] for k, i in zip(ks, subset)))
            for ks in product(range(-8, 9), repeat=len(subset))
            if any(ks)
        )
        assert fast == brute
        agreements += 1
    assert agreements == 200
    print("PASS criterion 6: 200/200 dependence decisions agree with exhaustive search")


def test_criterion_07_cancellative_extension_arithmetic():
    rng = random.Random(707)
    one = SQRT2.one()
    for _ in range(1_000):
        e = ExtElem(SQRT2, (_rand_fraction(rng, max_num=9, max_den=6), _rand_fraction(rng, max_num=9, max_den=6)))
        if e.is_zero:
            continue
        assert e * e.inverse() == one
    # positive-cone closure for a binomial modulus
    for _ in range(200):
        a = ExtElem(SQRT2, (F(rng.randint(0, 9), rng.randint(1, 4)), F(rng.randint(0, 9), rng.randint(1, 4))))
        b = ExtElem(SQRT2, (F(rng.randint(0, 9), rng.randint(1, 4)), F(rng.randint(0, 9), rng.randint(1, 4))))
        if R.in_cone(a) and R.in_cone(b):
            assert R.in_cone(a + b) and R.in_cone(a * b)
    e = one + SQRT2.xbar()
    assert (e * e).coeffs == (F(3), F(2))
    print("PASS criterion 7: 1000 exact inverses, cone closure, (1+X)^2 = 3+2X")


def _rand_pos_poly(rng, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randint(0, max_deg)] = F(rng.randint(1, 9), rng.randint(1, 4))
    return PosPoly.of(terms)


def _naive_divides(diff_coeffs, m_coeffs):
    diff = list(diff_coeffs)
    m = list(m_coeffs)
    while len(diff) >= len(m):
        lead = diff.pop()
        if lead:
            k = len(diff) - (len(m) - 1)
            for i, c in enumerate(m[:-1]):
                diff[k + i] -= lead * c
    return all(c == 0 for c in diff)


def test_criterion_08_kernel_correspondence():
    rng = random.Random(808)
    m_coeffs = SQRT2.m.coeffs
    for _ in range(1_000):
        a = _rand_pos_poly(rng)
        b = _rand_pos_poly(rng)
        size = max(a.degree, b.degree) + 1
        diff = [F(0)] * size
        for d, c in a.terms:
            diff[d] += c
        for d, c in b.terms:
            diff[d] -= c
        assert kernel_contains(a, b, SQRT2) == _naive_divides(diff, list(m_coeffs))
        g1 = _rand_pos_poly(rng)
        g2 = _rand_pos_poly(rng) if rng.random() < 0.8 else None
        h = _rand_pos_poly(rng) if rng.random() < 0.8 else None
        num, den = R.kernel_sample(SQRT2, g1, g2, h)
        assert kernel_contains(num, den, SQRT2)
    print("PASS criterion 8: 1000 kernel decisions match division; all samples in the kernel")


def test_criterion_09_uniform_closure():
    H = base_descriptor()
    rng = random.Random(909)
    for _ in range(50):
        a = ExtScalar(F(rng.randint(1, 9), rng.randint(1, 6)), _rand_fraction(rng, max_num=9, max_den=6))
        c1 = uniform_closure(H, a)
        via_value = pure_layer_ext(pure_value_ext(H, ExtScalar(F(1), a.value)), ExtScalar(a.layer, F(0)))
        via_layer = pure_value_ext(pure_layer_ext(H, ExtScalar(a.layer, F(0))), ExtScalar(F(1), a.value))
        assert c1 == via_value == via_layer
        assert uniform_closure(c1, a) == c1
        assert is_layerset_semiring(H, a) == (a.value.denominator == 1)
    a = ExtScalar(SQRT2.xbar(), F(1, 2))
    C = uniform_closure(H, a)
    expected = UniformDescriptor(
        AlgebraicSort(SQRT2),
        BipotentPresentation(Z, (Numeric(F(1, 2)),)),
    )
    assert C == expected
    assert is_uniform_semifield(C)
    assert not is_layerset_semiring(H, a)
    print("PASS criterion 9: closures commute, idempotent; sqrt(2) closure matches and is a semifield")


def test_criterion_10_torsion_freeness():
    rng = random.Random(1010)
    for _ in range(2_000):
        x = _rand_layered(rng, allow_zero=False)
        n = rng.randint(1, 12)
        power = x**n
        if power == ONE:
            assert x == ONE
        if x != ONE:
            assert power != ONE
    for n in range(1, 13):
        assert ONE**n == ONE
    print("PASS criterion 10: no nontrivial roots of unity among layered elements (n <= 12)")
