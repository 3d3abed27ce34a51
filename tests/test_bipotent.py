import hashlib
import math
import random
import sys
import threading
import time
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import reference as R
from layext import bipotent, intlinalg as la
from layext.bipotent import (
    INFINITE,
    BipotentPresentation,
    DependenceWitness,
    Numeric,
    Relation,
    Symbolic,
    canonical_coset_value,
    decompose_extension,
    divisible_dependence_witness,
    extension_rank,
    is_bipotent_semifield,
    is_divisibly_dependent,
    linearly_dependent_pair,
    torsion_degree,
    torsion_subdomain_contains,
)
from layext.errors import InconsistentRelations
from layext.tropical import ValueLattice
from layext.uniform import ExtScalar, base_descriptor, is_uniform_semifield, uniform_closure

Z = ValueLattice.of(1)


def numeric(*values):
    return BipotentPresentation.from_values(Z, *values)


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def coset_count(basis, n, box=8):
    """Oracle: enumerate distinct lattice cosets of vectors in a box."""
    seen = set()
    for vec in product(range(-box, box + 1), repeat=n):
        rem = la.reduce_by_hnf(vec, basis)
        seen.add(rem)
    return len(seen)


def assert_lattice_is(P, basis):
    """P's queries see the lattice `basis` spans.

    Each row has torsion degree 1, so the rows span part of P's lattice.  Each
    seeded vector k has torsion degree 1 exactly when it reduces to 0 by the
    basis, and d*k reduces to 0 when k has a finite torsion degree d, so no
    vector of P's lattice that the seeds reach is missing from the span.  Half
    of the seeds are small vectors, the other half the primitive parts of
    combinations of the rows.
    """
    assert all(torsion_degree(P, row) == 1 for row in basis)
    rng = random.Random(0)
    for i in range(40):
        k = [rng.randint(-3, 3) for _ in range(P.n)]
        if i % 2:
            k = [0] * P.n
            for row in basis:
                c = rng.randint(-2, 2)
                k = [a + c * b for a, b in zip(k, row)]
            k = [x // (math.gcd(*k) or 1) for x in k]
        d = torsion_degree(P, tuple(k))
        assert (d == 1) == R.in_lattice(basis, k)
        if d != INFINITE:
            assert R.in_lattice(basis, [d * x for x in k])


class TestRelationLattice:
    def test_halves_and_thirds(self):
        # oracle: exhaustive search with |k| <= 6 agrees with the lattice
        P = numeric("1/2", "1/3")
        assert_lattice_is(P, ((2, 0), (0, 3)))
        for k in product(range(-6, 7), repeat=2):
            in_base = (k[0] * F(1, 2) + k[1] * F(1, 3)).denominator == 1
            assert (torsion_degree(P, k) == 1) == in_base

    def test_symbolic_without_relations_is_free(self):
        assert_lattice_is(BipotentPresentation(Z, (Symbolic("g"),)), ())

    def test_mixed_keeps_numeric_relations(self):
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")))
        assert_lattice_is(P, ((2, 0),))
        for k in range(-6, 7):
            assert (torsion_degree(P, (k, 0)) == 1) == ((k * F(1, 2)).denominator == 1)

    def test_declared_relation_gives_torsion(self):
        P = BipotentPresentation(Z, (Symbolic("g"),), (Relation.of((2,), 1),))
        assert_lattice_is(P, ((2,),))
        assert torsion_degree(P, (1,)) == 2

    def test_contradicting_relation_rejected(self):
        P = BipotentPresentation(
            Z,
            (Numeric.of("1/3"), Symbolic("g")),
            (Relation.of((1, 1), 0), Relation.of((2, 1), 0)),
        )
        with pytest.raises(InconsistentRelations):
            extension_rank(P)

    def test_numeric_support_contradiction_rejected(self):
        # two relations force 1/3 = integer
        P = BipotentPresentation(
            Z,
            (Numeric.of("1/3"), Symbolic("g")),
            (Relation.of((1, 1), 0), Relation.of((2, 2), 1)),
        )
        with pytest.raises(InconsistentRelations):
            extension_rank(P)

    def test_beta_outside_base_rejected(self):
        with pytest.raises(InconsistentRelations):
            BipotentPresentation(Z, (Symbolic("g"),), (Relation.of((2,), "1/2"),))

    def test_trivial_base_contradictions_caught(self):
        trivial = ValueLattice.of()
        direct = BipotentPresentation(
            trivial, (Numeric.of("1/3"), Symbolic("g")), (Relation.of((1, 0), 0),)
        )
        with pytest.raises(InconsistentRelations):
            extension_rank(direct)
        combined = BipotentPresentation(
            trivial,
            (Numeric.of("1/3"), Symbolic("g")),
            (Relation.of((1, 1), 0), Relation.of((2, 1), 0)),
        )
        with pytest.raises(InconsistentRelations):
            extension_rank(combined)

    def test_trivial_base_consistent_accepted(self):
        trivial = ValueLattice.of()
        P = BipotentPresentation(
            trivial,
            (Numeric.of("1/3"), Symbolic("g")),
            (Relation.of((1, 1), 0), Relation.of((2, 2), 0)),
        )
        assert_lattice_is(P, ((1, 1),))

    def test_pure_numeric_declared_relations_rejected(self):
        with pytest.raises(ValueError):
            BipotentPresentation(Z, (Numeric.of("1/2"),), (Relation.of((2,), 1),))


def reference_lattice(P):
    """The exponent lattice the long way: R.kernel of the value column, then la.hnf.

    Returns its basis, or None when the declared relations are inconsistent.
    """
    num, sym = P.numeric_indices(), P.symbolic_indices()
    g = P.base.single_generator()
    spanning = []  # (vector, beta) pairs spanning the lattice
    if num:
        scaled = [P.generators[i].value / (g or 1) for i in num]
        m = math.lcm(*(s.denominator for s in scaled))
        column = [[int(s * m)] for s in scaled] + ([[m]] if g else [])
        for k in R.kernel(column, 1):
            vec = [0] * P.n
            for pos, i in enumerate(num):
                vec[i] = k[pos]
            spanning.append((tuple(vec), R.value_of(P, vec)))
    spanning += [(r.exps, r.beta) for r in P.relations]
    vecs = [v for v, _ in spanning]
    # every combination of the spanning rows with no symbolic exponent must keep beta = value
    for c in R.kernel([[v[i] for i in sym] for v in vecs], len(sym)):
        vec = [sum(ci * v[j] for ci, v in zip(c, vecs)) for j in range(P.n)]
        if R.value_of(P, vec) != sum(ci * b for ci, (_, b) in zip(c, spanning)):
            return None
    return la.hnf(vecs, P.n)


def reference_dependent(basis, n, subset):
    complement = [j for j in range(n) if j not in subset]
    return len(R.kernel([[row[j] for j in complement] for row in basis], len(complement))) > 0


def random_presentation(rng, max_n=4):
    """Mixed numeric/symbolic generators, any base (trivial one time in four), random relations."""
    n = rng.randint(1, max_n)

    def generator(i):
        if rng.random() < 0.5:
            return Numeric(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6))))
        return Symbolic(f"s{i}")

    gens = tuple(generator(i) for i in range(n))
    base = rng.choice([(), (1,), (F(1, 2),), (F(2, 3), F(1, 2))])
    lattice = ValueLattice.of(*base)
    rels = ()
    if not all(isinstance(g, Numeric) for g in gens):
        g = lattice.single_generator()
        rels = tuple(
            Relation.of([rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3) * g)
            for _ in range(rng.randint(0, 3))
        )
    return BipotentPresentation(lattice, gens, rels)


class TestAgainstKernelReference:
    """The two lattice references agree: the one Hermite pass, and R.kernel followed by la.hnf.

    Every lattice oracle of the tests reads one of them; the library's dependence queries are
    checked against the kernel reference's basis.
    """

    def test_seeded_presentations(self):
        rng = random.Random(20261018)
        seen = {"inconsistent": 0, "trivial_base": 0, "mixed": 0}
        for _ in range(400):
            P = random_presentation(rng)
            want = reference_lattice(P)
            if want is None:
                seen["inconsistent"] += 1
                with pytest.raises(InconsistentRelations):
                    R.reference_exponent_lattice(P)
                with pytest.raises(InconsistentRelations):
                    extension_rank(P)
                continue
            seen["trivial_base"] += P.base.single_generator() == 0
            seen["mixed"] += bool(P.numeric_indices() and P.symbolic_indices())
            assert R.reference_exponent_lattice(P)[0] == want
            for _ in range(3):
                subset = [i for i in range(P.n) if rng.random() < 0.5] or [rng.randrange(P.n)]
                assert is_divisibly_dependent(P, subset) == reference_dependent(want, P.n, subset)
        assert all(count >= 20 for count in seen.values()), seen

    @pytest.mark.parametrize("family", ["numeric", "mixed", "item-10"])
    def test_one_pass_families(self, family):
        # the presentations TestAgainstOnePassReference checks the queries on, each family
        # under that class's seed
        if family == "item-10":
            Ps = [R.item_10_presentation(48)]
        elif family == "numeric":
            rng = random.Random("lattice-build-numeric")
            Ps = [pooled_numeric_presentation(rng) for _ in range(300)]
        else:
            rng = random.Random("lattice-build-mixed")
            Ps = [with_dependent_relations(rng, random_presentation(rng, max_n=6))[0] for _ in range(300)]
        for P in Ps:
            want = reference_lattice(P)
            if want is None:
                with pytest.raises(InconsistentRelations):
                    R.reference_exponent_lattice(P)
            else:
                assert R.reference_exponent_lattice(P)[0] == want


def pooled_numeric_presentation(rng):
    """Values from a small pool, so zero, negative and repeated ones are common; n = 0 included."""
    pool = [F(0), F(1), F(-1, 2), F(1, 2), F(5, 6), F(-7, 12), F(3), F(-10, 9), F(11, 35)]
    bases = [(), (1,), (F(1, 2),), (6,), (F(1, 6), F(1, 4))]
    values = [rng.choice(pool) if rng.random() < 0.6 else F(rng.randint(-99, 99), rng.randint(1, 99))
              for _ in range(rng.randint(0, 8))]
    return BipotentPresentation.from_values(ValueLattice.of(*rng.choice(bases)), *values)


def with_dependent_relations(rng, P):
    """P, or one time in two when P has relations, P with a multiple of one and the sum of two added.

    Returns the presentation and whether relations were added.
    """
    if not (P.relations and rng.random() < 0.5):
        return P, False
    a, b = rng.choice(P.relations), rng.choice(P.relations)
    extra = (Relation(tuple(2 * x for x in a.exps), 2 * a.beta),
             Relation(tuple(x + y for x, y in zip(a.exps, b.exps)), a.beta + b.beta))
    return BipotentPresentation(P.base, P.generators, P.relations + extra), True


class TestAgainstOnePassReference:
    """The library's queries against the lattice of the one Hermite pass over [t | exponents | beta] rows."""

    def test_numeric_presentations(self):
        rng = random.Random("lattice-build-numeric")
        for _ in range(300):
            P = pooled_numeric_presentation(rng)
            assert_lattice_is(P, R.reference_exponent_lattice(P)[0])

    def test_symbolic_and_mixed_presentations(self):
        rng = random.Random("lattice-build-mixed")
        inconsistent = dependent = 0
        for _ in range(300):
            P, added = with_dependent_relations(rng, random_presentation(rng, max_n=6))
            dependent += added
            try:
                want = R.reference_exponent_lattice(P)[0]
            except InconsistentRelations:
                inconsistent += 1
                with pytest.raises(InconsistentRelations):
                    extension_rank(P)
                continue
            assert_lattice_is(P, want)
        assert inconsistent >= 20 and dependent >= 50

    @pytest.mark.parametrize("base", [(1,), ()])
    def test_dependent_symbolic_relations(self, base):
        gens = (Symbolic("g"), Numeric.of("1/3"), Symbolic("h"))
        # over <1> the third relation reads 3(g + h) + 1 = 1; over {0} it is 3(g + h) = 0
        third = Relation.of((3, 3, 3), 1) if base else Relation.of((3, 0, 3), 0)
        rels = (Relation.of((1, 0, 1), 0), Relation.of((2, 0, 2), 0), third)
        for P in [
            BipotentPresentation(ValueLattice.of(*base), (Symbolic("g"), Symbolic("h")),
                                 (Relation.of((1, 1), 0), Relation.of((2, 2), 0))),
            BipotentPresentation(ValueLattice.of(*base), gens, rels),
        ]:
            assert_lattice_is(P, R.reference_exponent_lattice(P)[0])

    def test_item_10_presentation_at_48(self):
        P = R.item_10_presentation(48)
        assert_lattice_is(P, R.reference_exponent_lattice(P)[0])


class TestIntegerBetas:
    """Queries carry betas as integers over one denominator; their answers are exact Fractions."""

    # base (1/6)Z, a = 1/4, b = 1/9 and a symbolic s with a + 2s = 1/6, so s = -1/24 in a model
    P = BipotentPresentation(
        ValueLattice.of("1/6"),
        (Numeric.of("1/4"), Numeric.of("1/9"), Symbolic("s")),
        (Relation.of((1, 0, 2), "1/6"),),
    )

    def test_a_denominator_above_one_gives_exact_values(self):
        cases = [((0, 0, 1), (), (4, (), F(-1, 6))),
                 ((0, 0, 1), (0,), (2, (1,), F(-1, 3))),
                 ((0, 1, 0), (0,), (3, (0,), F(1, 3))),
                 ((1, 1, 0), (), (6, (), F(13, 6)))]
        for exps, subset, want in cases:
            w = divisible_dependence_witness(self.P, exps, subset)
            assert type(w.beta) is F and (w.power, w.exponents, w.beta) == want
        for exps, value in [((1, 1, 0), F(1, 36)), ((0, 0, 2), F(1, 12)), ((0, 1, 2), F(1, 36)),
                            ((3, -2, 6), F(1, 9)), ((0, 0, 1), None)]:
            got = canonical_coset_value(self.P, exps)
            assert got == value and (got is None or type(got) is F)


def smith_order(diag, V, vec):
    """Reference: the order of the class of `vec`, read off its Smith coordinates vec·V."""
    order = 1
    for j, z in enumerate(R.vec_mat(list(vec), V)):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if z != 0:
                return INFINITE
        elif z % d != 0:
            order = math.lcm(order, d // math.gcd(d, z % d))
    return order


class TestAgainstSmithReference:
    """Orders, ranks and witnesses from the Hermite basis against the Smith form of
    [units of the subset; lattice basis]."""

    def test_seeded_presentations(self):
        rng = random.Random(20261019)
        seen = {"mixed": 0, "symbolic_with_relations": 0, "trivial_base": 0}
        checked = 0
        while checked < 300:
            P = random_presentation(rng)
            try:
                basis = R.reference_exponent_lattice(P)[0]
            except InconsistentRelations:
                continue
            checked += 1
            seen["mixed"] += bool(P.numeric_indices() and P.symbolic_indices())
            seen["symbolic_with_relations"] += bool(P.symbolic_indices() and P.relations)
            seen["trivial_base"] += P.base.single_generator() == 0
            exps = tuple(rng.randint(-4, 4) for _ in range(P.n))
            _, diag, V, _ = la.smith(basis, P.n)
            assert torsion_degree(P, exps) == smith_order(diag, V, exps)
            for _ in range(3):
                subset = [i for i in range(P.n) if rng.random() < 0.4]
                _, diag, V, _ = la.smith([unit(P.n, i) for i in subset] + list(basis), P.n)
                factors = [d for d in diag if d != 0]
                want_rank = INFINITE if len(factors) < P.n else math.prod(factors)
                assert extension_rank(P, subset) == want_rank
                exps = tuple(rng.randint(-4, 4) for _ in range(P.n))
                w = divisible_dependence_witness(P, exps, subset)
                power = smith_order(diag, V, exps)
                if power == INFINITE:
                    assert w is None
                    continue
                assert w.power == power
                vec = [power * e for e in exps]
                for x, i in zip(w.exponents, subset):
                    vec[i] -= x
                assert R.beta_of(P, vec) == w.beta
        assert all(count >= 30 for count in seen.values()), seen


class TestSmith:
    def test_diag_2_3(self):
        factors, free_rank, torsion = R.smith_invariants([[2, 0], [0, 3]], 2)
        assert factors == (1, 6)
        assert free_rank == 0
        assert torsion == (6,)
        # oracle: explicit coset enumeration of Z^2 / <(2,0),(0,3)>
        assert coset_count(la.hnf([[2, 0], [0, 3]], 2), 2) == 6

    def test_empty_matrix(self):
        _, free_rank, torsion = R.smith_invariants([], 2)
        assert free_rank == 2
        assert torsion == ()

    def test_single_row(self):
        _, free_rank, torsion = R.smith_invariants([[2, 0]], 2)
        assert free_rank == 1
        assert torsion == (2,)
        # oracle: classes (x mod 2, y) -> two classes per y value
        rem = {la.reduce_by_hnf(v, la.hnf([[2, 0]], 2)) for v in product(range(-4, 5), repeat=2)}
        assert len({r[0] for r in rem}) == 2
        assert all(r[1] in range(-4, 5) for r in rem)

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=0, max_size=4))
    def test_transform_identity(self, rows):
        u, diag, v, vinv = la.smith(rows, 3)
        d = R.mat_mul(R.mat_mul(u, [list(r) for r in rows]), v) if rows else []
        for i in range(len(rows)):
            for j in range(3):
                want = diag[i] if i == j and i < len(diag) else 0
                assert d[i][j] == want
        assert R.mat_mul(v, vinv) == la.identity(3)


class TestSharedQuotient:
    """Queries on one presentation share its entry, whatever is queried between them.

    Each decomposition runs one Smith form of the entry's quotient, and keeps nothing.
    """

    def _counting(self, monkeypatch):
        # an entry's congruence is one `_cleared` pass
        calls = {"congruence": 0, "smith": 0}

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(bipotent, "_cleared", counted("congruence", bipotent._cleared))
        monkeypatch.setattr(la, "smith", counted("smith", la.smith))
        return calls

    def test_queries_share_one_entry_and_each_decomposition_runs_one_smith_form(self, monkeypatch):
        calls = self._counting(monkeypatch)
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")))
        for _ in range(3):
            assert decompose_extension(P).torsion_orders == (6,)
            assert extension_rank(P) == INFINITE
            assert torsion_degree(P, (1, 0, 0)) == 2
            assert torsion_subdomain_contains(P, (1, 1, 0))
            assert is_divisibly_dependent(P, (0, 1))
            assert divisible_dependence_witness(P, (1, 0, 0)).power == 2
            assert linearly_dependent_pair(P, (2, 0, 1), (0, 3, 1))
            assert canonical_coset_value(P, (1, 1, 0)) == F(5, 6)
        assert calls == {"congruence": 1, "smith": 3}

    @staticmethod
    def _yielding(monkeypatch):
        """Let another thread run after each congruence and each Smith form."""
        def yielding(fn):
            def wrapped(*args):
                out = fn(*args)
                time.sleep(0)
                return out

            return wrapped

        monkeypatch.setattr(bipotent, "_cleared", yielding(bipotent._cleared))
        monkeypatch.setattr(la, "smith", yielding(la.smith))

    @staticmethod
    def _run_threads(work, count):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)

    def test_threads_querying_two_presentations_agree_with_one_thread(self, monkeypatch):
        # each presentation fills its own entry, without a lock; a stage that lets another thread
        # run before it returns makes a second first query on a presentation likely to run
        # between the two stages of the first one
        self._yielding(monkeypatch)
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")))
        Q = numeric("1/4", "3/10")

        def answers(S):
            x = (1, 1, 0)[: S.n]
            return (decompose_extension(S), extension_rank(S), torsion_degree(S, x),
                    canonical_coset_value(S, x), divisible_dependence_witness(S, x, (0,)))

        expected = [answers(P), answers(Q)]
        results = [None] * 6

        def work(t):
            results[t] = [answers((P, Q)[(t + k) % 2]) for k in range(60)]

        self._run_threads(work, len(results))
        for t, got in enumerate(results):
            assert got == [expected[(t + k) % 2] for k in range(60)]

    def test_threads_interleaving_presentations_agree_with_one_thread(self, monkeypatch):
        # six threads step through eight presentations, one query at a time, each from its own
        # start: consecutive queries of a thread read different entries, and first queries on one
        # presentation race.  Racing first queries may each derive an entry, but the presentation
        # keeps one, so a further round derives none and runs one Smith form per decomposition
        queries = [
            decompose_extension,
            extension_rank,
            lambda S: torsion_degree(S, (1, 1) + (0,) * (S.n - 2)),
            lambda S: canonical_coset_value(S, (1, 1) + (0,) * (S.n - 2)),
            lambda S: divisible_dependence_witness(S, (1, 1) + (0,) * (S.n - 2), (0,)),
            lambda S: is_divisibly_dependent(S, (1,)),
        ]
        expected = [[query(T) for T in self._interleaved()] for query in queries]
        Ps = self._interleaved()
        self._yielding(monkeypatch)
        results = [None] * 6

        def order(t):
            return [(q, (t + i) % len(Ps)) for q in range(len(queries)) for i in range(len(Ps))]

        def work(t):
            results[t] = [queries[q](Ps[j]) for q, j in order(t)]

        self._run_threads(work, len(results))
        for t, got in enumerate(results):
            assert got == [expected[q][j] for q, j in order(t)]
        calls = self._counting(monkeypatch)
        assert [[query(P) for P in Ps] for query in queries] == expected
        assert calls == {"congruence": 0, "smith": len(Ps)}

    def test_repeated_decompositions_are_equal_and_keep_nothing(self, monkeypatch):
        calls = self._counting(monkeypatch)
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")))
        first = decompose_extension(P)
        entry = P._derived
        again = decompose_extension(P)
        assert again == first and again is not first
        assert P._derived is entry and len(entry) == 6
        assert calls == {"congruence": 1, "smith": 2}

    def test_decomposition_is_equal_after_another_presentation(self, monkeypatch):
        calls = self._counting(monkeypatch)
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")))
        first = decompose_extension(P)
        assert extension_rank(numeric("1/4")) == 4
        again = decompose_extension(P)
        assert again == first
        assert calls == {"congruence": 2, "smith": 2}

    def test_only_decompose_runs_a_smith_form(self, monkeypatch):
        # one per call, on the entry's quotient, whether or not the presentation has a
        # symbolic generator
        calls = self._counting(monkeypatch)
        P = numeric("1/2", "1/6")
        assert divisible_dependence_witness(P, (0, 1), subset=(0,)).power == 3
        assert extension_rank(P, over=(1,)) == 1
        assert extension_rank(P) == 6
        assert torsion_degree(P, (0, 1)) == 6
        assert is_bipotent_semifield(P)
        assert calls == {"congruence": 1, "smith": 0}
        first = decompose_extension(P)
        assert first.torsion_orders == (6,)
        again = decompose_extension(P)
        assert again == first and again is not first
        assert calls == {"congruence": 1, "smith": 2}
        S = BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")), (Relation.of((0, 3), 1),))
        assert extension_rank(S) == 6  # from the quotient, with no basis
        assert calls == {"congruence": 2, "smith": 2}
        assert decompose_extension(S).torsion_orders == (6,)
        assert calls == {"congruence": 2, "smith": 3}

    def test_two_threads_decomposing_one_presentation_agree(self, monkeypatch):
        # both threads are inside their Smith forms at once; neither writes the entry, so each
        # returns the same answer as a lone call, and the entry is the one derived before them
        gens, rels = (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")), (Relation.of((0, 2, 2), 1),)
        twin = BipotentPresentation(Z, gens, rels)  # equal, with an entry of its own
        want = (extension_rank(twin), decompose_extension(twin))
        calls = self._counting(monkeypatch)
        barrier, counted = threading.Barrier(2, timeout=30), la.smith

        def meeting(*args):
            barrier.wait()
            return counted(*args)

        monkeypatch.setattr(la, "smith", meeting)
        P = BipotentPresentation(Z, gens, rels)
        entry = bipotent._entry(P)  # the entry both threads find
        results = [None, None]

        def work(t):
            results[t] = decompose_extension(P)

        self._run_threads(work, 2)
        assert results == [want[1], want[1]]
        assert P._derived is entry
        assert calls == {"congruence": 1, "smith": 2}
        monkeypatch.setattr(la, "smith", counted)
        assert (extension_rank(P), decompose_extension(P)) == want
        assert calls == {"congruence": 1, "smith": 3}

    @staticmethod
    def _interleaved():
        """Eight presentations, each kind twice: numeric over <1> and over the trivial base, symbolic
        without declared relations, and symbolic with one."""
        return [
            R.item_10_presentation(64), R.item_10_presentation(48),
            BipotentPresentation(ValueLattice.of(), (Numeric.of("1/2"), Numeric.of("-1/3"))),
            BipotentPresentation(ValueLattice.of(), (Numeric.of("3/4"), Numeric.of("5/6"), Numeric.of(0))),
            BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g"))),
            BipotentPresentation(Z, (Symbolic("g"), Numeric.of("1/5"), Symbolic("h"))),
            BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")),
                                 (Relation.of((0, 2, 2), 1),)),
            BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")), (Relation.of((0, 3), 1),)),
        ]

    @pytest.mark.parametrize("k", [2, 8])
    def test_alternating_queries_derive_one_entry_per_presentation(self, monkeypatch, k):
        # a query on another presentation leaves each entry where it is: 200 queries alternating
        # over k presentations derive k entries, run one Smith form per decomposition, and answer
        # as fresh equal presentations do
        Ps = self._interleaved()[:k]
        xs = [(1,) + (0,) * (P.n - 1) for P in Ps]
        want = [(torsion_degree(T, x), decompose_extension(T)) for T, x in zip(self._interleaved(), xs)]
        calls = self._counting(monkeypatch)
        for i in range(200):
            j = i % k
            assert (torsion_degree(Ps[j], xs[j]), decompose_extension(Ps[j])) == want[j]
        assert calls == {"congruence": k, "smith": 200}

    def test_echelon_calls_of_lattice_builds_and_dependence_queries(self, monkeypatch):
        # the numeric part of a lattice is solved in closed form: a first query, which derives
        # the entry, runs a Hermite pass only to check declared relations, one over the
        # symbolic columns and the value
        calls = []
        echelon = la._echelon

        def counted(rows, ncols):
            calls.append(ncols)
            return echelon(rows, ncols)

        monkeypatch.setattr(la, "_echelon", counted)
        for base in (Z, ValueLattice.of()):
            for gens in [
                (Numeric.of("1/2"), Numeric.of("1/3"), Symbolic("g")),
                (Numeric.of("1/2"), Numeric.of("-1/3"), Numeric.of("1/2"), Numeric.of(0)),
                (Symbolic("g"),),
                (),
            ]:
                calls.clear()
                extension_rank(BipotentPresentation(base, gens))
                assert calls == []
            calls.clear()
            extension_rank(BipotentPresentation(
                base, (Numeric.of("1/3"), Symbolic("g")), (Relation.of((1, 1), 0), Relation.of((2, 2), 0))))
            assert calls == [2]
        calls.clear()
        extension_rank(R.item_10_presentation(48))
        assert calls == []
        # without declared relations a query answers from the congruence, a symbolic generator or not
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Numeric.of("1/3"), Numeric.of("1/5"), Symbolic("g")))
        extension_rank(P)
        calls.clear()
        assert is_divisibly_dependent(P, (0, 2))
        assert calls == []

    @staticmethod
    def _count_echelon(monkeypatch):
        """The widths of the `la._echelon` calls, as a list."""
        passes = []
        echelon = la._echelon

        def counted(rows, ncols):
            passes.append(ncols)
            return echelon(rows, ncols)

        monkeypatch.setattr(la, "_echelon", counted)
        return passes

    @pytest.mark.parametrize("case", ["1", "1/6", "trivial", "free-symbolic", "tower"])
    def test_numeric_queries_run_no_hermite_pass(self, monkeypatch, case):
        # without symbolic generators every query answers from the build's congruence,
        # complement-first subsets included; without declared relations so does every
        # query on symbolic generators
        calls = self._count_echelon(monkeypatch)
        if case == "tower":
            D = base_descriptor()
            # the rank over the base, and over the symbolic generators
            for value, rank, over_symbols in [("1/2", 2, 2), ("g", INFINITE, 2), ("1/3", INFINITE, 6),
                                              ("h", INFINITE, 6)]:
                D = uniform_closure(D, ExtScalar(F(2), value if value.isidentifier() else F(value)))
                P = D.value_part
                assert is_uniform_semifield(D) == (rank != INFINITE)
                assert extension_rank(P) == rank
                assert extension_rank(P, P.symbolic_indices()) == over_symbols
            assert D.value_part.n == 4
            assert calls == []
            return
        values = ("1/2", "1/3", "-1/5", "0", "7/4")
        if case == "free-symbolic":
            P = BipotentPresentation(Z, tuple(Symbolic(f"g{i}") if i in (1, 4) else Numeric.of(v)
                                              for i, v in enumerate(values)))
        else:
            base = {"1": Z, "1/6": ValueLattice.of("1/6"), "trivial": ValueLattice.of()}[case]
            P = BipotentPresentation(base, tuple(Numeric.of(v) for v in values))
        x, y = (1, 0, 2, 1, 0), (0, 3, -1, 0, 2)
        for query, args in [
            (torsion_degree, (x,)),
            (torsion_subdomain_contains, (x,)),
            (linearly_dependent_pair, (x, y)),
            (canonical_coset_value, (x,)),
            (extension_rank, ()),
            (extension_rank, ((0, 2),)),
            (extension_rank, ((3,),)),
            (is_bipotent_semifield, ()),
            (is_divisibly_dependent, ((0, 2),)),
            (is_divisibly_dependent, ((1,),)),
            (is_divisibly_dependent, ((3,),)),
            (divisible_dependence_witness, (x, (0, 2))),
            (divisible_dependence_witness, (x, (1, 3))),
            (divisible_dependence_witness, (y, ())),
        ]:
            query(P, *args)
        decompose_extension(P)
        assert calls == []

    def test_natural_order_queries_run_no_hermite_pass(self, monkeypatch):
        P = BipotentPresentation(
            Z, (Numeric.of("1/2"), Numeric.of("1/6"), Symbolic("g")), (Relation.of((0, 1, 2), 1),))
        extension_rank(P)
        calls = []
        echelon = la._echelon

        def counted(rows, ncols):
            calls.append(ncols)
            return echelon(rows, ncols)

        monkeypatch.setattr(la, "_echelon", counted)
        assert extension_rank(P) == 12
        assert is_bipotent_semifield(P)
        assert divisible_dependence_witness(P, (0, 0, 1)).power == 12
        # over (2,) leaves the prefix [0, 1] first: the natural order again
        assert extension_rank(P, over=(2,)) == 1
        assert calls == []
        assert extension_rank(P, over=(0,)) == 6
        assert len(calls) == 1

    def test_queries_with_relations_run_at_most_one_pass_over_the_columns_they_read(self, monkeypatch):
        # the quotient's rows answer orders, classes, coset values and the rank over the base;
        # a subset's query runs one pass over the symbolic columns C it leaves out and the value
        # column, the witness's also over the subset's columns
        calls = self._count_echelon(monkeypatch)
        P = BipotentPresentation(Z, (Symbolic("g"), Numeric.of("1/6"), Numeric.of("1/2"), Numeric.of("1/5")),
                                 (Relation.of((2, 0, 0, 0), 1),))
        assert extension_rank(P) == 60
        assert calls == [2]  # the relation check, once per entry
        for query, args, want, width in [
            (canonical_coset_value, ((0, 1, 1, 1),), F(13, 15), []),
            (extension_rank, ((1, 2, 3),), 2, [2]),  # C = [g], then the value column
            (extension_rank, ((2, 3),), 6, [2]),
            (extension_rank, ((0, 3),), 6, []),  # no symbolic column left: a gcd
            (divisible_dependence_witness, ((0, 1, 0, 0), (2, 3)), DependenceWitness(3, (1, 0), F(0)), [4]),
        ]:
            calls.clear()
            assert query(P, *args) == want
            assert calls == width
        rng = random.Random(32)
        seen = {"no_pass": 0, "one_pass": 0, "gcd": 0}
        checked = 0
        while checked < 150:
            n = rng.randint(2, 7)
            P = lattice_style_presentation(rng, n, True)
            if not P.relations:
                continue
            checked += 1
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            y = tuple(rng.randint(-4, 4) for _ in range(n))
            subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            c = sum(1 for j in P.symbolic_indices() if j not in subset)
            wants = [R.coset_value(P, x), R.extension_rank(P), R.witness(P, x), R.extension_rank(P, subset),
                     R.is_divisibly_dependent(P, subset), R.witness(P, x, subset)]
            torsion_degree(P, x)  # derives the entry, with its one pass over the relations
            calls.clear()
            linearly_dependent_pair(P, x, y)
            assert [canonical_coset_value(P, x), extension_rank(P), divisible_dependence_witness(P, x)] == wants[:3]
            assert calls == []
            seen["no_pass"] += 1
            for query, args, width, want in zip(
                (extension_rank, is_divisibly_dependent, divisible_dependence_witness),
                ((subset,), (subset,), (x, subset)),
                (c + 1, c + 1, c + 1 + len(subset)),
                wants[3:],
            ):
                calls.clear()
                assert query(P, *args) == want
                assert calls in ([], [width])
                seen["one_pass" if calls else "gcd"] += 1
        assert all(count >= 50 for count in seen.values()), seen

    def test_alternating_presentations_keep_their_answers(self):
        P1, P2 = numeric("1/2", "1/3"), numeric("1/4", "1/6")
        for P, rank, degree in [(P1, 6, 2), (P2, 12, 4), (P1, 6, 2)]:
            assert extension_rank(P) == rank
            assert torsion_degree(P, (1, 0)) == degree
            assert decompose_extension(P).torsion_orders == (rank,)
        # an equal presentation built afresh is a different object, and still answers alike
        assert extension_rank(numeric("1/2", "1/3")) == 6

    def test_inconsistent_relations_raise_on_every_query(self):
        P = BipotentPresentation(
            Z,
            (Numeric.of("1/3"), Symbolic("g")),
            (Relation.of((1, 1), 0), Relation.of((2, 1), 0)),
        )
        queries = [
            lambda: decompose_extension(P),
            lambda: extension_rank(P),
            lambda: torsion_degree(P, (1, 0)),
            lambda: divisible_dependence_witness(P, (1, 0), subset=(1,)),
            lambda: linearly_dependent_pair(P, (1, 0), (0, 1)),
            lambda: canonical_coset_value(P, (1, 0)),
        ]
        for query in queries + queries:
            with pytest.raises(InconsistentRelations):
                query()

    def test_inconsistent_relations_are_refused_from_the_entry(self, monkeypatch):
        # <1>[1/2, g | g = 0, 1/2 + g = 0]: P keeps the refusal, so three queries clear the values
        # once, and each raises an error of its own
        calls = self._counting(monkeypatch)
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")),
                                 (Relation.of((0, 1), 0), Relation.of((1, 1), 0)))
        raised = []
        for _ in range(3):
            with pytest.raises(InconsistentRelations) as info:
                extension_rank(P)
            raised.append(info.value)
        assert calls == {"congruence": 1, "smith": 0}
        assert len({id(e) for e in raised}) == 3
        assert len({str(e) for e in raised}) == 1


PRIMES = (2, 3, 5, 7)
BASES = (F(1), F(1, 2), F(2), F(1, 6), F(3))


def lattice_style_presentation(rng, n, mixed):
    """A presentation drawn like the `lattice` benchmark's, with n generators.

    Numeric values have denominators built from one to three of the primes
    2, 3, 5, 7; the base is one or two of BASES, trivial one time in ten.  A
    mixed presentation has 1-4 symbolic generators and up to as many
    declared relations, each worth a base multiple, whose symbolic parts are
    independent, so they are consistent.
    """

    def value():
        d = math.prod(p ** rng.randint(1, 2) for p in rng.sample(PRIMES, rng.randint(1, 3)))
        return F(rng.choice([i for i in range(-30, 31) if i]), d)

    base = ValueLattice.of() if rng.random() < 0.1 else ValueLattice.of(*rng.sample(BASES, rng.randint(1, 2)))
    if not mixed:
        return BipotentPresentation(base, tuple(Numeric(value()) for _ in range(n)))
    sym = sorted(rng.sample(range(n), rng.randint(1, min(4, n - 1))))
    gens = tuple(Symbolic(f"s{i}") if i in sym else Numeric(value()) for i in range(n))
    rels = []
    for k in range(rng.randint(0, len(sym))):
        exps = [0 if i in sym else rng.randint(-2, 2) for i in range(n)]
        exps[sym[k]] = rng.choice((-3, -2, -1, 1, 2, 3))  # relation k starts at symbol k
        for i in sym[k + 1:]:
            exps[i] = rng.randint(-3, 3)
        rels.append(Relation(tuple(exps), base.single_generator() * rng.randint(-3, 3)))
    return BipotentPresentation(base, gens, tuple(rels))


class TestIntegerQueries:
    """Queries run on the integers the lattice build clears; only answers are Fractions."""

    @staticmethod
    def _fractions_built(call):
        """The answer of `call()` and the number of `Fraction.__new__` calls it made."""
        new = F.__new__.__code__
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is new:
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(count)
        try:
            out = call()
        finally:
            sys.setprofile(None)
        return out, len(calls)

    def test_fraction_counts_per_query_and_build(self):
        rng = random.Random(25)
        most = {}  # query name -> most Fraction.__new__ calls in one call
        builds = {}  # n -> most calls in a first query, which builds the lattice
        for n in (2, 3, 5, 8, 10, 16, 32):
            for mixed in (False, True, False, True):
                P = lattice_style_presentation(rng, n, mixed)
                _, built = self._fractions_built(lambda: torsion_degree(P, (0,) * n))
                builds[n] = max(builds.get(n, 0), built)
                for _ in range(4):
                    x = tuple(rng.randint(-4, 4) for _ in range(n))
                    y = tuple(rng.randint(-4, 4) for _ in range(n))
                    subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
                    for query, args, want in [
                        (torsion_degree, (x,), None),
                        (extension_rank, (subset,), R.extension_rank(P, subset)),
                        (is_divisibly_dependent, (subset,), R.is_divisibly_dependent(P, subset)),
                        (linearly_dependent_pair, (x, y), None),
                        (divisible_dependence_witness, (x, subset), None),
                        (canonical_coset_value, (x,), R.coset_value(P, x)),
                        (decompose_extension, (), None),
                    ]:
                        got, calls = self._fractions_built(lambda: query(P, *args))
                        most[query.__name__] = max(most.get(query.__name__, 0), calls)
                        if want is not None:
                            assert got == want
                        if query is divisible_dependence_witness and got is not None:
                            assert R.witness_value_holds(P, x, subset, got)
        assert most == {
            "torsion_degree": 0,
            "extension_rank": 0,
            "is_divisibly_dependent": 0,
            "linearly_dependent_pair": 0,
            "divisible_dependence_witness": 1,
            "canonical_coset_value": 1,
            "decompose_extension": 0,
        }
        # the build clears the values once and reads the base generator its lattice computed when built
        assert max(builds.values()) == 0, builds


@st.composite
def cleared_presentations(draw):
    """Presentations whose base generator's denominator need not divide the values' lcm.

    Values over 5, 7 or 35 against bases 3/2 and 1/6, trivial bases, and
    symbolic generators with random relations, consistent or not.
    """
    n = draw(st.integers(1, 4))
    base = ValueLattice.of(*draw(st.sampled_from([(), (F(3, 2),), (F(1, 6),), (F(1),), (F(2, 3), F(1, 2))])))
    gens = tuple(
        Numeric(F(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 5, 7, 35, 3, 4)))))
        if draw(st.booleans())
        else Symbolic(f"s{i}")
        for i in range(n)
    )
    rels = ()
    if any(isinstance(g, Symbolic) for g in gens):
        g = base.single_generator()
        rels = tuple(
            Relation.of([draw(st.integers(-3, 3)) for _ in range(n)], draw(st.integers(-3, 3)) * g)
            for _ in range(draw(st.integers(0, 3)))
        )
    return BipotentPresentation(base, gens, rels)


@given(cleared_presentations(), st.data())
def test_integer_queries_match_the_fraction_formulas(P, data):
    try:
        R.check_relations(P)
    except InconsistentRelations:
        for query in (extension_rank, lambda P: canonical_coset_value(P, (0,) * P.n)):
            with pytest.raises(InconsistentRelations):
                query(P)
        return
    exps = tuple(data.draw(st.integers(-4, 4)) for _ in range(P.n))
    subset = tuple(data.draw(st.sets(st.integers(0, P.n - 1))))
    assert canonical_coset_value(P, exps) == R.coset_value(P, exps)
    witness = divisible_dependence_witness(P, exps, subset)
    assert witness is None or R.witness_value_holds(P, exps, subset, witness)
    assert extension_rank(P, subset) == R.extension_rank(P, subset)
    if subset:
        assert is_divisibly_dependent(P, subset) == R.is_divisibly_dependent(P, subset)


class TestDecompose:
    def test_halves_and_thirds(self):
        P = numeric("1/2", "1/3")
        dec = decompose_extension(P)
        assert dec.free_rank == 0
        assert dec.torsion_orders == (6,)
        mono = dec.torsion_monomials[0]
        value = R.value_of(P, mono)
        # oracle: 6*value is in Z, k*value is not for 1 <= k < 6
        assert (6 * value).denominator == 1
        assert all((k * value).denominator != 1 for k in range(1, 6))

    def test_symbolic_free(self):
        P = BipotentPresentation(Z, (Symbolic("g"),))
        dec = decompose_extension(P)
        assert dec.free_rank == 1
        assert dec.torsion_orders == ()

    def test_mixed(self):
        P = BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")))
        dec = decompose_extension(P)
        assert dec.free_rank == 1
        assert dec.torsion_orders == (2,)

    def test_canonical_coset_value(self):
        P = numeric("1/2", "1/3")
        dec = decompose_extension(P)
        v = canonical_coset_value(P, dec.torsion_monomials[0])
        assert v in (F(1, 6), F(5, 6))
        assert 0 <= v < 1

    def _check_roundtrip(self, P):
        dec = decompose_extension(P)
        basis = R.reference_exponent_lattice(P)[0]
        n = P.n
        # free part divisibly independent: only the zero combination of the
        # free monomials lands in the lattice
        if dec.free_monomials:
            stacked = [list(m) for m in dec.free_monomials] + [list(r) for r in basis]
            for kvec in R.kernel(stacked, n):
                assert all(c == 0 for c in kvec[: len(dec.free_monomials)])
        # torsion orders are the invariant factors > 1 of the lattice
        if basis:
            assert dec.torsion_orders == R.smith_invariants(basis, n)[2]
        # each torsion monomial's order is minimal
        for mono, order in zip(dec.torsion_monomials, dec.torsion_orders):
            assert torsion_degree(P, mono) == order
        # every generator is regenerated by its coordinates
        for j, (fc, tc) in enumerate(dec.generator_coords):
            combo = [0] * n
            for c, m in list(zip(fc, dec.free_monomials)) + list(zip(tc, dec.torsion_monomials)):
                combo = [a + c * b for a, b in zip(combo, m)]
            diff = tuple(a - b for a, b in zip(unit(n, j), combo))
            assert R.in_lattice(basis, diff)
        return dec

    def test_roundtrip_and_permutation_invariance(self):
        rng = random.Random(20240811)
        pool = [F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(1, 6), F(3, 8), F(5, 6)]
        for _ in range(40):
            n = rng.randint(1, 4)
            gens = []
            for i in range(n):
                if rng.random() < 0.3:
                    gens.append(Symbolic(f"g{i}"))
                else:
                    gens.append(Numeric(rng.choice(pool)))
            P = BipotentPresentation(Z, tuple(gens))
            dec = self._check_roundtrip(P)
            t, orders = dec.free_rank, dec.torsion_orders
            for perm in permutations(range(n)):
                dp = decompose_extension(R.permuted(P, perm))
                assert dp.free_rank == t
                assert dp.torsion_orders == orders

    def test_roundtrip_with_declared_relations(self):
        # drawn like the `lattice` benchmark's mixed sessions: 1-4 symbolic generators and
        # relations with numeric exponents, a third of them with extra random relations (some
        # inconsistent), over the trivial base one time in six
        rng = random.Random(3403)
        seen = {"trivial_base": 0, "extra": 0, "inconsistent": 0, "free": 0, "torsion": 0, "symbols_2+": 0}
        for i in range(360):
            n = rng.randint(3, 7)
            P = lattice_style_presentation(rng, n, True)
            base, rels = P.base, P.relations
            if i % 6 == 0:
                base, rels = ValueLattice.of(), tuple(Relation(r.exps, F(0)) for r in rels)
            if i % 3 == 1:
                g = base.single_generator()
                rels += tuple(Relation(tuple(rng.randint(-3, 3) for _ in range(n)), g * rng.randint(-3, 3))
                              for _ in range(rng.randint(1, 2)))
                seen["extra"] += 1
            P = BipotentPresentation(base, P.generators, rels)
            seen["trivial_base"] += base.single_generator() == 0
            try:
                R.check_relations(P)
            except InconsistentRelations:
                seen["inconsistent"] += 1
                with pytest.raises(InconsistentRelations):
                    decompose_extension(P)
                continue
            dec = self._check_roundtrip(P)
            assert dec.free_rank == R.smith_invariants(R.reference_exponent_lattice(P)[0], n)[1]
            assert dec.rank() == extension_rank(P)
            for _, tc in dec.generator_coords:
                assert all(-d < 2 * c <= d for c, d in zip(tc, dec.torsion_orders))
            seen["free"] += dec.free_rank > 0
            seen["torsion"] += bool(dec.torsion_orders)
            seen["symbols_2+"] += len(P.symbolic_indices()) >= 2
        assert all(count >= 30 for count in seen.values()), seen


def check_closed_form(P):
    """The closed-form decomposition of a numeric presentation, with Smith's invariants as the oracle.

    Over a base <g>: at most one torsion monomial, of order D and value g/D
    modulo the base, Hermite-reduced (every entry below D), and generator
    coordinates in (-D/2, D/2].  Over the trivial base: at most one free
    monomial, of positive value, Hermite-reduced, and each generator's value
    its coordinate times that value.  Every generator is rebuilt from its
    coordinates modulo the lattice.
    """
    dec = decompose_extension(P)
    basis = R.reference_exponent_lattice(P)[0]
    n = P.n
    _, free_rank, torsion = R.smith_invariants(basis, n)
    assert (dec.free_rank, dec.torsion_orders) == (free_rank, torsion)
    assert len(dec.free_monomials) + len(dec.torsion_monomials) <= 1
    D = math.prod(dec.torsion_orders)
    assert extension_rank(P) == (INFINITE if dec.free_rank else D)
    g = P.base.single_generator()
    for mono in dec.torsion_monomials:
        assert la.reduce_by_hnf(mono, basis) == mono
        assert all(0 <= x < D for x in mono)
        assert torsion_degree(P, mono) == D
        assert canonical_coset_value(P, mono) == g / D
    for mono in dec.free_monomials:
        assert g == 0
        assert la.reduce_by_hnf(mono, basis) == mono
        h = R.value_of(P, mono)
        assert h > 0
        assert all(gen.value == fc[0] * h for gen, (fc, _) in zip(P.generators, dec.generator_coords))
    assert len(dec.generator_coords) == n
    for j, (fc, tc) in enumerate(dec.generator_coords):
        assert all(-D < 2 * c <= D for c in tc)
        combo = [0] * n
        for c, mono in list(zip(fc, dec.free_monomials)) + list(zip(tc, dec.torsion_monomials)):
            combo = [a + c * b for a, b in zip(combo, mono)]
        assert linearly_dependent_pair(P, unit(n, j), tuple(combo))
    return dec


CLOSED_FORM_BASES = [
    ValueLattice.of(1),
    ValueLattice.of("3/2"),
    ValueLattice.of("1/6", "3/4"),
    ValueLattice.of("2", "5/3", "10"),
    ValueLattice.of(),
]


class TestClosedFormDecomposition:
    """Presentations without symbolic generators have a canonical decomposition: one gcd's closed form.

    The Smith form of their one-column quotient (m/G) reads exactly that form.
    """

    @pytest.mark.parametrize("base", CLOSED_FORM_BASES, ids=str)
    @pytest.mark.parametrize("values, shape", [
        ((), (0, ())),
        (("0",), (0, ())),
        (("0", "0"), (0, ())),
        (("-5/7",), None),
        (("1/2", "1/3"), None),
        (("-1/2", "0", "7/9", "-2/15"), None),
        (("3", "-6", "15/2"), None),
    ])
    def test_edge_cases_against_smith(self, base, values, shape):
        dec = check_closed_form(BipotentPresentation.from_values(base, *values))
        if shape is not None:
            assert (dec.free_rank, dec.torsion_orders) == shape

    def test_values_in_the_base_have_order_1(self):
        P = BipotentPresentation.from_values(ValueLattice.of("1/2"), "1", "-3/2", "0")
        dec = check_closed_form(P)
        assert dec == bipotent.ExtDecomposition((), (), (), (((), ()),) * 3)

    def test_trivial_base_is_free_of_rank_1(self):
        P = BipotentPresentation.from_values(ValueLattice.of(), "1/2", "-1/3", "0")
        dec = check_closed_form(P)
        assert dec.free_monomials == ((1, 1, 0),)  # value 1/2 - 1/3 = 1/6, the gcd of the values
        assert [fc for fc, _ in dec.generator_coords] == [(3,), (-2,), (0,)]

    def test_sixths(self):
        # 1/2 + 2*(1/3) = 7/6, which is 1/6 modulo <1>; 1/2 = 3*(1/6) and 1/3 = 2*(1/6)
        dec = check_closed_form(numeric("1/2", "1/3"))
        assert dec.torsion_monomials == ((1, 2),)
        assert dec.generator_coords == (((), (3,)), ((), (2,)))

    def test_symmetric_residues(self):
        # 1/6 and 5/6 over <1>: the coordinate of 5/6 is -1, not 5
        dec = check_closed_form(numeric("1/6", "5/6"))
        assert dec.torsion_orders == (6,)
        assert dec.generator_coords == (((), (1,)), ((), (-1,)))

    def test_the_chain_starts_from_the_order(self):
        # 2/3 over <1>: D = 3 and t/G = 2, so a chain over the t/G alone would end at 2 and
        # pick the monomial (1,), of value 2/3; from D it picks (2,), of value 4/3 = 1/3 modulo 1
        dec = check_closed_form(numeric("2/3"))
        assert dec.torsion_monomials == ((2,),)
        assert dec.generator_coords == (((), (-1,)),)

    def test_seeded_presentations(self):
        rng = random.Random(2610)
        seen = {"trivial_base": 0, "order_1": 0, "zero_value": 0, "negative_value": 0, "many": 0}
        for _ in range(400):
            base = rng.choice(CLOSED_FORM_BASES)
            n = rng.randint(0, 7)
            nums = [rng.randint(-40, 40) if rng.random() < 0.9 else 0 for _ in range(n)]
            values = [F(a, rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35))) for a in nums]
            dec = check_closed_form(BipotentPresentation.from_values(base, *values))
            seen["trivial_base"] += base.single_generator() == 0
            seen["order_1"] += not (dec.free_monomials or dec.torsion_monomials)
            seen["zero_value"] += 0 in values
            seen["negative_value"] += any(v < 0 for v in values)
            seen["many"] += n >= 5
        assert all(count >= 20 for count in seen.values()), seen

    @given(
        st.sampled_from(CLOSED_FORM_BASES),
        st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=6),
    )
    def test_hypothesis_presentations(self, base, values):
        check_closed_form(BipotentPresentation.from_values(base, *values))


def _numeric_pin_inputs():
    """2,000 seeded numeric presentations over CLOSED_FORM_BASES (the trivial one among them), some values 0."""
    rng = random.Random(3402)
    for _ in range(2000):
        base = rng.choice(CLOSED_FORM_BASES)
        values = [F(0) if rng.random() < 0.15 else
                  F(rng.randint(-10 ** rng.randint(1, 6), 10 ** 6), rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35, 49, 720)))
                  for _ in range(rng.randint(0, 8))]
        yield BipotentPresentation(base, tuple(Numeric(v) for v in values))


def test_numeric_decompositions_are_pinned():
    # SHA-256 of repr(decompose_extension(P)) plus a newline per input of `_numeric_pin_inputs`,
    # computed with the closed form that decomposed numeric presentations before every
    # presentation read its quotient's Smith form.  Any change to a numeric decomposition's
    # monomial, order or coordinates changes the digest.
    h = hashlib.sha256()
    seen = {"trivial_base": 0, "zero_value": 0}
    for P in _numeric_pin_inputs():
        h.update((repr(decompose_extension(P)) + "\n").encode())
        seen["trivial_base"] += P.base.single_generator() == 0
        seen["zero_value"] += any(g.value == 0 for g in P.generators)
    assert seen == {"trivial_base": 402, "zero_value": 833}
    assert h.hexdigest() == "29b789d9bfbc39bedaf68c83a30dd607068a2d393425dd9c6541d7aad0870012"


class TestClosedFormQueries:
    """Queries on presentations without symbolic generators agree with the Hermite path.

    P plus a symbolic generator s with the relation s = 0 has P's lattice
    plus the vector e_s, and its symbol sends every query down the Hermite
    path; each query that leaves s out must answer alike on the two, the
    witness's exponents and beta included.
    """

    @staticmethod
    def _answers(P, draws):
        out = [is_bipotent_semifield(P)]
        for x, y, subset in draws:
            out += [
                torsion_degree(P, x),
                torsion_subdomain_contains(P, x),
                linearly_dependent_pair(P, x, y),
                canonical_coset_value(P, x),
                extension_rank(P, subset),
                divisible_dependence_witness(P, x, subset),
            ]
            if subset:
                out.append(is_divisibly_dependent(P, subset))
        dec = decompose_extension(P)
        return out + [dec.free_rank, dec.torsion_orders, dec.rank()]

    def test_seeded_presentations_agree_with_the_hermite_path(self):
        rng = random.Random(30)
        compared = 0
        for _ in range(700):
            n = rng.randint(1, 7)
            if rng.randrange(6):
                base = ValueLattice.of(*rng.sample(BASES, rng.randint(1, 2)))
            else:
                base = ValueLattice.of()
            values = [F(0) if rng.random() < 0.15 else F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 5, 6, 9, 35)))
                      for _ in range(n)]
            P = BipotentPresentation(base, tuple(Numeric(v) for v in values))
            S = BipotentPresentation(base, P.generators + (Symbolic("s"),), (Relation((0,) * n + (1,), F(0)),))
            draws = []
            for j in range(12):
                x = tuple(rng.randint(-6, 6) for _ in range(n))
                y = tuple(rng.randint(-6, 6) for _ in range(n))
                subset = () if j == 0 else tuple(range(n)) if j == 1 else tuple(rng.sample(range(n), rng.randint(1, n)))
                draws.append((x, y, subset))
            want = self._answers(S, [(x + (0,), y + (0,), subset) for x, y, subset in draws])
            assert self._answers(P, draws) == want, P
            compared += len(want)
        assert compared > 50000


class TestWitnessAgainstTheBasis:
    """The witness from the (s+1)-wide quotient against the n-wide, complement-first one of `tests/reference.py`.

    Both give the Hermite-reduced exponents of their coset, so power, exponents and beta agree
    exactly; the relation check in `_entry` raises where `R.check_relations` does.
    """

    def test_seeded_presentations_match_exactly(self):
        rng = random.Random(3201)
        seen = {"numeric": 0, "free": 0, "relations": 0, "extra": 0, "inconsistent": 0, "none": 0, "found": 0}
        for i in range(1200):
            n = rng.randint(2, 7)
            kind = ("numeric", "free", "relations")[i % 3]
            P = lattice_style_presentation(rng, n, kind != "numeric")
            if kind == "free":
                P = BipotentPresentation(P.base, P.generators)
            elif kind == "relations" and rng.random() < 0.4:
                g = P.base.single_generator()
                extra = tuple(Relation(tuple(rng.randint(-3, 3) for _ in range(n)), g * rng.randint(-3, 3))
                              for _ in range(rng.randint(1, 2)))
                P = BipotentPresentation(P.base, P.generators, P.relations + extra)
                seen["extra"] += 1
            seen[kind] += 1
            try:
                R.check_relations(P)
            except InconsistentRelations:
                seen["inconsistent"] += 1
                with pytest.raises(InconsistentRelations):
                    divisible_dependence_witness(P, (0,) * n)
                continue
            for _ in range(4):
                x = tuple(rng.randint(-5, 5) for _ in range(n))
                subset = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                want = R.witness(P, x, subset)
                assert divisible_dependence_witness(P, x, subset) == want
                seen["none" if want is None else "found"] += 1
        assert all(count >= 100 for count in seen.values()), seen


class TestDecompositionGrowth:
    """Entry sizes and time of decompositions on many 6-digit values (ROADMAP items 10 and 25).

    The symbolic case adds two symbolic generators bound by two relations with numeric
    exponents (`R.item_10_symbolic_presentation`).
    """

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    def test_entries_have_at_most_the_bits_of_the_order(self, n):
        # under Smith the n = 32 monomial had 2191-bit entries against a 503-bit order
        dec = decompose_extension(R.item_10_presentation(n))
        (order,) = dec.torsion_orders
        entries = [x for mono in dec.torsion_monomials for x in mono]
        entries += [c for _, tc in dec.generator_coords for c in tc]
        assert max(abs(x).bit_length() for x in entries) <= order.bit_length()

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    def test_symbolic_entries_have_at_most_the_bits_of_the_order(self, n):
        # a Smith form of the n-wide basis gave 3041-bit monomial entries against a 506-bit
        # order at n = 32, and 6107 bits against 946 at n = 64
        P = R.item_10_symbolic_presentation(n)
        dec = decompose_extension(P)
        assert dec.free_rank == 0 and len(dec.torsion_orders) == 2
        order = math.prod(dec.torsion_orders)
        assert extension_rank(P) == order
        entries = [x for mono in dec.torsion_monomials for x in mono]
        assert max(abs(x).bit_length() for x in entries) <= order.bit_length()
        for _, tc in dec.generator_coords:
            assert all(-d < 2 * c <= d for c, d in zip(tc, dec.torsion_orders))
        for mono, d in zip(dec.torsion_monomials, dec.torsion_orders):
            assert torsion_degree(P, mono) == d

    def test_64_generators_decompose_in_under_a_quarter_second(self):
        # process time of the lattice build and the decomposition; under Smith it was ~1.6 s
        P = R.item_10_presentation(64)
        start = time.process_time()
        decompose_extension(P)
        assert time.process_time() - start < 0.25

    def test_64_generators_and_two_symbols_decompose_in_under_a_quarter_second(self):
        # process time of the entry and the decomposition; a Smith form of the n-wide basis took ~1.6 s
        P = R.item_10_symbolic_presentation(64)
        start = time.process_time()
        decompose_extension(P)
        assert time.process_time() - start < 0.25


class TestDependence:
    def test_halves_thirds_dependent(self):
        assert is_divisibly_dependent(numeric("1/2", "1/3"), (0, 1))

    def test_lone_symbol_independent(self):
        P = BipotentPresentation(Z, (Symbolic("g"),))
        assert not is_divisibly_dependent(P, (0,))

    def test_halves_quarters_dependent(self):
        # oracle: 2*(1/4) - 1*(1/2) = 0 in Z
        assert 2 * F(1, 4) - F(1, 2) == 0
        assert is_divisibly_dependent(numeric("1/2", "1/4"), (0, 1))

    def test_witness_for_half(self):
        w = divisible_dependence_witness(numeric("1/2"), (1,))
        assert (w.power, w.exponents, w.beta) == (2, (), 1)

    def test_witness_absent_for_symbol(self):
        P = BipotentPresentation(Z, (Symbolic("g"),))
        assert divisible_dependence_witness(P, (1,)) is None

    def test_witness_sixth_over_half(self):
        P = numeric("1/2", "1/6")
        w = divisible_dependence_witness(P, (0, 1), subset=(0,))
        assert w.power == 3
        # 3*(1/6) = exponents[0]*(1/2) + beta, exactly
        assert 3 * F(1, 6) == w.exponents[0] * F(1, 2) + w.beta

    def test_set_dependence_iff_some_generator_depends_on_rest(self):
        rng = random.Random(7)
        pool = [F(1, 2), F(1, 3), F(2, 5), F(1, 4)]
        for _ in range(25):
            n = rng.randint(2, 3)
            gens = [
                Symbolic(f"g{i}") if rng.random() < 0.5 else Numeric(rng.choice(pool))
                for i in range(n)
            ]
            P = BipotentPresentation(Z, tuple(gens))
            subset = tuple(range(n))
            dep = is_divisibly_dependent(P, subset)
            witnessed = any(
                divisible_dependence_witness(P, unit(n, j), tuple(i for i in subset if i != j))
                is not None and
                divisible_dependence_witness(P, unit(n, j), tuple(i for i in subset if i != j)).power >= 1
                for j in subset
            )
            assert dep == witnessed


class TestDegreesAndRanks:
    def test_torsion_degree_examples(self):
        assert torsion_degree(numeric("1/2"), (1,)) == 2
        assert torsion_degree(numeric(2), (1,)) == 1
        P = BipotentPresentation(Z, (Symbolic("g"),))
        assert torsion_degree(P, (1,)) == INFINITE

    def test_degree_divides_all_powers_in_base(self):
        # the powers landing in the base form an ideal
        P = numeric("5/6", "1/4")
        basis = R.reference_exponent_lattice(P)[0]
        for exps in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            d = torsion_degree(P, exps)
            for k in range(1, 25):
                if R.in_lattice(basis, tuple(k * e for e in exps)):
                    assert k % d == 0

    def test_rank_of_sixth(self):
        P = numeric("1/6")
        assert extension_rank(P) == 6
        # oracle: explicit coset enumeration of (1/6)Z / Z
        cosets = {(k * F(1, 6)) % 1 for k in range(-12, 13)}
        assert len(cosets) == 6

    def test_tower_multiplicativity(self):
        P = numeric("1/2", "1/6")
        over_half = extension_rank(P, over=(0,))
        half_over_base = extension_rank(numeric("1/2"))
        assert (over_half, half_over_base) == (3, 2)
        assert extension_rank(P) == 6 == over_half * half_over_base

    def test_symbolic_rank_infinite(self):
        P = BipotentPresentation(Z, (Symbolic("g"),))
        assert extension_rank(P) == INFINITE

    def test_rank_is_the_product_of_the_torsion_orders(self):
        # the rank read off the natural-order Hermite basis against the Smith decomposition
        rng = random.Random(20261019)
        seen = {"numeric": 0, "symbolic": 0, "mixed": 0, "trivial_base": 0, "finite": 0, "infinite": 0}
        for _ in range(300):
            P = random_presentation(rng)
            try:
                dec = decompose_extension(P)
            except InconsistentRelations:
                continue
            num, sym = P.numeric_indices(), P.symbolic_indices()
            seen["mixed" if num and sym else "numeric" if num else "symbolic"] += 1
            seen["trivial_base"] += P.base.single_generator() == 0
            want = INFINITE if dec.free_rank else math.prod(dec.torsion_orders)
            seen["infinite" if dec.free_rank else "finite"] += 1
            assert extension_rank(P) == want == dec.rank()
        assert all(count >= 20 for count in seen.values()), seen

    @given(
        st.lists(st.builds(F, st.integers(1, 8), st.integers(1, 6)), min_size=1, max_size=3)
    )
    def test_rank_equals_lattice_determinant(self, values):
        # independent oracle: the quotient order is the absolute determinant
        # of a full-rank relation lattice basis
        P = numeric(*values)
        basis = R.reference_exponent_lattice(P)[0]
        assert len(basis) == P.n
        assert extension_rank(P) == abs(R.det([list(r) for r in basis]))


class TestSemifieldAndSubdomain:
    def test_torsion_extension_is_semifield(self):
        assert is_bipotent_semifield(numeric("1/2", "1/3"))

    def test_free_extension_is_not(self):
        assert not is_bipotent_semifield(BipotentPresentation(Z, (Symbolic("g"),)))
        assert not is_bipotent_semifield(
            BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")))
        )

    def test_torsion_subdomain(self):
        P = numeric("1/2", "1/3")
        assert torsion_subdomain_contains(P, (1, 1))
        Pg = BipotentPresentation(Z, (Numeric.of("1/2"), Symbolic("g")))
        assert not torsion_subdomain_contains(Pg, (0, 1))
        # closure under multiplication: the product (1/2)*(1/3), i.e. value 5/6
        assert torsion_subdomain_contains(P, (1, 0))
        assert torsion_subdomain_contains(P, (0, 1))
        assert torsion_subdomain_contains(P, (1, 1))

    def test_torsion_subdomain_closed_under_both_operations(self):
        # sums pick one operand's class, products add exponent vectors
        P = numeric("1/2", "5/6")
        exps = [(1, 0), (0, 1), (2, 1), (1, 2)]
        for a in exps:
            assert torsion_subdomain_contains(P, a)
        for a in exps:
            for b in exps:
                assert torsion_subdomain_contains(P, tuple(x + y for x, y in zip(a, b)))


class TestLinearDependence:
    def test_examples(self):
        P = numeric("1/2", "3/2")
        assert linearly_dependent_pair(P, (1, 0), (0, 1))
        Q = numeric("1/2", "1/3")
        assert not linearly_dependent_pair(Q, (1, 0), (0, 1))
        assert linearly_dependent_pair(Q, (1, 0), (1, 0))


@pytest.mark.parametrize(
    "query, args",
    [
        (torsion_degree, ((0, 0, 5),)),
        (torsion_degree, ((1,),)),
        (torsion_subdomain_contains, ((1,),)),
        (linearly_dependent_pair, ((0, 0, 5), (0, 0))),
        (linearly_dependent_pair, ((1, 0), (1,))),
        (canonical_coset_value, ((1, 1, 7),)),
        (extension_rank, ((5,),)),
        (extension_rank, ((-1,),)),
        (is_divisibly_dependent, ((5,),)),
        (is_divisibly_dependent, ((0, 2),)),
        (divisible_dependence_witness, ((1, 1), (7,))),
        (divisible_dependence_witness, ((1, 1, 0), (0,))),
        # entries and indices must be ints: no floats, no bools
        (canonical_coset_value, ((0.5, 0),)),
        (linearly_dependent_pair, ((2.5, 0), (0.5, 0))),
        (extension_rank, ((0.5,),)),
        (is_divisibly_dependent, ((1.0,),)),
        (torsion_degree, ((True, 0),)),
        (torsion_degree, ((0.5, 0),)),
        (divisible_dependence_witness, ((1, 0), (True,))),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_malformed_vectors_and_subsets_raise(query, args):
    # every vector needs one entry per generator, every index must name one
    with pytest.raises(ValueError):
        query(numeric("1/2", "1/3"), *args)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BipotentPresentation(Z, (F(1, 2),)), TypeError, "not a generator"),
        (lambda: BipotentPresentation(Z, ("g",)), TypeError, "not a generator"),
        (lambda: BipotentPresentation(Z, (Symbolic("g"),), (Relation.of((1, 0), 1),)), ValueError,
         "relation exponent vector length does not match the generators"),
        (lambda: BipotentPresentation(Z, (Symbolic("g"), Symbolic("h")), (Relation.of((1,), 1),)), ValueError,
         "relation exponent vector length does not match the generators"),
        (lambda: is_divisibly_dependent(numeric("1/2", "1/3"), ()), ValueError, "subset must be non-empty"),
    ],
    ids=["generator-fraction", "generator-str", "relation-too-long", "relation-too-short", "empty-subset"],
)
def test_malformed_presentations_and_subsets_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestCosetValues:
    @given(
        st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 6)), min_size=1, max_size=3),
        st.data(),
    )
    def test_canonical_value_is_a_class_invariant(self, values, data):
        P = numeric(*values)
        basis = R.reference_exponent_lattice(P)[0]
        n = P.n
        exps = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        v = canonical_coset_value(P, exps)
        assert v is not None and 0 <= v < 1
        raw = R.value_of(P, exps)
        assert (raw - v).denominator == 1
        # shifting by any lattice vector leaves the canonical value unchanged
        if basis:
            shift = basis[data.draw(st.integers(0, len(basis) - 1))]
            shifted = tuple(e + s for e, s in zip(exps, shift))
            assert canonical_coset_value(P, shifted) == v

    def test_symbolic_class_value_when_reducible(self):
        P = BipotentPresentation(Z, (Symbolic("g"),), (Relation.of((2,), 1),))
        # 2g reduces to the base: computable; g itself does not
        assert canonical_coset_value(P, (2,)) == 0
        assert canonical_coset_value(P, (1,)) is None

    def test_symbolic_generator_first_regression(self):
        # s = 2 * (1/3): the class of (2, 0) has value 2/3 in either generator order
        P = BipotentPresentation(Z, (Numeric.of("1/3"), Symbolic("s")), (Relation.of((-2, 1), 0),))
        assert canonical_coset_value(P, (2, 0)) == F(2, 3)
        assert canonical_coset_value(R.permuted(P, (1, 0)), (0, 2)) == F(2, 3)
        assert canonical_coset_value(P, (0, 1)) == F(2, 3)

    @staticmethod
    def _brute_force_offsets(P, box=5):
        """Oracle: symbolic part of a lattice vector -> its beta minus the value of its numeric part.

        Enumerates the lattice combinations with coefficients in [-box, box], on the reference
        basis and betas.
        """
        sym = P.symbolic_indices()
        basis, betas, den = R.reference_exponent_lattice(P)
        table = {}
        for c in product(range(-box, box + 1), repeat=len(basis)):
            vec = [sum(ci * row[j] for ci, row in zip(c, basis)) for j in range(P.n)]
            beta = sum((ci * F(b, den) for ci, b in zip(c, betas)), F(0))
            numeric_part = [0 if i in sym else x for i, x in enumerate(vec)]
            table.setdefault(tuple(vec[i] for i in sym), beta - R.value_of(P, numeric_part))
        return table

    def test_matches_brute_force_and_ignores_generator_order(self):
        rng = random.Random(1079)
        answered = unanswered = 0
        for _ in range(80):
            P = random_presentation(rng, max_n=3)
            try:
                offsets = self._brute_force_offsets(P)
            except InconsistentRelations:
                continue
            sym = P.symbolic_indices()
            g = P.base.single_generator()
            for _ in range(5):
                exps = tuple(rng.randint(-3, 3) for _ in range(P.n))
                got = canonical_coset_value(P, exps)
                offset = offsets.get(tuple(exps[i] for i in sym))
                if offset is None:
                    assert got is None
                    unanswered += 1
                    continue
                # exps minus a lattice vector with the same symbolic part is numeric
                value = R.value_of(P, [0 if i in sym else e for i, e in enumerate(exps)]) + offset
                assert got == (value if g == 0 else value - math.floor(value / g) * g)
                answered += 1
                for perm in permutations(range(P.n)):
                    assert canonical_coset_value(R.permuted(P, perm), tuple(exps[p] for p in perm)) == got
        assert answered >= 50 and unanswered >= 50

    def test_beta_of_rejects_non_members(self):
        P = numeric("1/2")
        assert R.beta_of(P, (2,)) == 1
        with pytest.raises(ValueError):
            R.beta_of(P, (1,))


def brute_force_dependent(P, subset, bound=8):
    """Oracle: search exponent vectors supported on the subset with |k_i| <= bound."""
    subset = sorted(subset)
    for ks in product(range(-bound, bound + 1), repeat=len(subset)):
        if all(k == 0 for k in ks):
            continue
        total = sum((k * P.generators[i].value for k, i in zip(ks, subset)), F(0))
        if P.base.contains(total):
            return True
    return False


@given(
    st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 4)), min_size=2, max_size=4),
    st.data(),
)
def test_mixed_lattice_is_sound_for_a_hidden_model(hidden, data):
    # build a presentation whose symbolic generators secretly carry rational
    # values and whose declared relations are true in that model; then every
    # lattice member must evaluate into the base, with the beta its witness over () records
    n = len(hidden)
    gens = []
    for i, h in enumerate(hidden):
        if data.draw(st.booleans()):
            gens.append(Numeric(h))
        else:
            gens.append(Symbolic(f"s{i}"))
    rels = []
    for _ in range(data.draw(st.integers(0, 3))):
        k = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        if not any(k):
            continue
        v = sum(ki * hi for ki, hi in zip(k, hidden))
        d = v.denominator
        rels.append(Relation.of(tuple(d * ki for ki in k), d * v))
    if all(isinstance(g, Numeric) for g in gens):
        rels = []
    P = BipotentPresentation(Z, tuple(gens), tuple(rels))
    basis = R.reference_exponent_lattice(P)[0]
    for row in basis:
        value = sum(r * h for r, h in zip(row, hidden))
        assert divisible_dependence_witness(P, row) == DependenceWitness(1, (), value)
        assert P.base.contains(value)
    for _ in range(5):
        k = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
        if R.in_lattice(basis, k):
            assert P.base.contains(sum(ki * hi for ki, hi in zip(k, hidden)))


@given(
    st.lists(
        st.builds(F, st.integers(1, 8), st.integers(1, 8)),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
def test_dependence_matches_bounded_oracle(values, data):
    P = numeric(*values)
    subset = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(0, len(values) - 1), min_size=1, max_size=len(values))
            )
        )
    )
    assert is_divisibly_dependent(P, subset) == brute_force_dependent(P, subset)


@pytest.mark.parametrize("value", [0.5, 1, "1/2"])
def test_numeric_generator_refuses_non_fractions(value):
    with pytest.raises(TypeError):
        Numeric(value)


def test_a_symbolic_name_appears_once():
    # closing <1>[g] by the value g adds nothing, so <1>[g, g] would name one value twice
    for gens in [(Symbolic("g"), Symbolic("g")), (Symbolic("g"), Numeric.of("1/2"), Symbolic("g"))]:
        with pytest.raises(ValueError, match="only once"):
            BipotentPresentation(Z, gens)
    with pytest.raises(ValueError, match="only once"):
        BipotentPresentation(Z, (Symbolic("g"),)).with_generator(Symbolic("g"))
    assert BipotentPresentation(Z, (Symbolic("g"), Symbolic("h"))).n == 2


@pytest.mark.parametrize("name", ["1", "", "1/2", "a b", "g+h", 3, None])
def test_symbolic_names_are_identifiers(name):
    with pytest.raises(ValueError, match="identifier"):
        Symbolic(name)
