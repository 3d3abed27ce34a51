"""`layered` workload: max-plus work on LayeredElem, plus closure towers.

Why: `tropical` and `uniform` dominate.  Max-plus sessions multiply layered
matrices by vectors (A^k x, k = 1-4), sum all entries of each matrix and
evaluate layered polynomials at rational scalars.  Tower sessions start from
`base_descriptor()` and apply `uniform_closure` with a sequence of scalars;
after each step they ask `is_uniform_semifield` and the value part's
`extension_rank`.  Every tower step is a fresh presentation queried once, so
this is the write-beside-read case: a lattice cache must show no loss here.
"""

from __future__ import annotations

from fractions import Fraction

import oracles as O
from common import INF, Ctx, Cycle, Query, rand_fraction, same_count
from wl_lattice import numeric_value

ZERO_SHARE = 0.15
LAYERS = tuple(Fraction(a, b) for a in range(1, 5) for b in (1, 2))
VALUES = tuple(Fraction(v) for v in range(-4, 5))
SESSIONS_PER_SECOND = 200  # pool size: about 1.5 times the program's rate when written
TRACED_QUERIES_PER_SECOND = 200  # fixed traced pass (about 100 spans per query)
TOWER_GENERATORS = ((("-2", "0", "1"), ("1", "2")), (("-3", "0", "0", "1"), ("1", "2")))


# --- max-plus reference arithmetic on (layer, value) pairs; None is Zero -------

def ref_add(x, y):
    if x is None:
        return y
    if y is None:
        return x
    if x[1] != y[1]:
        return x if x[1] > y[1] else y
    return (x[0] + y[0], x[1])


def ref_mul(x, y):
    if x is None or y is None:
        return None
    return (x[0] * y[0], x[1] + y[1])


def ref_matvec(A, x):
    out = []
    for row in A:
        acc = None
        for a, b in zip(row, x):
            acc = ref_add(acc, ref_mul(a, b))
        out.append(acc)
    return out


def as_pair(e):
    return None if e.is_zero else (e.layer, e.value)


class Table:
    """Layered elements inputs are drawn from, by index: Zero (-1) and every (layer, value) pair.

    Elements are immutable, so one object per pair serves every input.
    """

    pairs = [(lay, v) for lay in LAYERS for v in VALUES]

    def __init__(self, tr):
        self.elems = [tr.LayeredElem(lay, v) for lay, v in self.pairs] + [tr.ZERO]

    @classmethod
    def draw(cls, rng, k):
        return [-1 if rng.random() < ZERO_SHARE else i for i in rng.choices(range(len(cls.pairs)), k=k)]

    @classmethod
    def pair(cls, i):
        return None if i < 0 else cls.pairs[i]


# --- max-plus session -----------------------------------------------------------

def draw_maxplus(rng, d):
    """A d x d layered matrix, four products with vectors (A^k x), two evaluations.

    The session also sums all entries of the matrix, by rows and by columns.
    """
    A = [Table.draw(rng, d) for _ in range(d)]
    products = [(Table.draw(rng, d), power) for power in (1, 2, 3, 4)]
    evals = []
    for _ in range(2):
        triples = [(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-6, 6)), e)
                   for e in sorted(rng.sample(range(12), rng.randint(3, 8)))]
        evals.append((triples, Fraction(rng.randint(1, 4), rng.randint(1, 3)), rand_fraction(rng, 2, 2)))
    return A, products, evals


def build_maxplus(lx, table: Table, A, products, evals):
    tr, un = lx.tropical, lx.uniform
    qs = []
    LA = [[table.elems[i] for i in row] for row in A]

    def matvec(v):
        out = []
        for row in LA:
            acc = tr.ZERO
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return out

    for x, power in products:
        def run(Lv=[table.elems[i] for i in x], power=power):
            v = Lv
            for _ in range(power):
                v = matvec(v)
            return v

        def want(x=x, power=power):
            pA = [[Table.pair(i) for i in row] for row in A]
            v = [Table.pair(i) for i in x]
            for _ in range(power):
                v = ref_matvec(pA, v)
            return v

        qs.append(Query("matvec", run, lambda r, want=want: [as_pair(e) for e in r] == want(), len(A)))
    for by_rows in (True, False):
        def total(by_rows=by_rows):
            acc = tr.ZERO
            for line in (LA if by_rows else zip(*LA)):
                for e in line:
                    acc = acc + e
            return acc

        def want(by_rows=by_rows):
            w = None
            for line in (A if by_rows else zip(*A)):
                for i in line:
                    w = ref_add(w, Table.pair(i))
            return w

        qs.append(Query("sum", total, lambda r, want=want: as_pair(r) == want(), len(A) ** 2))
    for triples, lay, nu in evals:
        f, a = un.LayeredPoly.from_triples(triples), un.ExtScalar(lay, nu)
        qs.append(Query("eval_layered_poly", lambda f=f, a=a: un.eval_layered_poly(f, a),
                        lambda r, t=triples, lay=lay, nu=nu: tuple(r) == ref_eval(t, lay, nu), len(triples)))
    return qs


def ref_eval(triples, lay, nu):
    vals = [v + e * nu for _, v, e in triples]
    best = max(vals)
    return sum((c * lay ** e for (c, _, e), tv in zip(triples, vals) if tv == best), Fraction(0)), best


# --- tower session --------------------------------------------------------------

def draw_scalars(rng):
    """Raw data of the algebraic and free scalars the towers draw from."""
    alg = []
    for m, _ in TOWER_GENERATORS:
        pool = []
        for _ in range(6):
            cs = [Fraction(rng.randint(0, 2)) for _ in range(len(m) - 1)]
            cs[1] += 1
            pool.append((cs, numeric_value(rng)))
        alg.append(pool)
    free = [(k, value) for k in range(1, 4) for value in (numeric_value(rng), f"t{k}")]
    return alg, free


class Scalars:
    """Scalars with algebraic or free layers, built once per input set.

    Building an algebraic scalar runs `positive_at_root`, so towers draw
    them from this pool instead of building one per step.
    """

    def __init__(self, lx, raw):
        cn, un = lx.cancellative, lx.uniform
        alg_raw, free_raw = raw
        self.alg = []
        for (m, (lo, hi)), pool in zip(TOWER_GENERATORS, alg_raw):
            gen = cn.validate_generator(cn.SignedPoly.from_coeffs([Fraction(c) for c in m]),
                                        (Fraction(lo), Fraction(hi)))
            self.alg.append((gen, [(value, un.ExtScalar(gen.element(cs), value)) for cs, value in pool]))
        self.free = [(value, un.ExtScalar(un.FreeLayer("y", cn.PosPoly.of({1: 1, 0: k})), value))
                     for k, value in free_raw]


def draw_tower(rng, scal_raw, nsteps):
    """Steps of a closure tower: (scalar choice, value, expected generators, expected sort)."""
    sort = ("base", None)
    values = []  # expected value generators: Fraction or symbolic name
    steps = []
    for _ in range(nsteps):
        kind = rng.random()
        if kind < 0.15 and sort[0] in ("base", "alg"):
            gi = sort[1] if sort[0] == "alg" else rng.randrange(len(scal_raw[0]))
            k = rng.randrange(len(scal_raw[0][gi]))
            choice, value = ("alg", gi, k), scal_raw[0][gi][k][1]
            sort = ("alg", gi)
        elif kind < 0.25 and sort[0] in ("base", "free"):
            k = rng.randrange(len(scal_raw[1]))
            choice, value = ("free", k), scal_raw[1][k][1]
            sort = ("free", "y")
        else:
            value = numeric_value(rng) if rng.random() < 0.8 else f"t{rng.randint(0, 2)}"
            choice = ("rational", Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        contained = (value in values) if isinstance(value, str) else O.in_group(
            value, O.qgcd_all([Fraction(1)] + [v for v in values if not isinstance(v, str)]))
        if not contained:
            values.append(value)
        steps.append((choice, value, list(values), sort))
    return steps


def build_tower(lx, scal: Scalars, steps):
    un, bp = lx.uniform, lx.bipotent
    ctx = Ctx()
    qs = []
    for step, (choice, value, want_gens, sort) in enumerate(steps):
        if choice[0] == "alg":
            a = scal.alg[choice[1]][1][choice[2]][1]
        elif choice[0] == "free":
            a = scal.free[choice[1]][1]
        else:
            a = un.ExtScalar(choice[1], value)

        def close(a=a, first=step == 0):
            if first:
                ctx.desc = un.base_descriptor()
            ctx.desc = un.uniform_closure(ctx.desc, a)
            return ctx.desc

        size = len(want_gens)
        qs.append(Query("uniform_closure", close,
                        lambda r, g=want_gens, s=sort: check_closure(lx, scal, r, g, s), size))
        qs.append(Query("is_uniform_semifield", lambda: un.is_uniform_semifield(ctx.desc),
                        lambda r, g=want_gens: r is (value_rank(g) != INF), size))
        qs.append(Query("extension_rank", lambda: bp.extension_rank(ctx.desc.value_part),
                        lambda r, g=want_gens: same_count(r, value_rank(g)), size))
    return qs


def value_rank(gens):
    """[<1>[gens] : <1>]: infinite with a symbolic generator, else 1 / gcd(1, values)."""
    if any(isinstance(v, str) for v in gens):
        return INF
    return int(1 / O.qgcd_all([Fraction(1)] + gens))


def check_closure(lx, scal, C, want_gens, want_sort) -> bool:
    un, bp = lx.uniform, lx.bipotent
    got = []
    for g in C.value_part.generators:
        got.append(g.name if isinstance(g, bp.Symbolic) else g.value)
    if got != want_gens or C.value_part.base.generators != (Fraction(1),):
        return False
    part = C.sort_part
    if want_sort[0] == "base":
        return isinstance(part, un.BaseSort)
    if want_sort[0] == "alg":
        return isinstance(part, un.AlgebraicSort) and part.gen == scal.alg[want_sort[1]][0]
    return isinstance(part, un.FreeSort) and part.name == want_sort[1] and part.with_fractions


def draw(rng, seconds):
    """Pairs of a max-plus session (matrix sizes 8-14 in shuffled rounds) and a
    tower session (3-6 steps in shuffled rounds)."""
    scal_raw = draw_scalars(rng)
    dims, steps = Cycle(rng, range(8, 15)), Cycle(rng, range(3, 7))
    sessions = [(draw_maxplus(rng, dims.next()), draw_tower(rng, scal_raw, steps.next()))
                for _ in range(int(seconds * SESSIONS_PER_SECOND) + 1)]
    return scal_raw, sessions


def build(lx, data, **_):
    scal_raw, sessions = data
    scal = Scalars(lx, scal_raw)
    table = Table(lx.tropical)
    queries = []
    for maxplus, tower in sessions:
        queries += build_maxplus(lx, table, *maxplus)
        queries += build_tower(lx, scal, tower)
    return queries


def bump(e):
    """A layered element different from e."""
    return type(e)(Fraction(1), Fraction(0)) if e.is_zero else type(e)(e.layer + 1, e.value)


def corrupt(q, ans):
    k = q.kind
    if k == "matvec":
        return [bump(ans[0])] + ans[1:]
    if k == "sum":
        return bump(ans)
    if k == "eval_layered_poly":
        return ans[0] + 1, ans[1]
    if k == "uniform_closure":
        P = ans.value_part
        return type(ans)(ans.sort_part, type(P)(P.base, P.generators[:-1])) if P.generators else None
    if k == "is_uniform_semifield":
        return not ans
    return 7 if ans == INF else INF
