"""`algebraic` workload: sessions on simple algebraic extensions of Q>0.

Why: `polys` and `cancellative` do the work (`intlinalg` does none).
Validation sets the tail and arithmetic sets the median, so a faster
irreducibility test and square-and-multiply each have a metric to move.

Each session validates one monic generator with `validate_generator`, then
asks 39 queries of the extension it defines: products, inverses, powers up
to 50, `positive_at_root`, `kernel_contains`, and `eval_layered_poly` at a
scalar whose layer is algebraic.  Every fifth generator is reducible and
ends its session with the expected `Reducible` error.

Irreducible generators satisfy Eisenstein's criterion; reducible ones are
built as a product of two factors.  Every generator has exactly one sign
change, so by Descartes' rule exactly one positive root, which the oracle
brackets with exact rational arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles as O
from common import Ctx, Cycle, Query, rand_fraction

# Degree and coefficient range are capped by the run time of the current
# `is_irreducible` only: each validation must stay well under a second.
# Measured on a shared 2-vCPU virtual machine: x^6-30 0.45 s, x^7-6 0.24 s,
# x^8-6 10 s; Eisenstein inputs of degree 6-7 with p = 2 and unit
# multipliers take 0.04-0.4 s, with p >= 3 or larger multipliers up to 3 s.
# (prime choices, largest coefficient multiplier) per degree:
EISENSTEIN = {2: ((2, 3, 5), 3), 3: ((2, 3, 5), 3), 4: ((2, 3), 2), 5: ((2, 3), 2), 6: ((2,), 1), 7: ((2,), 1)}
# The validation cost of a degree-6 or -7 generator varies tenfold with its
# coefficients (the factor search), and these validations set the tail.  So
# that the tail measures the program and not the seed, they come from one
# fixed list, drawn once with its own seed and cycled in the same order for
# every --seed; the seed draws every other generator and all elements.  With
# two per degree each recurs more than ten times in a run, so the tail is
# the same validation in every run.
HEAVY_DEGREES = (6, 7)
HEAVY_PER_DEGREE = 2
REDUCIBLE_EVERY = 5
# Reducible generators have degree 4-6 and a quadratic factor, so the factor
# search stops at degree 2; a cubic factor took up to 1.2 s.
REDUCIBLE_DEGREES = (4, 5, 6)
QUERY_MIX = (("mul", 12), ("inverse", 6), ("pow", 6), ("positive_at_root", 6),
             ("kernel_contains", 5), ("eval_layered_poly", 4))
SESSIONS_PER_SECOND = 35  # pool size: about 1.5 times the program's rate when written
TRACED_QUERIES_PER_SECOND = 100  # fixed traced pass (about 130 spans per query)


def eisenstein(rng, n):
    """Monic, Eisenstein at p, one sign change: x^n + ... (>= 0) ... (<= 0) ... - p*c."""
    primes, cmax = EISENSTEIN[n]
    p = rng.choice(primes)
    split = rng.randint(1, n)
    co = [0] * (n + 1)
    co[n] = 1
    c = rng.choice([k for k in range(1, cmax + 1) if k % p] or [1])
    co[0] = -p * c
    for i in range(1, n):
        k = p * rng.randint(0, cmax)
        co[i] = k if i >= split else -k
    return [Fraction(x) for x in co]


def reducible(rng):
    """An Eisenstein factor times a factor with positive coefficients, one of them quadratic."""
    n = rng.choice(REDUCIBLE_DEGREES)
    while True:
        a = rng.choice((2, n - 2))
        g = eisenstein(rng, a)
        h = [Fraction(rng.randint(1, 2)) for _ in range(n - a)] + [Fraction(1)]
        m = O.poly_mul(g, h)
        if O.sign_changes(m) == 1:
            return m


def heavy_generators():
    """The fixed degree-6 and -7 generators, by degree."""
    rng = random.Random("layext-bench:algebraic:heavy")
    return {n: [eisenstein(rng, n) for _ in range(HEAVY_PER_DEGREE)] for n in HEAVY_DEGREES}


def random_elem(rng, n):
    while True:
        cs = tuple(rand_fraction(rng) for _ in range(n))
        if any(cs):
            return cs


def positive_layer(rng, n):
    cs = [Fraction(rng.randint(0, 2)) for _ in range(n)]
    cs[0] += 1
    return tuple(cs)


class Gen:
    """A generator's raw data and the session's reference arithmetic."""

    def __init__(self, m, irreducible):
        self.m = m
        self.n = len(m) - 1
        self.irreducible = irreducible
        self.lo, self.hi = O.bracket_positive_root(m) if irreducible else (Fraction(1), Fraction(2))

    def mul(self, a, b):
        return O.ext_mul(a, b, self.m)

    def pow(self, a, k):
        return O.ext_pow(a, k, self.m)

    def one(self):
        return O.ext_vec([1], self.n)

    def sign(self, a):
        return O.sign_at_root(a, self.m, self.lo, self.hi)


def coeffs_of(e):
    return tuple(e.coeffs)


def check_validate(gen: Gen, ans) -> bool:
    if not gen.irreducible:
        return type(ans).__name__ == "Reducible"
    return (not isinstance(ans, BaseException) and ans.n == gen.n and (ans.lo, ans.hi) == (gen.lo, gen.hi)
            and dict(ans.m.terms) == {d: c for d, c in enumerate(gen.m) if c})


def draw_session(rng, gen: Gen):
    """One validation query, then (for an irreducible generator) 39 extension queries."""
    n = gen.n
    elems = [random_elem(rng, n) for _ in range(6)]
    qs = []
    if gen.irreducible:
        kinds = [k for k, count in QUERY_MIX for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            i, j = rng.randrange(6), rng.randrange(6)
            if kind == "pow":
                qs.append((kind, (i, rng.randint(2, 50))))
            elif kind == "kernel_contains":
                qs.append((kind, kernel_pair(rng, gen)))
            elif kind == "eval_layered_poly":
                triples = [(Fraction(rng.randint(1, 3)), rand_fraction(rng), e)
                           for e in sorted(rng.sample(range(7), rng.randint(2, 5)))]
                qs.append((kind, (triples, positive_layer(rng, n), rand_fraction(rng))))
            else:
                qs.append((kind, (i, j)))
    return gen, elems, qs


def build_session(lx, gen: Gen, elems, qs):
    cn, un = lx.cancellative, lx.uniform
    ctx = Ctx()
    m_poly = cn.SignedPoly.of({d: c for d, c in enumerate(gen.m) if c})
    interval = (gen.lo, gen.hi)
    n = gen.n

    def validate():
        ctx.gen = cn.validate_generator(m_poly, interval)
        ctx.elems = [ctx.gen.element(c) for c in elems]
        return ctx.gen

    out = [Query("validate_generator", validate, lambda a: check_validate(gen, a), n)]

    def q(kind, run, check):
        out.append(Query(kind, run, check, n))

    for kind, args in qs:
        if kind == "mul":
            i, j = args
            q(kind, lambda i=i, j=j: ctx.elems[i] * ctx.elems[j],
              lambda r, a=elems[i], b=elems[j]: coeffs_of(r) == gen.mul(a, b))
        elif kind == "inverse":
            i = args[0]
            q(kind, lambda i=i: ctx.elems[i].inverse(), lambda r, a=elems[i]: gen.mul(coeffs_of(r), a) == gen.one())
        elif kind == "pow":
            i, k = args
            q(kind, lambda i=i, k=k: ctx.elems[i] ** k, lambda r, a=elems[i], k=k: coeffs_of(r) == gen.pow(a, k))
        elif kind == "positive_at_root":
            i = args[0]
            q(kind, lambda i=i: cn.positive_at_root(ctx.elems[i]), lambda r, a=elems[i]: r is gen.sign(a))
        elif kind == "kernel_contains":
            num, den, want = args
            A, B = cn.PosPoly.of(num), cn.PosPoly.of(den)
            q(kind, lambda A=A, B=B: cn.kernel_contains(A, B, ctx.gen), lambda r, w=want: r is w)
        else:
            triples, layer, nu = args
            f = un.LayeredPoly.from_triples(triples)
            q(kind, lambda f=f, layer=layer, nu=nu: un.eval_layered_poly(f, un.ExtScalar(ctx.gen.element(layer), nu)),
              lambda r, t=triples, layer=layer, nu=nu: check_eval(gen, t, layer, nu, r))
    return out


def kernel_pair(rng, gen: Gen):
    """Positive polynomials a, b with a/b in the kernel (half the time) and the answer."""
    def pos(deg):
        return {d: Fraction(rng.randint(1, 3)) for d in range(deg + 1)}

    c = pos(rng.randint(0, gen.n))
    if rng.random() < 0.5:
        g = [v for _, v in sorted(pos(rng.randint(0, 2)).items())]
        plus = [c_ if c_ > 0 else Fraction(0) for c_ in gen.m]
        minus = [-c_ if c_ < 0 else Fraction(0) for c_ in gen.m]
        a = O.poly_add([c.get(d, Fraction(0)) for d in range(max(c) + 1)], O.poly_mul(plus, g))
        b = O.poly_add([c.get(d, Fraction(0)) for d in range(max(c) + 1)], O.poly_mul(minus, g))
        num = {d: v for d, v in enumerate(a) if v}
        den = {d: v for d, v in enumerate(b) if v}
    else:
        num, den = c, pos(rng.randint(0, gen.n + 1))
    diff = [num.get(d, 0) - den.get(d, 0) for d in range(max(max(num), max(den)) + 1)]
    return num, den, not O.poly_reduce(diff, gen.m)


def check_eval(gen: Gen, triples, layer, nu, ans) -> bool:
    vals = [v + e * nu for _, v, e in triples]
    best = max(vals)
    want = O.ext_vec([], gen.n)
    for (lay, v, e), tv in zip(triples, vals):
        if tv == best:
            term = tuple(lay * c for c in gen.pow(layer, e))
            want = tuple(x + y for x, y in zip(want, term))
    got_layer, got_value = ans
    return got_value == best and coeffs_of(got_layer) == want


def draw(rng, seconds):
    """Sessions in a fixed mix: every fifth generator is reducible, the others have
    degrees 2-7 in shuffled rounds (degrees 6-7 from the fixed list)."""
    degrees = Cycle(rng, range(2, 8))
    heavy = heavy_generators()
    used = {n: 0 for n in HEAVY_DEGREES}
    data = []
    for i in range(int(seconds * SESSIONS_PER_SECOND) + 1):
        if i % REDUCIBLE_EVERY == REDUCIBLE_EVERY - 1:
            gen = Gen(reducible(rng), irreducible=False)
        else:
            n = degrees.next()
            if n in heavy:
                m = heavy[n][used[n] % HEAVY_PER_DEGREE]
                used[n] += 1
            else:
                m = eisenstein(rng, n)
            gen = Gen(m, irreducible=True)
        data.append(draw_session(rng, gen))
    return data


def build(lx, data, **_):
    queries = []
    for session in data:
        queries += build_session(lx, *session)
    return queries


def corrupt(q, ans):
    k = q.kind
    if k == "validate_generator":
        return ValueError("wrong") if isinstance(ans, BaseException) else None
    if k in ("positive_at_root", "kernel_contains"):
        return not ans
    if k == "eval_layered_poly":
        return ans[0], ans[1] + 1
    return ans + ans.gen.one()
