"""`lattice` workload: query sessions on bipotent presentations.

Why: `bipotent` and `intlinalg` do nearly all the work.  Every query on a
presentation re-derives its exponent lattice and Smith form today, so
per-presentation sharing and Smith entry growth show here.

Each session builds one presentation with 2-10 generators and asks 12
queries of it.  Numeric generators have denominators built from 1-3 small
primes; about a third of the presentations also carry symbolic generators
with declared relations.  The oracles use rational gcds (numeric part) and
Fraction elimination (symbolic part), never the library.
"""

from __future__ import annotations

from fractions import Fraction

import oracles as O
from common import INF, Cycle, Query, is_int, same_count, subset

PRIMES = (2, 3, 5, 7)
BASES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 6), Fraction(3))
# Pool size: about 1.6 times what the program completed per second when written.
SESSIONS_PER_SECOND = 200
# A traced run asks a fixed number of queries, so its work counts compare across
# commits; it keeps every span in memory, which bounds the number.
TRACED_QUERIES_PER_SECOND = 400


def numeric_value(rng) -> Fraction:
    d = 1
    for p in rng.sample(PRIMES, rng.randint(1, 3)):
        d *= p ** rng.randint(1, 2)
    return Fraction(rng.choice([i for i in range(-30, 31) if i]), d)


class Spec:
    """Raw data of one presentation plus the reference answers derived from it.

    `values[i]` is the value of numeric generator i and None for a symbolic
    one.  `rels` are (exps, beta) pairs whose symbolic projections are
    linearly independent, so the declared relations are consistent with any
    numeric parts.  Numeric generators are torsion over a non-trivial base,
    so only the symbolic projections decide finiteness.
    """

    def __init__(self, base, values, rels=()):
        self.base = tuple(base)
        self.values = tuple(values)
        self.rels = tuple(rels)
        self.n = len(values)
        self.g = O.qgcd_all(self.base)
        self.num = [i for i, v in enumerate(values) if v is not None]
        self.sym = [i for i, v in enumerate(values) if v is None]
        self.R = [[e[i] for i in self.sym] for e, _ in self.rels]
        self.h = O.qgcd_all((self.g,) + tuple(values[i] for i in self.num))
        self.free = len(self.sym) - len(self.rels)

    @property
    def numeric(self) -> bool:
        return not self.sym

    def x(self, exps) -> Fraction:
        """Value of the numeric part of a monomial."""
        return sum((Fraction(exps[i]) * self.values[i] for i in self.num), Fraction(0))

    def proj(self, exps):
        return [exps[i] for i in self.sym]

    def numeric_only(self, exps) -> bool:
        return not any(self.proj(exps))

    def h_over(self, S) -> Fraction:
        return O.qgcd_all((self.g,) + tuple(self.values[i] for i in S if self.values[i] is not None))

    def units(self, S):
        pos = {j: k for k, j in enumerate(self.sym)}
        rows = []
        for i in S:
            if i in pos:
                row = [0] * len(self.sym)
                row[pos[i]] = 1
                rows.append(row)
        return rows

    def full_rank(self):
        if self.numeric:
            return INF if self.g == 0 else int(self.g / self.h)
        if self.free > 0:
            return INF
        return int(self.g / self.h) * abs(int(O.q_det(self.R)))

    def rank_over(self, S):
        """Expected extension_rank(P, S): exact for numeric, else None when finite."""
        if self.numeric:
            hs = self.h_over(S)
            return INF if hs == 0 else int(hs / self.h)
        if O.q_rank(self.R + self.units(S)) < len(self.sym):
            return INF
        return None

    def build(self, lx):
        bp = lx.bipotent
        gens = tuple(
            bp.Numeric(v) if v is not None else bp.Symbolic(f"s{i}") for i, v in enumerate(self.values)
        )
        rels = tuple(bp.Relation(tuple(e), b) for e, b in self.rels)
        return bp.BipotentPresentation(lx.tropical.ValueLattice.of(*self.base), gens, rels)


def gen_spec(rng, n, mixed, trivial_base=False) -> Spec:
    base = () if trivial_base else tuple(rng.sample(BASES, rng.randint(1, 2)))
    if not mixed:
        return Spec(base, [numeric_value(rng) for _ in range(n)])
    nsym = rng.randint(1, min(4, n - 1))
    idx = list(range(n))
    rng.shuffle(idx)
    sym = set(idx[:nsym])
    values = [None if i in sym else numeric_value(rng) for i in range(n)]
    sym_order = sorted(sym)
    r = rng.randint(0, nsym)
    while True:
        R = [[rng.randint(-3, 3) for _ in range(nsym)] for _ in range(r)]
        if O.q_rank(R) == r:
            break
    g = O.qgcd_all(base)
    rels = []
    for row in R:
        exps = [0 if values[i] is None else rng.randint(-2, 2) for i in range(n)]
        for k, i in enumerate(sym_order):
            exps[i] = row[k]
        rels.append((tuple(exps), g * rng.randint(-3, 3)))
    return Spec(base, values, rels)


def lattice_vector(rng, spec: Spec):
    """An exponent vector known to lie in the exponent lattice."""
    v = [0] * spec.n
    if spec.g != 0:
        for i in spec.num:
            c = rng.randint(-1, 1)
            v[i] += c * O.order_mod(spec.values[i], spec.g)
    elif len(spec.num) >= 2:
        i, j = rng.sample(spec.num, 2)
        hij = O.qgcd(spec.values[i], spec.values[j])
        v[i] += int(spec.values[j] / hij)
        v[j] -= int(spec.values[i] / hij)
    for e, _ in spec.rels:
        c = rng.randint(-1, 1)
        v = [a + c * b for a, b in zip(v, e)]
    return tuple(v)


def numeric_vector(rng, spec: Spec, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) if spec.values[i] is not None else 0 for i in range(spec.n))


def any_vector(rng, spec: Spec, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(spec.n))


# --- checks -------------------------------------------------------------------

def check_decompose(spec: Spec, d) -> bool:
    if d.free_rank != len(d.free_monomials):
        return False
    if spec.numeric and spec.g != 0:
        m = spec.full_rank()
        if d.free_rank != 0 or tuple(d.torsion_orders) != ((m,) if m > 1 else ()):
            return False
        tvals = [spec.x(t) for t in d.torsion_monomials]
        if any(O.order_mod(t, spec.g) != m for t in tvals):
            return False
        for j, (fc, tc) in enumerate(d.generator_coords):
            if fc or not O.in_group(spec.values[j] - O.dot(tc, tvals), spec.g):
                return False
        return d.rank() == m
    if spec.numeric:
        if d.free_rank != 1 or d.torsion_orders:
            return False
        f = spec.x(d.free_monomials[0])
        if abs(f) != spec.h:
            return False
        return all(spec.values[j] == fc[0] * f and not tc for j, (fc, tc) in enumerate(d.generator_coords))
    return d.free_rank == spec.free and same_count(d.rank(), spec.full_rank())


def check_rank(spec: Spec, S, ans) -> bool:
    want = spec.full_rank() if not S else spec.rank_over(S)
    if want is None:
        full = spec.full_rank()
        return is_int(ans) and ans > 0 and (full == INF or full % ans == 0)
    return same_count(ans, want)


def check_torsion(spec: Spec, exps, ans) -> bool:
    if spec.numeric or spec.numeric_only(exps):
        return same_count(ans, O.order_mod(spec.x(exps), spec.g))
    if not O.in_span(spec.proj(exps), spec.R):
        return ans == INF
    full = spec.full_rank()
    return is_int(ans) and ans > 0 and (full == INF or full % ans == 0)


def check_witness(spec: Spec, exps, S, w) -> bool:
    S = sorted(set(S))
    exact = spec.numeric or (spec.numeric_only(exps) and all(spec.values[i] is not None for i in S))
    if exact:
        k = O.order_mod(spec.x(exps), spec.h_over(S))
        if k == INF:
            return w is None
        if w is None or w.power != k or len(w.exponents) != len(S):
            return False
        sub = sum((Fraction(a) * spec.values[i] for a, i in zip(w.exponents, S)), Fraction(0))
        return k * spec.x(exps) == sub + w.beta and O.in_group(w.beta, spec.g)
    if not O.in_span(spec.proj(exps), spec.R + spec.units(S)):
        return w is None
    return (w is not None and is_int(w.power) and w.power > 0
            and len(w.exponents) == len(S) and O.in_group(w.beta, spec.g))


def check_coset(spec: Spec, exps, ans) -> bool:
    if spec.numeric:
        return ans == O.mod_value(spec.x(exps), spec.g)
    if spec.numeric_only(exps):
        return ans is None or ans == O.mod_value(spec.x(exps), spec.g)
    return ans is None or (isinstance(ans, Fraction) and 0 <= ans < spec.g)


def expected_dependent(spec: Spec, S) -> bool:
    if any(spec.values[i] is not None for i in S):
        return spec.g != 0 or len(S) >= 2
    keep = [k for k, i in enumerate(spec.sym) if i not in S]
    restricted = [[row[k] for k in keep] for row in spec.R]
    return O.q_rank(restricted) < len(spec.R) if keep else bool(spec.R)


def expected_pair(spec: Spec, d, in_lattice) -> bool:
    return True if in_lattice else O.in_group(spec.x(d), spec.g)


# --- sessions ---------------------------------------------------------------------

CHECKS = {
    "decompose_extension": lambda spec, args, a: check_decompose(spec, a),
    "extension_rank": lambda spec, args, a: check_rank(spec, args[0], a),
    "torsion_degree": lambda spec, args, a: check_torsion(spec, args[0], a),
    "divisible_dependence_witness": lambda spec, args, a: check_witness(spec, args[0], args[1], a),
    "canonical_coset_value": lambda spec, args, a: check_coset(spec, args[0], a),
    "is_divisibly_dependent": lambda spec, args, a: a is expected_dependent(spec, args[0]),
}


def draw_session(rng, spec: Spec):
    """The 12 queries asked of one presentation: (kind, arguments after P, check data)."""
    n = spec.n
    qs = [("decompose_extension", (), None), ("extension_rank", ((),), None),
          ("extension_rank", (subset(rng, n, 1, n - 1),), None)]
    qs.append(("torsion_degree", (numeric_vector(rng, spec) if spec.sym else any_vector(rng, spec),), None))
    qs.append(("torsion_degree", (any_vector(rng, spec),), None))
    for _ in range(2):
        qs.append(("divisible_dependence_witness", (any_vector(rng, spec), subset(rng, n, 0, n - 1)), None))
    e5 = numeric_vector(rng, spec) if spec.sym and rng.random() < 0.5 else any_vector(rng, spec)
    qs.append(("canonical_coset_value", (e5,), None))
    for _ in range(2):
        qs.append(("is_divisibly_dependent", (subset(rng, n, 1, n),), None))
    x = any_vector(rng, spec)
    for in_lattice in (True, False):
        d = lattice_vector(rng, spec) if in_lattice else numeric_vector(rng, spec)
        qs.append(("linearly_dependent_pair", (tuple(a + b for a, b in zip(x, d)), x), (d, in_lattice)))
    return spec, qs


def build_session(lx, spec, qs):
    bp = lx.bipotent
    P = spec.build(lx)
    out = []
    for kind, args, extra in qs:
        if kind == "linearly_dependent_pair":
            check = (lambda a, d=extra[0], inl=extra[1]: a is expected_pair(spec, d, inl))
        else:
            check = (lambda a, c=CHECKS[kind], args=args: c(spec, args, a))
        out.append(Query(kind, lambda kind=kind, args=args: getattr(bp, kind)(P, *args), check, spec.n))
    return out


def draw(rng, seconds):
    """Sessions in a fixed mix: generator counts 2-10 in shuffled rounds; of every ten
    presentations one has a trivial base, three carry symbolic generators, six are numeric."""
    sizes = Cycle(rng, range(2, 11))
    data = []
    for i in range(int(seconds * SESSIONS_PER_SECOND) + 1):
        n, kind = sizes.next(), i % 10
        spec = gen_spec(rng, n, mixed=1 <= kind <= 3, trivial_base=kind == 0)
        data.append(draw_session(rng, spec))
    return data


def build(lx, data, **_):
    queries = []
    for spec, qs in data:
        queries += build_session(lx, spec, qs)
    return queries


# --- self-test: one wrong answer per oracle -----------------------------------

def corrupt(q, ans):
    k = q.kind
    if k == "decompose_extension":
        return None
    if k in ("extension_rank", "torsion_degree"):
        return 7 if ans == INF else INF
    if k == "divisible_dependence_witness":
        return None if ans is not None else type("W", (), {"power": 1, "exponents": (), "beta": Fraction(0)})()
    if k == "canonical_coset_value":
        return Fraction(-1) if ans is None else ans - 1
    return not ans
