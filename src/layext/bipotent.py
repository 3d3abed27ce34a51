"""Finitely generated extensions of a bipotent (max-plus) semifield.

A presentation records a base value lattice together with extension
generators.  Numeric generators carry an explicit rational value and their
relations with the base are computed; symbolic generators are free except for
explicitly declared relations.  Because addition is bipotent, every element
of such an extension is a base multiple of a monomial in the generators, so
the whole multiplicative structure is captured by the exponent lattice

    {k in Z^n : k1*a1 + ... + kn*an lies in the base lattice}

(the value model is written additively: a product of generator powers is an
integer combination of their values).  The free/torsion decomposition of the
quotient group Z^n / lattice classifies the extension: free coordinates give
divisibly independent generators, torsion coordinates give generators with a
power in the base.

Queries run on integers and share what a presentation derives once, its
cache entry (`_entry`), which P keeps in a slot outside its equality, hash
and repr from its first query on.  The values and declared betas are
cleared over one denominator, which gives each numeric generator an integer
t_i and the base a modulus m.  With s symbolic generators a monomial k maps
to pi(k) = (k on the symbolic columns, V(k)) in Z^(s+1), V(k) = sum k_i*t_i
over the numeric generators, and k lies in the lattice exactly when pi(k)
lies in the span of H and the row (0, ..., 0, m): H is the Hermite form of
one row [symbolic exponents | defect] per declared relation.  Every query
reads that (s+1)-wide quotient: an order modulo its rows, a reduction by
them, one Hermite pass over the symbolic columns a subset leaves out and
the value column, or, for `decompose_extension`, one Smith form of its
rows.  Without declared relations H is empty and no Hermite pass runs:
each other query is a closed form on t and m (an order of V modulo m or
modulo a gcd, a witness reduced by `la.congruence_hnf`), through which
symbolic coordinates pass.

>>> P = BipotentPresentation.from_values(ValueLattice.of(1), "1/2", "1/3")
>>> dec = decompose_extension(P)
>>> dec.free_rank, dec.torsion_orders
(0, (6,))
>>> extension_rank(P)
6
>>> divisible_dependence_witness(P, (0, 1), (0,))
DependenceWitness(power=3, exponents=(0,), beta=Fraction(1, 1))
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat

from . import intlinalg as la
from ._record import record
from .errors import InconsistentRelations
from .tropical import ValueLattice, _cleared, as_fraction

INFINITE = math.inf


def _check_name(name, what: str):
    """Raise ValueError unless `name` is a Python identifier: a symbol's name reads as one word."""
    if not (isinstance(name, str) and name.isidentifier()):
        raise ValueError(f"{what} needs an identifier for its name, got {name!r}")


@record
class Numeric:
    """A generator with an explicit rational value."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            raise TypeError("a numeric generator's value must be a Fraction; use Numeric.of")

    @classmethod
    def of(cls, value) -> "Numeric":
        return cls(as_fraction(value))


@record
class Symbolic:
    """A named free generator; its only relations are the declared ones."""

    name: str

    def __post_init__(self):
        _check_name(self.name, "a symbolic generator")


@record
class Relation:
    """Asserts that the monomial with these exponents equals a base element."""

    exps: tuple[int, ...]
    beta: Fraction

    def __post_init__(self):
        if not isinstance(self.exps, tuple):
            raise TypeError("a relation's exps must be a tuple")
        if any(type(e) is not int for e in self.exps):  # bools and floats are refused
            raise ValueError("relation exponents must be ints")

    @classmethod
    def of(cls, exps, beta) -> "Relation":
        return cls(tuple(exps), as_fraction(beta))


@record
class BipotentPresentation:
    """A bipotent extension base[a1, ..., an] given by generators and relations.

    `monoid_exponents` marks the polynomial extension (natural exponents
    only) as opposed to the fraction semifield (integer exponents).  It is
    parsed, carried through `with_generator` and echoed; no query reads it,
    so every query, `is_bipotent_semifield` included, answers for the
    lattice in Z^n.
    """

    base: ValueLattice
    generators: tuple
    relations: tuple = ()
    monoid_exponents: bool = False
    __slots__ = ("_derived",)  # the cache entry or a refusal, None until `_entry` fills it

    def __post_init__(self):
        for field in ("generators", "relations"):
            if not isinstance(getattr(self, field), tuple):
                raise TypeError(f"a presentation's {field} must be a tuple")
        if type(self.monoid_exponents) is not bool:
            raise TypeError(f"a presentation's monoid_exponents must be a bool, got {self.monoid_exponents!r}")
        n = len(self.generators)
        for g in self.generators:
            if not isinstance(g, (Numeric, Symbolic)):
                raise TypeError(f"not a generator: {g!r}")
        names = [g.name for g in self.generators if isinstance(g, Symbolic)]
        if len(set(names)) != len(names):
            raise ValueError("a symbolic generator's name may appear only once")
        pure_numeric = not names
        if pure_numeric and self.relations:
            raise ValueError("pure numeric presentations compute their relations; do not declare any")
        for rel in self.relations:
            if len(rel.exps) != n:
                raise ValueError("relation exponent vector length does not match the generators")
            if not self.base.contains(rel.beta):
                raise InconsistentRelations(f"relation value {rel.beta} is not in the base lattice")
        object.__setattr__(self, "_derived", None)

    @classmethod
    def from_values(cls, base: ValueLattice, *values) -> "BipotentPresentation":
        return cls(base, tuple(Numeric.of(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.generators)

    def numeric_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.generators) if isinstance(g, Numeric)]

    def symbolic_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.generators) if isinstance(g, Symbolic)]

    def with_generator(self, gen) -> "BipotentPresentation":
        rels = tuple(Relation(r.exps + (0,), r.beta) for r in self.relations)
        return BipotentPresentation(self.base, self.generators + (gen,), rels, self.monoid_exponents)


def _entry(P: BipotentPresentation) -> tuple:
    """P's cache entry (t, m, dq, sym, rels, G), derived on P's first query and kept in P.

    The numeric values s_i and the declared betas are cleared over one
    `den`; with the base generator g = p/q, t_i = s_i*q (0 at a symbolic
    position), m = den*p (0 over a trivial base) and dq = den*q.  `sym`
    holds the symbolic positions, `rels` the quotient's rows (H, then
    (0, ..., 0, m) when m > 0; none when H is empty) and G = gcd(m, t_i).
    A relation's defect d = sum r_i*t_i - beta*dq is its numeric value
    minus its beta, over dq; as beta*dq is a multiple of m, H and m span pi
    of the lattice.  The relations are consistent exactly when every
    combination of them with no symbolic exponent left has defect 0, that
    is when no row of H is zero on the symbolic columns; otherwise P keeps
    the refusal's message, and this and every later call raise a fresh
    InconsistentRelations.  The entry is a tuple of integers and tuples,
    which the cyclic collector stops tracking; this is the one writer of
    P's slot.  Concurrent first queries derive equal entries.
    """
    entry = P._derived
    if entry is None:
        num, sym = P.numeric_indices(), P.symbolic_indices()
        scaled, den = _cleared([P.generators[i].value for i in num] + [r.beta for r in P.relations])
        g = P.base.single_generator()
        q, m = g.denominator, den * g.numerator
        ts = [0] * P.n
        for i, x in zip(num, scaled):
            ts[i] = x * q
        rels, refusal = (), None
        if P.relations:
            s = len(sym)
            rels = la.hnf([[r.exps[j] for j in sym] + [_dot(r.exps, ts) - b * q]
                           for r, b in zip(P.relations, scaled[len(num):])], s + 1)
            if any(not any(row[:s]) for row in rels):
                refusal = "declared relations give a numeric monomial a value other than its own"
            if rels and m:
                rels += ((0,) * s + (m,),)
        entry = refusal or (tuple(ts), m, den * q, tuple(sym), rels, math.gcd(m, *ts))
        object.__setattr__(P, "_derived", entry)
    if type(entry) is str:
        raise InconsistentRelations(entry)
    return entry


def _in_value_group(P: BipotentPresentation, v) -> bool:
    """Whether v lies in P's value group, once P's entry has checked the relations.

    A name v when P has a symbolic generator of that name; a rational v when
    it lies in the group the base and the numeric values span, the multiples
    of G/dq, G = gcd(m, t_i).
    """
    _, _, dq, sym, _, G = _entry(P)
    if isinstance(v, str):
        return any(P.generators[j].name == v for j in sym)
    return not v.numerator * dq % (v.denominator * G) if G else not v


def _checked_subset(P: BipotentPresentation, vectors, subset) -> list[int]:
    """The distinct generator indices of `subset`, sorted, once a query's arguments check out.

    Raises ValueError when one of the exponent vectors does not have one
    entry per generator of P, when an entry or an index is not an int (bools
    are refused), or when an index lies outside range(P.n).
    """
    n = len(P.generators)
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"an exponent vector needs {n} {'entry' if n == 1 else 'entries'}, one per generator")
    subset = tuple(subset)
    for x in chain(*vectors, subset):
        if type(x) is not int:  # bools and floats are refused
            raise ValueError("exponents and generator indices must be ints")
    subset = sorted(set(subset))
    if subset and not (0 <= subset[0] and subset[-1] < n):
        raise ValueError(f"generator indices must lie in range({n})")
    return subset


def _order(basis, vec):
    """Order of the class of `vec` modulo the lattice of an echelon basis, INFINITE if none.

    Row by row: scale by the least factor making the pivot divide the entry, then
    clear it; the rows from a pivot on span the lattice vectors zero before it.
    The entries before the pivot are left unscaled: only whether they are zero
    is read, and a factor k >= 1 does not change that.
    """
    v = list(vec)
    order = 1
    for row in basis:
        col = 0
        while not row[col]:
            col += 1
        k = row[col] // math.gcd(row[col], v[col])
        q = v[col] * k // row[col]
        for j in range(col, len(v)):
            v[j] = k * v[j] - q * row[j]
        order *= k
    return INFINITE if any(v) else order


def _dot(exps, ts) -> int:
    """V = sum e_i*t_i: the value of the monomial's numeric part over dq, on the entry's integers."""
    return sum(e * t for e, t in zip(exps, ts))


def _image(exps, ts, sym) -> list:
    """pi(k): the exponents on the symbolic columns, then V(k)."""
    return [exps[j] for j in sym] + [_dot(exps, ts)]


def _order_mod(v: int, g: int):
    """Order of v in Z/g for g >= 0: g // gcd(g, v), and over g = 0 (Z itself) 1 for v = 0, else INFINITE."""
    if g:
        return g // math.gcd(g, v)
    return INFINITE if v else 1


def _class_order(entry, exps):
    """Order of the monomial's class: of pi(exps) modulo the quotient's rows.

    Without declared relations the symbolic generators are free, so it is
    INFINITE for a symbolic exponent and otherwise the order of V modulo m.
    """
    ts, m, _, sym, rels, _ = entry
    if rels:
        return _order(rels, _image(exps, ts, sym))
    if sym and any(exps[j] for j in sym):
        return INFINITE
    return _order_mod(_dot(exps, ts), m)


def _without(entry, subset):
    """The quotient modulo the generators of a non-empty `subset`, as (c, Hermite rows over c + 1 columns).

    Its columns are the c symbolic columns outside the subset and the value
    column, and its rows the quotient's rows cut to them and (0, t_i) for
    each numeric i in the subset: one Hermite pass, or a gcd when c = 0.
    """
    ts, _, _, sym, rels, _ = entry
    keep = [c for c, j in enumerate(sym) if j not in subset]
    c = len(keep)
    vals = [ts[i] for i in subset if ts[i]]
    if not c:
        g = math.gcd(*(row[-1] for row in rels), *vals)
        return 0, ((g,),) if g else ()
    keep.append(len(sym))
    rows = [[row[j] for j in keep] for row in rels] + [[0] * c + [t] for t in vals]
    return c, la.hnf(rows, c + 1)


@record
class ExtDecomposition:
    """Free-by-torsion decomposition of a bipotent extension.

    Monomials are exponent vectors over the presentation's generators.  The
    free monomials generate a divisibly independent family; each torsion
    monomial has the matching order as its minimal power landing in the base.
    `generator_coords[j]` expresses generator j as an integer combination of
    (free monomials, torsion monomials) modulo the exponent lattice.

    Every torsion coordinate is a residue in (-d/2, d/2] modulo its order,
    and the numeric exponents of a monomial are reduced by the Hermite basis
    of the numeric lattice.  Without symbolic generators the output is
    canonical: over a base <g>, at most one torsion monomial, of order D and
    value g/D modulo the base (so every entry is below D); over the trivial
    base, at most one free monomial, whose value is the gcd h > 0 of the
    values, and coordinates a_j/h.  With symbolic generators the monomials
    are a basis read off the Smith form of the (s+1)-wide quotient, valid
    but dependent on its pivot order.
    """

    free_monomials: tuple
    torsion_monomials: tuple
    torsion_orders: tuple
    generator_coords: tuple

    @property
    def free_rank(self) -> int:
        return len(self.free_monomials)

    def rank(self):
        """[extension : base], equal to `extension_rank(P)`; finite exactly when there is no free part."""
        if self.free_monomials:
            return INFINITE
        return math.prod(self.torsion_orders) if self.torsion_orders else 1


def _bezout(us, c):
    """Integers k with k1*u1 + ... + kn*un ≡ gcd(c, u1, ..., un) modulo c, and equal to it when c = 0.

    One gcd chain that starts from c: a u_i that lowers the running gcd r
    to r' = x*r + y*u_i scales the earlier coefficients by x and takes y as
    its own.  Over c > 0 the coefficients are kept modulo c.  Starting from
    c matters: the u_i alone may share a factor that c does not.
    """
    k = [0] * len(us)
    r = c
    for i, u in enumerate(us):
        if r == 1:
            break
        g = math.gcd(r, u)
        if g == r:
            continue
        if r:
            y = pow(u // g, -1, r // g)
            x = (g - y * u) // r
            k = [e * x % c if c else e * x for e in k]
        else:  # the first nonzero u over c = 0; every earlier coefficient is 0
            y = 1 if u > 0 else -1
        k[i] = y
        r = g
    return k


def decompose_extension(P: BipotentPresentation) -> ExtDecomposition:
    """Split the extension into a divisibly free part and a torsion part.

    Read off one Smith form of P's quotient, which every other query reads
    too (`_entry`).  With G = gcd(m, t_i), k ↦ (k on the symbolic columns,
    V(k)/G) maps Z^n modulo the lattice onto Z^w modulo the quotient's rows
    with their value column divided by G (or, without declared relations,
    the row (0, ..., 0, m/G) over a base <g> and no row over the trivial
    one): w = s + 1, or s when G = 0 and the value column is 0.  Its Smith
    form U·A·V = diag(d_1, ..., d_r) gives the torsion orders, the d_i > 1,
    and the free rank w - r.  Row i of V⁻¹ lifts to a monomial: its
    symbolic entries are copied, and its value entry y gives the numeric
    exponents y times the Bézout exponents of the t_i/G (`_bezout`, modulo
    m/G), reduced by `la.congruence_hnf(t, m)`, so over a base <g> each
    lies below m/G.  Generator j's coordinates are its image times V, the
    torsion ones as residues in (-d/2, d/2].  Without symbolic generators
    the quotient is cyclic, Z/(m/G) or, over the trivial base, Z, and this
    is the closed form of one gcd.  Written on each call, so repeated calls
    return equal objects.
    """
    ts, m, _, sym, rels, G = _entry(P)
    n, s = P.n, len(sym)
    D = m // G if m else 0
    if rels:
        rows = [row[:s] + (row[s] // G,) for row in rels] if G else [row[:s] for row in rels]
    else:
        rows = [(0,) * s + (D,)] if m else []
    _, diag, v, vinv = la.smith(rows, s + 1 if G else s)
    r = len(diag)  # the rows are independent, so every d_i > 0
    k = diag.count(1)  # the chain d_1 | d_2 | ... puts the 1s first
    orders = tuple(diag[k:])
    us = [t // G for t in ts] if G else ts  # the value column's entry of each generator, 0 at a symbol
    hermite = None
    monomials = []
    for y in vinv[r:] + vinv[k:r]:
        if G and y[s]:
            if hermite is None:  # t_i = 0 at a symbolic position, so these leave it 0
                bezout = _bezout([u % D for u in us] if D else us, D)
                hermite = la.congruence_hnf(ts, m)
            mono = list(la.reduce_by_hnf([y[s] * b for b in bezout], hermite))
        else:
            mono = [0] * n
        for c, j in enumerate(sym):
            mono[j] = y[c]
        monomials.append(tuple(mono))
    # coordinate i of every generator: column i of V at its symbolic row, or t_j/G times the value row's
    columns = []
    for i in range(k, len(v)):
        a = v[s][i] if G else 0
        column = [u * a for u in us]
        for c, j in enumerate(sym):
            column[j] = v[c][i]
        if i < r:
            d = diag[i]
            column = [x - d if 2 * x > d else x for x in [x % d for x in column]]
        columns.append(column)
    f = len(v) - r
    coords = zip(zip(*columns[r - k:]) if f else repeat((), n), zip(*columns[:r - k]) if r > k else repeat((), n))
    return ExtDecomposition(tuple(monomials[:f]), tuple(monomials[f:]), orders, tuple(coords))


def torsion_degree(P: BipotentPresentation, exps):
    """Minimal k >= 1 with k times the monomial landing in the base, else INFINITE.

    The order of pi(exps) modulo the quotient's rows; without declared
    relations, INFINITE for a symbolic exponent and otherwise the order of
    V = sum e_i*t_i modulo the entry's m.
    """
    _checked_subset(P, (exps,), ())
    return _class_order(_entry(P), exps)


def torsion_subdomain_contains(P: BipotentPresentation, exps) -> bool:
    """Whether the monomial lies in the sub-domain of torsion elements."""
    return torsion_degree(P, exps) != INFINITE


def is_divisibly_dependent(P: BipotentPresentation, subset) -> bool:
    """Whether the generators indexed by `subset` admit a monomial relation.

    Equivalent to |subset| + rank(lattice) > rank(lattice + Z^subset).
    Through pi those ranks are r + |H| + [m > 0] and r plus the subset's
    symbolic columns plus the rank of `_without`'s rows, for one r.  Without
    declared relations only the subset's numeric generators can be
    dependent: m*e_i lies in the lattice when m > 0, t_j*e_i - t_i*e_j (or
    e_i, when both are 0) for two indices, and e_i alone when t_i = 0.
    """
    subset = _checked_subset(P, (), subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    entry = _entry(P)
    ts, m, _, sym, rels, _ = entry
    if not rels:
        nums = [i for i in subset if i not in sym] if sym else subset
        return bool(nums) and (bool(m) or len(nums) > 1 or not ts[nums[0]])
    c, rows = _without(entry, subset)
    return len(subset) + len(rels) > len(sym) - c + len(rows)


@record
class DependenceWitness:
    """k, exponents and base element with k*elem = sum(exponents_i * a_i) + beta."""

    power: int
    exponents: tuple
    beta: Fraction


def divisible_dependence_witness(P: BipotentPresentation, exps, subset=()) -> DependenceWitness | None:
    """Minimal power of a monomial expressible over the subset, with a witness.

    Returns None when no power of the monomial is a base multiple of a
    monomial in the subset generators.  The witness satisfies
    power*exps = sum over subset of exponents*e_i + (lattice vector of value beta).
    The exponents are the Hermite-reduced representative of their coset of
    the lattice vectors supported on the subset, so the witness is unique.
    Without declared relations it is written from the entry's congruence
    (`_cyclic_witness`).  With them, one Hermite pass over the symbolic
    columns C outside the subset, the value column and the subset's columns
    carries a beta column.  Its rows: the quotient's, with their entries on
    the subset's symbolic columns (the m row with beta m), and (0, -t_i | e_i)
    for each numeric i in the subset.  The power is the order of (exps on C,
    V) modulo the rows that reach into C or the value column; reducing
    [k*exps on C | k*V | k*exps on the subset's symbolic columns | 0] by all
    rows leaves the exponents and -beta*dq.  Over the empty subset the
    quotient's rows are that Hermite form already.  beta is the one Fraction.
    """
    subset = _checked_subset(P, (exps,), subset)
    ts, m, dq, sym, rels, _ = _entry(P)
    if not rels:
        return _cyclic_witness(ts, m, dq, sym, exps, subset)
    pos = {j: c for c, j in enumerate(sym)}
    keep = [c for c, j in enumerate(sym) if j not in subset] + [len(sym)]
    w = len(keep)
    rows = [[row[c] for c in keep] + [row[pos[i]] if i in pos else 0 for i in subset] + [0]
            for row in (rels[:-1] if m else rels)]
    rows += [[0] * (w - 1) + [-ts[i]] + [int(i == j) for j in subset] + [0] for i in subset if i not in pos]
    if m:
        rows.append([0] * (w - 1) + [m] + [0] * len(subset) + [m])
    if subset:
        rows = la.hnf(rows, w + len(subset))
    head = [exps[sym[c]] for c in keep[:-1]] + [_dot(exps, ts)]
    k = _order([row[:w] for row in rows if any(row[:w])], head)
    if k == INFINITE:
        return None
    target = [k * e for e in head] + [k * exps[i] if i in pos else 0 for i in subset] + [0]
    rem = la.reduce_by_hnf(target, rows)
    assert not any(rem[:w])
    sub_exps = rem[w:-1]
    removed = [k * e for e in exps]
    for i, x in zip(subset, sub_exps):
        removed[i] -= x
    # unless the removed lattice vector touches a symbolic generator, its value is beta
    assert any(removed[j] for j in sym) or _dot(removed, ts) == -rem[-1]
    return DependenceWitness(k, tuple(sub_exps), Fraction(-rem[-1], dq))


def _cyclic_witness(ts, m: int, dq: int, sym, exps, subset) -> DependenceWitness | None:
    """`divisible_dependence_witness` without declared relations, from the entry's congruence.

    The symbolic generators are free: a symbolic exponent outside the subset
    leaves no power, and those in it pass through, times the power.  With
    V = sum e_i*t_i and G = gcd(m, t_i : i numeric in the subset), the least
    power is the order of V modulo G.  The Bézout coefficients of those t_i,
    scaled by k*V/G, give exponents x with sum x_i*t_i ≡ k*V (mod m), reduced
    by `la.congruence_hnf`, the Hermite basis of the lattice vectors on the
    subset; the removed vector has value beta = (k*V - sum x_i*t_i)/dq.
    """
    if sym and any(exps[j] for j in sym if j not in subset):
        return None
    num = [i for i in subset if i not in sym] if sym else subset
    t_sub = [ts[i] for i in num]
    g = math.gcd(m, *t_sub)
    v = _dot(exps, ts)
    k = _order_mod(v, g)
    if k == INFINITE:
        return None
    scale = k * v // g if g else 0  # g = 0 leaves only v = 0, and every t_i in the subset is 0
    x = la.reduce_by_hnf([b * scale for b in _bezout(t_sub, m)], la.congruence_hnf(t_sub, m))
    removed = k * v - _dot(x, t_sub)
    assert not (removed % m if m else removed)  # the removed vector lies in the base
    if sym:
        rest = iter(x)
        x = tuple(k * exps[i] if i in sym else next(rest) for i in subset)
    return DependenceWitness(k, x, Fraction(removed, dq))


def extension_rank(P: BipotentPresentation, over=()):
    """[extension : sub-extension generated by the subset]; INFINITE if not torsion.

    With an empty subset this is the rank of the whole extension over the
    base.  It is the index of the lattice plus the subset's unit vectors,
    that is of `_without`'s rows (the quotient's own over the empty subset)
    in Z^C x G*Z, G = gcd(m, t_i): the product of their pivots on C times
    the order of G modulo their value pivot (0 when there is none), and
    INFINITE when fewer than |C| of them pivot on C.  Without declared
    relations it is INFINITE when a symbolic generator lies outside the
    subset, and otherwise the order of G modulo gcd(m, t_i : i in over).
    """
    over = _checked_subset(P, (), over)
    entry = _entry(P)
    ts, m, _, sym, rels, G = entry
    if not rels:
        if sym and any(j not in over for j in sym):
            return INFINITE
        return _order_mod(G, math.gcd(m, *(ts[i] for i in over)))
    c, rows = _without(entry, over) if over else (len(sym), rels)
    if len(rows) < c or c and not rows[c - 1][c - 1]:
        return INFINITE
    order = _order_mod(G, rows[c][c] if len(rows) > c else 0)
    return order if order == INFINITE else math.prod(rows[i][i] for i in range(c)) * order


def is_bipotent_semifield(P: BipotentPresentation) -> bool:
    """Whether every generator class of P is torsion over the base.

    True exactly when the quotient group Z^n / lattice is finite (free rank
    zero), which is when the natural-exponent extension is a semifield.  The
    answer does not read `P.monoid_exponents`: it is the same whether P is
    marked as the polynomial extension or, by default, as the fraction
    semifield.
    """
    return extension_rank(P) != INFINITE


def linearly_dependent_pair(P: BipotentPresentation, x_exps, y_exps) -> bool:
    """Whether the two monomials differ by a base factor (equal classes): the difference's order is 1."""
    _checked_subset(P, (x_exps, y_exps), ())
    return _class_order(_entry(P), [a - b for a, b in zip(x_exps, y_exps)]) == 1


def canonical_coset_value(P: BipotentPresentation, exps) -> Fraction | None:
    """Smallest non-negative value in the monomial's base coset, if it has a rational value.

    The class has one exactly when a lattice vector removes every symbolic
    coordinate, that is when reducing pi(exps) by the quotient's rows leaves
    no symbolic entry (without declared relations, when it has none); the
    value entry V left is the class's value over dq.  Returns None when
    symbolic entries remain, and otherwise (V mod m) / dq, the one
    Fraction built.
    """
    _checked_subset(P, (exps,), ())
    ts, m, dq, sym, rels, _ = _entry(P)
    if rels:
        *rest, value = la.reduce_by_hnf(_image(exps, ts, sym), rels)
        if any(rest):
            return None
    elif sym and any(exps[j] for j in sym):
        return None
    else:
        value = _dot(exps, ts)
    return Fraction(value % m if m else value, dq)
