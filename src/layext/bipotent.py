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

Queries run on integers and share what a presentation derives, in two
stages: the values and declared betas cleared once to integers over one
denominator `den`, with the congruence sum k_i*t_i ≡ 0 (mod m) they give,
then the Hermite basis (`exponent_lattice`), only once a query reads it.
The one Fraction a query builds is the rational part of its answer.
Without symbolic generators a monomial lies in the base exactly when the
congruence holds, so every query but `decompose_extension` answers from
t, m and the denominators in closed form, with no basis: an order of
V = sum e_i*t_i modulo m or modulo a gcd of m and some t_i, and a witness
reduced by `la.congruence_hnf`.  With symbolic generators the queries read
the Hermite basis; one that reads only the columns outside a subset
(`extension_rank` over it, `is_divisibly_dependent`, the witness) runs its
one Hermite pass on the basis projected onto those columns, and none when
they are a prefix of the natural order.

Only `decompose_extension` may build a Smith form, and only for a
presentation with symbolic generators.  Without them the quotient is cyclic
(free of rank 1 over a trivial base), and its decomposition follows in
closed form from one gcd on the same integers: one monomial, reduced by the
Hermite basis, and one coordinate per generator, a symmetric residue modulo
the order.

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
from itertools import chain

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


@record
class ExponentLattice:
    """Hermite basis of the monomial-relation lattice, with base values attached.

    `basis` is the lattice's Hermite basis as `la.hnf` gives it, unique for
    the lattice.  `betas[i] / den` is the base element equal to the monomial
    with exponents `basis[i]`: the betas are integers over `den`, the least
    common denominator of the numeric values and the declared betas, and a
    payload column beside the basis in every later row operation.
    """

    basis: tuple
    betas: tuple
    den: int

    def contains(self, exps) -> bool:
        return not any(la.reduce_by_hnf(exps, self.basis))


def _columns_first(rows, first, ncols):
    """The rows with the columns `first` moved, in that order, in front of the others of range(ncols).

    Columns past `ncols` stay at the end.  A Hermite basis of the result
    starts with the rows that reach into those columns; the rows after them
    span the lattice vectors that vanish there.
    """
    order = list(first) + [j for j in range(ncols) if j not in first]
    return [[row[j] for j in order] + list(row[ncols:]) for row in rows]


def _check_relations(P: BipotentPresentation, num, scaled):
    """Raise InconsistentRelations unless the declared relations fit the numeric values.

    `scaled` holds the values of the numeric generators `num`, then the
    relations' betas, as integers over one denominator.  A relation's defect
    is the value of its numeric part minus its beta, over that denominator.
    The relations are consistent exactly when every integer combination of
    them with no symbolic exponent left has defect 0, that is when the
    Hermite form of the rows [symbolic exponents | defect] has no row that
    is zero on the symbolic columns.
    """
    sym = P.symbolic_indices()
    rows = [
        [r.exps[i] for i in sym] + [sum(r.exps[i] * s for i, s in zip(num, scaled)) - b]
        for r, b in zip(P.relations, scaled[len(num):])
    ]
    if any(not any(row[: len(sym)]) for row in la.hnf(rows, len(sym) + 1)):
        raise InconsistentRelations("declared relations give a numeric monomial a value other than its own")


# The last presentation queried, [P, t, m, q, den, lattice or None,
# decomposition or None]: t holds each generator's t_i (None for a symbolic
# one), and `exponent_lattice` and `decompose_extension` fill in the last two
# slots when a query first reads them.  One entry keeps no presentation alive
# beyond the next one.  `_entry` replaces it whole, so concurrent callers at
# worst derive it again, never mix two presentations' data; two that fill one
# slot at once store equal values.
_last = [None]


def _entry(P: BipotentPresentation) -> list:
    """P's cache entry, its congruence derived once per run of queries on P, with no Hermite pass.

    The numeric values s_i and the declared betas are cleared over one `den`;
    with the base generator g = p/q, t_i = s_i*q and m = den*p (m = 0 over a
    trivial base), and a numeric monomial k lies in the base exactly when
    sum k_i*t_i ≡ 0 (mod m).  `exponent_lattice` checks the relations.
    """
    global _last
    entry = _last
    if entry[0] is not P:
        num = P.numeric_indices()
        scaled, den = _cleared([P.generators[i].value for i in num] + [r.beta for r in P.relations])
        g = P.base.single_generator()
        q = g.denominator
        ts = [None] * P.n
        for i, s in zip(num, scaled):
            ts[i] = s * q
        entry = _last = [P, ts, den * g.numerator, q, den, None, None]
    return entry


def exponent_lattice(P: BipotentPresentation) -> ExponentLattice:
    """The lattice of exponent vectors whose monomial lies in the base.

    Numeric generators contribute every relation implied by their values;
    symbolic generators contribute only the declared relations.  Raises
    InconsistentRelations when a combination of declared relations
    contradicts the numeric values.

    The second stage of P's cache entry, built from the congruence `_entry`
    derived when a query first reads the basis (`decompose_extension`, or
    any query on a presentation with a symbolic generator) and kept in the
    entry.  The numeric part of the lattice is `la.congruence_hnf` of
    t and m, placed in the numeric columns; a row's beta is its value over
    `den`, sum k_i*s_i with s_i = t_i/q.  Without declared relations these
    rows are the Hermite basis; with them, once they are checked, one
    `la.hnf` merges the relation rows in, their betas riding along.
    """
    _, ts, m, q, den, lat, _ = entry = _entry(P)
    if lat is None:
        num = P.numeric_indices()
        scaled = [ts[i] // q for i in num] + [r.beta.numerator * (den // r.beta.denominator) for r in P.relations]
        if P.relations:
            _check_relations(P, num, scaled)
        rows = []
        for k in la.congruence_hnf([ts[i] for i in num], m):
            row = [0] * P.n
            for i, x in zip(num, k):
                row[i] = x
            rows.append(row + [sum(x * a for x, a in zip(k, scaled))])
        if P.relations:
            rows += [[*r.exps, b] for r, b in zip(P.relations, scaled[len(num):])]
            rows = la.hnf(rows, P.n)
        lat = entry[5] = ExponentLattice(tuple(tuple(row[:-1]) for row in rows), tuple(row[-1] for row in rows), den)
    return lat


def _in_value_group(P: BipotentPresentation, v: Fraction) -> bool:
    """Whether v lies in the group the base and the numeric values span, the multiples of G/(den*q), G = gcd(m, t_i)."""
    _, ts, m, q, den, _, _ = _entry(P)
    g = math.gcd(m, *(t for t in ts if t is not None))
    return not v.numerator * den * q % (v.denominator * g) if g else not v


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


def _is_prefix(cols) -> bool:
    return cols == list(range(len(cols)))


def _basis_first(rows, cols, ncols):
    """The Hermite basis `rows` redone with the columns `cols` first; later columns ride along.

    A prefix of range(ncols) keeps the natural order, whose Hermite basis `rows` already is.
    """
    if _is_prefix(cols):
        return rows
    return la.hnf(_columns_first(rows, cols, ncols), ncols)


def _projected(basis, cols):
    """The Hermite basis of the lattice's projection onto the columns `cols`, in that order.

    One Hermite pass over rows as wide as `cols`.  A prefix of the natural
    order runs none: the Hermite rows that reach into it, cut to it, are
    that basis already.
    """
    c = len(cols)
    if _is_prefix(cols):
        return [row[:c] for row in basis if any(row[:c])]
    return la.hnf([[row[j] for j in cols] for row in basis], c)


def _order(basis, vec):
    """Order of the class of `vec` modulo the lattice of a Hermite basis, INFINITE if none.

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
    """sum e_i*t_i: the value of the monomial `exps` over den*q, on the entry's integers."""
    return sum(e * t for e, t in zip(exps, ts))


def _order_mod(v: int, g: int):
    """Order of v in Z/g for g >= 0: g // gcd(g, v), and over g = 0 (Z itself) 1 for v = 0, else INFINITE."""
    if g:
        return g // math.gcd(g, v)
    return INFINITE if v else 1


@record
class ExtDecomposition:
    """Free-by-torsion decomposition of a bipotent extension.

    Monomials are exponent vectors over the presentation's generators.  The
    free monomials generate a divisibly independent family; each torsion
    monomial has the matching order as its minimal power landing in the base.
    `generator_coords[j]` expresses generator j as an integer combination of
    (free monomials, torsion monomials) modulo the exponent lattice.

    Without symbolic generators the output is canonical: over a base <g>,
    at most one torsion monomial, of order D and value g/D modulo the base,
    reduced by the lattice's Hermite basis (so every entry is below D), and
    coordinates the symmetric residues in (-D/2, D/2]; over the trivial
    base, at most one free monomial, Hermite-reduced, whose value is the
    gcd h > 0 of the values, and coordinates a_j/h.  With symbolic
    generators the monomials are a basis read off the Smith form, valid but
    dependent on its pivot order.
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


def _cyclic_decomposition(basis, ts, m: int) -> ExtDecomposition:
    """The decomposition of a presentation without symbolic generators, in closed form.

    With the entry's congruence (`_entry`), a monomial k lies in
    the base exactly when sum k_i*t_i ≡ 0 modulo m, so k ↦ sum k_i*t_i maps
    Z^n modulo the lattice onto the multiples of G = gcd(m, t_1, ..., t_n)
    modulo m: a cyclic group of order D = m/G.  Its monomial maps to G, and
    so has value g/D modulo the base; generator j's coordinate is t_j/G
    modulo D.  Over the trivial base (m = 0, q = 1, so t_i is the value
    times `den`) the map is onto the multiples of h = gcd(t_1, ..., t_n),
    which are free; its monomial has value h/den and generator j the
    coordinate t_j/h.  Each monomial is a Bézout chain reduced by the
    Hermite basis, the one Hermite-reduced vector of its class.
    """
    if m:
        G = math.gcd(m, *ts)
        D = m // G
        if D > 1:
            us = [t // G % D for t in ts]
            mono = la.reduce_by_hnf(_bezout(us, D), basis)
            return ExtDecomposition((), (mono,), (D,), tuple(((), (u - D if 2 * u > D else u,)) for u in us))
    else:
        h = math.gcd(*ts)
        if h:
            mono = la.reduce_by_hnf(_bezout(ts, 0), basis)
            return ExtDecomposition((mono,), (), (), tuple(((t // h,), ()) for t in ts))
    return ExtDecomposition((), (), (), (((), ()),) * len(ts))  # the quotient is trivial


def _smith_decomposition(basis, n: int) -> ExtDecomposition:
    """The decomposition read off the Smith form U·B·V = diag(d1, ..., dr) of the lattice's basis B.

    The rows of V⁻¹ with d > 1 are torsion monomials of order d, those
    beyond the lattice rank r the free monomials, and the rows of V the
    generators' coordinates.
    """
    _, diag, v, vinv = la.smith(basis, n)
    torsion_idx = [i for i, d in enumerate(diag) if d > 1]
    free_idx = list(range(len(diag), n))
    return ExtDecomposition(
        tuple(tuple(vinv[i]) for i in free_idx),
        tuple(tuple(vinv[i]) for i in torsion_idx),
        tuple(diag[i] for i in torsion_idx),
        tuple((tuple(row[i] for i in free_idx), tuple(row[i] for i in torsion_idx)) for row in v),
    )


def decompose_extension(P: BipotentPresentation) -> ExtDecomposition:
    """Split the extension into a divisibly free part and a torsion part.

    Without symbolic generators the quotient Z^n / lattice is cyclic, and
    its decomposition is written in closed form from one gcd, with no Smith
    form (`_cyclic_decomposition`): over a base <g>, at most one torsion
    monomial, of order D and value g/D modulo the base, reduced by the
    Hermite basis so that every entry is below D, with generator
    coordinates the symmetric residues in (-D/2, D/2]; over the trivial
    base, at most one free monomial, whose value h is the gcd of the values,
    with generator j's coordinate a_j/h.  With symbolic generators it is
    read off the Smith form of the lattice's basis (`_smith_decomposition`).
    Built once per run of queries on P; repeated calls return the same
    object.
    """
    entry = _entry(P)
    if entry[6] is None:
        ts, basis = entry[1], exponent_lattice(P).basis
        entry[6] = _smith_decomposition(basis, P.n) if None in ts else _cyclic_decomposition(basis, ts, entry[2])
    return entry[6]


def torsion_degree(P: BipotentPresentation, exps):
    """Minimal k >= 1 with k times the monomial landing in the base, else INFINITE.

    Without symbolic generators it is the order of V = sum e_i*t_i modulo
    the entry's m; with them, an order modulo the Hermite basis.
    """
    _checked_subset(P, (exps,), ())
    _, ts, m, _, _, _, _ = _entry(P)
    if None in ts:
        return _order(exponent_lattice(P).basis, exps)
    return _order_mod(_dot(exps, ts), m)


def torsion_subdomain_contains(P: BipotentPresentation, exps) -> bool:
    """Whether the monomial lies in the sub-domain of torsion elements."""
    return torsion_degree(P, exps) != INFINITE


def is_divisibly_dependent(P: BipotentPresentation, subset) -> bool:
    """Whether the generators indexed by `subset` admit a monomial relation.

    Equivalent to the exponent lattice having a nonzero vector supported on
    those coordinates, that is to its projection onto the complement having
    lower rank than the lattice: one Hermite pass over the complement columns.
    Without symbolic generators no pass runs: m*e_i lies in the lattice when
    m > 0, t_j*e_i - t_i*e_j (or e_i, when both are 0) for two indices, and
    e_i alone exactly when t_i = 0.
    """
    subset = _checked_subset(P, (), subset)
    if not subset:
        raise ValueError("subset must be non-empty")
    _, ts, m, _, _, _, _ = _entry(P)
    if None not in ts:
        return bool(m) or len(subset) > 1 or not ts[subset[0]]
    basis = exponent_lattice(P).basis
    return len(_projected(basis, [j for j in range(P.n) if j not in subset])) < len(basis)


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
    Without symbolic generators it is written from the entry's congruence
    (`_cyclic_witness`).  With them, the power is an order modulo the
    Hermite rows, complement columns first, that reach into the complement;
    reducing by all rows gives the rest.  Everything runs on integers: the
    betas over the lattice's `den`, and the check that the removed lattice
    vector has value beta on the entry's t_i, over den*q.  beta is the one
    Fraction built.
    """
    subset = _checked_subset(P, (exps,), subset)
    _, ts, m, q, den, _, _ = _entry(P)
    if None not in ts:
        return _cyclic_witness(ts, m, den * q, exps, subset)
    lat = exponent_lattice(P)
    complement = [j for j in range(P.n) if j not in subset]
    c = len(complement)
    rows = _basis_first([(*row, b) for row, b in zip(lat.basis, lat.betas)], complement, P.n)
    k = _order([row[:c] for row in rows if any(row[:c])], [exps[j] for j in complement])
    if k == INFINITE:
        return None
    target = [k * e for e in exps]
    rem = la.reduce_by_hnf(_columns_first([target + [0]], complement, P.n)[0], rows)
    assert not any(rem[:c])
    beta = Fraction(-rem[-1], den)
    sub_exps = rem[c:-1]
    for x, i in zip(sub_exps, subset):
        target[i] -= x
    # target is now the removed lattice vector: unless it touches a symbolic generator, its value is beta
    assert any(e and t is None for e, t in zip(target, ts)) or sum(
        e * t for e, t in zip(target, ts) if e) == -rem[-1] * q
    return DependenceWitness(k, tuple(sub_exps), beta)


def _cyclic_witness(ts, m: int, den_q: int, exps, subset) -> DependenceWitness | None:
    """`divisible_dependence_witness` for a presentation without symbolic generators, from its congruence.

    With V = sum e_i*t_i and G = gcd(m, t_i : i in subset), a power k of the
    monomial is a base multiple of a subset monomial exactly when k*V is a
    multiple of G modulo m, so the least is the order of V modulo G.  The
    subset's Bézout coefficients, scaled by k*V/G, give exponents x with
    sum x_i*t_i ≡ k*V (mod m); they are reduced by `la.congruence_hnf`, the
    Hermite basis of the lattice vectors supported on the subset.  The
    removed lattice vector has value beta = (k*V - sum x_i*t_i)/(den*q).
    """
    t_sub = [ts[i] for i in subset]
    g = math.gcd(m, *t_sub)
    v = _dot(exps, ts)
    k = _order_mod(v, g)
    if k == INFINITE:
        return None
    scale = k * v // g if g else 0  # g = 0 leaves only v = 0, and every t_i in the subset is 0
    x = la.reduce_by_hnf([b * scale for b in _bezout(t_sub, m)], la.congruence_hnf(t_sub, m))
    removed = k * v - _dot(x, t_sub)
    assert not (removed % m if m else removed)  # the removed vector lies in the base
    return DependenceWitness(k, x, Fraction(removed, den_q))


def extension_rank(P: BipotentPresentation, over=()):
    """[extension : sub-extension generated by the subset]; INFINITE if not torsion.

    With an empty subset this is the rank of the whole extension over the base.
    It is the index of the lattice's projection onto the complement columns:
    the product of that projection's Hermite pivots, INFINITE when it has
    fewer rows than columns.  Without symbolic generators the quotient is
    the multiples of G = gcd(m, t_1, ..., t_n) modulo m (`_entry`)
    and the subset's image those of G_over = gcd(m, t_i : i in over), so the
    rank is the order of G modulo G_over: G_over/G, 1 when G = 0, and
    INFINITE when G_over = 0 < G.
    """
    over = _checked_subset(P, (), over)
    _, ts, m, _, _, _, _ = _entry(P)
    if None not in ts:
        return _order_mod(math.gcd(m, *ts), math.gcd(m, *(ts[i] for i in over)))
    complement = [j for j in range(P.n) if j not in over]
    basis = _projected(exponent_lattice(P).basis, complement)
    if len(basis) < len(complement):
        return INFINITE
    return math.prod(row[i] for i, row in enumerate(basis))


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
    """Whether the two monomials differ by a base factor (equal classes).

    Without symbolic generators: whether sum (x_i - y_i)*t_i = 0 modulo m.
    """
    _checked_subset(P, (x_exps, y_exps), ())
    _, ts, m, _, _, _, _ = _entry(P)
    diff = tuple(a - b for a, b in zip(x_exps, y_exps))
    if None in ts:
        return exponent_lattice(P).contains(diff)
    return _order_mod(_dot(diff, ts), m) == 1


def canonical_coset_value(P: BipotentPresentation, exps) -> Fraction | None:
    """Smallest non-negative value in the monomial's base coset, if it has a rational value.

    The class has one exactly when a lattice vector removes every symbolic
    coordinate.  Reducing by the Hermite basis with the symbolic columns first
    finds such a vector whenever there is one.  Its beta lies in the base (it
    is 0 over a trivial base), so the class's value modulo the base generator
    is the remainder's numeric value modulo it.  Returns None when symbolic
    coordinates remain.  With the entry's t_i, m and q, the remainder's
    value is V/(den*q), V = sum e_i*t_i, so that is (V mod m) / (den*q), the
    one Fraction built.  Without symbolic generators the monomial itself
    is such a remainder, and nothing is reduced.
    """
    _checked_subset(P, (exps,), ())
    _, ts, m, q, den, _, _ = _entry(P)
    if None in ts:
        sym = P.symbolic_indices()
        rem = la.reduce_by_hnf(_columns_first([exps], sym, P.n)[0], _basis_first(exponent_lattice(P).basis, sym, P.n))
        if any(rem[: len(sym)]):
            return None
        value = sum(e * ts[i] for e, i in zip(rem[len(sym):], P.numeric_indices()))
    else:
        value = _dot(exps, ts)
    return Fraction(value % m if m else value, den * q)
