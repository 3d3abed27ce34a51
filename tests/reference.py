"""Arithmetic that only the tests use, as references for the library.

Polynomial arithmetic over Q: the library multiplies, inverts, divides and
counts roots on integers; these are the plain Fraction versions, on tuples
of Fractions indexed by degree (`Poly`), with their integer form for
`layext.polys`, which takes integer polynomials only.  Integer matrix arithmetic: products,
determinants, pivots, kernels, solving and the invariants of a Smith form,
written on top of `layext.intlinalg`, which keeps only the Hermite and Smith
forms the library itself uses.  The kernel witnesses that `kernel_contains`
is checked against, built from the sign split of a minimal polynomial, and
the coefficient cone of an extension element.  The layer polynomial
behind an evaluation in `layext.uniform`.  Max-plus arithmetic on plain
(layer, value) pairs, for `layext.tropical`.  And the shorthand constructors
the tests build presentations, monomials and scalars with, membership in
an exponent lattice, and the base value of an exponent-lattice vector.  The extension arithmetic of
`layext.cancellative` as it was when elements stored Fraction coefficients,
for the integer operators that replaced it.  The Hermite, reduction and
Smith kernels as they were when their operations ran over whole rows, and
the exponent lattice as one Hermite pass over [t | exponents | beta] rows,
with the base value ("beta") of each basis row: the library keeps no n-wide
basis, so this is the lattice the oracles here read.  The `bipotent` formulas that ran on Fractions or on
Hermite passes over all n columns, complement columns first, before the
queries moved to the (s+1)-wide quotient of the symbolic columns and the
value: a monomial's value, the relation check, the witness (exact, and its
value check), the canonical coset value, `extension_rank` and
`is_divisibly_dependent`.
"""

import math
import random
from fractions import Fraction

from layext.bipotent import (
    INFINITE,
    BipotentPresentation,
    DependenceWitness,
    Relation,
    Symbolic,
    _order,
)
from layext.errors import InconsistentRelations
from layext.cancellative import PosPoly, SignedPoly
from layext.intlinalg import Vec, _echelon, hnf, identity, reduce_by_hnf, smith
from layext.polys import _mul
from layext.tropical import ValueLattice, _cleared, as_fraction
from layext.uniform import ExtScalar, essential_indices

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    """Normalize a coefficient sequence (index = degree) into a Poly."""
    cs = [as_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def integer_form(p: Poly) -> tuple[int, ...]:
    """The integer numerators of p over their least common denominator: a positive multiple of p."""
    return tuple(_cleared(p)[0])


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    db = degree(b)
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        k = len(r) - 1 - db
        f = r[-1] / lead
        q[k] = f
        for i in range(len(b)):
            r[k + i] -= f * b[i]
    return poly(q), poly(r)


def rem(a: Poly, b: Poly) -> Poly:
    return divmod_poly(a, b)[1]


def diff(a: PosPoly, b: PosPoly) -> SignedPoly:
    """a - b as a signed polynomial."""
    return SignedPoly(sub(SignedPoly.of(a.terms).coeffs, SignedPoly.of(b.terms).coeffs))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    c = as_fraction(c)
    return poly([c * x for x in p])


def monic(p: Poly) -> Poly:
    if not p:
        return p
    return scale(p, 1 / p[-1])


def xgcd_poly(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns monic (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = poly([1]), ()
    t0, t1 = (), poly([1])
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
        t0, t1 = t1, sub(t0, mul(q, t1))
    if not r0:
        return (), s0, t0
    lead = r0[-1]
    return monic(r0), scale(s0, 1 / lead), scale(t0, 1 / lead)


def mat_mul(a, b) -> list[list[int]]:
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(ra))) for j in range(cols)] for ra in a]


def vec_mat(v, a) -> list[int]:
    """Row vector times matrix."""
    if not a:
        return []
    cols = len(a[0])
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(cols)]


def det(a) -> int:
    """Determinant via fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pivot_columns(basis) -> list[int]:
    return [next(j for j, x in enumerate(row) if x != 0) for row in basis]


def kernel(rows, ncols: int) -> tuple[Vec, ...]:
    """Basis of the left kernel {x : x·A = 0} of the matrix with the given rows."""
    m = len(rows)
    if m == 0:
        return ()
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    red = _echelon(aug, ncols + m)
    ker = [tuple(r[ncols:]) for r in red if all(x == 0 for x in r[:ncols])]
    return hnf(ker, m)


def solve_left(rows, ncols: int, target) -> Vec | None:
    """Solve x·A = target for an integer row vector x, or return None."""
    u, diag, v, _ = smith(rows, ncols)
    bv = vec_mat(list(target), v)
    y = [0] * len(u)
    for j in range(len(v)):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if bv[j] != 0:
                return None
        else:
            if bv[j] % d != 0:
                return None
            y[j] = bv[j] // d
    return tuple(vec_mat(y, u))


def smith_invariants(rows, ncols: int) -> tuple[tuple, int, tuple]:
    """(invariant factors, free rank, torsion invariants) of Z^ncols / rowspan.

    The invariant factors are the nonzero diagonal entries of `smith`; the
    free rank counts the columns without one, the torsion invariants are the
    factors above 1.
    """
    _, diag, _, _ = smith(rows, ncols)
    factors = tuple(d for d in diag if d != 0)
    return factors, ncols - len(factors), tuple(d for d in factors if d > 1)


def diff_split(m: SignedPoly) -> tuple[PosPoly, PosPoly]:
    """Split into positive part minus negated-negative part, supports disjoint."""
    pos = {d: c for d, c in m.terms if c > 0}
    neg = {d: -c for d, c in m.terms if c < 0}
    if not pos or not neg:
        raise ValueError("the polynomial has coefficients of a single sign")
    return PosPoly.of(pos), PosPoly.of(neg)


def kernel_sample(gen, g1: PosPoly, g2: PosPoly | None = None, h: PosPoly | None = None) -> tuple[PosPoly, PosPoly]:
    """A kernel element (num, den) built from the sign split of the minimal polynomial.

    With m = m_plus - m_minus, the quotient

        (m_plus*g1 + m_minus*g2 + h*(g1+g2)) / (m_plus*g2 + m_minus*g1 + h*(g1+g2))

    is always congruent to 1; omitted g2 or h drop the corresponding terms
    (the positive polynomials have no zero, so omission is the degenerate case).
    """
    m_plus, m_minus = diff_split(gen.m)
    num, den = m_plus * g1, m_minus * g1
    if g2 is not None:
        num, den = num + m_minus * g2, den + m_plus * g2
    if h is not None:
        shared = h * (g1 + g2 if g2 is not None else g1)
        num, den = num + shared, den + shared
    return num, den


def in_cone(e) -> bool:
    """All coefficients of the extension element non-negative and not all zero."""
    return all(c >= 0 for c in e.coeffs) and not e.is_zero


def essential_layer_poly(f, a) -> dict:
    """The layer polynomial of f's essential terms at the scalar: exponent -> layer."""
    ess = set(essential_indices(f, a))
    return {e: c.layer for e, c in f.terms if e in ess}


def pair_add(x, y):
    """Layered sum of (layer, value) pairs, None standing for Zero: larger value wins, ties add layers."""
    if x is None or y is None:
        return y if x is None else x
    if x[1] != y[1]:
        return max(x, y, key=lambda pair: pair[1])
    return (x[0] + y[0], x[1])


def pair_mul(x, y):
    """Layered product of (layer, value) pairs: layers multiply, values add, None absorbs."""
    if x is None or y is None:
        return None
    return (x[0] * y[0], x[1] + y[1])


def pair_matvec(rows, v) -> list:
    """The max-plus matrix-vector product on (layer, value) pairs."""
    out = []
    for row in rows:
        acc = None
        for a, b in zip(row, v):
            acc = pair_add(acc, pair_mul(a, b))
        out.append(acc)
    return out


def in_lattice(basis, exps) -> bool:
    """Whether an exponent vector lies in the lattice of a Hermite basis: it reduces to zero by the basis."""
    return not any(reduce_by_hnf(exps, basis))


def beta_of(P: BipotentPresentation, exps) -> Fraction:
    """The base value of a vector of P's exponent lattice; ValueError if it is not in the lattice."""
    basis, betas, den = reference_exponent_lattice(P)
    rem = reduce_by_hnf((*exps, 0), [(*row, b) for row, b in zip(basis, betas)])
    if any(rem[:-1]):
        raise ValueError("vector is not in the exponent lattice")
    return Fraction(-rem[-1], den)


def permuted(P: BipotentPresentation, perm) -> BipotentPresentation:
    """The same extension with generators reordered by the permutation."""
    gens = tuple(P.generators[p] for p in perm)
    rels = tuple(Relation(tuple(r.exps[p] for p in perm), r.beta) for r in P.relations)
    return BipotentPresentation(P.base, gens, rels, P.monoid_exponents)


def item_10_presentation(n: int, seed: int = 1) -> BipotentPresentation:
    """n numeric generators over <1> with random 6-digit numerators (either sign) and denominators."""
    rng = random.Random(seed)
    values = [Fraction(rng.choice((-1, 1)) * rng.randint(100000, 999999), rng.randint(100000, 999999))
              for _ in range(n)]
    return BipotentPresentation.from_values(ValueLattice.of(1), *values)


def item_10_symbolic_presentation(n: int, seed: int = 1) -> BipotentPresentation:
    """`item_10_presentation(n)` plus symbolic g and h bound by 2g + a_1 = 1 and g + 3h + 3a_3 - a_2 = -2.

    Both relations carry numeric exponents, so their defects are as large as the base's modulus.
    """
    P = item_10_presentation(n, seed)
    first, second = [0] * (n + 2), [0] * (n + 2)
    first[0], first[n] = 1, 2
    second[1], second[2], second[n], second[n + 1] = -1, 3, 1, 3
    return BipotentPresentation(P.base, P.generators + (Symbolic("g"), Symbolic("h")),
                                (Relation.of(first, 1), Relation.of(second, -2)))


def monomial(k: int = 1, coeff=1) -> PosPoly:
    """coeff * x^k."""
    return PosPoly.of({k: coeff})


def scalar(layer, value) -> ExtScalar:
    """A rational scalar from ints, strings or Fractions."""
    return ExtScalar(as_fraction(layer), as_fraction(value))


# Extension arithmetic on Fraction coefficient tuples of a generator's
# extension: each operand is cleared to one common denominator, folded
# through the generator's reduction table, and each result coefficient
# becomes a Fraction.


def _fold(gen, c) -> list[int]:
    """D·(c mod m) on the basis, for integer coefficients c of degree below 2n-1."""
    den, rows = gen.table
    n = gen.n
    out = [den * x for x in c[:n]]
    out += [0] * (n - len(out))
    for row, top in zip(rows, c[n:]):
        if top:
            for i, r in enumerate(row):
                out[i] += top * r
    return out


def ext_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def ext_scale(a, c) -> tuple:
    c = as_fraction(c)
    return tuple(c * x for x in a)


def ext_mul(gen, a, b) -> tuple:
    a, da = _cleared(a)
    b, db = _cleared(b)
    den = gen.table[0] * da * db
    return tuple(Fraction(c, den) for c in _fold(gen, _mul(a, b)))


def ext_inverse(gen, a) -> tuple:
    """The y with a·y = 1, by Gauss-Jordan on the Fraction matrix whose columns are a·x^j."""
    n = gen.n
    cols = [ext_mul(gen, a, tuple(Fraction(int(i == j)) for i in range(n))) for j in range(n)]
    rows = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return tuple(row[n] for row in rows)


def ext_pow(gen, a, k: int) -> tuple:
    """a**k by repeated squaring from the identity; a negative k inverts a first."""
    if k < 0:
        a, k = ext_inverse(gen, a), -k
    out = tuple(Fraction(int(i == 0)) for i in range(gen.n))
    while k:
        if k & 1:
            out = ext_mul(gen, out, a)
        k >>= 1
        if k:
            a = ext_mul(gen, a, a)
    return out


def reference_echelon(rows, ncols):
    """`intlinalg._echelon` as it was when its row operations ran over whole rows."""
    rows = [list(r) for r in rows]
    m = len(rows)
    top = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(top, m) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][col]), i))
            rows[top], rows[i0] = rows[i0], rows[top]
            p = rows[top][col]
            done = True
            for i in range(top + 1, m):
                if rows[i][col] != 0:
                    q = rows[i][col] // p
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[top])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if top < m and rows[top][col] != 0:
            if rows[top][col] < 0:
                rows[top] = [-x for x in rows[top]]
            p = rows[top][col]
            for i in range(top):
                q = rows[i][col] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[top])]
            top += 1
            if top == m:
                break
    return tuple(tuple(r) for r in rows[:top])


def reference_reduce_by_hnf(vec, rows) -> Vec:
    """`intlinalg.reduce_by_hnf` as it was when its row operations ran over whole rows."""
    v = list(vec)
    for row in rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def reference_smith(rows, ncols: int):
    """`intlinalg.smith` as it was when every operation ran over all rows and columns."""
    m = len(rows)
    a = [list(r) + e for r, e in zip(rows, identity(m))] + [e + [0] * m for e in identity(ncols)]
    vinv = identity(ncols)

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    t = 0
    while t < m and t < ncols:
        # smallest absolute nonzero entry of the trailing block of A
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            vinv[t], vinv[pj] = vinv[pj], vinv[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        restart = False
        p = a[t][t]
        for i in range(t + 1, m):
            if a[i][t]:
                row_sub(i, t, a[i][t] // p)
                if a[i][t]:
                    restart = True
        if restart:
            continue
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // p  # col_j -= q * col_t, so row_t of V⁻¹ += q * row_j
                for r in a:
                    r[j] -= q * r[t]
                vinv[t] = [x + q * y for x, y in zip(vinv[t], vinv[j])]
                if a[t][j]:
                    restart = True
        if restart:
            continue
        # pivot row/column are clear; enforce divisibility on the rest
        offender = next((i for i in range(t + 1, m) for j in range(t + 1, ncols) if a[i][j] % p), None)
        if offender is not None:
            row_sub(t, offender, -1)  # add the offending row, then redo the pivot
            continue
        t += 1

    diag = [a[i][i] for i in range(min(m, ncols))]
    return [r[ncols:] for r in a[:m]], diag, [r[:ncols] for r in a[m:]], vinv


def reference_exponent_lattice(P: BipotentPresentation) -> tuple:
    """P's exponent lattice as one Hermite pass over rows [t | exponents | beta]: (basis, betas, den).

    t is a value scaled to an integer by the base generator and beta a payload
    column: a unit row per numeric generator (t and beta its value), one row
    for the base generator (beta 0; none for a trivial base) and the declared
    relations (t = 0, beta theirs).  The rows left with t = 0 span the
    combinations whose value lands in the base: their exponents are the
    lattice's Hermite basis, their betas its betas, integers over `den`.
    Nothing here reads the library's cache entry.
    """
    if P.relations:
        check_relations(P)
    num = P.numeric_indices()
    g = P.base.single_generator()
    values = [P.generators[i].value for i in num]
    ts, m = _cleared([v / (g or 1) for v in values])
    rows = [[t] + [1 if j == i else 0 for j in range(P.n)] + [v] for t, i, v in zip(ts, num, values)]
    if g != 0:
        rows.append([m] + [0] * P.n + [0])
    rows += [[0, *r.exps, r.beta] for r in P.relations]
    betas, den = _cleared([row[-1] for row in rows])
    rows = [row[:-1] + [b] for row, b in zip(rows, betas)]
    kept = [row for row in reference_echelon(rows, P.n + 1) if row[0] == 0]
    return tuple(row[1:-1] for row in kept), tuple(row[-1] for row in kept), den


def value_of(P: BipotentPresentation, exps) -> Fraction | None:
    """The rational value of a monomial, or None if it touches a symbolic generator."""
    total = Fraction(0)
    for e, g in zip(exps, P.generators):
        if e == 0:
            continue
        if isinstance(g, Symbolic):
            return None
        total += e * g.value
    return total


def check_relations(P: BipotentPresentation):
    """`bipotent._check_relations` on Fraction defects: raise InconsistentRelations unless the relations fit."""
    sym, num = P.symbolic_indices(), P.numeric_indices()
    defects = [
        sum((r.exps[i] * P.generators[i].value for i in num), Fraction(0)) - r.beta for r in P.relations
    ]
    rows = [[r.exps[i] for i in sym] + [d] for r, d in zip(P.relations, _cleared(defects)[0])]
    if any(not any(row[: len(sym)]) for row in hnf(rows, len(sym) + 1)):
        raise InconsistentRelations("declared relations give a numeric monomial a value other than its own")


def witness_value_holds(P: BipotentPresentation, exps, subset, witness) -> bool:
    """The witness's value check on Fractions: power*exps minus the subset part has value beta, or touches a symbol."""
    target = [witness.power * e for e in exps]
    for x, i in zip(witness.exponents, sorted(set(subset))):
        target[i] -= x
    return value_of(P, target) in (None, witness.beta)


def coset_value(P: BipotentPresentation, exps) -> Fraction | None:
    """`canonical_coset_value` summing Fraction values and reducing modulo the base generator as a Fraction."""
    sym, num = P.symbolic_indices(), P.numeric_indices()
    basis = _basis_first(reference_exponent_lattice(P)[0], sym, P.n)
    rem = reduce_by_hnf(_columns_first([exps], sym, P.n)[0], basis)
    if any(rem[: len(sym)]):
        return None
    value = sum((e * P.generators[i].value for e, i in zip(rem[len(sym):], num)), Fraction(0))
    g = P.base.single_generator()
    if g == 0:
        return value
    return value - math.floor(value / g) * g


def _columns_first(rows, first, ncols):
    """The rows with the columns `first` moved, in that order, in front of the others of range(ncols).

    Columns past `ncols` stay at the end.  A Hermite basis of the result
    starts with the rows that reach into those columns; the rows after them
    span the lattice vectors that vanish there.
    """
    order = list(first) + [j for j in range(ncols) if j not in first]
    return [[row[j] for j in order] + list(row[ncols:]) for row in rows]


def _basis_first(rows, cols, ncols):
    """The Hermite basis `rows` redone over all `ncols` columns with `cols` first."""
    return hnf(_columns_first(rows, cols, ncols), ncols)


def witness(P: BipotentPresentation, exps, subset=()) -> DependenceWitness | None:
    """`divisible_dependence_witness` on the n-wide Hermite basis, complement columns first, betas riding along.

    The power is the order of the monomial's complement part modulo the
    rows that reach into the complement; reducing by all rows leaves the
    Hermite-reduced exponents on the subset and minus the removed vector's
    beta.  Raises InconsistentRelations as the lattice build does.
    """
    subset = sorted(set(subset))
    basis, betas, den = reference_exponent_lattice(P)
    complement = [j for j in range(P.n) if j not in subset]
    c = len(complement)
    rows = _basis_first([(*row, b) for row, b in zip(basis, betas)], complement, P.n)
    k = _order([row[:c] for row in rows if any(row[:c])], [exps[j] for j in complement])
    if k == INFINITE:
        return None
    rem = reduce_by_hnf(_columns_first([[k * e for e in exps] + [0]], complement, P.n)[0], rows)
    assert not any(rem[:c])
    return DependenceWitness(k, tuple(rem[c:-1]), Fraction(-rem[-1], den))


def extension_rank(P: BipotentPresentation, over=()):
    """`bipotent.extension_rank` as the Hermite diagonal of the whole basis, complement columns first."""
    complement = [j for j in range(P.n) if j not in over]
    basis = _basis_first(reference_exponent_lattice(P)[0], complement, P.n)
    return math.prod(basis[i][i] if i < len(basis) else 0 for i in range(len(complement))) or INFINITE


def is_divisibly_dependent(P: BipotentPresentation, subset) -> bool:
    """`bipotent.is_divisibly_dependent` as a whole-basis Hermite row, complement first, zero on the complement."""
    complement = [j for j in range(P.n) if j not in subset]
    basis = _basis_first(reference_exponent_lattice(P)[0], complement, P.n)
    return any(not any(row[: len(complement)]) for row in basis)
