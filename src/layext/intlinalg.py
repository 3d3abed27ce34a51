"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of Python ints; vectors are row vectors.  The
routines here back the lattice computations: Hermite form for lattice bases,
with any columns past the pivoted ones carried through the row operations as
integer payload (the caller keeps their denominator), membership by
reduction, Smith form with unimodular transforms for the free/torsion
basis of a quotient group, and the reduced solution of one linear
congruence.
Each reduction works on one matrix, and whatever must follow its operations
rides along in it: payload columns past the pivots in `hnf` and
`reduce_by_hnf`, and U and V beside and below A in `smith`.
Every row an operation combines is zero left of its pivot column, so the
row operations of `hnf` and `reduce_by_hnf`, and the row and column
operations of `smith`, touch only the entries from the pivot column on; the
entries they skip would change by q·0.
`congruence_solve` builds no basis and reduces nothing: the solution of
sum x_i*t_i ≡ c (mod m) reduced by the Hermite basis of the congruence's
lattice is read off one gcd chain, one entry per column, in O(n) steps.
Everything is deterministic: pivots are chosen as the smallest absolute
nonzero entry, scanning top-to-bottom then left-to-right, and diagonal
entries are normalized positive.
"""

from __future__ import annotations

from math import gcd

Vec = tuple[int, ...]


def _echelon(rows, ncols):
    """Row-style Hermite reduction on the first `ncols` columns; returns the basis rows.

    Row operations are unimodular, so the row span is preserved; columns
    past `ncols` are carried through them as payload.  Rows that reduce to
    zero on the first `ncols` columns are dropped, payload and all.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    width = len(rows[0]) if rows else 0
    top = 0
    for col in range(ncols):
        while True:
            i0 = None  # the first row with the smallest absolute nonzero entry in the column
            for i in range(top, m):
                x = abs(rows[i][col])
                if x and (i0 is None or x < best):
                    i0, best = i, x
            if i0 is None:
                break
            rows[top], rows[i0] = rows[i0], rows[top]
            prow = rows[top]
            p = prow[col]
            done = True
            for i in range(top + 1, m):
                r = rows[i]
                if r[col] != 0:
                    q = r[col] // p
                    for j in range(col, width):
                        r[j] -= q * prow[j]
                    if r[col] != 0:
                        done = False
            if done:
                break
        if top < m and rows[top][col] != 0:
            prow = rows[top]
            if prow[col] < 0:
                for j in range(col, width):
                    prow[j] = -prow[j]
            p = prow[col]
            for r in rows[:top]:
                q = r[col] // p
                if q:
                    for j in range(col, width):
                        r[j] -= q * prow[j]
            top += 1
            if top == m:
                break
    return tuple(tuple(r) for r in rows[:top])


def hnf(rows, ncols: int) -> tuple[Vec, ...]:
    """Hermite normal form, on the first `ncols` columns, of the lattice spanned by the rows.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); rows that are zero on the first `ncols` columns are dropped.
    Columns past `ncols` ride along: each output row carries the same
    integer combination of them as of the first `ncols` columns.
    """
    return _echelon(rows, ncols)


def congruence_solve(ts, m: int, c: int) -> Vec:
    """The Hermite-reduced x with x1*t1 + ... + xn*tn ≡ c (mod m); m = 0 asks for = c.

    The solutions form one coset of L = {k : sum k_i*t_i ≡ 0 (mod m)}, and x
    is the representative `reduce_by_hnf` leaves modulo L's Hermite basis.
    One right-to-left gcd chain G_j = gcd(m, t_j, ..., t_n), G_{n+1} = m,
    gives that basis's pivots d_j = G_{j+1}/G_j; one pass left to right then
    takes x_j as the unique residue in [0, d_j) that leaves the rest of c,
    kept modulo m, in G_{j+1}·Z, so x_j = 0 where d_j = 1.  Over m = 0 the
    last column with t_j != 0 takes no pivot, and x_j = c/t_j there, exactly.
    Raises ValueError when c is not a multiple of gcd(m, t_1, ..., t_n).
    """
    n = len(ts)
    chain = [m] * (n + 1)
    for j in range(n - 1, -1, -1):
        chain[j] = gcd(chain[j + 1], ts[j])
    if c % chain[0] if chain[0] else c:
        raise ValueError(f"{c} is not a multiple of gcd(m, t) = {chain[0]}")
    x = [0] * n
    if m:
        c %= m
    for j, t in enumerate(ts):
        if not c:
            break
        g, g1 = chain[j], chain[j + 1]
        if not g1:  # the pivot-free column: every later t is 0
            x[j] = c // t
            break
        if g1 != g:
            d = g1 // g
            k = c // g * pow(t // g, -1, d) % d
            if k:
                x[j] = k
                c = (c - k * t) % m if m else c - k * t
    return tuple(x)


def reduce_by_hnf(vec, rows) -> Vec:
    """Reduce a vector by Hermite rows; the pivot columns end at zero iff it lies in their lattice.

    Columns past the pivots ride along, as in `hnf`: with payload columns on
    the rows and zeros appended to the vector, the result ends in minus the
    payload of the lattice vector removed.
    """
    v = list(vec)
    for row in rows:
        col = 0
        while not row[col]:
            col += 1
        q = v[col] // row[col]
        if q:
            for j in range(col, len(v)):
                v[j] -= q * row[j]
    return tuple(v)


def smith(rows, ncols: int):
    """Smith normal form: returns (U, diag, V, V⁻¹) with U·A·V diagonal.

    U and V are unimodular; diag lists the min(m, ncols) diagonal entries,
    non-negative and satisfying the divisibility chain d1 | d2 | ...
    The work is on one block matrix [[A, I_m], [I_ncols, 0]]: row operations
    act on its top m rows, so U rides to the right of A, and column
    operations on its first ncols columns, so V rides below A.  V⁻¹ is kept
    beside it by mirroring every column operation as the inverse row
    operation.  The finished rows and columns of A before `t` are zero past
    the diagonal, so operations at step t start at row and column t.
    """
    m = len(rows)
    width = ncols + m
    a = [list(r) + [0] * m for r in rows] + [[0] * width for _ in range(ncols)]
    vinv = [[0] * ncols for _ in range(ncols)]
    for i in range(m):
        a[i][ncols + i] = 1
    for j in range(ncols):
        a[m + j][j] = vinv[j][j] = 1

    def row_sub(i, j, q):  # row_i -= q * row_j, both zero before column t
        ri, rj = a[i], a[j]
        for k in range(t, width):
            ri[k] -= q * rj[k]

    t = 0
    while t < m and t < ncols:
        # smallest absolute nonzero entry of the trailing block of A; the first 1 is the least
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for r in a[t:]:
                r[t], r[pj] = r[pj], r[t]
            vinv[t], vinv[pj] = vinv[pj], vinv[t]
        if a[t][t] < 0:
            rt = a[t]
            for k in range(t, width):
                rt[k] = -rt[k]
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
                for r in a[t:]:
                    r[j] -= q * r[t]
                vinv[t] = [x + q * y for x, y in zip(vinv[t], vinv[j])]
                if a[t][j]:
                    restart = True
        if restart:
            continue
        # pivot row/column are clear; enforce divisibility on the rest (1 divides it all)
        if p != 1:
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, ncols) if a[i][j] % p), None)
            if offender is not None:
                row_sub(t, offender, -1)  # add the offending row, then redo the pivot
                continue
        t += 1

    diag = [a[i][i] for i in range(min(m, ncols))]
    return [r[ncols:] for r in a[:m]], diag, [r[:ncols] for r in a[m:]], vinv
