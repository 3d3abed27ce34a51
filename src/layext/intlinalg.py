"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of Python ints; vectors are row vectors.  The
routines here back the lattice computations: Hermite form for lattice bases,
with any columns past the pivoted ones carried through the row operations as
integer payload (the caller keeps their denominator), membership by
reduction, and Smith form with unimodular transforms for the free/torsion
basis of a quotient group.
Each reduction works on one matrix, and whatever must follow its operations
rides along in it: payload columns past the pivots in `hnf` and
`reduce_by_hnf`, and U and V beside and below A in `smith`.
Every row an operation combines is zero left of its pivot column, so the
row operations of `hnf` and `reduce_by_hnf`, and the row and column
operations of `smith`, touch only the entries from the pivot column on; the
entries they skip would change by q·0.
`congruence_hnf` needs no reduction: the Hermite basis of the solutions of
one linear congruence follows in closed form from one gcd chain, with no
entry above the modulus.
Everything is deterministic: pivots are chosen as the smallest absolute
nonzero entry, scanning top-to-bottom then left-to-right, and diagonal
entries are normalized positive.
"""

from __future__ import annotations

from math import gcd

Vec = tuple[int, ...]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def congruence_hnf(ts, m: int) -> tuple[Vec, ...]:
    """Hermite basis, as `hnf` gives it, of {k : k1*t1 + ... + kn*tn ≡ 0 (mod m)}; m = 0 asks for = 0.

    One right-to-left gcd chain G_j = gcd(m, t_j, ..., t_n), G_{n+1} = m,
    gives the pivots: column j has pivot d_j = G_{j+1}/G_j, the least k_j
    with k_j·t_j in G_{j+1}·Z, and a row of its own (d_j = 1 when both are
    0, no row when only G_{j+1} is).  Each row's tail is then solved column
    by column: entry i is the unique residue in [0, d_i) that leaves the
    rest of the sum in G_{i+1}·Z, so the rows come out reduced above every
    pivot, and every running sum is kept modulo m.
    """
    n = len(ts)
    chain = [m] * (n + 1)
    for j in range(n - 1, -1, -1):
        chain[j] = gcd(chain[j + 1], ts[j])
    steps = []  # (pivot, t, G, inverse of t/G modulo the pivot) per column
    for t, g, g1 in zip(ts, chain, chain[1:]):
        d = g1 // g if g else 1  # 0: the column takes no pivot
        steps.append((d, t, g, pow(t // g, -1, d) if d > 1 else 0))
    basis = []
    for j, (d, t, _, _) in enumerate(steps):
        if not d:
            continue
        row = [0] * j + [d]
        c = -d * t % m if m else -d * t  # what the tail must add up to, modulo m
        for di, ti, gi, inv in steps[j + 1:]:
            if di > 1:
                k = c // gi * inv % di
            elif di:
                k = 0
            else:  # the last column with t != 0 over m = 0: the sum must be exact
                k = c // ti
            row.append(k)
            if k:
                c = (c - k * ti) % m if m else c - k * ti
        basis.append(tuple(row))
    return tuple(basis)


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
    a = [list(r) + e for r, e in zip(rows, identity(m))] + [e + [0] * m for e in identity(ncols)]
    vinv = identity(ncols)
    width = ncols + m

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
