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
Everything is deterministic: pivots are chosen as the smallest absolute
nonzero entry, scanning top-to-bottom then left-to-right, and diagonal
entries are normalized positive.
"""

from __future__ import annotations

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


def hnf(rows, ncols: int) -> tuple[Vec, ...]:
    """Hermite normal form, on the first `ncols` columns, of the lattice spanned by the rows.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); rows that are zero on the first `ncols` columns are dropped.
    Columns past `ncols` ride along: each output row carries the same
    integer combination of them as of the first `ncols` columns.
    """
    return _echelon(rows, ncols)


def reduce_by_hnf(vec, rows) -> Vec:
    """Reduce a vector by Hermite rows; the pivot columns end at zero iff it lies in their lattice.

    Columns past the pivots ride along, as in `hnf`: with payload columns on
    the rows and zeros appended to the vector, the result ends in minus the
    payload of the lattice vector removed.
    """
    v = list(vec)
    for row in rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def smith(rows, ncols: int):
    """Smith normal form: returns (U, diag, V, V⁻¹) with U·A·V diagonal.

    U and V are unimodular; diag lists the min(m, ncols) diagonal entries,
    non-negative and satisfying the divisibility chain d1 | d2 | ...
    The work is on one block matrix [[A, I_m], [I_ncols, 0]]: row operations
    act on its top m rows, so U rides to the right of A, and column
    operations on its first ncols columns, so V rides below A.  V⁻¹ is kept
    beside it by mirroring every column operation as the inverse row
    operation.
    """
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
