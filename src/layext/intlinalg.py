"""Exact integer linear algebra on small dense matrices.

Matrices are lists of rows of Python ints; vectors are row vectors.  The
routines here back the lattice computations: Hermite form for lattice bases,
with any columns past the pivoted ones carried through the row operations as
integer payload (the caller keeps their denominator), membership by
reduction, and Smith form with unimodular transforms for the free/torsion
basis of a quotient group.
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


def reduce_by_hnf(vec, basis, betas=None):
    """Reduce a vector by an HNF basis; returns (remainder, payload_combination).

    The remainder is zero iff the vector lies in the lattice, in which case the
    payload combination (an integer, as the payloads are) is the payload value
    of the vector.
    """
    v = list(vec)
    acc = 0
    for idx, row in enumerate(basis):
        col = next(j for j, x in enumerate(row) if x != 0)
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
            if betas is not None:
                acc += q * betas[idx]
    return tuple(v), acc


def smith(rows, ncols: int):
    """Smith normal form: returns (U, diag, V, V⁻¹) with U·A·V diagonal.

    U and V are unimodular; diag lists the min(m, ncols) diagonal entries,
    non-negative and satisfying the divisibility chain d1 | d2 | ...
    V⁻¹ is kept alongside V by mirroring every column operation on V as the
    inverse row operation on V⁻¹.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    u = identity(m)
    v = identity(ncols)
    vinv = identity(ncols)

    def row_sub(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):  # col_i -= q * col_j, so row_j of V⁻¹ += q * row_i
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < m and t < ncols:
        # smallest absolute nonzero entry of the trailing submatrix
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
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        restart = False
        p = a[t][t]
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                row_sub(i, t, q)
                if a[i][t]:
                    restart = True
        if restart:
            continue
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // p
                col_sub(j, t, q)
                if a[t][j]:
                    restart = True
        if restart:
            continue
        # pivot row/column are clear; enforce divisibility on the rest
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, ncols):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)  # add the offending row, then redo the pivot
            continue
        t += 1

    diag = [a[i][i] for i in range(min(m, ncols))]
    return u, diag, v, vinv
