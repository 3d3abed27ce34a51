"""Reference answers computed without the layer under test.

Only the standard library is used: `fractions` for exact rational work and
`decimal` for the sign of an algebraic number.  Nothing here imports layext.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

INF = math.inf


# --- rational subgroups of (Q, +) -------------------------------------------------

def qgcd(a: Fraction, b: Fraction) -> Fraction:
    """Non-negative generator of a*Z + b*Z."""
    a, b = Fraction(a), Fraction(b)
    d = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(math.gcd(int(a * d), int(b * d)), d)


def qgcd_all(values) -> Fraction:
    g = Fraction(0)
    for v in values:
        g = qgcd(g, v)
    return g


def order_mod(x: Fraction, g: Fraction):
    """Order of x in Q / gZ (INF when g = 0 and x != 0)."""
    if g == 0:
        return 1 if x == 0 else INF
    return (Fraction(x) / g).denominator


def in_group(x: Fraction, g: Fraction) -> bool:
    """Whether x lies in gZ."""
    return x == 0 if g == 0 else (Fraction(x) / g).denominator == 1


def mod_value(x: Fraction, g: Fraction) -> Fraction:
    """The representative of x + gZ in [0, g) (x itself when g = 0)."""
    if g == 0:
        return Fraction(x)
    return x - math.floor(x / g) * g


def dot(exps, values) -> Fraction:
    return sum((Fraction(e) * v for e, v in zip(exps, values)), Fraction(0))


# --- linear algebra over Q by Fraction elimination -------------------------------

def _echelon(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank, det = 0, Fraction(1)
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        p = m[rank][col]
        det *= p
        for i in range(rank + 1, len(m)):
            f = m[i][col] / p
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank, det


def q_rank(rows) -> int:
    rows = [r for r in rows]
    return _echelon(rows)[0] if rows and rows[0] else 0


def q_det(rows) -> Fraction:
    """Determinant of a square matrix (1 for the empty matrix)."""
    if not rows:
        return Fraction(1)
    rank, det = _echelon(rows)
    return det if rank == len(rows) else Fraction(0)


def in_span(vec, rows) -> bool:
    if not any(vec):
        return True
    return q_rank(list(rows) + [vec]) == q_rank(rows)


# --- dense polynomials over Q, index = degree ------------------------------------

def poly_trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_reduce(a, m):
    """Remainder of a modulo the monic polynomial m."""
    r = poly_trim(a)
    n = len(m) - 1
    while len(r) > n:
        c = r[-1]
        k = len(r) - 1 - n
        for i in range(n + 1):
            r[k + i] -= c * m[i]
        r = poly_trim(r)
    return r


def ext_vec(p, n):
    """Coefficient vector of length n on 1, X, ..., X^(n-1)."""
    p = list(p) + [Fraction(0)] * (n - len(p))
    return tuple(Fraction(c) for c in p[:n])


def ext_mul(a, b, m):
    return ext_vec(poly_reduce(poly_mul(list(a), list(b)), m), len(m) - 1)


def ext_pow(a, k, m):
    n = len(m) - 1
    result = ext_vec([1], n)
    base = tuple(a)
    while k:
        if k & 1:
            result = ext_mul(result, base, m)
        base = ext_mul(base, base, m)
        k >>= 1
    return result


def horner(p, x):
    acc = Fraction(0) if isinstance(x, Fraction) else type(x)(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign_changes(p) -> int:
    signs = [1 if c > 0 else -1 for c in p if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def bracket_positive_root(m):
    """A rational interval (lo, hi) with m(lo) < 0 < m(hi), for m(0) < 0, m monic."""
    hi = Fraction(1)
    while horner(m, hi) <= 0:
        hi *= 2
    lo = hi / 2
    while horner(m, lo) >= 0:
        lo /= 2
    return lo, hi


@lru_cache(maxsize=None)
def _decimal_root(m: tuple, lo: Fraction, hi: Fraction, prec: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        dm = [Decimal(c.numerator) / Decimal(c.denominator) for c in m]
        a = Decimal(lo.numerator) / Decimal(lo.denominator)
        b = Decimal(hi.numerator) / Decimal(hi.denominator)
        eps = Decimal(10) ** (-(prec - 10))
        while b - a > eps:
            mid = (a + b) / 2
            if horner(dm, mid) < 0:
                a = mid
            else:
                b = mid
        return a


def sign_at_root(coeffs, m, lo, hi) -> bool:
    """Whether sum(c_i * r^i) > 0 at the single root r of m in (lo, hi).

    Bisects in `decimal` and raises the precision until the value clears a
    margin far above the root's remaining uncertainty.
    """
    if not any(coeffs):
        return False
    for prec in (60, 120, 240):
        root = _decimal_root(tuple(m), lo, hi, prec)
        with localcontext() as ctx:
            ctx.prec = prec
            v = horner([Decimal(c.numerator) / Decimal(c.denominator) for c in coeffs], root)
            if abs(v) > Decimal(10) ** (-(prec // 3)):
                return v > 0
    raise ArithmeticError("element too close to zero to sign")
