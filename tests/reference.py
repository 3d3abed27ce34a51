"""Polynomial arithmetic over Q that only the tests use, as references for the library.

The library multiplies, inverts, divides and counts roots on integers; these
are the plain Fraction versions, written on top of `layext.polys`' Poly type.
"""

from fractions import Fraction

from layext.cancellative import PosPoly, SignedPoly
from layext.polys import Poly, degree, poly
from layext.tropical import as_fraction


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
