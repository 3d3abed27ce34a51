"""Dense univariate polynomial arithmetic over exact rationals.

Polynomials are tuples of Fractions indexed by degree, with no trailing
zeros; the empty tuple is the zero polynomial.  Includes the Euclidean
toolkit (division, gcd, extended gcd), Sturm-chain real-root counting on
rational intervals, bisection refinement of isolating intervals, and an
irreducibility test over Q (rational-root screening plus a degree-bounded
integer factor search), complete up to degree IRREDUCIBLE_MAX_DEGREE = 17
and raising DegreeTooLarge above it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import DegreeTooLarge
from .tropical import as_fraction

Poly = tuple[Fraction, ...]

# a factor of degree k needs k+1 sample points, so degrees up to 2*9-1 are covered
_SAMPLES = (0, 1, -1, 2, -2, 3, -3, 4, -4)
IRREDUCIBLE_MAX_DEGREE = 2 * len(_SAMPLES) - 1


def poly(coeffs) -> Poly:
    """Normalize a coefficient sequence (index = degree) into a Poly."""
    cs = [as_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


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


def eval_poly(p: Poly, x) -> Fraction:
    x = as_fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return poly([i * p[i] for i in range(1, len(p))])


def monic(p: Poly) -> Poly:
    if not p:
        return p
    return scale(p, 1 / p[-1])


def gcd_poly(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, rem(a, b)
    return monic(a)


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


def squarefree_part(p: Poly) -> Poly:
    g = gcd_poly(p, derivative(p))
    if degree(g) <= 0:
        return monic(p)
    return monic(divmod_poly(p, g)[0])


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(p: Poly) -> list[Poly]:
    p = squarefree_part(p)
    chain = [p, derivative(p)]
    while chain[-1]:
        chain.append(neg(rem(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _variations_at(chain, x) -> int:
    return sign_variations([eval_poly(f, x) for f in chain])


def _variations_at_plus_inf(chain) -> int:
    return sign_variations([f[-1] for f in chain if f])


def count_roots(p: Poly, lo, hi) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    Endpoints must not be roots.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if eval_poly(p, lo) == 0 or eval_poly(p, hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    chain = sturm_chain(p)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def count_positive_roots(p: Poly) -> int:
    """Number of distinct real roots in (0, +infinity); 0 must not be a root."""
    if eval_poly(p, 0) == 0:
        raise ValueError("zero must not be a root")
    chain = sturm_chain(p)
    return _variations_at(chain, 0) - _variations_at_plus_inf(chain)


def bisect_root(p: Poly, lo, hi, max_width) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a simple root by bisection.

    Requires a sign change on (lo, hi) and no rational root inside it.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    max_width = as_fraction(max_width)
    s_lo = eval_poly(p, lo)
    assert s_lo != 0 and eval_poly(p, hi) != 0
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = eval_poly(p, mid)
        if v == 0:
            raise ValueError("hit an exact rational root while refining")
        if (v > 0) == (s_lo > 0):
            lo = mid
            s_lo = v
        else:
            hi = mid
    return lo, hi


def interval_eval(p: Poly, lo, hi) -> tuple[Fraction, Fraction]:
    """Bounds of p over [lo, hi] with 0 < lo <= hi, by per-term monotonicity."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    assert 0 < lo <= hi
    low = Fraction(0)
    high = Fraction(0)
    for i, c in enumerate(p):
        if c >= 0:
            low += c * lo**i
            high += c * hi**i
        else:
            low += c * hi**i
            high += c * lo**i
    return low, high


def clear_denominators(p: Poly) -> tuple[int, ...]:
    """Primitive integer-coefficient multiple of p (positive leading sign)."""
    if not p:
        return ()
    m = math.lcm(*(c.denominator for c in p))
    ints = [int(c * m) for c in p]
    g = math.gcd(*(abs(x) for x in ints))
    ints = [x // g for x in ints]
    if ints[-1] < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    pos = small + large[::-1]
    return [s * d for d in pos for s in (1, -1)]


def _has_rational_root(ints) -> bool:
    if ints[0] == 0:
        return True
    for p_num in _int_divisors(ints[0]):
        for q_den in _int_divisors(ints[-1]):
            if q_den < 0:
                continue
            cand = Fraction(p_num, q_den)
            if eval_poly(poly(ints), cand) == 0:
                return True
    return False


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over Q: rational-root screen plus bounded factor search.

    The factor search interpolates candidate integer factors of each degree
    k <= deg/2 through divisors of the values at k+1 integer sample points
    and tests exact division.  With nine sample points it is complete up to
    degree 17; higher degrees raise DegreeTooLarge instead of answering.
    """
    n = degree(p)
    if n <= 0:
        return False
    if n > IRREDUCIBLE_MAX_DEGREE:
        raise DegreeTooLarge(f"irreducibility is decided up to degree {IRREDUCIBLE_MAX_DEGREE}, got {n}")
    if n == 1:
        return True
    ints = clear_denominators(p)
    if _has_rational_root(ints):
        return False
    if n <= 3:
        return True
    f = poly(ints)
    for k in range(2, n // 2 + 1):
        pts = _SAMPLES[: k + 1]
        vals = [eval_poly(f, x) for x in pts]
        assert all(v != 0 for v in vals)
        divisor_lists = [_int_divisors(int(v)) for v in vals]
        divisor_lists[0] = [d for d in divisor_lists[0] if d > 0]
        for combo in product(*divisor_lists):
            g = _lagrange(pts, combo)
            if degree(g) != k:
                continue
            if any(c.denominator != 1 for c in g):
                continue
            if not rem(f, g):
                return False
    return True


def _lagrange(xs, ys) -> Poly:
    total: Poly = ()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = poly([yi])
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = mul(term, scale(poly([-xj, 1]), Fraction(1, xi - xj)))
        total = add(total, term)
    return total
