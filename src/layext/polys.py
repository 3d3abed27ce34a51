"""Dense univariate integer polynomials: factorisation and real-root counting.

Polynomials are sequences of ints indexed by degree, with no trailing zeros;
the empty sequence is the zero polynomial.  Any content and sign are taken.
A modular factoriser over Q (square-free parts, distinct-degree
factorisation modulo small primes, Cantor-Zassenhaus, Hensel lifting and
recombination; von zur Gathen & Gerhard, Modern Computer Algebra, chs.
14-16) also decides irreducibility, complete up to degree MAX_DEGREE = 31
and raising DegreeTooLarge above it.  One fraction-free signed remainder
sequence (signed pseudo-remainders divided by their positive content) serves
both real-root counting on rational intervals (the Sturm chain, with no
square-free pre-pass) and the sign of a polynomial at the roots in an
interval (a Sturm-Tarski query).

>>> factor([-4, 0, 0, 0, 1])
[(-2, 0, 1), (2, 0, 1)]
>>> count_roots(sturm_chain([-2, 0, 1]), 0)
1
"""

from __future__ import annotations

import math
import random
from itertools import combinations, islice

from .errors import DegreeTooLarge, SplitNotFound

# Recombination is exponential in the number of modular factors, which
# Swinnerton-Dyer polynomials make as large as the degree allows: degree 16
# takes milliseconds, degree 32 seconds, so `factor` stops at 31.
MAX_DEGREE = 31
_PRIMES_TRIED = 5
# A random try of Cantor-Zassenhaus leaves f unsplit with probability at most
# 1/2, so a correct run fails this many tries in a row with probability at most 2^-300.
SPLIT_TRIES = 300


# Factorisation over Q.  Modulo m, coefficients lie in [0, m).


def _add(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _sub(a, b) -> list[int]:
    return _add(a, [-c for c in b])


def _mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(a) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [c // g for c in a]


def _derivative_int(a) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _exact_quotient(a, b) -> list[int] | None:
    """a / b in Z[x] when b divides a there, else None."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    return q if not any(r[:db]) else None


def _mod(a, m) -> list[int]:
    return _trim([c % m for c in a])


def _divmod_mod(a, b, m) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % m
        if c:
            q[k] = c
            for i, y in enumerate(b):
                r[k + i] -= c * y
    return _mod(q, m), _mod(r[:db], m)


def _rem_mod(a, b, m) -> list[int]:
    """The remainder of a by b modulo m, building no quotient; lc(b) must be a unit mod m, inverted unless 1."""
    r, db, low = list(a), len(b) - 1, b[:-1]
    inv = 1 if b[-1] % m == 1 else pow(b[-1], -1, m)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] * inv % m
        if c:
            for i, y in enumerate(low, k - db):
                r[i] -= c * y
    return _mod(r[:db], m)


def _monic_mod(a, m) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd_mod(a, b, p) -> list[int]:
    while b:
        a, b = b, _rem_mod(a, b, p)
    return _monic_mod(a, p)


def _xgcd_mod(a, b, p) -> tuple[list[int], list[int]]:
    """(s, t) with s·a + t·b = 1 mod p, deg s < deg b and deg t < deg a, for coprime a, b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, m) -> list[int]:
    """a^e modulo f and m, by repeated squaring."""
    out = [1]
    a = _rem_mod(a, f, m)
    while e:
        if e & 1:
            out = _rem_mod(_mul(out, a), f, m)
        e >>= 1
        if e:
            a = _rem_mod(_mul(a, a), f, m)
    return out


def _product_mod(factors, m) -> list[int]:
    out = [1]
    for a in factors:
        out = _mod(_mul(out, a), m)
    return out


def _odd_primes():
    p = 1
    while True:
        p += 2
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _squarefree_mod(f, p) -> bool:
    """Whether the integer polynomial f keeps its degree and has no repeated factor modulo p."""
    return f[-1] % p != 0 and len(_gcd_mod(_mod(f, p), _mod(_derivative_int(f), p), p)) == 1


def _pseudo_rem(a, b) -> list[int]:
    """The remainder of |lc(b)|^k·a by b in Z[x], k the number of division steps.

    A positive multiple of the remainder over Q, so its signs are those of
    the remainder (`sturm_chain` needs them).
    """
    r = list(a)
    db = len(b) - 1
    lc = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(r) > db:
        c = sign * r[-1]
        r = [lc * x for x in r[:-1]]
        for i, y in enumerate(b[:-1]):
            r[len(r) - db + i] -= c * y
        _trim(r)
    return r


def _gcd_int(a, b) -> list[int]:
    """Primitive gcd in Z[x] with a positive leading coefficient: the last term of `_remainder_sequence`."""
    return _primitive(_remainder_sequence(a, b)[-1])


def _squarefree_parts(f) -> list[tuple[int, list[int]]]:
    """Yun's algorithm: [(i, a_i)] with f = c·prod a_i^i, the a_i primitive, square-free and coprime.

    f is square-free when it is so modulo a prime that keeps its degree; that
    cheap test spares the remainder sequences, slow on large coefficients.
    """
    if any(_squarefree_mod(f, p) for p in islice(_odd_primes(), _PRIMES_TRIED)):
        return [(1, f)] if len(f) > 1 else []
    df = _derivative_int(f)
    g = _gcd_int(f, df)
    b = _exact_quotient(f, g)
    d = _trim(_sub(_exact_quotient(df, g), _derivative_int(b)))
    parts = []
    i = 1
    while len(b) > 1:
        a = _gcd_int(b, d)
        b = _exact_quotient(b, a)
        d = _trim(_sub(_exact_quotient(d, a), _derivative_int(b)))
        if len(a) > 1:
            parts.append((i, a))
        i += 1
    return parts


def _distinct_degree(f, p) -> list[tuple[int, list[int]]]:
    """[(d, product of f's irreducible factors of degree d)] for a monic square-free f mod p."""
    out = []
    h, d = [0, 1], 1
    while 2 * d <= len(f) - 1:
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _mod(_sub(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _rem_mod(h, f, p)
        d += 1
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _subset_sums(degrees) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _equal_degree(f, d, p, rng) -> list[list[int]]:
    """Cantor-Zassenhaus: the monic factors of f, all irreducible of degree d, mod an odd prime p.

    Raises SplitNotFound when SPLIT_TRIES random tries leave f unsplit.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    for _ in range(SPLIT_TRIES):
        a = _mod([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        g = _gcd_mod(f, a, p)
        if len(g) == 1:
            g = _gcd_mod(f, _mod(_sub(_powmod(a, (p**d - 1) // 2, f, p), [1]), p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng)
    raise SplitNotFound(f"{SPLIT_TRIES} random tries left a product of degree-{d} factors mod {p} unsplit")


def _hensel_lift(f, factors, p, modulus) -> list[list[int]]:
    """Lift monic factors mod p of a monic f, their product mod p, to factors of f mod `modulus`.

    Along a factor tree: each node splits its factors into halves g and h and
    lifts f = g·h by quadratic Hensel steps m -> m² (von zur Gathen & Gerhard,
    Algorithm 15.10) up to `modulus`, a power p^(2^k).
    """
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g, h = _product_mod(factors[:half], p), _product_mod(factors[half:], p)
    s, t = _xgcd_mod(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = _mod(_sub(f, _mul(g, h)), m)
        q, r = _divmod_mod(_mul(s, e), h, m)
        g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), m)
        h = _mod(_add(h, r), m)
        b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
        c, d = _divmod_mod(_mul(s, b), h, m)
        s = _mod(_sub(s, d), m)
        t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return _hensel_lift(g, factors[:half], p, modulus) + _hensel_lift(h, factors[half:], p, modulus)


def _recombine(f, lifted, modulus, degrees) -> list[list[int]]:
    """Zassenhaus recombination: the irreducible factors of the square-free primitive f.

    Subsets of the monic lifted factors are tried by increasing size, each
    product scaled by lc(f) and read in the symmetric range of `modulus`,
    which exceeds twice the Mignotte bound times lc(f); a candidate of a
    degree in `degrees` whose constant term divides lc(f)·f(0) is kept when
    it divides f exactly, and f is replaced by the quotient.
    """
    found = []
    half = modulus // 2
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if sum(len(lifted[i]) - 1 for i in subset) not in degrees:
                continue
            lc = f[-1]
            const = lc
            for i in subset:
                const = const * lifted[i][0] % modulus
            const = const - modulus if const > half else const
            if const == 0 or lc * f[0] % const:
                continue
            g = _mod(_mul([lc], _product_mod([lifted[i] for i in subset], modulus)), modulus)
            g = _primitive([c - modulus if c > half else c for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                found.append(g)
                f = q
                lifted = [x for i, x in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _factor_squarefree(f) -> list[list[int]]:
    """The irreducible factors of a square-free primitive integer polynomial of degree >= 1."""
    n = len(f) - 1
    if f[0] == 0:
        return [[0, 1]] + (_factor_squarefree(f[1:]) if n > 1 else [])
    if n == 1:
        return [f]
    degrees, best = None, None
    primes = (p for p in _odd_primes() if _squarefree_mod(f, p))
    for p in islice(primes, _PRIMES_TRIED):
        ddf = _distinct_degree(_monic_mod(_mod(f, p), p), p)
        pattern = [d for d, g in ddf for _ in range((len(g) - 1) // d)]
        sums = _subset_sums(pattern)
        degrees = sums if degrees is None else degrees & sums
        if degrees == {0, n}:
            return [f]
        if best is None or len(pattern) < best[0]:
            best = (len(pattern), p, ddf)
    _, p, ddf = best
    rng = random.Random(0)
    modp = [g for d, prod in ddf for g in _equal_degree(prod, d, p, rng)]
    # Mignotte: a factor g has coefficients of size at most 2^n·||f||₂, so
    # lc(f)/lc(g)·g is read off exactly in the symmetric range of the modulus
    norm = math.isqrt(sum(c * c for c in f)) + 1
    modulus = p
    while modulus <= 2 * f[-1] * 2**n * norm:
        modulus *= modulus
    monic = _mod([c * pow(f[-1], -1, modulus) for c in f], modulus)
    return _recombine(f, _hensel_lift(monic, modp, p, modulus), modulus, degrees)


def factor(p) -> list[tuple[int, ...]]:
    """The irreducible factors over Q of a nonzero polynomial, each repeated by its multiplicity.

    Each factor is a primitive integer tuple with a positive leading
    coefficient; they are sorted by degree, then by coefficients, and p is
    an integer constant times their product (a constant has no factors).
    Square-free parts by Yun's algorithm; distinct-degree factorisation
    modulo up to five odd primes, whose possible factor degrees, intersected,
    often prove irreducibility alone; otherwise Cantor-Zassenhaus modulo the
    prime with the fewest factors, Hensel lifting and recombination.
    Complete up to degree MAX_DEGREE; raises DegreeTooLarge above it.
    """
    if not p:
        raise ValueError("the zero polynomial has no factorisation")
    if len(p) - 1 > MAX_DEGREE:
        raise DegreeTooLarge(f"polynomials are factored up to degree {MAX_DEGREE}, got {len(p) - 1}")
    factors = []
    for i, part in _squarefree_parts(_primitive(p)):
        for f in _factor_squarefree(part):
            factors += [tuple(f)] * i
    return sorted(factors, key=lambda f: (len(f), f))


def is_irreducible(p) -> bool:
    """Irreducibility over Q: degree at least 1 and a single factor (see `factor`)."""
    return len(p) > 1 and len(factor(p)) == 1


# Real-root counting and signs at roots.


def sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _remainder_sequence(a, b) -> list[list[int]]:
    """The signed remainder sequence of integer polynomials a and b, ending at their gcd.

    Each term after a is a positive multiple of the term over Q: -prem(a, b),
    the pseudo-remainder scaled by a power of |lc(b)|, divided by its
    positive content.  A zero b gives [a].
    """
    chain = [a, _positive_primitive(b)]
    while chain[-1]:
        chain.append(_positive_primitive([-c for c in _pseudo_rem(chain[-2], chain[-1])]))
    chain.pop()
    return chain


def sturm_chain(p) -> list[list[int]]:
    """The signed remainder sequence of p's primitive part and its derivative (see `_remainder_sequence`).

    The roots are counted by `count_roots`; p need not be square-free.
    """
    f = _primitive(p)
    return _remainder_sequence(f, _derivative_int(f))


def tarski_chain(f, g) -> list[list[int]]:
    """The signed remainder sequence of f and f'·g, for integer polynomials f (nonzero) and g.

    By the Sturm-Tarski theorem (Basu, Pollack & Roy, Algorithms in Real
    Algebraic Geometry, ch. 2), Var(lo) - Var(hi) on it is the sum of the
    signs of g at the distinct real roots of f in (lo, hi): `count_roots`
    reads it as it reads a `sturm_chain`, which is the case g = 1.
    """
    return _remainder_sequence(list(f), _trim(_mul(_derivative_int(f), g)))


def tarski_query(f, g, lo, hi) -> int:
    """The sum of the signs of g at the distinct real roots of f in the open interval (lo, hi).

    f is a nonzero and g any integer polynomial (lists of ints indexed by
    degree); see `tarski_chain`.  An endpoint that is a root of f raises
    ValueError.
    """
    return count_roots(tarski_chain(f, g), lo, hi)


def _positive_primitive(a) -> list[int]:
    """a divided by its positive content (signs kept)."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _homogeneous_value(f, u, v) -> int:
    """v^deg(f)·f(u/v), which has the sign of f(u/v) for v > 0, by Horner on integers."""
    acc, vp = 0, 1
    for c in reversed(f):
        acc = acc * u + c * vp
        vp *= v
    return acc


def _variations_at(chain, u, v) -> int:
    """The sign variations of the chain at u/v, for v > 0; u/v must not be a root of its first term."""
    values = [_homogeneous_value(f, u, v) for f in chain]
    if values[0] == 0:
        raise ValueError("interval endpoints must not be roots")
    return sign_variations(values)


def count_roots(chain, lo, hi=None) -> int:
    """Number of distinct real roots in the open interval (lo, hi) of the polynomial of a `sturm_chain`.

    lo and hi are ints or Fractions, and hi None is +infinity, where the
    variations are those of the leading coefficients.  Sturm's theorem
    needs no square-free hypothesis when neither endpoint is a root (Basu,
    Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2); an
    endpoint that is a root raises ValueError.  On a `tarski_chain` of f
    and g it is the sum of the signs of g at those roots.
    """
    if hi is None:
        top = sign_variations([f[-1] for f in chain])
    else:
        top = _variations_at(chain, hi.numerator, hi.denominator)
    return _variations_at(chain, lo.numerator, lo.denominator) - top
