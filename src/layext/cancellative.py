"""Simple extensions of the cancellative semifield of positive rationals.

The positive rationals under ordinary (+, *) form a cancellative semifield
whose ring of differences is Q.  A simple proper algebraic extension is cut
out by a monic irreducible polynomial with an isolated positive real root and
at least one negative coefficient (a single-signed annihilator would collapse
the extension to a field); `AlgebraicGenerator` refuses any other generator.
Elements are coefficient vectors on the basis 1, X, ..., X^(n-1) of Q[x]
modulo the minimal polynomial, stored as integer numerators over one positive
denominator in lowest terms.  Sums, scalings, products, powers and inverses
run on those integers and build no Fraction: each generator stores one
reduction table (x^n, ..., x^(2n-2) modulo the minimal polynomial over a
common denominator), and each result is reduced by one gcd.  `.coeffs`
builds the Fractions on each read.

>>> gen = validate_generator(SignedPoly.of({2: 1, 0: -2}), (1, 2))
>>> e = gen.one() + gen.xbar()
>>> print(e ** 2)
3 + 2*X
>>> print(e.inverse(), e.scale(Fraction(1, 2)))
-1 + X 1/2 + 1/2*X

The sign of an element at a root of the minimal polynomial is a filtered
exact predicate.  Each generator caches one integer isolating interval per
positive root.  Split into its positive- and negative-coefficient parts,
each increasing on [0, ∞), the element's numerators are bounded on an
interval by integer Horner sums; while the bound straddles zero the interval
is bisected in place, and after a fixed number of bisections one
Sturm-Tarski query (`polys.tarski_query`) on it answers instead.  A nonzero
element has no zero at any root, so the answer is exact.  Membership in the
layer semifield needs a positive sign at every positive root of the minimal
polynomial, not only at the adjoined one: x^2 - 3x + 1 has the roots 0.38
and 2.62, and X - 1 is positive at the larger only.

>>> gen = validate_generator(SignedPoly.of({2: 1, 1: -3, 0: 1}), (2, 3))
>>> e = gen.element([-1, 1])
>>> positive_at_root(e), in_layer_semifield(e)
(True, False)

Every polynomial over Q is stored dense, as one tuple of Fractions indexed by
degree: `SignedPoly` for minimal polynomials, and its checked subtype
`PosPoly` for the positive polynomials of the layer semifield, whose sums,
products and scalings run on the same tuples.  It is the only Fraction
form of a polynomial: `polys` takes integer polynomials, and a generator
clears its minimal polynomial once for them.  Kernels of the extension
correspond to divisibility by the minimal polynomial: a quotient a(x)/b(x)
of positive polynomials is congruent to 1 exactly when the minimal
polynomial divides a - b, which one integer pseudo-remainder decides.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import polys
from ._record import Value, record
from .errors import (
    AllPositiveCoefficients,
    GeneratorMismatch,
    IntervalNotIsolating,
    NoPositiveRoot,
    Reducible,
    TrivialExtension,
    ZeroElement,
)
from .tropical import _cleared, as_fraction


def _dense(obj) -> tuple[Fraction, ...]:
    """The coefficient tuple of a dict or a list of (degree, coefficient) pairs; zeros are dropped."""
    items = [(k, as_fraction(v)) for k, v in (obj.items() if isinstance(obj, dict) else obj)]
    if any(type(d) is not int for d, _ in items):  # bools and floats are refused
        raise ValueError("degrees must be ints")
    items = [(d, c) for d, c in items if c != 0]
    degs = [d for d, _ in items]
    if len(set(degs)) != len(degs):
        raise ValueError("duplicate degrees")
    if any(d < 0 for d in degs):
        raise ValueError("negative degrees are not allowed")
    out = [Fraction(0)] * (max(degs) + 1 if degs else 0)
    for d, c in items:
        out[d] = c
    return tuple(out)


def power(x, k: int, one):
    """x**k for an int k >= 0 by repeated squaring; `one`, the identity of x's product, is x**0."""
    if type(k) is not int or k < 0:  # bools and floats are refused
        raise ValueError("exponent must be a natural number")
    if not k:
        return one
    while not k & 1:
        x, k = x * x, k >> 1
    out, k = x, k >> 1
    while k:
        x = x * x
        if k & 1:
            out = out * x
        k >>= 1
    return out


@record
class SignedPoly:
    """A polynomial over Q stored dense, indexed by degree; may be zero (no coefficients).

    The constructor takes a tuple of Fractions whose last entry is nonzero;
    `of` and `from_coeffs` coerce and trim.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = self.coeffs
        if not (isinstance(cs, tuple) and all(isinstance(c, Fraction) for c in cs)):
            raise TypeError("a polynomial's coeffs must be a tuple of Fractions; use SignedPoly.of")
        if cs and not cs[-1]:
            raise ValueError("a polynomial's leading coefficient must be nonzero")

    @classmethod
    def of(cls, obj) -> "SignedPoly":
        return cls(_dense(obj))

    @classmethod
    def from_coeffs(cls, coeffs) -> "SignedPoly":
        return cls.of(enumerate(coeffs))

    @property
    def terms(self) -> tuple:
        """The sparse canonical form: (degree, coefficient) pairs, nonzero, ascending."""
        return tuple((d, c) for d, c in enumerate(self.coeffs) if c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __str__(self) -> str:
        return _render_terms(reversed(self.terms), "x")


@record
class PosPoly(SignedPoly):
    """A nonzero polynomial with positive rational coefficients: a checked `SignedPoly`.

    It stores the inherited dense tuple, whose entries are positive except
    for zeros at the degrees it skips.  The zero polynomial is not
    representable: the positive polynomials form the polynomial semiring over
    the positive rationals, which has no zero.
    """

    def __post_init__(self):
        SignedPoly.__post_init__(self)
        if not self.coeffs:
            raise ValueError("the zero polynomial is not a PosPoly")
        if any(c.numerator < 0 for c in self.coeffs):  # Fractions, as checked above
            raise ValueError("PosPoly coefficients must be positive")

    @classmethod
    def constant(cls, c) -> "PosPoly":
        return cls.of({0: c})

    def __add__(self, other: "PosPoly") -> "PosPoly":
        if not isinstance(other, PosPoly):
            return NotImplemented
        return PosPoly(tuple(polys._add(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PosPoly") -> "PosPoly":
        if not isinstance(other, PosPoly):
            return NotImplemented
        # `_mul` leaves an int 0 at each degree no product reaches, as in x²·x²
        return PosPoly(tuple(c or Fraction(0) for c in polys._mul(self.coeffs, other.coeffs)))

    def __pow__(self, k: int) -> "PosPoly":
        return power(self, k, _POS_ONE)

    def scale(self, c) -> "PosPoly":
        c = as_fraction(c)
        if c <= 0:
            raise ValueError("scaling factor must be positive")
        return PosPoly(tuple(c * x for x in self.coeffs))


_POS_ONE = PosPoly.constant(1)  # p**0, built once

def _render_terms(terms, var: str) -> str:
    """The sum of the (degree, coefficient) pairs `terms` in their order, c·var^d each; "0" for none.

    Coefficients are nonzero; a negative one after the first term is written
    with ` - `.
    """
    out = ""
    for d, c in terms:
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = var if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{d}" if mag == 1 else f"{mag}*{var}^{d}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


@record
class AlgebraicGenerator:
    """A validated extension generator: minimal polynomial plus isolating interval.

    The constructor refuses m unless it is monic, irreducible, of degree >= 2
    and has a negative coefficient, and (lo, hi) unless they are Fractions
    with 0 < lo < hi around exactly one root of m; copies and unpickled
    generators are checked again.  It then builds the reduction table
    `table` = (D, rows): row k holds the integer coefficients of D·x^(n+k)
    modulo m, for k = 0 .. n-2, so every product of two reduced elements
    folds back through it.  `m_int` is the primitive integer multiple of m,
    cleared once: the irreducibility test and the Sturm chain run on it,
    and sign and kernel queries divide by it.  `positive_roots` is the
    number of positive real roots of m.  `intervals` is the sign queries'
    cache: a list of integer triples (a, b, d), each the isolating interval
    (a/d, b/d) of one positive root, (lo, hi) first; the others are
    isolated as triples by bisection on the Sturm chain when there are any.
    Sign queries narrow the intervals in place; after validation lo and hi
    are read only as the generator's identity (equality, hash, repr, JSON).
    None of the four takes part in equality or repr, and copies start from
    a fresh cache.
    """

    m: SignedPoly
    lo: Fraction
    hi: Fraction
    __slots__ = ("table", "m_int", "positive_roots", "intervals")  # filled in by __post_init__

    def __post_init__(self):
        m, lo, hi = self.m, self.lo, self.hi
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            raise TypeError("the interval ends must be Fractions; use validate_generator")
        if not m.is_monic or m.degree < 1:
            raise ValueError("the minimal polynomial must be monic of degree >= 1")
        if all(c >= 0 for c in m.coeffs):
            raise AllPositiveCoefficients(
                "a positive-coefficient polynomial cannot vanish at a positive root"
            )
        if m.degree == 1:
            raise TrivialExtension("a degree-one generator already lies in the base semifield")
        m_int = tuple(_cleared(m.coeffs)[0])  # primitive, as m is monic
        if not polys.is_irreducible(m_int):
            raise Reducible(f"{m} factors over the rationals")
        chain = polys.sturm_chain(m_int)
        # sign variations at 0 and +infinity; m has no rational root, so none at a rational point is 0
        v0, v_top = polys._variations_at(chain, 0, 1), polys.sign_variations([f[-1] for f in chain])
        positive_roots = v0 - v_top
        if positive_roots == 0:
            raise NoPositiveRoot(f"{m} has no positive real root")
        if not (0 < lo < hi):
            raise IntervalNotIsolating("the interval must satisfy 0 < lo < hi")
        (a, b), d = _cleared([lo, hi])
        v_lo, v_hi = polys._variations_at(chain, a, d), polys._variations_at(chain, b, d)
        if v_lo - v_hi != 1:
            raise IntervalNotIsolating(f"({lo}, {hi}) does not isolate exactly one root of {m}")
        hv = polys._homogeneous_value
        assert hv(m_int, a, d) * hv(m_int, b, d) < 0
        object.__setattr__(self, "m_int", m_int)
        object.__setattr__(self, "positive_roots", positive_roots)
        intervals = [(a, b, d)]
        if positive_roots > 1:
            # the other positive roots lie in (0, lo) or above hi, and below Cauchy's bound,
            # where the variations are those at +infinity
            (c, top), e = _cleared([hi, 1 + max(map(abs, m.coeffs))])
            intervals += _isolate(chain, (0, a, d), v0, v_lo) + _isolate(chain, (c, top, e), v_hi, v_top)
            assert len(intervals) == positive_roots
        object.__setattr__(self, "intervals", intervals)
        n, low = self.n, [-c for c in m.coeffs[:-1]]
        rows = [low]  # x^n = -(m_0 + ... + m_(n-1)·x^(n-1)) modulo m
        for _ in range(n - 2):
            prev = rows[-1]
            rows.append([(prev[i - 1] if i else 0) + prev[-1] * c for i, c in enumerate(low)])
        den = math.lcm(*(c.denominator for row in rows for c in row))
        table = (den, tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows))
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        """Dimension of the extension over the base: the degree of the minimal polynomial."""
        return self.m.degree

    def one(self) -> "ExtElem":
        return _reduced(self, (1,) + (0,) * (self.n - 1), 1)

    def xbar(self) -> "ExtElem":
        """The class of x, the adjoined root itself."""
        return self.element([0, 1])

    def element(self, coeffs) -> "ExtElem":
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > self.n:
            raise ValueError("coefficient vector longer than the basis")
        nums, den = _cleared(cs)
        return _reduced(self, nums + [0] * (self.n - len(cs)), den)

    def _fold(self, c: list) -> list[int]:
        """D·(c mod m) on the basis, for a list c of integer coefficients of degree below 2n-1."""
        den, rows = self.table
        n = len(rows) + 1
        out = c[:n] if den == 1 else [den * x for x in c[:n]]
        out += [0] * (n - len(out))
        for row, top in zip(rows, c[n:]):
            if top:
                for i, r in enumerate(row):
                    out[i] += top * r
        return out


def _isolate(chain, interval, va: int, vb: int) -> list[tuple[int, int, int]]:
    """Disjoint intervals in (a/d, b/d), one around each root there of the `sturm_chain`'s polynomial.

    `interval` is the integer triple (a, b, d), and va and vb are the
    chain's sign variations at its ends, so each bisection evaluates the
    chain at its midpoint only.  The intervals found are triples too; the
    polynomial must have no rational root (m is irreducible of degree >= 2),
    so no midpoint is one.
    """
    if va - vb < 2:
        return [interval] * (va - vb)
    a, b, d = interval
    vm = polys._variations_at(chain, a + b, 2 * d)
    return _isolate(chain, (2 * a, a + b, 2 * d), va, vm) + _isolate(chain, (a + b, 2 * b, 2 * d), vm, vb)


def validate_generator(m: SignedPoly, interval) -> AlgebraicGenerator:
    """The generator of m and the interval (lo, hi), whose ends may be any rationals.

    The ends become Fractions; `AlgebraicGenerator` checks the rest.
    """
    return AlgebraicGenerator(m, as_fraction(interval[0]), as_fraction(interval[1]))


class ExtElem(Value):
    """An element of the extension, as coefficients on 1, X, ..., X^(n-1).

    The constructor takes the generator and n coefficients, ints or
    Fractions; `AlgebraicGenerator.element` coerces strings and pads.  An
    element stores its generator, the integer numerators of its coefficients
    over one positive common denominator, and that denominator, reduced so
    that their gcd is 1; `.coeffs` builds the Fraction tuple on each read.
    Its fields are (gen, coeffs): equality, hash, repr, copies, pickles and
    immutability are `Value`'s, and a second `__init__` call changes
    nothing, as for the value classes `record` builds.
    """

    __slots__ = ("gen", "_nums", "_den")
    _fields = ("gen", "coeffs")

    def __new__(cls, gen: AlgebraicGenerator, coeffs: tuple):
        if not isinstance(gen, AlgebraicGenerator):
            raise TypeError("an element's generator must be an AlgebraicGenerator")
        if len(coeffs) != gen.n:
            raise ValueError("coefficient vector length must equal the extension degree")
        if not all(type(c) is int or isinstance(c, Fraction) for c in coeffs):
            raise TypeError("coefficients must be ints or Fractions; use AlgebraicGenerator.element")
        return _reduced(gen, *_cleared(coeffs))

    @property
    def coeffs(self) -> tuple:
        d = self._den
        return tuple(Fraction(c, d) for c in self._nums)

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    @property
    def is_constant(self) -> bool:
        """Whether the element is a rational: its coefficients past the first are zero."""
        return not any(self._nums[1:])

    def _check(self, other: "ExtElem"):
        if self.gen is not other.gen and self.gen != other.gen:
            raise GeneratorMismatch("elements belong to different extensions")

    # The operators compute on the numerators and denominators and build
    # their results with `_reduced`, without validation or any Fraction.

    def __add__(self, other: "ExtElem") -> "ExtElem":
        if not isinstance(other, ExtElem):
            return NotImplemented
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            return _reduced(self.gen, [x + y for x, y in zip(self._nums, other._nums)], da)
        return _reduced(self.gen, [x * db + y * da for x, y in zip(self._nums, other._nums)], da * db)

    def __mul__(self, other: "ExtElem") -> "ExtElem":
        if not isinstance(other, ExtElem):
            return NotImplemented
        self._check(other)
        gen = self.gen
        return _reduced(gen, gen._fold(polys._mul(self._nums, other._nums)), gen.table[0] * self._den * other._den)

    def scale(self, c) -> "ExtElem":
        if type(c) is not int:
            c = as_fraction(c)
        return _reduced(self.gen, [c.numerator * x for x in self._nums], c.denominator * self._den)

    def __pow__(self, k: int) -> "ExtElem":
        if type(k) is int and k < 0:
            return power(self.inverse(), -k, self.gen.one())
        return power(self, k, self.gen.one())

    def inverse(self) -> "ExtElem":
        """Multiplicative inverse: the solution y of M·y = e_0, M the matrix of multiplication by self.

        M's columns are self·x^j, built with the reduction table; with a the
        integer numerators of self over their denominator d, the integer
        matrix D·d·M is solved by fraction-free elimination.
        """
        if self.is_zero:
            raise ZeroElement("zero has no inverse")
        gen, a = self.gen, list(self._nums)
        n = len(a)
        cols = [gen._fold([0] * j + a) for j in range(n)]
        y, det = _solve_fraction_free(zip(*cols), [1] + [0] * (n - 1))
        scale = gen.table[0] * self._den
        if det < 0:
            scale, det = -scale, -det
        return _reduced(gen, [scale * c for c in y], det)

    def __str__(self) -> str:
        """The sum of the nonzero terms, lowest degree first, in the basis powers of X."""
        return _render_terms([(i, c) for i, c in enumerate(self.coeffs) if c], "X")


_new = object.__new__
_set_gen, _set_nums, _set_den = (ExtElem.__dict__[f].__set__ for f in ExtElem.__slots__)


def _reduced(gen: AlgebraicGenerator, nums, den: int) -> ExtElem:
    """The element with integer numerators `nums` over `den` > 0, stored in lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    x = _new(ExtElem)
    _set_gen(x, gen)
    _set_nums(x, tuple(nums))
    _set_den(x, den)
    return x


def _solve_fraction_free(rows, rhs) -> tuple[list[int], int]:
    """(det·y, det) with rows·y = rhs, for a nonsingular integer matrix and integer rhs.

    Bareiss' fraction-free elimination (Math. Comp. 22, 1968): every
    division is exact, the last pivot is the determinant (of the row-swapped
    matrix), and det·y is integral by Cramer's rule, so back-substitution
    divides exactly too.
    """
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    n = len(aug)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        assert p is not None, "the system is singular"
        aug[k], aug[p] = aug[p], aug[k]
        pivot_row = aug[k]
        pivot = pivot_row[k]
        for row in aug[k + 1:]:
            f = row[k]
            row[k] = 0
            for j in range(k + 1, n + 1):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return y, prev


# Bisections a sign query may make before it asks the Sturm-Tarski query;
# about the cost of one query on the generators of degree 2-7.
_REFINE_STEPS = 16


def _positive_at(gen: AlgebraicGenerator, g, i: int) -> bool:
    """Whether the nonzero integer polynomial g, reduced modulo m, is positive at the i-th cached root.

    g = g⁺ - g⁻ splits into its positive- and negative-coefficient parts,
    both increasing on [0, ∞), so on the interval (a/d, b/d) g lies between
    g⁺(a/d) - g⁻(b/d) and g⁺(b/d) - g⁻(a/d), compared as integers times
    d^deg(g).  While the bound holds zero the interval is bisected, the side
    taken by the sign of m at the midpoint (never zero: m has no rational
    root), and stored back whole: a query in another thread reads an older
    or a newer isolating interval, never a mix, and a store lost to a
    concurrent one loses only refinement.  After `_REFINE_STEPS` bisections
    one Sturm-Tarski query on the refined cached interval answers, at every
    root.  g is nonzero at the root (the basis powers of a root are linearly
    independent over Q), so either way the answer is exact.
    """
    hv, m = polys._homogeneous_value, gen.m_int
    pos = [c if c > 0 else 0 for c in g]
    neg = [-c if c < 0 else 0 for c in g]
    a, b, d = gen.intervals[i]
    left = None
    for step in range(_REFINE_STEPS + 1):
        if hv(pos, a, d) > hv(neg, b, d):
            return True
        if hv(pos, b, d) < hv(neg, a, d):
            return False
        if step == _REFINE_STEPS:
            break
        if left is None:
            left = hv(m, a, d) > 0  # the sign of m at the lower end never changes
        mid, d = a + b, 2 * d
        a, b = (mid, 2 * b) if (hv(m, mid, d) > 0) is left else (2 * a, mid)
        gen.intervals[i] = (a, b, d)
    return polys.tarski_query(m, g, Fraction(a, d), Fraction(b, d)) > 0


def positive_at_root(e: ExtElem) -> bool:
    """Exact sign of the represented real number (False for zero).

    The sign of e's integer numerators, whose positive denominator keeps
    the sign, at the adjoined root: an interval bound on the cached
    isolating interval, refined by at most `_REFINE_STEPS` bisections, then
    one Sturm-Tarski query on it if the bound still holds zero.
    """
    return not e.is_zero and _positive_at(e.gen, e._nums, 0)


def in_layer_semifield(e: ExtElem) -> bool:
    """Whether e lies in the layer semifield Q>0[x]/ker: e is positive at every positive root of m.

    The condition is necessary: a quotient of positive polynomials is
    positive at every positive root.  It is sufficient by Pólya's theorem:
    for large c and k, q = p + c·m²·(1 + x²)^k is positive on [0, ∞), p the
    representative of e, so (1 + x)^N·q = a has positive coefficients for
    some N, and e = a(α)/(1 + α)^N.  The test runs `positive_at_root`'s
    sign query at each cached root in turn, the adjoined root first, and
    stops at the first negative sign.
    """
    if e.is_zero:
        return False
    gen = e.gen
    return all(_positive_at(gen, e._nums, i) for i in range(gen.positive_roots))


def kernel_contains(a: PosPoly, b: PosPoly, gen: AlgebraicGenerator) -> bool:
    """Whether a/b is congruent to 1: the minimal polynomial divides a - b.

    a - b is cleared to integers over one positive denominator; its
    pseudo-remainder by the primitive integer multiple of m is a nonzero
    multiple of the remainder over Q.
    """
    num, _ = _cleared(polys._sub(a.coeffs, b.coeffs))
    return not polys._pseudo_rem(polys._trim(num), gen.m_int)
