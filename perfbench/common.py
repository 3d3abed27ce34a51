"""Pieces shared by the workload generators."""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


class Query:
    """One timed call into the program and the oracle that judges its answer.

    `run()` performs the call and returns its answer (the runner records an
    exception as the answer).  `check(answer)` returns True when the answer is
    right.  `size` is the input size that drives the query's cost.
    `malformed` marks an input that must be rejected with a clean error.
    """

    __slots__ = ("kind", "run", "check", "size", "malformed")

    def __init__(self, kind, run, check, size=0, malformed=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.size = size
        self.malformed = malformed


class Ctx:
    """Objects a session hands from one query to the next (e.g. a validated generator)."""

    __slots__ = ("gen", "elems", "desc")

    def __init__(self):
        self.gen = None
        self.elems = None
        self.desc = None


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def same_count(ans, expected) -> bool:
    """Compare an integer-or-infinite answer with the expected one."""
    if expected == INF:
        return ans == INF
    return is_int(ans) and ans == expected


def rand_fraction(rng, num=3, den=3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def subset(rng, n, lo=0, hi=None) -> tuple:
    hi = n if hi is None else hi
    return tuple(sorted(rng.sample(range(n), rng.randint(lo, hi))))


class Cycle:
    """Draws from `values` in shuffled rounds, so every run has the same mix of them."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.left = []

    def next(self):
        if not self.left:
            self.left = list(self.values)
            self.rng.shuffle(self.left)
        return self.left.pop()
