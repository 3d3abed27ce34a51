import os
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from layext.tropical import LayeredElem, ZERO

settings.register_profile("layext", deadline=None, max_examples=120)
settings.load_profile("layext")

ROOT = Path(__file__).resolve().parent.parent

# Wall seconds a test may run.  The slowest test takes about 3 s on a 2-CPU host
# (`pytest --durations=5`); the margin is for a loaded machine, not for slower tests.
# pyproject.toml's `faulthandler_timeout` is the backstop, at twice this.
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis reports it at once instead of rerunning the hanging example."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT_S with its traceback, instead of stalling the suite.

    SIGALRM raises in the test's frame, and the run goes on with the next
    test.  A hang the signal cannot break, inside one long call into C, is
    left to pytest's faulthandler (see TIME_LIMIT_S).
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its limit of {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def src_env() -> dict:
    """The environment with the repository's src/ first on PYTHONPATH, for child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def rationals(max_num: int = 20, max_den: int = 8) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def positive_rationals(max_num: int = 20, max_den: int = 8) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(1, max_num),
        st.integers(1, max_den),
    )


def layered_elems(allow_zero: bool = True) -> st.SearchStrategy:
    nonzero = st.builds(LayeredElem, positive_rationals(), rationals())
    if not allow_zero:
        return nonzero
    return st.one_of(st.just(ZERO), nonzero)
