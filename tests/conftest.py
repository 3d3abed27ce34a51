import os
from fractions import Fraction
from pathlib import Path

from hypothesis import settings, strategies as st

from layext.tropical import LayeredElem, ZERO

settings.register_profile("layext", deadline=None, max_examples=120)
settings.load_profile("layext")

ROOT = Path(__file__).resolve().parent.parent


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
