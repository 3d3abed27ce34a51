"""The examples in the docstrings of every `layext` module run and print what they show."""

import doctest
import importlib
import pkgutil

import pytest

import layext

MODULES = sorted(m.name for m in pkgutil.iter_modules(layext.__path__))
WITH_EXAMPLES = {"bipotent", "cancellative", "polys", "tropical"}


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    failed, attempted = doctest.testmod(importlib.import_module(f"layext.{name}"))
    assert failed == 0
    assert attempted > 0 or name not in WITH_EXAMPLES
