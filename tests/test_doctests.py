"""Run the examples in the library's docstrings as part of the test suite."""
import doctest
import importlib
import pkgutil

import pytest

import soficwreath

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(soficwreath.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(f"soficwreath.{name}"))
    assert result.failed == 0


@pytest.mark.parametrize("name", ["perm", "bigperm", "jsonutil", "groups", "construct", "verify"])
def test_module_has_doctests(name):
    assert doctest.testmod(importlib.import_module(f"soficwreath.{name}")).attempted > 0
