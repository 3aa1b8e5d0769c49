"""Run the examples in the library's docstrings, one test per docstring."""

import doctest
import importlib
import pkgutil

import pytest

import bockstein


def _docstring_tests():
    finder = doctest.DocTestFinder()
    for info in pkgutil.iter_modules(bockstein.__path__):
        module = importlib.import_module(f"bockstein.{info.name}")
        yield from (t for t in finder.find(module) if t.examples)


DOCTESTS = sorted(_docstring_tests(), key=lambda t: t.name)


@pytest.mark.parametrize("test", DOCTESTS, ids=[t.name for t in DOCTESTS])
def test_docstring_examples(test):
    assert doctest.DocTestRunner().run(test).failed == 0
