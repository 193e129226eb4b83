"""Docstring examples and the README's library tour stay true."""

import doctest
import importlib
from pathlib import Path

MODULES = ["mapscope.trees", "mapscope.perms", "mapscope.series"]


def test_doctests():
    'Run every docstring example in the core modules'
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name), verbose=False)
        assert result.failed == 0, name
        assert result.attempted > 0, name


def test_readme_tour():
    'Run the library tour in README.md'
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
