"""The >>> examples in every module's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import belleuler


def test_docstring_examples_in_every_module():
    results = {
        info.name: doctest.testmod(importlib.import_module(info.name))
        for info in pkgutil.iter_modules(belleuler.__path__, "belleuler.")
        if info.name != "belleuler.__main__"   # importing it would run the CLI
    }
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # the algebra examples exist, so a passing run is not a vacuous one
    assert results["belleuler.algebra"].attempted >= 9
