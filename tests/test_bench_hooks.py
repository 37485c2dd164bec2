"""The benchmark's tracer wraps functions of this package by "module:qualname".
Each of those names must still resolve, or a traced benchmark run crashes.
The benchmark's driver computes its expected outputs with functions of
`sequences`, which must resolve too."""

import importlib.util
import re
from pathlib import Path

import pytest

from belleuler import sequences

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracer):
    paths = [path for table in (tracer.TIMED, tracer.COUNTED)
             for bucket in table.values() for path in bucket]
    assert paths
    missing = []
    for path in paths:
        owner, attr = tracer._resolve(path)
        if not callable(getattr(owner, attr, None)):
            missing.append(path)
    assert missing == []


def test_every_span_registry_resolves(tracer):
    for path in tracer.SPAN_REGISTRIES.values():
        owner, attr = tracer._resolve(path)
        registry = getattr(owner, attr)
        assert isinstance(registry, dict) and registry
        assert all(callable(check) for check in registry.values())


def test_benchmark_oracle_names_resolve():
    # run.py reads the recurrence path as `seq.<name>`
    names = set(re.findall(r"\bseq\.(\w+)", TRACER.with_name("run.py").read_text()))
    assert names
    assert sorted(n for n in names if not callable(getattr(sequences, n, None))) == []
