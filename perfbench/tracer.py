"""Per-layer tracing from outside the program: wraps the public functions of
belleuler's five modules (algebra, sequences, identities, umbral, cli) and
keeps everything in memory until ``Tracer.snapshot``.

Hot functions (``Poly``/``Series`` operations, family generators, umbral
primitives) are aggregated into a call count and a self time, not one span
per call: a verify run makes about 400k ``Poly`` calls.  Coarse units (one
CLI command, one registry check) are recorded as spans with start, end and
the span that caused them.  A function's self time is its duration minus the
time spent in wrapped callees.  Durations are process CPU time, so a
calibration loop sharing the CPU does not inflate them.

A wrapper replaces the function in every namespace that bound it: module
globals (``cli`` imported ``expand_in_appell`` by name), class attributes
(``__radd__`` is ``__add__``), classmethods and registry dicts.  The tracer
is single-threaded; the benchmark does not trace ``verify --parallel``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# bucket -> functions, as "module:qualname"; each call is counted and timed
TIMED = {
    "algebra.poly_mul": ["belleuler.algebra:Poly.__mul__"],
    "algebra.poly_add": ["belleuler.algebra:Poly.__add__"],
    "algebra.poly_subs": ["belleuler.algebra:Poly.subs"],
    "algebra.poly_evaluate": ["belleuler.algebra:Poly.evaluate"],
    "algebra.series_mul": ["belleuler.algebra:Series.__mul__"],
    "algebra.series_exp": ["belleuler.algebra:Series.exp"],
    "algebra.series_log": ["belleuler.algebra:Series.log"],
    "algebra.series_inverse": ["belleuler.algebra:Series.inverse"],
    "algebra.series_pow": ["belleuler.algebra:Series.pow"],
    "algebra.series_compose": ["belleuler.algebra:Series.compose"],
    "sequences.bell_euler_poly": ["belleuler.sequences:bell_euler_poly"],
    "sequences.euler_poly_order": ["belleuler.sequences:euler_poly_order"],
    "sequences.bivariate_bell": ["belleuler.sequences:bivariate_bell"],
    "sequences.bell_number": ["belleuler.sequences:bell_number"],
    "sequences.stirling2_number": ["belleuler.sequences:stirling2_number"],
    "sequences.special_case": ["belleuler.sequences:special_case"],
    "umbral.pair": ["belleuler.umbral:pair"],
    "umbral.apply_operator": ["belleuler.umbral:apply_operator"],
    "umbral.appell_context": ["belleuler.umbral:AppellContext.create"],
    "umbral.expand_in_appell": ["belleuler.umbral:expand_in_appell"],
    "umbral.reconstruct": ["belleuler.umbral:reconstruct"],
    "cli.serialize": ["belleuler.algebra:Poly.to_json_map",
                      "belleuler.algebra:Poly.pretty",
                      "belleuler.cli:_csv_text", "json:dumps"],
}

# bucket -> functions that are only counted: too hot or too cheap to time
COUNTED = {
    "algebra.poly_init": ["belleuler.algebra:Poly.__init__"],
    "algebra.poly_eq": ["belleuler.algebra:Poly.__eq__"],
    "algebra.series_shift": ["belleuler.algebra:Series.shift"],
}

# registry dicts whose checks become spans named "<layer>.<id>"
SPAN_REGISTRIES = {"identities": "belleuler.identities:CHECKS",
                   "umbral": "belleuler.umbral:CHECKS"}


def _resolve(path: str):
    """"module:Class.attr" -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _bindings():
    """(namespace, assign) for every module of the package, its classes and
    its dicts, where a wrapped function may have been bound."""
    for name, module in list(sys.modules.items()):
        if name != "belleuler" and not name.startswith("belleuler."):
            continue
        yield vars(module), functools.partial(setattr, module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield dict(vars(value)), functools.partial(setattr, value)
            elif isinstance(value, dict):
                yield value, value.__setitem__


class Tracer:
    def __init__(self):
        self.stats = {}   # bucket -> [count, self_s, inclusive_s]
        self.spans = []   # [name, start, end, parent index or None]
        self._stack = []  # per open call: [time in wrapped callees, span index]
        self._start = time.process_time()

    @contextmanager
    def span(self, name: str):
        """Record a block as one span, a child of the innermost open one."""
        stack, clock = self._stack, time.process_time
        parent = stack[-1][1] if stack else None
        index = len(self.spans)
        record = [name, clock() - self._start, None, parent]
        self.spans.append(record)
        stack.append([0.0, index])
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            stack.pop()
            record[2] = record[1] + elapsed
            if stack:
                stack[-1][0] += elapsed

    def _timed(self, bucket: str, fn):
        stats = self.stats.setdefault(bucket, [0, 0.0, 0.0])
        stack, clock = self._stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def _counted(self, bucket: str, fn):
        stats = self.stats.setdefault(bucket, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Import the package and replace every binding of each target."""
        importlib.import_module("belleuler.cli")
        replacements = {}  # id(original function) -> wrapper
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for bucket, paths in table.items():
                for path in paths:
                    owner, attr = _resolve(path)
                    raw = vars(owner).get(attr) if isinstance(owner, type) \
                        else getattr(owner, attr)
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapper = make(bucket, fn)
                    replacements[id(fn)] = wrapper
                    setattr(owner, attr,
                            classmethod(wrapper) if isinstance(raw, classmethod)
                            else wrapper)
        for layer, path in SPAN_REGISTRIES.items():
            owner, attr = _resolve(path)
            for check_id, fn in getattr(owner, attr).items():
                replacements[id(fn)] = self._spanned(f"{layer}.{check_id}", fn)
        for namespace, assign in _bindings():
            for key, value in list(namespace.items()):
                is_method = isinstance(value, classmethod)
                wrapper = replacements.get(id(value.__func__ if is_method else value))
                if wrapper is not None:
                    assign(key, classmethod(wrapper) if is_method else wrapper)

    def snapshot(self) -> dict:
        """Aggregates and spans as plain JSON-ready data."""
        return {
            "stats": {bucket: {"count": c, "self_s": s, "inclusive_s": i}
                      for bucket, (c, s, i) in sorted(self.stats.items())},
            "spans": [{"name": n, "start_s": s, "end_s": e, "parent": p}
                      for n, s, e, p in self.spans],
        }

