"""Run belleuler CLI commands one after another in this fresh interpreter.

Usage: python3 perfbench/child.py [--trace] < commands.json

``commands.json`` is a JSON list of argv lists for ``belleuler.cli.main``.
Prints one JSON object: per command its exit code, stdout, stderr, wall time, CPU
time and monotonic start and end; the process's peak RSS (its own children
included); the hit and miss totals of every ``lru_cache`` in
``belleuler.sequences``; and, with ``--trace``, the tracer's aggregates and
spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

encode = json.JSONEncoder(separators=(",", ":")).encode  # unaffected by tracing


def _cpu_time() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0, cpu = time.monotonic(), _cpu_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the whole run
            traceback.print_exc()
            code = -1
    elapsed = time.perf_counter() - start
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": elapsed, "cpu_s": _cpu_time() - cpu,
            "t0": t0, "t1": time.monotonic()}


def main() -> None:
    commands = json.load(sys.stdin)
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from belleuler import cli, sequences

    results = []
    for argv in commands:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span:
            results.append(_run(cli, argv))

    caches = [value.cache_info() for value in vars(sequences).values()
              if callable(getattr(value, "cache_info", None))]
    usage = [resource.getrusage(who)
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    payload = {
        "results": results,
        "max_rss_kb": max(u.ru_maxrss for u in usage),
        "cache_hits": sum(c.hits for c in caches),
        "cache_misses": sum(c.misses for c in caches),
        "trace": tracer.snapshot() if tracer else None,
    }
    sys.stdout.write(encode(payload) + "\n")


if __name__ == "__main__":
    main()
