"""Calibration loop that shares one CPU with a measured process.

Usage: python3 perfbench/calibrate.py

Run it pinned to the CPU of the measured process.  Prints "ready", repeats a fixed chunk of work until
SIGTERM, and prints a JSON list of [monotonic time, own CPU time] after each
chunk.  The chunk is pure-Python ``Fraction`` arithmetic on a dict keyed by
exponent tuples, like ``Poly.__mul__``, so contention from other tenants of
the host slows it as it slows belleuler.  Chunks per CPU second over a
command's interval give the CPU's speed during that command.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction

TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def chunk() -> None:
    out = {}
    for e1, c1 in TERMS.items():
        for e2, c2 in TERMS.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            out[key] = out.get(key, 0) + c1 * c2


def main() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    stamps = []
    print("ready", flush=True)
    while not stop:
        chunk()
        stamps.append((time.monotonic(), time.process_time()))
    print(json.dumps(stamps))


if __name__ == "__main__":
    main()
