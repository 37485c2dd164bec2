"""belleuler benchmark: drives the public CLI from this one generator process.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 35 --trace 0

Each workload is a fixed list of CLI invocations whose orders and polynomials
are drawn from ``--seed``.  Every invocation runs in a fresh interpreter
(``child.py``), one process at a time, with no threads in this process.  A
repetition runs the whole list; repetitions repeat until ``--seconds`` have
passed (at least twice), and each metric is the median over repetitions.

Times are reference seconds: a process runs pinned to one CPU next to
``calibrate.py``, and its CPU time is rescaled by the loop's speed over the
same interval, which cancels the host's changing load.  Every output is
checked against an independent oracle (``checks.py``) outside the timed
region.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` follows each untraced repetition by a traced one and prints
the per-layer metrics, tracing overhead included.  Either way the last stdout
line is one JSON object, and a full record (environment, inputs, samples,
spans) is written under ``.bench_build/perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_REPS = 2
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
REFERENCE_CHUNKS = 1000  # calibration chunks in one reference second

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


@dataclass
class Command:
    metric: str                      # the cmd.* time this command adds to
    argv: list
    check: Callable[[int, str], "str | None"]


@dataclass
class Process:
    """Commands run in sequence by one fresh interpreter.

    A ``threaded`` process runs a thread pool.  It runs on every CPU without
    the calibration loop, and is timed by wall clock.  That time and its
    counts hang on thread scheduling (on 2 vCPUs `verify --parallel` took
    5.2-7.7 s against 3.8-5.7 s sequential), so it runs once per run, is not
    traced and stays out of the bounded end-to-end metrics."""
    commands: list
    threaded: bool = False


@dataclass
class Workload:
    processes: list
    inputs: dict = field(default_factory=dict)


# -- workloads ----------------------------------------------------------------

def _rational_order(rng: random.Random) -> Fraction:
    q = rng.choice((2, 3))
    return Fraction(rng.choice([p for p in range(-7, 8) if gcd(p, q) == 1]), q)


def _rational_poly(rng: random.Random, degree: int) -> str:
    """A CLI literal such as "-3/7*x^16 + 5*x^15 - ... + 1/4", leading term nonzero."""
    text = ""
    for i in range(degree, -1, -1):
        num = rng.choice([v for v in range(-99, 100) if v]) if i == degree \
            else rng.randint(-99, 99)
        if not num:
            continue
        coeff = Fraction(num, rng.randint(1, 99))
        body = str(abs(coeff)) + (f"*x^{i}" if i else "")
        if text:
            text += f" {'-' if coeff < 0 else '+'} {body}"
        else:
            text = ("-" if coeff < 0 else "") + body
    return text


def verify_grid(rng, seq) -> Workload:
    verify = ["verify", "--all", "--n-max", str(checks.VERIFY_N_MAX)]
    sequential = {}

    def check_sequential(code, out):
        sequential["stripped"] = checks.strip_elapsed(out)
        return checks.check_verify_all(code, out)

    def check_parallel(code, out):
        reason = checks.check_verify_all(code, out)
        if reason is None and checks.strip_elapsed(out) != sequential.get("stripped"):
            reason = "--parallel output differs from sequential"
        return reason

    return Workload([
        Process([Command("verify_s", verify, check_sequential)]),
        Process([Command("verify_parallel_s", verify + ["--parallel"], check_parallel)],
                threaded=True),
        Process([Command("literal_s", ["verify", "--id", checks.NEGATIVE_CONTROL],
                         checks.check_negative_control)]),
    ])


def deep_member(rng, seq) -> Workload:
    # orders of equal cost, so that the seed does not set it: at n = 36 the
    # series for order 1 costs about 20% less (half its Euler numbers
    # vanish), order 3 about 5% less, orders 2, 4 and 5 within 2%
    alpha = rng.choice((4, 5))
    ratio = _rational_order(rng)
    int_terms = checks.poly_terms(seq.bell_euler_convolution(36, alpha))
    ratio_terms = checks.bell_euler_terms(32, ratio)
    bell = seq.bell_number_triangle(40)

    def compute(family, n, *extra):
        return ["compute", "--family", family, "--n", str(n), *extra, "--format", "json"]

    return Workload([
        Process([Command("member_int_s", compute("bell-euler", 36, f"--alpha={alpha}"),
                         lambda c, o: checks.check_json_poly(c, o, int_terms))]),
        Process([Command("member_rational_s",
                         compute("bell-euler", 32, f"--alpha={ratio}"),
                         lambda c, o: checks.check_json_poly(c, o, ratio_terms))]),
        Process([Command("bell_number_s", compute("bell-number", 40),
                         lambda c, o: checks.check_json_number(c, o, bell))]),
    ], {"alpha": alpha, "ratio": str(ratio)})


def family_sweep(rng, seq) -> Workload:
    # alpha is 2 or 3, so exactly one of the expand calls (mu 2 and 3) reads
    # the order-16 series the bell-euler table built, whatever the seed
    alpha = rng.choice((2, 3))
    ratio = _rational_order(rng)
    polys = {mu: _rational_poly(rng, 16) for mu in (2, 3)}

    def table(family, n_max, expected, parse, *extra):
        argv = ["table", "--family", family, "--n-max", str(n_max), *extra]
        return Command("sweep_s", argv,
                       lambda c, o: checks.check_value_table(c, o, expected, parse))

    stirling = [[seq.stirling2_recurrence(n, k) for k in range(17)] for n in range(17)]
    commands = [
        table("bell-euler", 24,
              [checks.poly_terms(seq.bell_euler_convolution(n, alpha)) for n in range(25)],
              checks.parse_pretty, f"--alpha={alpha}"),
        table("euler", 32, [checks.euler_terms(n, ratio) for n in range(33)],
              checks.parse_pretty, f"--alpha={ratio}"),
        Command("sweep_s", ["table", "--family", "stirling2", "--n-max", "16"],
                lambda c, o: checks.check_block_table(c, o, stirling)),
        table("bell-number", 28, [seq.bell_number_triangle(n) for n in range(29)],
              Fraction),
        table("bivariate-bell", 24,
              [checks.poly_terms(seq.bivariate_bell_convolution(n)) for n in range(25)],
              checks.parse_pretty),
    ]
    commands += [Command("expand_s", ["expand", "--mu", str(mu), "--", text],
                         lambda c, o, mu=mu: checks.check_expand(c, o, mu, 16))
                 for mu, text in polys.items()]
    return Workload([Process(commands)],
                    {"alpha": alpha, "ratio": str(ratio), "polynomials": polys})


WORKLOADS = {"verify-grid": verify_grid, "deep-member": deep_member,
             "family-sweep": family_sweep}
COMMAND_METRICS = ("verify_s", "verify_parallel_s", "literal_s", "member_int_s",
                   "member_rational_s", "bell_number_s", "sweep_s", "expand_s")


# -- running --------------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Calibrated:
    """Pin this process, and so every process it starts, to one CPU, and run
    ``calibrate.py`` there for the duration of the block.

    Other tenants of the host change the CPU's speed by up to 2x within
    seconds.  The calibration loop shares the CPU with the measured process,
    so it is slowed alike; ``reference_s`` turns a CPU time into reference
    seconds, one being the CPU time of REFERENCE_CHUNKS loop chunks."""

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._loop = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                      stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self._loop.stdout.readline()  # "ready"
        return self

    def __exit__(self, *exc_info):
        self._loop.terminate()
        try:
            out, _ = self._loop.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._loop.kill()
            self._loop.communicate()
            raise
        finally:
            os.sched_setaffinity(0, self._affinity)
        if exc_info[0] is None:
            self._stamps = json.loads(out)
            self._times = [t for t, _ in self._stamps]

    def reference_s(self, cpu_s: float, t0: float, t1: float) -> float:
        """``cpu_s`` spent between monotonic times t0 and t1, in reference
        seconds.  A span too short to hold 10 chunks uses the whole loop."""
        i = bisect.bisect_left(self._times, t0)
        j = bisect.bisect_right(self._times, t1) - 1
        if j - i < 10:
            i, j = 0, len(self._stamps) - 1
        chunks_per_cpu_s = (j - i) / (self._stamps[j][1] - self._stamps[i][1])
        return cpu_s * chunks_per_cpu_s / REFERENCE_CHUNKS


def _spawn(process: Process, trace: bool) -> dict:
    """Run one child.  Each result gets ``s``: reference seconds, or wall
    seconds for a threaded process, which runs unpinned on every CPU."""
    argv = [sys.executable, str(HERE / "child.py")] + (["--trace"] if trace else [])
    run = functools.partial(
        subprocess.run, argv, input=json.dumps([c.argv for c in process.commands]),
        capture_output=True, text=True, cwd=ROOT, env=_child_env(),
        timeout=CHILD_TIMEOUT_S, check=False)
    calibration = None
    if process.threaded:
        done = run()
    else:
        with Calibrated() as calibration:
            done = run()
    if done.returncode != 0:
        raise RuntimeError(f"benchmark child failed:\n{done.stderr}")
    child = json.loads(done.stdout)
    results = child["results"]
    for result in results:
        result["s"] = (calibration.reference_s(result["cpu_s"], result["t0"], result["t1"])
                       if calibration else result["wall_s"])
    # reference seconds per CPU second over the whole child, for its trace
    child["scale"] = (calibration.reference_s(1.0, results[0]["t0"], results[-1]["t1"])
                      if calibration else 1.0)
    return child


def run_repetition(workload: Workload, threaded: bool, trace: bool = False) -> dict:
    """Run every process once, threaded ones only if asked, and check every
    output.  A failed command's time is infinite."""
    rep = {"commands": [], "max_rss_kb": 0, "failures": [], "reports": [],
           "children": []}
    for process in workload.processes:
        if process.threaded and not threaded:
            continue
        child = _spawn(process, trace)
        rep["children"].append(child)
        if not process.threaded:
            rep["max_rss_kb"] = max(rep["max_rss_kb"], child["max_rss_kb"])
        for command, result in zip(process.commands, child["results"]):
            try:
                reason = command.check(result["code"], result["stdout"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is not None:
                rep["failures"].append({"argv": command.argv, "reason": reason,
                                        "stderr": result["stderr"][-2000:]})
            rep["commands"].append({
                "metric": command.metric, "threaded": process.threaded,
                "s": math.inf if reason else result["s"],
                "wall_s": math.inf if reason else result["wall_s"],
                "scale": result["s"] / result["wall_s"],
                "cpu_share": result["cpu_s"] / result["wall_s"]})
            if command.argv[0] == "verify":
                rep["reports"].append((rep["commands"][-1], result["stdout"]))
    return rep


def measure_setup() -> list:
    """Reference seconds of a fresh interpreter that imports belleuler.cli,
    after one unrecorded start that may write bytecode caches."""
    argv = [sys.executable, "-c", "import belleuler.cli"]
    samples = []
    with Calibrated() as calibration:
        for _ in range(SETUP_SAMPLES + 1):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.monotonic()
            subprocess.run(argv, cwd=ROOT, env=_child_env(), check=True,
                           timeout=CHILD_TIMEOUT_S)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            samples.append((after.ru_utime + after.ru_stime
                            - before.ru_utime - before.ru_stime, t0, time.monotonic()))
    return [calibration.reference_s(*sample) for sample in samples[1:]]


def _finite(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def _total(rep: dict, key: str = "s") -> float:
    return sum(c[key] for c in rep["commands"] if not c["threaded"])


def _command_medians(reps: list) -> dict:
    """cmd.<name>: median over the repetitions that ran it of the summed
    times of its commands; every known name present."""
    samples = {name: [] for name in COMMAND_METRICS}
    for rep in reps:
        sums = {}
        for command in rep["commands"]:
            sums[command["metric"]] = sums.get(command["metric"], 0.0) + command["s"]
        for name, value in sums.items():
            samples[name].append(value)
    return {f"cmd.{name}": _finite(statistics.median(values)) if values else 0.0
            for name, values in samples.items()}


# -- metrics ----------------------------------------------------------------------

def end_to_end_metrics(reps: list, setup: list) -> dict:
    """Medians over repetitions; threaded processes stay out of all but the
    printed cmd.* figures."""
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    metrics = {
        "total_s": _finite(statistics.median(_total(r) for r in reps)),
        "peak_rss_mb": statistics.median(r["max_rss_kb"] / 1024 for r in reps),
        "ok_share": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup),
        "wall_s": _finite(statistics.median(_total(r, "wall_s") for r in reps)),
    }
    metrics.update(_command_medians(reps))
    return metrics


def _report_metrics(rep: dict) -> dict:
    """identities.* / umbral.* check times (reference seconds) and case
    counts, and the --parallel pool figures, from the JSON reports of one
    untraced repetition.  A report's ``elapsed_ms`` is wall time; the
    sequential run shared its CPU with the calibration loop, so for
    ``cli.pool.inflation`` its elapsed times are cut to the CPU share it got."""
    def prefix(check_id):
        layer = "umbral" if check_id in checks.UMBRAL_IDS else "identities"
        return f"{layer}.{check_id}"

    metrics = {}
    for check_id in list(checks.VERIFY_CHECKED) + [checks.NEGATIVE_CONTROL]:
        metrics[f"{prefix(check_id)}.s"] = 0.0
        metrics[f"{prefix(check_id)}.cases"] = 0
    sums = {"sequential": 0.0, "parallel": 0.0}
    for command, stdout in rep["reports"]:
        reports = json.loads(stdout)
        elapsed = sum(r["elapsed_ms"] for r in reports) / 1000
        if command["threaded"]:
            sums["parallel"] += elapsed
            continue
        sums["sequential"] += elapsed * command["cpu_share"]
        for r in reports:
            metrics[f"{prefix(r['id'])}.s"] = r["elapsed_ms"] / 1000 * command["scale"]
            metrics[f"{prefix(r['id'])}.cases"] = r["checked"]
    metrics["cli.pool.check_s_sum"] = sums["parallel"]
    metrics["cli.pool.inflation"] = (sums["parallel"] / sums["sequential"]
                                     if sums["parallel"] else 0.0)
    return metrics


def per_layer_metrics(plain: list, traced: list) -> dict:
    """Counts and self times from the median traced repetition, self times
    rescaled to reference seconds; the rest are medians over repetitions."""
    metrics = _command_medians(plain)
    metrics.update(_report_metrics(plain[0]))
    middle = sorted(traced, key=_total)[len(traced) // 2]
    hits = misses = 0
    buckets = {}
    for child in middle["children"]:
        hits += child["cache_hits"]
        misses += child["cache_misses"]
        for bucket, stat in child["trace"]["stats"].items():
            total = buckets.setdefault(bucket, [0, 0.0])
            total[0] += stat["count"]
            total[1] += stat["self_s"] * child["scale"]
    for bucket, (count, self_s) in buckets.items():
        metrics[f"{bucket}.count"] = count
        metrics[f"{bucket}.self_s"] = self_s
    metrics["sequences.cache_hits"] = hits
    metrics["sequences.cache_misses"] = misses
    metrics["sequences.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    untraced = statistics.median(_total(r) for r in plain)
    overhead = statistics.median(_total(r) for r in traced) - untraced
    metrics["trace.untraced_s"] = _finite(untraced)
    metrics["trace.traced_s"] = _finite(untraced + overhead)
    metrics["trace.overhead_s"] = _finite(overhead)
    metrics["trace.overhead_share"] = _finite(overhead / untraced)
    return metrics


# -- environment ----------------------------------------------------------------------

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loadavg_start": _loadavg()}


# -- main ----------------------------------------------------------------------------

def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "belleuler" / "cli.py").is_file():
        print(f"error: no belleuler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from belleuler import sequences as seq

    env = environment(args)
    workload = WORKLOADS[args.workload](random.Random(args.seed), seq)
    record = {"environment": env, "inputs": workload.inputs,
              "argv": [c.argv for p in workload.processes for c in p.commands]}

    setup = [] if args.trace else measure_setup()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while len(plain) < MIN_REPS or time.perf_counter() < deadline:
        plain.append(run_repetition(workload, threaded=not plain))
        if args.trace:
            traced.append(run_repetition(workload, threaded=False, trace=True))
    reps = plain + traced
    if args.trace:
        computed = per_layer_metrics(plain, traced)
        declared = _declared("per_layer")
        shown = declared
        record["trace"] = [c["trace"] for r in traced for c in r["children"]]
    else:
        computed = end_to_end_metrics(plain, setup)
        declared = _declared("end_to_end")
        shown = computed
        record["setup_s"] = setup
    env["loadavg_end"] = _loadavg()
    env["repetitions"] = len(plain)

    attempted = sum(len(r["commands"]) for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    record["samples"] = [{k: r[k] for k in ("commands", "max_rss_kb")} for r in reps]
    record["failures"] = failures
    record["metrics"] = computed
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}", file=sys.stderr)
    print("environment " + json.dumps(env))
    for name in sorted(shown):
        print(f"{name:40s} {computed[name]:<14.6g} {declared.get(name, 's')}")
    print(f"record {out_file.relative_to(ROOT)}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": computed[name], "unit": unit}
                          for name, unit in declared.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
