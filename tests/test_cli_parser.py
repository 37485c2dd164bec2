"""The command line's parse table against the argparse parser it replaced.

``cli.parse`` reads argv off ``cli.COMMANDS``; ``oracles.build_parser`` is
the argparse parser as it stood before.  Over one corpus of argv lists, the
two must agree on what they accept, refuse or answer with help, and on every
value they parse.  A cold ``belleuler`` process must not import argparse,
gettext or locale at all.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from belleuler import cli
from test_cli_digest import _invocations

# the argv shapes that perfbench/run.py sends, one of each
BENCHMARK_ARGV = [
    ["verify", "--all", "--n-max", "10"],
    ["verify", "--all", "--n-max", "10", "--parallel"],
    ["verify", "--id", "T4_4_literal"],
    ["compute", "--family", "bell-euler", "--n", "36", "--alpha=4", "--format", "json"],
    ["compute", "--family", "bell-euler", "--n", "32", "--alpha=-7/5", "--format", "json"],
    ["compute", "--family", "bell-number", "--n", "40", "--format", "json"],
    ["table", "--family", "bell-euler", "--n-max", "24", "--alpha=2"],
    ["table", "--family", "euler", "--n-max", "32", "--alpha=-7/5"],
    ["table", "--family", "stirling2", "--n-max", "16"],
    ["table", "--family", "bivariate-bell", "--n-max", "24"],
    ["expand", "--mu", "2", "--", "-69/64*x^16 + 5/7*x^3 - 1/2"],
    ["expand", "--mu", "3", "--", "x^16 - 2/3*x"],
]

# accepted forms beyond the two above: separate values, negative numbers,
# a repeated flag, a value with a space, options after a positional, and a
# "--" after the one that ends the options
ACCEPTED_ARGV = [
    ["compute", "--family", "euler", "--alpha", "1", "--n", "2", "--format", "csv"],
    ["compute", "--n", "-1", "--family", "stirling2", "--k", "-2"],
    ["compute", "--family", "euler", "--n", "1", "--alpha", "-1"],
    ["compute", "--family", "euler", "--n", "1", "--alpha", "-1.5"],
    ["compute", "--family", "bell-number", "--n", "2", "--n=3"],
    ["compute", "--family=bell-number", "--n=+7", "--format=pretty"],
    ["verify", "--id", "T3_3", "--id=T3_4", "--n-max", "8", "--alphas", "0,1,2,3"],
    ["verify", "--all", "--parallel", "--alphas=-1,2", "--all"],
    ["verify"],
    ["expand", "x", "--mu", "1"],
    ["expand", "--mu", "1", "-x + 1"],
    ["expand", "--mu=-5/3", "--", "-x"],
    ["expand", "--mu", "1", "-"],
    ["expand", "--mu", "1", ""],
    ["expand", "--mu", "1", "--", "--"],
]

HELP_ARGV = [["--help"], ["-h"], ["compute", "-h"], ["table", "--help"],
             ["verify", "--id", "T3_3", "--help"], ["expand", "--help", "x"]]

MALFORMED_ARGV = [
    [],
    ["fibonacci"],
    ["--bogus"],
    ["compute"],
    ["compute", "--family", "fibonacci", "--n", "2"],
    ["compute", "--family", "euler", "--n", "two", "--alpha", "1"],
    ["compute", "--family", "euler", "--n", "2.0", "--alpha", "1"],
    ["compute", "--family", "euler", "--alpha", "1", "--n"],
    ["compute", "--family", "bell-number", "--n="],
    ["compute", "--family", "bell-number", "--n", "2", "--bogus", "1"],
    ["compute", "--family", "bell-number", "--n", "2", "extra"],
    ["compute", "--family", "bell-number", "--n", "2", "--format", "xml"],
    ["compute", "--family", "bell-number", "--n", "2", "--n-max", "2"],
    ["table", "--family", "euler", "--alpha", "1"],
    ["table", "--family", "stirling2", "--n-max", "2", "--k", "1"],
    ["verify", "--all=1"],
    ["verify", "--all", "--parallel=yes"],
    ["verify", "--id"],
    ["verify", "--n-max", "--all"],
    ["verify", "--all", "--", "--id", "T3_3"],
    ["expand", "--mu", "1"],
    ["expand", "x"],
    ["expand", "--mu", "1", "x", "y"],
    ["expand", "--mu", "1", "--", "x", "y"],
    ["expand", "--mu", "1", "-x+1"],
]

# values that start with "-" but are not numbers: both parsers refuse them,
# except an argparse that reads any "-<digit>..." token as a negative number
NEGATIVE_NON_NUMBER_ARGV = [
    ["compute", "--family", "euler", "--n", "2", "--alpha", "-5/3"],
    ["verify", "--id", "T3_3", "--n-max", "2", "--alphas", "-1,2"],
    ["expand", "--mu", "-5/3", "x"],
]

# the one known difference: argparse took an unambiguous prefix of a flag
ABBREVIATED_ARGV = [
    ["compute", "--fam", "bell-number", "--n", "5"],
    ["table", "--family", "stirling2", "--n-m", "4"],
    ["verify", "--all", "--par"],
    ["expand", "--m", "1", "x"],
]


def _oracle(parser, argv):
    """"help", "refused", or (handler, {dest: value}) from argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "refused"
    values = vars(namespace)
    values.pop("command")
    return values.pop("func"), values


def _table(argv):
    """The same outcome from ``cli.parse``."""
    try:
        handler, namespace = cli.parse(argv)
    except cli.UsageError:
        return "refused"
    return "help" if handler is cli._help else (handler, vars(namespace))


@pytest.fixture(scope="module")
def parser():
    return oracles.build_parser()


@pytest.mark.parametrize("corpus, kind", [
    (list(_invocations()), "parsed"), (BENCHMARK_ARGV, "parsed"),
    (ACCEPTED_ARGV, "parsed"), (HELP_ARGV, "help"), (MALFORMED_ARGV, "refused"),
], ids=["digest", "benchmark", "accepted", "help", "malformed"])
def test_table_parse_agrees_with_argparse(parser, corpus, kind):
    for argv in corpus:
        expected = _oracle(parser, argv)
        assert _table(argv) == expected, argv
        assert (expected if isinstance(expected, str) else "parsed") == kind, argv


def test_negative_non_numbers_are_refused(parser):
    # argparse refused these too until its releases that read any token
    # "-<digit>..." as a negative number; the oracle is consulted only where
    # it still refuses the first of them
    modern = _oracle(parser, NEGATIVE_NON_NUMBER_ARGV[0]) != "refused"
    for argv in NEGATIVE_NON_NUMBER_ARGV:
        assert _table(argv) == "refused", argv
        if not modern:
            assert _oracle(parser, argv) == "refused", argv
        equals = [*argv[:-3], f"{argv[-3]}={argv[-2]}", argv[-1]] \
            if argv[0] == "expand" else [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        assert _table(equals) == _oracle(parser, equals) != "refused", equals


def test_abbreviations_are_the_one_known_difference(parser):
    for argv in ABBREVIATED_ARGV:
        handler, values = _oracle(parser, argv)
        assert _table(argv) == "refused", argv
        # spelled out, the flag parses as argparse parsed its prefix
        full = [next(name for name in cli.COMMANDS[argv[0]][2]
                     if name.startswith(token)) if token.startswith("--") else token
                for token in argv]
        assert _table(full) == (handler, values), full


def test_a_cold_process_imports_no_argparse_gettext_or_locale():
    # pytest's pythonpath setting reaches this process only, so the child gets
    # this checkout's src first, ahead of any installed belleuler
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = "\n".join([
        "import contextlib, io, sys",
        "from belleuler import cli",
        "runs = [['compute', '--family', 'bell-euler', '--n', '6', '--alpha=-5/3'],",
        "        ['verify', '--id', 'T3_3', '--n-max', '2'],",
        "        ['expand', '--mu', '2', '--', '-x^3 + 1/2'],",
        "        ['compute', '--family', 'fibonacci', '--n', '2'],",
        "        ['compute', '--help']]",
        "with contextlib.redirect_stdout(io.StringIO()), \\",
        "        contextlib.redirect_stderr(io.StringIO()):",
        "    codes = [cli.main(argv) for argv in runs]",
        "print(codes, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 2, 0] []\n"
