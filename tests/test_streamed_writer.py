"""One spelling path, its edge cases, and the streamed `compute`.

Every polynomial's text is spelled by ``algebra._pretty_terms`` or
``algebra._json_terms``: ``Poly.pretty``, ``Poly.to_json_map``, and the
member writer of the CLI (``cli._appell_text``), which hands the speller one
block per x = 0 row.  The writer's bytes are held to ``Poly``'s formatters
for the Poly that ``sequences._appell`` builds from the same form, in the
cases the family tests of test_appell_writer.py do not reach, and `compute`
is checked to write a large member in pieces."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import belleuler
from belleuler import algebra, cli
from belleuler import sequences as seq
from belleuler.algebra import Poly


class Spelled(Exception):
    """Raised by a patched speller, so that a caller that reaches it fails."""


def _refuse(name):
    def speller(*args):
        raise Spelled(name)
    return speller


X, Y = Poly.gens("x", "y")
POLY_TEXT = {"pretty": lambda: (X - Y / 3).pretty(),
             "json": lambda: (X - Y / 3).to_json_map()}
COMPUTE = {
    ("bell-euler", "pretty"): ("--alpha=-5/3",),
    ("bell-euler", "csv"): ("--alpha=-5/3",),
    ("bell-euler", "json"): ("--alpha=-5/3",),
    ("stirling2-poly", "pretty"): ("--k=2",),
    ("stirling2-poly", "json"): ("--k=2",),
    ("bell-poly", "pretty"): (),     # a Poly, written by its own formatters
    ("bell-poly", "csv"): (),
    ("bell-poly", "json"): (),
}


def _speller_of(fmt):
    return "_json_terms" if fmt == "json" else "_pretty_terms"


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_poly_formatters_reach_the_speller(monkeypatch, fmt):
    monkeypatch.setattr(algebra, _speller_of(fmt), _refuse(fmt))
    with pytest.raises(Spelled):
        POLY_TEXT[fmt]()


@pytest.mark.parametrize("family, fmt", list(COMPUTE),
                         ids=[f"{f}-{fmt}" for f, fmt in COMPUTE])
def test_compute_reaches_the_speller(monkeypatch, family, fmt):
    # with the speller of the format refused, compute cannot write the member
    monkeypatch.setattr(algebra, _speller_of(fmt), _refuse(fmt))
    with pytest.raises(Spelled):
        cli.main(["compute", "--family", family, "--n", "5",
                  *COMPUTE[family, fmt], "--format", fmt])


@pytest.mark.parametrize("family, flag", [("bell-euler", "--alpha=2"),
                                          ("bivariate-bell", None)])
def test_csv_table_reaches_the_speller(monkeypatch, family, flag):
    monkeypatch.setattr(algebra, "_pretty_terms", _refuse("pretty"))
    with pytest.raises(Spelled):
        cli.main(["table", "--family", family, "--n-max", "3",
                  *([] if flag is None else [flag])])


def _poly_texts(poly):
    return poly.pretty(), json.dumps(poly.to_json_map(), separators=(",", ":"))


def _writer_texts(n, row, scale):
    return tuple("".join(cli._appell_text(n, row, scale, fmt))
                 for fmt in ("pretty", "json"))


# (n, row, scale) forms that no family of the CLI gives, each row Z_m of
# degree <= m in y, as in every Appell form: the first term of the first
# two is negative, and the last two write coefficients of +-1 beside a
# monomial, where the 1 is left out, among zero entries
FORMS = {
    "negative first term": (4, lambda m: (-3, 2, -1)[:m + 1], 5),
    "-1 beside x^n": (3, lambda m: (-1, m, 0, -m)[:m + 1], 1),
    "+-1 beside y": (3, lambda m: (0, -1, 1, -1) if m == 3 else (1,) + (0,) * m, 1),
    "+-1 over a scale": (4, lambda m: (-(2 ** m), 0, 2 ** m, 3)[:m + 1], 2),
}


@pytest.mark.parametrize("n, row, scale", list(FORMS.values()), ids=list(FORMS))
def test_writer_is_the_poly_text_on_hand_made_forms(n, row, scale):
    poly = seq._appell(n, row, scale)
    assert _writer_texts(n, row, scale) == _poly_texts(poly)


def test_negative_first_term_is_written_as_poly_writes_it():
    pretty, text = _writer_texts(*FORMS["negative first term"])
    assert pretty.startswith("-3*x^4 ") and text.startswith('{"x^4":"-3"')
    assert _writer_texts(*FORMS["-1 beside x^n"])[0].startswith("-x^3 ")


@pytest.mark.parametrize("family, params", [
    ("bell-euler", (0,)), ("bell-euler", (Fraction(-5, 3),)), ("euler", (Fraction(7, 2),)),
    ("bivariate-bell", ()), ("stirling2-poly", (0,)), ("stirling2-poly", (2,))])
def test_degree_zero_member(family, params):
    poly = cli.FAMILIES[family].generator(0, *params)
    assert (cli._value_text(family, 0, params),
            cli._value_text(family, 0, params, "json")) == _poly_texts(poly)


def test_all_zero_member(run_cli):
    # S2(m, 5) = 0 for every m <= 3: no term at all
    assert cli._value_text("stirling2-poly", 3, (5,)) == "0"
    assert cli._value_text("stirling2-poly", 3, (5,), "json") == "{}"
    assert _poly_texts(seq.stirling2_poly(3, 5)) == ("0", "{}")
    for fmt, out in (("pretty", "0\n"), ("json", "{}\n"), ("csv", "n,value\n3,0\n")):
        assert run_cli("compute", "--family", "stirling2-poly", "--n", "3",
                       "--k", "5", "--format", fmt) == (0, out, "")


@pytest.mark.parametrize("alpha", ["0", "-9973/9967"])
def test_zero_entries_and_four_digit_order(alpha):
    # order 0 has a zero at y^0 in every row past the first; a four-digit
    # order has coefficients of hundreds of digits over many denominators
    order = seq.validate_order(Fraction(alpha))
    if alpha == "0":
        assert 0 in seq.bell_euler_form(8, order)[0](5)
    for n in (1, 8, 24):
        poly = seq.bell_euler_poly(n, order)
        assert (cli._value_text("bell-euler", n, (order,)),
                cli._value_text("bell-euler", n, (order,), "json")) == _poly_texts(poly)


class Chunks:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "pretty", "csv"])
def test_compute_streams_a_large_member(monkeypatch, fmt):
    # n 64 has 2,145 terms: 65 row blocks in pretty, three runs in json
    n, alpha = 64, Fraction(-5, 3)
    poly = seq.bell_euler_poly(n, alpha)
    expected = {"json": json.dumps(poly.to_json_map(), separators=(",", ":")),
                "pretty": poly.pretty(),
                "csv": f"n,value\n{n},{poly.pretty()}"}[fmt] + "\n"
    out = Chunks()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["compute", "--family", "bell-euler", "--n", str(n),
                     "--alpha=-5/3", "--format", fmt]) == 0
    assert "".join(out.writes) == expected
    value_writes = [w for w in out.writes if w not in ("\n", f"n,value\n{n},")]
    assert len(value_writes) > 1


@pytest.mark.parametrize("argv", [
    ["--family", "bell-euler", "--n", "9999", "--alpha=2"],
    ["--family", "stirling2-poly", "--n", "3", "--k=-1"],
    ["--family", "euler", "--n", "3", "--alpha=1/0"],
])
@pytest.mark.parametrize("fmt", ["json", "pretty", "csv"])
def test_refused_compute_writes_nothing(monkeypatch, capsys, argv, fmt):
    # the block count k is checked by the family's form, after the flags
    out = Chunks()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["compute", *argv, "--format", fmt]) == 2
    assert out.writes == []
    assert capsys.readouterr().err.startswith("error: ")


# runs a command with stdout to /dev/null and prints its exit status and its
# peak RSS; this small process spawns it, so that the child's ru_maxrss
# holds none of a larger parent's pages
SPAWN = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(status, usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_deepest_member_stays_under_200_mb():
    # the slowest member compute accepts: a four-digit order at MAX_COMPUTE_N,
    # whose 104 MB of json would take over 300 MB if held whole
    env = dict(os.environ, PYTHONPATH=str(Path(belleuler.__file__).parents[1]))
    argv = [sys.executable, "-m", "belleuler", "compute", "--family", "bell-euler",
            "--n", str(cli.MAX_COMPUTE_N), "--alpha=-9973/9967", "--format", "json"]
    run = subprocess.run([sys.executable, "-c", SPAWN, *argv], env=env,
                         capture_output=True, text=True, check=True)
    status, peak_kib = map(int, run.stdout.split())
    assert status == 0
    assert peak_kib < 200 * 1024
