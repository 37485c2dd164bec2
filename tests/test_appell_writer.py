"""The member writer of the CLI against the Poly it no longer builds.

`compute` and `table` write each member of the four Appell families straight
from its x = 0 rows (``cli._appell_text``).  Its bytes must be those of
``Poly.pretty``, of a compact ``json.dumps`` of ``Poly.to_json_map`` and of
the csv text, for the Poly that the library's generator builds, in every
family, at n <= 40, at integer and rational orders and block counts k <= 6."""

import csv
import io
import json

import pytest

from belleuler import cli
from belleuler import sequences as seq
from belleuler.algebra import parse_fraction

N_MAX = 40
ORDERS = ("0", "2", "-5/3", "7/2")
K_MAX = 6

# (CLI family, its flag as given, the generator's argument after n)
CASES = ([("bell-euler", f"--alpha={a}", seq.validate_order(parse_fraction(a)))
          for a in ORDERS]
         + [("euler", f"--alpha={a}", seq.validate_order(parse_fraction(a)))
            for a in ORDERS]
         + [("bivariate-bell", None, None)]
         + [("stirling2-poly", f"--k={k}", k) for k in range(K_MAX + 1)])
IDS = [f"{family}{'' if flag is None else flag.replace('--', ' ')}"
       for family, flag, _ in CASES]


def _member(family, n, param):
    params = () if param is None else (param,)
    return cli.FAMILIES[family].generator(n, *params), params


def _compute(run_cli, family, flag, n, fmt):
    argv = ["compute", "--family", family, "--n", str(n), "--format", fmt]
    code, out, _ = run_cli(*argv, *([] if flag is None else [flag]))
    assert code == 0, argv
    return out


@pytest.mark.parametrize("family, flag, param", CASES, ids=IDS)
def test_member_text_is_the_poly_text(family, flag, param):
    for n in range(N_MAX + 1):
        poly, params = _member(family, n, param)
        assert cli._value_text(family, n, params) == poly.pretty(), n
        assert cli._value_text(family, n, params, "json") == \
            json.dumps(poly.to_json_map(), separators=(",", ":")), n


@pytest.mark.parametrize("family, flag, param", CASES, ids=IDS)
def test_compute_prints_the_poly_text(run_cli, family, flag, param):
    # the deepest member in each format, through the command line
    poly, _ = _member(family, N_MAX, param)
    pretty = poly.pretty()
    assert _compute(run_cli, family, flag, N_MAX, "pretty") == pretty + "\n"
    assert _compute(run_cli, family, flag, N_MAX, "json") == \
        json.dumps(poly.to_json_map(), separators=(",", ":")) + "\n"
    assert _compute(run_cli, family, flag, N_MAX, "csv") == \
        f"n,value\n{N_MAX},{pretty}\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
@pytest.mark.parametrize("family, flag, param",
                         [case for case in CASES if case[0] != "stirling2-poly"],
                         ids=[i for i in IDS if not i.startswith("stirling2-poly")])
def test_table_prints_the_poly_text(run_cli, family, flag, param, fmt):
    values = [_member(family, n, param)[0].pretty() for n in range(N_MAX + 1)]
    argv = ["table", "--family", family, "--n-max", str(N_MAX), "--format", fmt]
    code, out, _ = run_cli(*argv, *([] if flag is None else [flag]))
    assert code == 0
    if fmt == "csv":
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [["n", "value"]] + [[n, v] for n, v in enumerate(values)])
        assert out == expected.getvalue()
    elif fmt == "json":
        assert out == json.dumps([{"n": n, "value": v} for n, v in enumerate(values)],
                                 separators=(",", ":")) + "\n"
    else:
        width = max(len(str(cell)) for n, v in enumerate(values) for cell in (n, v))
        assert out == "".join(f"{str(n).rjust(width)}  {v.rjust(width)}\n"
                              for n, v in enumerate(values))


def test_stirling2_poly_table_is_the_poly_text(run_cli):
    # the block-count table: one member per (n, k), k <= n-max
    n_max = 16
    code, out, _ = run_cli("table", "--family", "stirling2-poly",
                           "--n-max", str(n_max))
    assert code == 0
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [["n"] + [f"k={k}" for k in range(n_max + 1)]]
        + [[n] + [seq.stirling2_poly(n, k).pretty() for k in range(n_max + 1)]
           for n in range(n_max + 1)])
    assert out == expected.getvalue()


def test_table_leaves_the_member_memo_alone(run_cli, reset_tables):
    # the library's member memo serves the library and verify; a table
    # writes its members off the rows and keeps none of them
    reset_tables()
    code, _, _ = run_cli("table", "--family", "bell-euler", "--n-max", "24",
                         "--alpha=2")
    assert code == 0
    assert seq._bell_euler_poly.cache_info().currsize == 0
