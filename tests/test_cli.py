"""End-to-end CLI tests: golden outputs byte-for-byte, exit codes, and
deterministic serialization."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from belleuler import cli
from belleuler import sequences as seq
from belleuler.cli import parse_x_polynomial
from belleuler.algebra import Poly
from belleuler.identities import Grid
from fractions import Fraction as F

X = Poly.gen("x")

STIRLING_TABLE = (
    "n,k=0,k=1,k=2,k=3,k=4\n"
    "0,1,0,0,0,0\n"
    "1,0,1,0,0,0\n"
    "2,0,1,1,0,0\n"
    "3,0,1,3,1,0\n"
    "4,0,1,7,6,1\n"
)


class TestComputeGoldens:
    def test_bell_number(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "bell-number", "--n", "5")
        assert code == 0 and out == "52\n"

    def test_bell_euler_alpha_zero_pretty(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "bell-euler",
                               "--alpha", "0", "--n", "1", "--format", "pretty")
        assert code == 0 and out == "x + y\n"

    def test_bell_euler_json(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "bell-euler",
                               "--alpha", "1", "--n", "2", "--format", "json")
        # oracle-computed value: the convolution's +y and -y terms cancel
        assert code == 0
        assert out == '{"x^2":"1","x^1*y^1":"2","y^2":"1","x^1":"-1"}\n'

    def test_stirling_number_with_k(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "stirling2",
                               "--n", "4", "--k", "2")
        assert code == 0 and out == "7\n"

    def test_rational_alpha(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "euler",
                               "--alpha", "1/2", "--n", "0")
        assert code == 0 and out == "1\n"

    def test_number_json_is_quoted_string(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "bell-number",
                               "--n", "5", "--format", "json")
        assert code == 0 and out == '"52"\n'

    def test_csv_format(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "euler",
                               "--alpha", "1", "--n", "2", "--format", "csv")
        assert code == 0 and out == "n,value\n2,x^2 - x\n"


class TestTableGoldens:
    def test_stirling_triangle(self, run_cli):
        code, out, _ = run_cli("table", "--family", "stirling2", "--n-max", "4")
        assert code == 0 and out == STIRLING_TABLE

    def test_euler_table(self, run_cli):
        code, out, _ = run_cli("table", "--family", "euler",
                               "--alpha", "1", "--n-max", "2")
        assert code == 0 and out == "n,value\n0,1\n1,x - 1/2\n2,x^2 - x\n"

    def test_single_row(self, run_cli):
        code, out, _ = run_cli("table", "--family", "bell-number", "--n-max", "0")
        assert code == 0 and out == "n,value\n0,1\n"

    def test_json_table(self, run_cli):
        code, out, _ = run_cli("table", "--family", "bell-number",
                               "--n-max", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"n": 0, "value": "1"}, {"n": 1, "value": "1"},
            {"n": 2, "value": "2"}, {"n": 3, "value": "5"}]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_as_they_are_built(self, run_cli, capsys,
                                                monkeypatch, fmt):
        # when row n is built, rows 0..n-1 are already on stdout: for json,
        # "[" and the first n rows' compact dumps, joined by ","
        argv = ("table", "--family", "bell-number", "--n-max", "5",
                "--format", fmt)
        code, full, _ = run_cli(*argv)
        assert code == 0
        if fmt == "csv":
            lines = full.splitlines(keepends=True)
            prefixes = ["".join(lines[:n + 1]) for n in range(6)]
        else:
            dumps = [json.dumps(row, separators=(",", ":"))
                     for row in json.loads(full)]
            prefixes = ["[" + ",".join(dumps[:n]) for n in range(6)]
        written = []

        def spy(n):
            written.append(capsys.readouterr().out)
            return seq.bell_number(n)

        monkeypatch.setitem(cli.FAMILIES, "bell-number",
                            cli.FAMILIES["bell-number"]._replace(generator=spy))
        code, rest, _ = run_cli(*argv)
        assert code == 0
        assert ["".join(written[:n + 1]) for n in range(6)] == prefixes
        assert "".join(written) + rest == full


class TestExpandGoldens:
    def test_expand_x(self, run_cli):
        code, out, _ = run_cli("expand", "--mu", "1", "x")
        assert code == 0
        assert out == '{"mu":1,"coeffs":["1/2 - y","1"],"residual":"0"}\n'

    def test_expand_constant(self, run_cli):
        code, out, _ = run_cli("expand", "--mu", "1", "1")
        assert code == 0
        assert out == '{"mu":1,"coeffs":["1"],"residual":"0"}\n'

    def test_expand_cubic_residual_zero(self, run_cli):
        code, out, _ = run_cli("expand", "--mu", "2", "x^3 - 2/3")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == "0"
        assert len(payload["coeffs"]) == 4

    @pytest.mark.parametrize("mu", ["1/2", "-5/3"])
    def test_expand_rational_order(self, run_cli, mu):
        code, out, _ = run_cli("expand", f"--mu={mu}", "x^4 - 2/3*x + 5")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == mu and payload["residual"] == "0"
        assert len(payload["coeffs"]) == 5

    def test_expand_inexact_order(self, run_cli):
        code, out, err = run_cli("expand", "--mu", "1.5", "x")
        assert code == 2 and out == "" and "1.5" in err


class TestFamilyTable:
    FLAG_VALUES = {"alpha": "--alpha=1", "k": "--k=1"}

    def test_dispatch(self):
        assert cli.FAMILIES["bell-number"].generator(5) == 52
        assert cli.FAMILIES["euler"].generator(2, 1) == X**2 - X
        assert cli.FAMILIES["stirling2"].generator(4, 2) == 7
        assert cli.FAMILIES["bell-euler-number"].generator(0, 3) == 1
        assert {name: cli.FAMILIES[name].flag for name in cli.FAMILIES} == {
            "bell-number": None, "bell-poly": None, "bivariate-bell": None,
            "euler": "alpha", "euler-number": "alpha", "bell-euler": "alpha",
            "bell-euler-number": "alpha", "stirling2": "k", "stirling2-poly": "k"}

    def test_rows_match_the_generators(self):
        # each row's flag is its generator's parameter after n, if any, and
        # exactly the four Appell families carry a form
        after_n = {name: [*inspect.signature(row.generator).parameters, None][1]
                   for name, row in cli.FAMILIES.items()}
        assert after_n == {name: row.flag for name, row in cli.FAMILIES.items()}
        assert {name for name, row in cli.FAMILIES.items() if row.form is not None} == {
            "bell-euler", "bivariate-bell", "euler", "stirling2-poly"}

    # an Appell family, its flag as given and the generator's argument after n
    APPELL_CASES = {"bell-euler": ("--alpha=-5/3", F(-5, 3)), "euler": ("--alpha=7/2", F(7, 2)),
                    "bivariate-bell": (None, None), "stirling2-poly": ("--k=2", 2)}

    def test_appell_families_are_written_off_their_forms(self, run_cli, monkeypatch):
        # the bytes of compute in each format, and of a csv table, as the
        # generator's Poly writes them; with every Appell row's generator a
        # spy that raises, the form alone must give them
        def csv(rows):
            return "".join(",".join(map(str, row)) + "\n" for row in rows)
        runs = {}
        for name, (given, param) in self.APPELL_CASES.items():
            generator = cli.FAMILIES[name].generator
            flag, params = ([], ()) if given is None else ([given], (param,))
            poly = generator(7, *params)
            compute = ("compute", "--family", name, "--n", "7", *flag)
            runs[(*compute, "--format", "pretty")] = poly.pretty() + "\n"
            runs[(*compute, "--format", "json")] = json.dumps(
                poly.to_json_map(), separators=(",", ":")) + "\n"
            runs[(*compute, "--format", "csv")] = csv([("n", "value"), (7, poly.pretty())])
            table = ("table", "--family", name, "--n-max", "6")
            if name == "stirling2-poly":   # table takes no --k: k = 0..6 are columns
                runs[table] = csv([("n", *(f"k={k}" for k in range(7)))] + [
                    (n, *(generator(n, k).pretty() for k in range(7))) for n in range(7)])
            else:
                runs[(*table, *flag)] = csv([("n", "value")] + [
                    (n, generator(n, *params).pretty()) for n in range(7)])

        def refuse(*args):
            raise AssertionError("an Appell family called its generator")
        for name in self.APPELL_CASES:
            monkeypatch.setitem(cli.FAMILIES, name,
                                cli.FAMILIES[name]._replace(generator=refuse))
        for argv, out in runs.items():
            assert run_cli(*argv) == (0, out, ""), argv

    @pytest.mark.parametrize("flag", ["alpha", "k"])
    def test_presence_enforced(self, run_cli, flag):
        # a family needs its own flag and refuses any other
        for name in cli.FAMILIES:
            own = cli.FAMILIES[name].flag
            if own == flag:
                given, message = [], f"needs --{flag}"
            else:
                given = [self.FLAG_VALUES[f] for f in (own, flag) if f]
                message = f"does not take --{flag}"
            code, out, err = run_cli("compute", "--family", name, "--n", "2", *given)
            assert code == 2 and out == "" and message in err, (name, flag)

    def test_negative_n_rejected(self, run_cli):
        for name in cli.FAMILIES:
            own = cli.FAMILIES[name].flag
            given = [self.FLAG_VALUES[own]] if own else []
            code, out, err = run_cli("compute", "--family", name, "--n", "-1", *given)
            assert code == 2 and out == "" and "non-negative" in err, name


class TestPolynomialLiteralParsing:
    def test_forms(self):
        assert parse_x_polynomial("x") == X
        assert parse_x_polynomial("1") == Poly.constant(1)
        assert parse_x_polynomial("x^3 - 2/3") == X**3 - F(2, 3)
        assert parse_x_polynomial("-x + 1/2") == -X + F(1, 2)
        assert parse_x_polynomial("3/2*x^2 - x") == F(3, 2) * X**2 - X
        assert parse_x_polynomial("2x") == 2 * X

    @pytest.mark.parametrize("bad", ["", "y", "x^", "x**2", "1.5", "x + z", "--x"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(Exception):
            parse_x_polynomial(bad)

    def test_tokens_of_one_power_sum(self):
        assert parse_x_polynomial("x^2 + 1/2 - x^2 + 2x - 1/2 - x") == X
        assert parse_x_polynomial("x - x") == Poly.zero()
        assert parse_x_polynomial("0*x^3 + 1") == Poly.constant(1)

    def test_errors_come_in_token_order(self):
        over = f"x^{cli.MAX_EXPAND_DEGREE + 1}"
        with pytest.raises(cli.UsageError, match="degree"):
            parse_x_polynomial(f"{over} + y")
        with pytest.raises(cli.UsageError, match="term 'y'"):
            parse_x_polynomial(f"y + {over}")


class TestVerify:
    def test_single_identity(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "T3_3", "--n-max", "8",
                               "--alphas", "0,1,2,3")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["id"] == "T3_3"
        assert reports[0]["pass"] is True
        assert reports[0]["checked"] == 36

    def test_negative_control_exits_1(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "T4_4_literal")
        assert code == 1
        report = json.loads(out)[0]
        assert report["pass"] is False
        assert report["counterexample"]["params"]["n"] == 1

    def test_all_excludes_negative_control(self, run_cli):
        code, out, _ = run_cli("verify", "--all", "--n-max", "6")
        assert code == 0
        reports = json.loads(out)
        ids = [r["id"] for r in reports]
        assert "T4_4_literal" not in ids
        assert {"T3_3", "T4_1", "T5_2", "orthogonality", "integral",
                "multinomial", "roundtrip"} <= set(ids)
        assert all(r["pass"] for r in reports)

    def test_parallel_matches_sequential(self, run_cli):
        strip = lambda text: [
            {k: v for k, v in r.items() if k != "elapsed_ms"}
            for r in json.loads(text)]
        _, sequential, _ = run_cli("verify", "--all", "--n-max", "4")
        _, parallel, _ = run_cli("verify", "--all", "--n-max", "4", "--parallel")
        assert strip(sequential) == strip(parallel)

    def test_rational_alphas_accepted(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "T3_3", "--n-max", "3",
                               "--alphas", "1/2,-3/2")
        assert code == 0 and json.loads(out)[0]["pass"] is True

    def test_non_integer_alphas_accepted_by_every_check(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "T3_3", "--id", "multinomial",
                               "--n-max", "2", "--alphas", "1/2")
        assert code == 0
        assert [(r["id"], r["pass"]) for r in json.loads(out)] == [
            ("T3_3", True), ("multinomial", True)]

    @pytest.mark.parametrize("selection, alphas", [(("--all",), "-1,2"),
                                                   (("--id", "multinomial"), "0")])
    def test_multinomial_orders_below_one_accepted(self, run_cli, selection, alphas):
        code, out, _ = run_cli("verify", *selection, "--n-max", "3", f"--alphas={alphas}")
        reports = json.loads(out)
        assert code == 0 and all(r["pass"] for r in reports)
        assert "multinomial" in [r["id"] for r in reports]


class TestNegativeOrders:
    # a separate value may start with "-" only as a negative number, so "-5/3"
    # and "-1,2" need the = form
    def test_alpha_equals_form(self, run_cli):
        code, out, _ = run_cli("compute", "--family", "euler", "--alpha=-5/3",
                               "--n", "2")
        assert code == 0 and out == "x^2 + 5/3*x + 10/9\n"
        code, out, _ = run_cli("table", "--family", "euler", "--alpha=-5/3",
                               "--n-max", "1")
        assert code == 0 and out == "n,value\n0,1\n1,x + 5/6\n"

    def test_alphas_equals_form(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "T3_3", "--n-max", "2",
                               "--alphas=-1,2")
        report, = json.loads(out)
        assert code == 0 and report["pass"] is True and report["checked"] == 6

    def test_separate_negative_rational_is_read_as_an_option(self, run_cli):
        code, out, err = run_cli("compute", "--family", "euler", "--alpha", "-5/3",
                                 "--n", "2")
        assert code == 2 and out == ""
        assert err == "error: argument --alpha: expected one argument\n"
        # "--" ends the options, but not for a flag's value
        code, out, err = run_cli("expand", "--mu", "--", "-5/3", "x")
        assert code == 2 and out == "" and "expected one argument" in err


class TestUsageErrors:
    def test_missing_alpha(self, run_cli):
        code, _, err = run_cli("compute", "--family", "euler", "--n", "2")
        assert code == 2 and "alpha" in err

    def test_unwanted_alpha(self, run_cli):
        code, _, err = run_cli("compute", "--family", "bell-number",
                               "--n", "2", "--alpha", "1")
        assert code == 2 and "alpha" in err

    def test_inexact_alpha(self, run_cli):
        code, _, err = run_cli("compute", "--family", "euler",
                               "--n", "2", "--alpha", "1.5")
        assert code == 2 and "1.5" in err

    def test_missing_k(self, run_cli):
        code, _, err = run_cli("compute", "--family", "stirling2", "--n", "4")
        assert code == 2 and "--k" in err

    @pytest.mark.parametrize("command", [
        ("table", "--n-max", "2"), ("compute", "--n", "2", "--k", "1")])
    def test_stirling_rejects_alpha(self, run_cli, command):
        # table and compute share one --alpha check
        code, out, err = run_cli(*command, "--family", "stirling2", "--alpha", "1")
        assert code == 2 and out == "" and "does not take --alpha" in err

    def test_table_missing_alpha(self, run_cli):
        code, out, err = run_cli("table", "--family", "euler", "--n-max", "2")
        assert code == 2 and out == "" and "needs --alpha" in err

    def test_id_and_all_together_rejected_before_any_check(self, run_cli, monkeypatch):
        calls = []
        for check_id in list(cli.REGISTRY):
            monkeypatch.setitem(cli.REGISTRY, check_id, calls.append)
        code, out, err = run_cli("verify", "--all", "--id", "T4_4_literal")
        assert code == 2 and out == "" and "not both" in err
        assert calls == []

    def test_order_grid_reaches_T4_1_and_integral(self, run_cli, monkeypatch):
        # both checks read their orders from --alphas, so every member they
        # build has order 7/2 (or 7 = 7/2 + 7/2 on T4_1's left side)
        orders = set()
        member = seq.bell_euler_poly

        def recording(n, a):
            orders.add(a)
            return member(n, a)

        monkeypatch.setattr(seq, "bell_euler_poly", recording)
        code, out, _ = run_cli("verify", "--id", "T4_1", "--id", "integral",
                               "--n-max", "1", "--alphas=7/2")
        assert code == 0
        assert [(r["id"], r["pass"], r["checked"]) for r in json.loads(out)] == [
            ("T4_1", True, 2), ("integral", True, 12)]
        assert orders == {F(7, 2), 7}

    def test_unknown_identity(self, run_cli):
        code, _, err = run_cli("verify", "--id", "T9_9")
        assert code == 2 and "T9_9" in err

    def test_verify_without_selection(self, run_cli):
        code, _, err = run_cli("verify")
        assert code == 2

    def test_bad_polynomial_literal(self, run_cli):
        code, _, err = run_cli("expand", "--mu", "1", "x + w")
        assert code == 2

    @pytest.mark.parametrize("literal", ["1/0*x", "x^2 - 3/00", "-2/0"])
    def test_zero_denominator_literal(self, run_cli, literal):
        code, out, err = run_cli("expand", "--mu", "1", "--", literal)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("check_id, n_max", [("integral", "-1"),
                                                 ("orthogonality", "0")])
    def test_verify_n_max_below_one(self, run_cli, monkeypatch, check_id, n_max):
        calls = []
        monkeypatch.setitem(cli.REGISTRY, check_id, calls.append)
        code, out, err = run_cli("verify", "--id", check_id, "--n-max", n_max)
        assert code == 2 and out == "" and "n_max must be at least 1" in err
        assert calls == []

    def test_compute_n_over_the_limit(self, run_cli, monkeypatch):
        calls = []
        monkeypatch.setitem(cli.FAMILIES, "bell-number",
                            cli.FAMILIES["bell-number"]._replace(generator=calls.append))
        code, out, err = run_cli("compute", "--family", "bell-number",
                                 "--n", str(cli.MAX_COMPUTE_N + 1))
        assert code == 2 and out == "" and "over the limit" in err
        assert calls == []

    def test_table_n_max_over_the_limit(self, run_cli, monkeypatch):
        calls = []
        monkeypatch.setitem(cli.FAMILIES, "stirling2",
                            cli.FAMILIES["stirling2"]._replace(generator=calls.append))
        code, out, err = run_cli("table", "--family", "stirling2",
                                 "--n-max", str(cli.MAX_TABLE_N + 1))
        assert code == 2 and out == "" and "over the limit" in err
        assert calls == []

    def test_table_negative_n_max(self, run_cli, monkeypatch):
        calls = []
        monkeypatch.setitem(cli.FAMILIES, "stirling2",
                            cli.FAMILIES["stirling2"]._replace(generator=calls.append))
        code, out, err = run_cli("table", "--family", "stirling2", "--n-max", "-1")
        assert code == 2 and out == ""
        assert err == "error: --n-max must be a non-negative int, got -1\n"
        assert calls == []

    def test_verify_empty_alphas_list(self, run_cli, monkeypatch):
        calls = []
        for check_id in list(cli.REGISTRY):
            monkeypatch.setitem(cli.REGISTRY, check_id, calls.append)
        code, out, err = run_cli("verify", "--all", "--alphas=,")
        assert code == 2 and out == "" and err == "error: empty --alphas list\n"
        assert calls == []

    def test_verify_n_max_over_the_limit(self, run_cli, monkeypatch):
        calls = []
        for check_id in list(cli.REGISTRY):
            monkeypatch.setitem(cli.REGISTRY, check_id, calls.append)
        code, out, err = run_cli("verify", "--all",
                                 "--n-max", str(cli.MAX_VERIFY_N + 1))
        assert code == 2 and out == "" and "over the limit" in err
        assert calls == []

    def test_expand_degree_over_the_limit(self, run_cli, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "expand_in_appell", lambda *args: calls.append(args))
        code, out, err = run_cli("expand", "--mu", "1",
                                 f"x^{cli.MAX_EXPAND_DEGREE + 1} - x")
        assert code == 2 and out == "" and "over the limit" in err
        assert calls == []

    def test_verify_alphas_longer_than_the_limit(self, run_cli, monkeypatch):
        calls = []
        for check_id in list(cli.REGISTRY):
            monkeypatch.setitem(cli.REGISTRY, check_id, calls.append)
        orders = ",".join(["1"] * (cli.MAX_VERIFY_ALPHAS + 1))
        code, out, err = run_cli("verify", "--all", "--n-max", "2",
                                 f"--alphas={orders}")
        assert code == 2 and out == "" and "over the limit" in err
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("compute", "--family", "bell-euler", "--n", "256",
         "--alpha=1/10000000000000000"),
        ("table", "--family", "euler", "--n-max", "4", "--alpha=-10007/3"),
        ("expand", "--mu=12345", "x"),
        # a literal's summed coefficient at each power is bounded as --mu is
        ("expand", "--mu=-5/3", "--", "12345*x^2 + 1"),
        ("expand", "--mu=-5/3", "--", "x^2 - 1/10007*x"),
        ("expand", "--mu=-5/3", "--", "5000*x + 5001*x"),
    ], ids=["compute", "table", "expand", "expand-literal-numerator",
            "expand-literal-denominator", "expand-literal-summed"])
    def test_order_with_too_many_digits_refused_before_any_work(
            self, run_cli, monkeypatch, argv):
        calls = []

        def spy(n, alpha):
            calls.append((n, alpha))
        for family in ("bell-euler", "euler"):
            monkeypatch.setitem(cli.FAMILIES, family,
                                cli.FAMILIES[family]._replace(generator=spy, form=spy))
        monkeypatch.setattr(cli, "expand_in_appell", lambda *args: calls.append(args))
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and "digit count" in err
        assert calls == []

    def test_order_at_the_digit_limit_accepted(self, run_cli):
        top = "9" * cli.MAX_ORDER_DIGITS
        alpha = F(-int(top), int(top) - 1)
        code, out, _ = run_cli("compute", "--family", "bell-euler", "--n", "3",
                               f"--alpha={alpha}")
        assert code == 0 and out == seq.bell_euler_poly(3, alpha).pretty() + "\n"
        code, out, _ = run_cli("expand", f"--mu={alpha}", "x^3 - 2/3")
        assert code == 0 and json.loads(out)["residual"] == "0"
        literal = f"{top}*x^2 - 1/{top}*x - {-alpha}"
        assert parse_x_polynomial(literal) == int(top) * X**2 - X / int(top) + alpha
        code, out, _ = run_cli("expand", f"--mu={alpha}", "--", literal)
        assert code == 0 and json.loads(out)["residual"] == "0"

    def test_verify_orders_are_not_bounded_by_digits(self, run_cli):
        code, out, _ = run_cli("verify", "--id", "multinomial", "--n-max", "4",
                               "--alphas=1000000000")
        assert code == 0 and json.loads(out)[0]["pass"] is True

    def test_limits_cover_the_benchmark_sizes(self):
        # compute n 40, table n-max 32, verify n-max 10, expand degree 16
        assert cli.MAX_COMPUTE_N >= 40 and cli.MAX_TABLE_N >= 32
        assert cli.MAX_VERIFY_N >= 10 and cli.MAX_EXPAND_DEGREE >= 16
        # the default grids use at most four orders
        assert cli.MAX_VERIFY_ALPHAS >= 4

    @pytest.mark.parametrize("grid", [Grid(n_max=0), Grid(n_max=-1), Grid(alphas=())],
                             ids=["n_max=0", "n_max=-1", "alphas=()"])
    def test_every_registry_check_rejects_an_empty_grid(self, grid):
        assert len(cli.REGISTRY) == 15
        ran = []
        for check_id, check in cli.REGISTRY.items():
            try:
                check(grid)
            except ValueError:
                continue
            ran.append(check_id)
        assert ran == []

    def test_unknown_family_is_argparse_error(self, run_cli):
        # refused as argparse refused it, but main returns 2: no SystemExit
        code, out, err = run_cli("compute", "--family", "fibonacci", "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: argument --family: invalid choice: 'fibonacci'")


class TestParserReuse:
    """main reads one parse table, built at import; every call parses into a
    fresh namespace and behaves as the first call of a process would."""

    def test_main_builds_the_parser_once(self, run_cli):
        table = cli.COMMANDS
        before = repr(table)
        assert run_cli("compute", "--family", "bell-number", "--n", "5")[:2] == (0, "52\n")
        assert run_cli("table", "--family", "stirling2", "--n-max", "4")[:2] \
            == (0, STIRLING_TABLE)
        assert run_cli("verify", "--id", "T3_3", "--id", "T3_4", "--n-max", "2")[0] == 0
        assert run_cli("expand", "--mu", "1", "x")[0] == 0
        assert cli.COMMANDS is table and repr(table) == before
        # each parse returns a new namespace, and a new list for --id
        argv = ["verify", "--id", "T3_3"]
        (_, first), (_, second) = cli.parse(argv), cli.parse(argv)
        assert first is not second and first.id is not second.id
        assert first.id == second.id == ["T3_3"]

    def test_usage_error_after_a_successful_command(self, run_cli):
        argv = ("compute", "--family", "fibonacci", "--n", "2")
        fresh = run_cli(*argv)
        assert run_cli("compute", "--family", "bell-number", "--n", "5")[0] == 0
        reused = run_cli(*argv)
        assert reused == fresh
        assert reused[:2] == (2, "") and "invalid choice: 'fibonacci'" in reused[2]
        # a later call parses into a fresh namespace: nothing leaks across
        assert run_cli("compute", "--family", "bell-number", "--n", "5")[:2] == (0, "52\n")

    @pytest.mark.parametrize("command", [[], ["compute"], ["table"], ["verify"],
                                         ["expand"]])
    def test_help_text_matches_a_fresh_parser(self, run_cli, command):
        fresh = run_cli(*command, "--help")
        run_cli("compute", "--family", "bell-number", "--n", "5")
        assert run_cli(*command, "--help") == run_cli(*command, "-h") == fresh
        code, out, err = fresh
        assert code == 0 and err == "" and out.startswith("usage: belleuler")
        # it names every command, or every flag of its command, that the
        # argparse parser this table replaced knew
        subparsers = next(action.choices for action in oracles.build_parser()._actions
                          if action.dest == "command")
        if command:
            names = [option for action in subparsers[command[0]]._actions
                     for option in action.option_strings or [action.dest]]
        else:
            names = list(subparsers)
        assert names and all(name in out for name in names), names


class TestDeterminism:
    def test_compute_bytes_stable(self, run_cli):
        first = run_cli("compute", "--family", "bell-euler", "--alpha", "2",
                        "--n", "4", "--format", "json")
        second = run_cli("compute", "--family", "bell-euler", "--alpha", "2",
                         "--n", "4", "--format", "json")
        assert first == second

    def test_table_bytes_stable(self, run_cli):
        first = run_cli("table", "--family", "bell-poly", "--n-max", "5")
        second = run_cli("table", "--family", "bell-poly", "--n-max", "5")
        assert first == second


def test_module_invocation_subprocess():
    # pytest's pythonpath setting reaches this process only, so the child gets
    # this checkout's src first, ahead of any installed belleuler
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "belleuler", "compute",
         "--family", "bell-number", "--n", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout == "52\n"
