"""The identity registry: every check passes on its default grid, grids are
overridable, and the negative control fails exactly as documented."""

from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest

from belleuler import sequences as seq
from belleuler.algebra import Poly
from belleuler.identities import (
    CHECKS,
    Counterexample,
    Grid,
    IdentityReport,
    NEGATIVE_CONTROLS,
    _stirling_weight,
    check_T3_3,
    check_T3_4,
    check_T4_1,
    check_T4_3,
    check_T4_4_corrected,
    check_T4_4_literal,
    check_T5_1,
)

POSITIVE_IDS = [i for i in CHECKS if i not in NEGATIVE_CONTROLS]


@pytest.mark.parametrize("check_id", POSITIVE_IDS)
def test_default_grids_pass(check_id):
    report = CHECKS[check_id]()
    assert report.passed, report.counterexample
    assert report.counterexample is None
    assert report.checked > 0
    assert report.elapsed >= 0


def test_T3_3_grid_size():
    report = CHECKS["T3_3"]()
    assert report.checked == 36   # n in 0..8 times four orders


def test_grid_override():
    report = CHECKS["T3_4"](Grid(n_max=3, alphas=(0, 2)))
    assert report.passed and report.checked == 8


def test_rational_alpha_grid():
    report = CHECKS["T3_5"](Grid(n_max=4, alphas=(F(1, 2), F(-3, 2))))
    assert report.passed and report.checked == 10


def test_grid_validation():
    with pytest.raises(ValueError):
        CHECKS["T3_3"](Grid(n_max=0))
    with pytest.raises(ValueError):
        CHECKS["T3_3"](Grid(alphas=()))


class TestNegativeControl:
    def test_literal_fails_at_n_1(self):
        report = check_T4_4_literal()
        assert not report.passed
        assert report.counterexample is not None
        assert report.counterexample.params["n"] == 1
        assert report.counterexample.lhs != report.counterexample.rhs

    def test_literal_report_serialization(self):
        payload = check_T4_4_literal().to_json_dict()
        assert payload["pass"] is False
        assert payload["counterexample"]["params"]["n"] == 1
        assert payload["counterexample"]["lhs"]
        assert payload["counterexample"]["rhs"]
        assert payload["elapsed_ms"] >= 0

    def test_corrected_form_passes(self):
        assert check_T4_4_corrected().passed


def test_T4_1_alpha_pairs_override():
    # the order pairs are the grid's orders squared: 4 pairs at each n <= 3
    report = check_T4_1(Grid(n_max=3, alphas=(0, F(7, 2))))
    assert report.passed and report.checked == 16


def test_T4_1_member_table_cannot_hide_a_wrong_member(monkeypatch):
    # T4_1 builds each substituted member once per call; a wrong member must
    # still fail, and a table kept between calls would show in either order
    grid = Grid(n_max=3, alphas=(1,))
    assert check_T4_1(grid).passed
    true_member = seq.bell_euler_poly

    def perturbed(n, a):
        member = true_member(n, a)
        return member + 1 if (n, a) == (2, 1) else member

    monkeypatch.setattr(seq, "bell_euler_poly", perturbed)
    for _ in range(2):
        report = check_T4_1(grid)
        assert not report.passed and report.checked == 3
        assert report.counterexample.params == {"n": 2, "alpha1": "1", "alpha2": "1"}
    monkeypatch.undo()
    assert check_T4_1(grid).passed


@pytest.mark.parametrize("check, builder, grid", [
    (check_T3_3, "euler_poly_order", Grid(n_max=6)),
    (check_T3_3, "bell_poly", Grid(n_max=6)),
    (check_T3_4, "bivariate_bell", Grid(n_max=6)),
    # at orders 1 and 2 the member of order 1 is read as a and as a - 1
    (check_T4_3, "euler_poly_order", Grid(n_max=6, alphas=(1, 2))),
])
def test_checks_build_each_member_once_per_call(monkeypatch, check, builder, grid):
    calls = Counter()
    build = getattr(seq, builder)

    def counted(*args):
        calls[args] += 1
        return build(*args)

    monkeypatch.setattr(seq, builder, counted)
    for _ in range(2):
        calls.clear()
        assert check(grid).passed
        assert calls and set(calls.values()) == {1}


def test_T3_3_member_table_cannot_hide_a_wrong_member(monkeypatch):
    # as for T4_1: a wrong Euler member fails on every call
    grid = Grid(n_max=3, alphas=(1,))
    assert check_T3_3(grid).passed
    true_member = seq.euler_poly_order

    def perturbed(n, a):
        member = true_member(n, a)
        return member + 1 if (n, a) == (2, 1) else member

    monkeypatch.setattr(seq, "euler_poly_order", perturbed)
    for _ in range(2):
        report = check_T3_3(grid)
        assert not report.passed and report.checked == 3
        assert report.counterexample.params == {"n": 2, "alpha": "1"}
    monkeypatch.undo()
    assert check_T3_3(grid).passed


def _stirling_fault(monkeypatch):
    # S2(4, 2) off by one; the rows above it grow from the wrong row
    rows = [seq._stirling_row(i) for i in range(5)]
    rows[4] = rows[4][:2] + (rows[4][2] + 1,) + rows[4][3:]
    monkeypatch.setattr(seq, "_stirling_rows", rows)


def _euler_fault(monkeypatch):
    # E_3^(a) off by one in its numerator, at every order
    true_numerator = seq._euler_numerator
    monkeypatch.setattr(seq, "_euler_numerator",
                        lambda k, a: true_numerator(k, a) + (k == 3))


@pytest.mark.parametrize("inject", [_stirling_fault, _euler_fault],
                         ids=["stirling", "euler"])
def test_T3_3_and_T3_4_catch_a_wrong_table_entry(monkeypatch, inject):
    # the members' x = 0 rows read neither table, so a wrong Stirling or
    # Euler entry reaches the right sides of T3_3 and T3_4 only
    memos = (seq._euler_numerator, seq._bell_euler_poly, seq._special_case,
             _stirling_weight)
    monkeypatch.setattr(seq, "_stirling_rows", [(1,)])
    monkeypatch.setattr(seq, "_member_rows", {})
    try:
        for memo in memos:
            memo.cache_clear()
        inject(monkeypatch)
        for check in (check_T3_3, check_T3_4):
            assert not check(Grid(n_max=8)).passed
    finally:
        for memo in memos:
            memo.cache_clear()
        monkeypatch.undo()
    for check in (check_T3_3, check_T3_4):
        assert check(Grid(n_max=8)).passed


def test_T4_3_classical_reduction_to_n_10():
    report = check_T4_3(Grid(n_max=10))
    assert report.passed
    assert report.checked == 22   # bivariate + classical for each n


def test_T4_3_order_shift_at_any_exact_order():
    report = check_T4_3(Grid(n_max=8, alphas=(0, 1, 2, F(7, 2), F(-5, 3))))
    assert report.passed and report.checked == 9 * 5 * 2


def test_iterated_derivative_collapses_to_factorial():
    for n in range(11):
        for mu in (0, 1, 2, 3):
            p = seq.bell_euler_poly(n, mu)
            for _ in range(n):
                p = p.derivative("x")
            assert p == factorial(n)


def test_report_passed_matches_counterexample_invariant():
    report = check_T5_1()
    payload = report.to_json_dict()
    assert payload["pass"] is True
    assert "counterexample" not in payload
    assert set(payload) == {"id", "pass", "checked", "elapsed_ms"}


def test_report_passed_is_read_off_its_counterexample():
    failed = IdentityReport("T", 3, Counterexample({"n": 2}, Poly.zero(),
                                                   Poly.constant(1)), 0.0)
    assert not failed.passed and failed.to_json_dict()["pass"] is False
    assert IdentityReport("T", 3, None, 0.0).passed
    with pytest.raises(TypeError):
        IdentityReport("T", True, 3, None, 0.0)
