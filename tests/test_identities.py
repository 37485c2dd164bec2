"""The identity registry: every check passes on its default grid, grids are
overridable, and the negative control fails exactly as documented."""

from collections import Counter
from fractions import Fraction as F
from functools import partial
from math import factorial

import pytest

import oracles
from belleuler import identities, umbral
from belleuler import sequences as seq
from belleuler.algebra import Poly
from belleuler.cli import REGISTRY
from belleuler.identities import (
    CHECKS,
    Counterexample,
    Grid,
    IdentityReport,
    NEGATIVE_CONTROLS,
    check_T3_3,
    check_T3_4,
    check_T4_1,
    check_T4_3,
    check_T4_4_corrected,
    check_T4_4_literal,
    check_T5_1,
    validate_n_max,
)
from belleuler.umbral import (AppellContext, check_integral, check_multinomial,
                              check_orthogonality, difference_quotient_operator)

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


_X = Poly.gen("x")
# (call, a fragment of its message): a bool is no exact scalar and no count,
# a float no count, and a grid with an inexact order is refused whole
_BAD_INPUTS = {
    "Poly.constant(True)": (lambda: Poly.constant(True), "exact scalar"),
    "x * True": (lambda: _X * True, "exact scalar"),
    "x ** True": (lambda: _X ** True, "non-negative int"),
    "subs x=True": (lambda: _X.subs({"x": True}), "exact scalar"),
    "evaluate x=True": (lambda: _X.evaluate({"x": True, "y": 1}), "exact scalar"),
    # Poly reads its scalars through algebra._exact, which keeps the rule's
    # one message for each type it refuses
    **{f"{name} {bad!r}": (partial(op, bad), f"^exact scalar required, got {kind}$")
       for name, op in (("Poly(...)", lambda c: Poly(("x", "y"), {(1, 0): c})),
                        ("Poly.constant", Poly.constant),
                        ("x / c", _X.__truediv__))
       for bad, kind in ((True, "bool"), (1.5, "float"), ("3", "str"))},
    "validate_n_max(True)": (lambda: validate_n_max(True), "non-negative int"),
    **{f"{check_id} n_max=2.5": (partial(check, Grid(n_max=2.5)), "non-negative int")
       for check_id, check in REGISTRY.items()},
    **{f"{check_id} alphas=(3/2, 1.5)": (
        partial(check, Grid(alphas=(F(3, 2), 1.5))), "exact")
       for check_id, check in REGISTRY.items()},
    "difference_quotient_operator(1, -1)": (
        lambda: difference_quotient_operator(1, -1), "non-negative int"),
    "difference_quotient_operator(1, 2.5)": (
        lambda: difference_quotient_operator(1, 2.5), "non-negative int"),
    "AppellContext.create(1, True)": (
        lambda: AppellContext.create(1, True), "non-negative int"),
}


@pytest.mark.parametrize("case", _BAD_INPUTS)
def test_bad_input_is_refused_before_any_work(monkeypatch, reset_tables, case):
    # each input rule lives once in algebra, and every layer refuses before
    # a shared table grows or a check evaluates its first case
    call, message = _BAD_INPUTS[case]
    reset_tables()
    cases_run = []
    for module in (identities, umbral):
        monkeypatch.setattr(module, "run_cases", lambda *args: cases_run.append(args))
    with pytest.raises(ValueError, match=message):
        call()
    assert seq._stirling_rows == [(1,)] and seq._member_rows == {}
    assert cases_run == []


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


def test_T4_3_classical_reduction_to_n_10():
    report = check_T4_3(Grid(n_max=10))
    assert report.passed
    assert report.checked == 22   # bivariate + classical for each n


def test_T4_3_order_shift_at_any_exact_order():
    report = check_T4_3(Grid(n_max=8, alphas=(0, 1, 2, F(7, 2), F(-5, 3))))
    assert report.passed and report.checked == 9 * 5 * 2


ONE_ORDER_IDS = ("T3_3", "T3_4", "T3_5", "R4_2", "T4_2", "T4_3", "T4_4_corrected",
                 "T5_1", "T5_2")


@pytest.mark.parametrize("check_id", ONE_ORDER_IDS)
def test_one_order_checks_hold_for_every_order_to_n_16(check_id):
    """At fixed n, each side of a one-order check is a polynomial in the
    order a of degree at most n + 1: a member BE_n^(a) has coefficients of
    degree at most n in a, T4_3 and T5_2 also read the order a - 1, and
    T4_2 reads the member at n + 1.  Two sides of degree at most n + 1 that
    agree at the n + 2 orders 0..n+1 agree at every order, rational or not,
    so a pass at the 18 orders 0..17 proves each identity for every order
    at each n <= 16."""
    report = CHECKS[check_id](Grid(n_max=16, alphas=tuple(range(18))))
    assert report.passed, report.counterexample
    assert report.checked == 17 * 18 * (2 if check_id == "T4_3" else 1)


def test_T4_1_holds_for_every_pair_of_orders_to_n_16():
    """At fixed n, each side of T4_1 is a polynomial of degree at most n in
    each of a1 and a2, so agreement on the tensor grid of the 17 orders
    0..16 in each proves the addition theorem for every pair of orders at
    each n <= 16: 289 pairs."""
    report = check_T4_1(Grid(n_max=16, alphas=tuple(range(17))))
    assert report.passed, report.counterexample
    assert report.checked == 17 * 289


def test_T4_1_agrees_with_the_four_variable_form_on_an_every_order_grid():
    # the x = 0 row form and the whole expansion in (x1, x2, y1, y2) it
    # replaced, on the 144 pairs of orders 0..11 at n <= 10
    grid = Grid(n_max=10, alphas=tuple(range(12)))
    rows, whole = check_T4_1(grid), oracles.check_T4_1_four_vars(grid)
    assert rows.passed and whole.passed
    assert rows.checked == whole.checked == 11 * 144


def test_orthogonality_holds_for_every_order_to_n_16():
    """At fixed n, each side of each orthogonality point has coefficients of
    degree at most n in mu: the x-column s of the member and C(n, s)
    Z_(n-s) at most n - s, and the pairing n!/(n-k)! V_(n-k) at most
    n - k, since h_j has degree at most j.  So a pass at the 17 orders
    0..16 proves <h(t) t^k | BE_n^(mu)> = n! delta_{n,k} for every order
    on the whole (n, k) square to n = 16."""
    report = check_orthogonality(Grid(n_max=16, alphas=tuple(range(17))))
    assert report.passed, report.counterexample
    assert report.checked == 17 * 17 * 17


def test_integral_holds_for_every_order_to_n_12():
    """At a fixed z, both sides of either integral form are linear in the
    member, so at fixed n their coefficients have degree at most n in the
    order.  A pass at the 13 orders 0..12 proves both forms for every order
    at each n <= 12 and each of the three z."""
    report = check_integral(Grid(n_max=12, alphas=tuple(range(13))))
    assert report.passed, report.counterexample
    assert report.checked == 13 * 13 * 3 * 2


def test_multinomial_holds_for_every_order_to_n_16():
    """At fixed n, each side of the multinomial identity has coefficients of
    degree at most n in mu: the member's coefficients at most n, and the
    weight g_(n-i) of the order-1 member BE_i^(1)(0; y) at most n - i,
    since Miller's g_m has degree at most m.  So a pass at the 17 orders
    0..16 proves the identity for every order at each n <= 16."""
    report = check_multinomial(Grid(n_max=16, alphas=tuple(range(17))))
    assert report.passed, report.counterexample
    assert report.checked == 17 * 17


def test_orthogonality_agrees_with_the_pairing_form_on_an_every_order_grid():
    # the x = 0 row form and the pairing of each functional with each whole
    # member, on the orders 0..11 at n <= 10
    grid = Grid(n_max=10, alphas=tuple(range(12)))
    rows, whole = check_orthogonality(grid), oracles.check_orthogonality_pairing(grid)
    assert rows.passed and whole.passed
    assert rows.checked == whole.checked == 12 * 11 * 11


@pytest.mark.parametrize("error, ring, gap", [(1, ("y1", "y2"), -2), (seq.X, seq.NAMES, 1)])
def test_T4_1_counterexample_is_a_column_or_the_rows(monkeypatch, error, ring, gap):
    # a wrong x = 0 row of member (2, 1) fails as the rows in (y1, y2), where
    # W_2 reads it twice; a wrong x-column fails as that column and
    # C(n, s) Z_(n-s), in (x, y)
    true_member = seq.bell_euler_poly

    def perturbed(n, a):
        member = true_member(n, a)
        return member + error if (n, a) == (2, 1) else member

    monkeypatch.setattr(seq, "bell_euler_poly", perturbed)
    report = check_T4_1(Grid(n_max=3, alphas=(1,)))
    assert not report.passed and report.checked == 3
    assert report.counterexample.params == {"n": 2, "alpha1": "1", "alpha2": "1"}
    lhs, rhs = report.counterexample.lhs, report.counterexample.rhs
    assert lhs.names == rhs.names == ring and lhs - rhs == gap


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
