"""What each registry check catches: a seeded mutation matrix.

Each fault below is injected into one private builder of the engine, every
process-lifetime table is cleared around it, and the registry (negative
control excluded) runs at ``Grid(n_max=8)``.  The test pins the set of
checks that fail under each fault, so a change that makes a check blind to
a fault it used to catch, or a refactor of the check layer that changes
what any check sees, fails here.  A check that is missing from a set holds
for the faulty engine: ``R4_2``, ``T4_2`` and ``T5_1`` hold for any Appell
sequence, and ``integral`` for any polynomial.

The last two tests pin faults that no ``MATRIX`` row can hold.  One has an
error that vanishes at every order the default grids read: only the
every-order grids of ``tests/test_identities.py`` fail under it.  The other
is in the Appell expansion, which only ``roundtrip`` and the ``expand``
command read, so one check fails under it where a row needs four.
"""

import inspect
import json
from fractions import Fraction
from math import prod

import pytest

import oracles
from belleuler import algebra, cli, umbral
from belleuler import sequences as seq
from belleuler.algebra import Poly
from belleuler.cli import REGISTRY
from belleuler.identities import CHECKS, NEGATIVE_CONTROLS, Grid
from test_identities import ONE_ORDER_IDS

CHECK_IDS = [i for i in REGISTRY if i not in NEGATIVE_CONTROLS]


def _every_check_but(*ids):
    return set(CHECK_IDS) - set(ids)


def _mutate(monkeypatch, module, name, old, new):
    # recompile one function of ``module`` with ``old`` replaced by ``new``,
    # in the module's own globals, so its callers reach the faulty copy
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, f"{old!r} not found once in {name}"
    scope = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         vars(module), scope)
    monkeypatch.setattr(module, name, scope[name])


def _stirling_entry(monkeypatch):
    # S2(4, 2) + 1; the rows above it grow from the wrong row
    rows = [seq._stirling_row(i) for i in range(5)]
    rows[4] = rows[4][:2] + (rows[4][2] + 1,) + rows[4][3:]
    monkeypatch.setattr(seq, "_stirling_rows", rows)


def _euler_numerator(monkeypatch):
    # E_3^(a) + 1 at every order a = p/q: its numerator over scale^3, with
    # scale = 2q, gains scale^3
    true_numerator = seq._euler_numerator
    monkeypatch.setattr(seq, "_euler_numerator", lambda k, p, q: (
        true_numerator(k, p, q) + (k == 3) * (2 * q) ** 3))


def _row_recurrence(monkeypatch):
    # the three-term recurrence of the hybrid x = 0 rows with 3j for 3j+1
    _mutate(monkeypatch, seq, "_bell_euler_rows", "3 * j + 1", "3 * j")


def _appell_binomial(monkeypatch):
    # C(4, 1) + 1 in the Appell builder of every polynomial family
    _mutate(monkeypatch, seq, "_appell", "comb(n, m)",
            "(comb(n, m) + ((n, m) == (4, 1)))")


def _special_case_row(monkeypatch):
    # the x = 0 member of special_case, the checks' oracle, at n = 3, plus y
    true_special = seq.special_case
    monkeypatch.setattr(seq, "special_case", lambda n, a: (
        true_special(n, a) + (seq.Y if n == 3 else 0)))


def _subs_polynomial_image(monkeypatch):
    # the power rows of a multi-term image in Poly.subs (x+1, x+z, y1+y2):
    # its square gains +1 over the square of its denominator
    _mutate(monkeypatch, algebra, "_power_rows", "return rows",
            "return [row + [(0, 1)] * (e == 2) for e, row in enumerate(rows)]")


def _kernel_drops_an_item(monkeypatch):
    # sum_of_products forgets the last of three or more items
    true_sum = Poly.sum_of_products.__func__

    def dropping(cls, names, items):
        items = list(items)
        return true_sum(cls, names, items[:-1] if len(items) >= 3 else items)
    monkeypatch.setattr(Poly, "sum_of_products", classmethod(dropping))


MATRIX = {
    "stirling_entry": (_stirling_entry, {
        "T3_3", "T3_4", "T3_5", "T4_3", "T4_4_corrected", "T5_2",
        "multinomial"}),
    "euler_numerator": (_euler_numerator, {
        "T3_3", "T3_4", "T4_3", "multinomial"}),
    "row_recurrence": (_row_recurrence, {
        "T3_3", "T3_4", "T3_5", "T4_1", "T4_4_corrected", "T5_2",
        "orthogonality", "multinomial", "roundtrip"}),
    "appell_binomial": (_appell_binomial,
                        _every_check_but("integral", "multinomial")),
    "special_case_row": (_special_case_row, {
        "T3_5", "T4_4_corrected", "T5_2", "multinomial"}),
    "subs_polynomial_image": (_subs_polynomial_image, {
        "T4_1", "R4_2", "T4_2", "T4_3", "integral"}),
    "kernel_drops_an_item": (_kernel_drops_an_item,
                             _every_check_but("T4_3", "T5_1")),
}


def _under(monkeypatch, reset, inject, run):
    # run() under the fault ``inject`` writes, with every table cleared
    # before and after it
    reset()
    try:
        inject(monkeypatch)
        return run()
    finally:
        reset()
        monkeypatch.undo()


@pytest.mark.parametrize("fault", MATRIX)
def test_each_fault_fails_exactly_its_checks(monkeypatch, reset_tables, fault):
    inject, expected = MATRIX[fault]
    failing = _under(monkeypatch, reset_tables, inject, lambda: {
        i for i in CHECK_IDS if not REGISTRY[i](Grid(n_max=8)).passed})
    assert failing == expected


# each check that goes through the x = 0 rows, with the form it replaced,
# which reads whole members: T4_1's expansion in (x1, x2, y1, y2), and the
# pairing of each functional h(t) t^k with each member for orthogonality
ROW_FORM_ORACLES = {"T4_1": oracles.check_T4_1_four_vars,
                    "orthogonality": oracles.check_orthogonality_pairing}


# T4_1's cases keep the bare fault ids this test has always reported
@pytest.mark.parametrize("check_id, fault", [
    pytest.param(check_id, fault, id=fault if check_id == "T4_1" else f"{check_id}-{fault}")
    for check_id in ROW_FORM_ORACLES for fault in MATRIX])
def test_T4_1_fails_where_its_four_variable_form_fails(monkeypatch, reset_tables, check_id,
                                                       fault):
    # a check's x = 0 row form and its oracle pass or fail together, after
    # the same number of cases, at the same grid point
    reports = _under(monkeypatch, reset_tables, MATRIX[fault][0], lambda: [
        check(Grid(n_max=8)) for check in (REGISTRY[check_id], ROW_FORM_ORACLES[check_id])])
    rows, whole = [(r.passed, r.checked, r.counterexample and r.counterexample.params)
                   for r in reports]
    assert rows == whole


def test_every_fault_fails_four_checks_and_every_check_fails_under_one():
    # the two rules README states of the matrix, read off it alone: a fault
    # that fewer checks catch, or a check that no fault fails, shows here
    # before any engine runs
    for fault, (_, failing) in MATRIX.items():
        assert len(failing) >= 4 and failing <= set(CHECK_IDS), fault
    assert set().union(*(failing for _, failing in MATRIX.values())) == set(CHECK_IDS)


def _row_8_off_the_read_orders(monkeypatch):
    # the y^0 entry of the hybrid x = 0 row 8 gains prod(p - o*q) * 2^8 for
    # o = -3..4, over (2q)^8 the error prod(a - o) at a = p/q: zero at every
    # order the default registry reads rows at (0..3, T4_1's sums up to 4,
    # and the -mu of orthogonality and roundtrip, -1..-3)
    true_rows = seq._bell_euler_rows

    def faulty(n, alpha):
        rows = true_rows(n, alpha)
        if n < 8:
            return rows
        p, q = Fraction(alpha).numerator, Fraction(alpha).denominator
        z = rows[8]
        error = prod(p - o * q for o in range(-3, 5)) * 2 ** 8
        return [*rows[:8], (z[0] + error, *z[1:]), *rows[9:]]
    monkeypatch.setattr(seq, "_bell_euler_rows", faulty)


def test_a_fault_off_the_default_orders_fails_only_the_every_order_grids(monkeypatch,
                                                                         reset_tables):
    # not a MATRIX row: no check fails under it at the default grids.  The
    # grids of tests/test_identities.py that prove the checks for every
    # order catch it, but for R4_2, T4_2 and T5_1, which hold for any
    # Appell sequence, and integral, which holds for any polynomial
    def run():
        default_failing = {(n_max, i) for n_max in (8, 10) for i in CHECK_IDS
                           if not REGISTRY[i](Grid(n_max=n_max)).passed}
        every_order = Grid(n_max=16, alphas=tuple(range(18)))
        failing = {i for i in ONE_ORDER_IDS if not CHECKS[i](every_order).passed}
        for check_id, grid in (("T4_1", Grid(n_max=16, alphas=tuple(range(17)))),
                               ("orthogonality", Grid(n_max=16, alphas=tuple(range(17)))),
                               ("integral", Grid(n_max=12, alphas=tuple(range(13)))),
                               ("multinomial", Grid(n_max=16, alphas=tuple(range(17))))):
            if not REGISTRY[check_id](grid).passed:
                failing.add(check_id)
        return default_failing, failing

    default_failing, failing = _under(monkeypatch, reset_tables, _row_8_off_the_read_orders,
                                      run)
    assert default_failing == set()
    assert failing == {"T3_3", "T3_4", "T3_5", "T4_3", "T4_4_corrected", "T5_2", "T4_1",
                       "orthogonality", "multinomial"}


def _expansion_row_sign(monkeypatch):
    # the y^1 entry of each signed row of the Appell expansion keeps its
    # sign, where the rows of BE(0; -y) negate it; the command line calls
    # the faulty copy too
    _mutate(monkeypatch, umbral, "expand_in_appell", "-z if j & 1 else z",
            "-z if j & 1 and j != 1 else z")
    monkeypatch.setattr(cli, "expand_in_appell", umbral.expand_in_appell)


def test_a_fault_in_the_expansion_fails_roundtrip_and_expand(monkeypatch, reset_tables,
                                                             capsys):
    def run():
        passed = umbral.check_roundtrip(Grid(n_max=8)).passed
        assert cli.main(["expand", "--mu", "2", "--", "x^2"]) == 0
        return passed, json.loads(capsys.readouterr().out)["residual"]

    assert run() == (True, "0")
    passed, residual = _under(monkeypatch, reset_tables, _expansion_row_sign, run)
    assert not passed and residual != "0"
