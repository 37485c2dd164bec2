"""One ``identities.Tables`` per ``verify`` run: the checks of a run share
the values they derive from the engine (shifted members, x = 0 members,
their convolutions, x-columns), each built once per run; a check called
alone builds its own, and no table outlives its run."""

import json
from collections import Counter
from fractions import Fraction as F

import pytest

from belleuler import sequences as seq
from belleuler.algebra import Poly
from belleuler.cli import REGISTRY
from belleuler.identities import Grid, check_R4_2


def _without_elapsed(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "elapsed_ms"}


def test_one_run_builds_each_x0_member_and_each_shift_once(monkeypatch, run_cli):
    special_calls, shifts, shifted = Counter(), Counter(), []
    special, subs, unit_shift = seq.special_case, Poly.subs, {"x": seq.X + 1}

    def counted_special(n, a):
        special_calls[n, a] += 1
        return special(n, a)

    def counted_subs(self, mapping):
        if mapping == unit_shift:
            # by identity: equal members of distinct (n, a), such as the
            # constant 1 at n = 0, are distinct table entries
            shifts[id(self)] += 1
            shifted.append(self)  # keeps each id taken
        return subs(self, mapping)

    monkeypatch.setattr(seq, "special_case", counted_special)
    monkeypatch.setattr(Poly, "subs", counted_subs)
    code, _, _ = run_cli("verify", "--all", "--n-max", "6")
    assert code == 0
    # T3_5, T4_4_corrected, T5_2 (at a - 1) and multinomial (at 1) read them
    assert set(special_calls) >= {(k, a) for k in range(7) for a in (-1, 0, 1, 2, 3)}
    assert set(special_calls.values()) == {1}
    # R4_2, T4_2 and T4_3 shift the members, and integral its antiderivatives
    assert len(shifts) > 7 * 4 and set(shifts.values()) == {1}


def test_no_table_outlives_a_run(monkeypatch, run_cli):
    # a member made wrong between two runs: the second run's R4_2 fails as
    # R4_2 called alone does, at the first point that reads the wrong
    # member, and its left side is the wrong member shifted, not a shift
    # the first run kept; the builder behind bell_euler_poly is replaced,
    # so every table keyed on bell_euler_poly would still find its entries
    argv = ("verify", "--all", "--n-max", "4")
    assert run_cli(*argv)[0] == 0
    true_member = seq._bell_euler_poly

    def perturbed(n, a):
        member = true_member(n, a)
        return member + seq.X if (n, a) == (2, 1) else member

    monkeypatch.setattr(seq, "_bell_euler_poly", perturbed)
    code, out, _ = run_cli(*argv)
    assert code == 1
    in_run, = [r for r in json.loads(out) if r["id"] == "R4_2"]
    alone = check_R4_2(Grid(n_max=4)).to_json_dict()
    assert _without_elapsed(in_run) == _without_elapsed(alone)
    assert in_run["counterexample"]["params"] == {"n": 2, "alpha": "1"}
    wrong_shift = (true_member(2, 1) + seq.X).subs({"x": seq.X + 1})
    assert in_run["counterexample"]["lhs"] == wrong_shift.to_json_map()
    monkeypatch.undo()
    assert run_cli(*argv)[0] == 0


GRIDS = {"default": ((), Grid()),
         "rational": (("--alphas=7/2,-5/3", "--n-max", "8"),
                      Grid(n_max=8, alphas=(F(7, 2), F(-5, 3))))}


@pytest.fixture(scope="module")
def alone_reports():
    # each check's report called alone, with its own tables, per grid
    return {name: {check_id: _without_elapsed(check(grid).to_json_dict())
                   for check_id, check in REGISTRY.items()}
            for name, (_, grid) in GRIDS.items()}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("order", ["registry", "reverse"])
def test_shared_tables_change_no_report(run_cli, alone_reports, grid, order):
    ids = list(REGISTRY) if order == "registry" else list(REGISTRY)[::-1]
    code, out, _ = run_cli("verify", *(f"--id={i}" for i in ids), *GRIDS[grid][0])
    assert code == 1   # the negative control fails, in a shared run too
    reports = json.loads(out)
    assert [r["id"] for r in reports] == ids
    for report in reports:
        assert _without_elapsed(report) == alone_reports[grid][report["id"]], report["id"]
