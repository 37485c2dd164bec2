"""Byte-golden digests of the CLI's stdout.

One sha256 covers the stdout of `compute` and `table` for every family in
every format, at n <= 12, orders {0, 1, 2, 3, -1, 1/2, -5/3} and block
counts k <= 6, so any change in a coefficient or in its formatting shows up
here.  A second covers `verify` and `expand`, the paths that go through
`Poly.subs` and the dual pairing.  A third covers `verify --id multinomial`
at orders past its default grid.  A fourth covers both sides of every case
of every registry check, which `verify` stdout reduces to a count, with
`T4_1`'s cases from its four-variable form in tests/oracles.py, and a fifth
the two sides of `T4_1`'s own cases, x-columns and x = 0 rows.
"""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import oracles
from belleuler import cli, identities, umbral
from belleuler.identities import Grid

N_MAX = 12
ORDERS = ("0", "1", "2", "3", "-1", "1/2", "-5/3")
K_MAX = 6
FORMATS = ("json", "csv", "pretty")

# sha256 of the joined stdout, taken from the Fraction-coefficient Poly before
# the integer-numerator kernel replaced it
DIGEST = "f767952444fa168c7d67bdeae6ec360667e33f07453a64ca09a10be581372216"


def _invocations():
    for name in sorted(cli.FAMILIES):
        compute_params = table_params = [[]]
        flag = cli.FAMILIES[name].flag
        if flag == "alpha":
            compute_params = table_params = [[f"--alpha={a}"] for a in ORDERS]
        elif flag == "k":
            compute_params = [[f"--k={k}"] for k in range(K_MAX + 1)]
        for fmt in FORMATS:
            for extra in compute_params:
                for n in range(N_MAX + 1):
                    yield ["compute", "--family", name, "--n", str(n),
                           "--format", fmt, *extra]
            for extra in table_params:
                yield ["table", "--family", name, "--n-max", str(N_MAX),
                       "--format", fmt, *extra]


def test_compute_and_table_output_digest():
    digest = hashlib.sha256()
    count = 0
    for argv in _invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        digest.update(out.getvalue().encode())
        count += 1
    assert count == 1854
    assert digest.hexdigest() == DIGEST


# every check but multinomial, which was left out of this digest while it took
# integer orders >= 1 only
RATIONAL_ORDER_CHECKS = [i for i in cli.REGISTRY
                         if i not in cli.NEGATIVE_CONTROLS and i != "multinomial"]
VERIFY_RUNS = (
    (["verify", "--all", "--n-max", "10"], 0),
    (["verify", "--id", "T4_4_literal"], 1),
    (["verify", "--n-max", "4", "--alphas=1/2,-5/3",
      *(arg for i in RATIONAL_ORDER_CHECKS for arg in ("--id", i))], 0),
)
EXPAND_LITERALS = ("x^5 - 2/3*x^2 + 1/2*x - 7", "x^8 + 3*x^3", "x", "5/4")
EXPAND_ORDERS = ("2", "3", "1/2", "-5/3")
ELAPSED = re.compile(r',"elapsed_ms":[0-9.e+-]+')

# sha256 of the joined stdout, elapsed_ms stripped, taken before Poly.subs and
# pair wrote their products in one pass
VERIFY_EXPAND_DIGEST = "cc5969e2f3369f3f26b669e54b8f7a7bcaa19f8b13df4e3a4f7381d4decda60d"


def _verify_expand_outputs():
    for argv, code in VERIFY_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == code, argv
        yield ELAPSED.sub("", out.getvalue())
    for literal in EXPAND_LITERALS:
        for mu in EXPAND_ORDERS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["expand", f"--mu={mu}", literal]) == 0
            yield out.getvalue()


def test_verify_and_expand_output_digest():
    outputs = list(_verify_expand_outputs())
    assert '"pass":false' in outputs[1] and '"n":1,' in outputs[1]
    digest = hashlib.sha256("".join(outputs).encode())
    assert digest.hexdigest() == VERIFY_EXPAND_DIGEST


# sha256 of the stdout, elapsed_ms stripped, taken from the composition
# enumeration that the power recurrence replaced
MULTINOMIAL_ARGV = ["verify", "--id", "multinomial", "--n-max", "10", "--alphas=1,2,5,8"]
MULTINOMIAL_DIGEST = "19c05b6c5809e0b4cc9de55f0c92c7445e864d66df5704a72e5e1ffad77580af"


def test_multinomial_output_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(MULTINOMIAL_ARGV) == 0
    digest = hashlib.sha256(ELAPSED.sub("", out.getvalue()).encode())
    assert digest.hexdigest() == MULTINOMIAL_DIGEST


# every registry check at the default orders, and every check but multinomial,
# which took integer orders only when this digest was pinned, at rational ones
CHECK_VALUE_GRIDS = (
    (tuple(cli.REGISTRY), Grid(n_max=6)),
    (tuple(i for i in cli.REGISTRY if i != "multinomial"),
     Grid(n_max=4, alphas=(Fraction(1, 2), Fraction(-5, 3)))),
)
# sha256 of the recorded [id, params, lhs, rhs] of every case, taken while the
# x = 0 member had two builders (sequences and umbral); T4_1's cases are
# those of its four-variable form, which the check used then
CHECK_VALUE_DIGEST = "2cf42bfde37dd4b9f01eab553ad06a5a95c4faa703affe138a1a9d5c79f6b386"
# sha256 of the records of T4_1's cases on the same grids, taken when it went
# through the x = 0 rows, while every other record still read as above
T4_1_VALUE_DIGEST = "b8b4b4825b0c252d3c83f304bd688c36b9f4efaaabe18bc6cd9bb7581e20ad44"


def _check_value_records(monkeypatch, registry):
    # both sides of every case each check of the grids evaluates, up to the
    # negative control's first failure: the verify digests see counts only
    records = []
    run_cases = identities.run_cases

    def recording_run_cases(check_id, cases):
        def recorded(params, thunk):
            lhs, rhs = thunk()
            records.append([check_id, params, lhs.to_json_map(), rhs.to_json_map()])
            return lhs, rhs
        return run_cases(check_id, (
            (params, lambda params=params, thunk=thunk: recorded(params, thunk))
            for params, thunk in cases))

    # umbral and the oracles import the name, so it is patched there too
    for module in (identities, umbral, oracles):
        monkeypatch.setattr(module, "run_cases", recording_run_cases)
    for check_ids, grid in CHECK_VALUE_GRIDS:
        for check_id in check_ids:
            if check_id in registry:
                registry[check_id](grid)
    return records


def test_check_values_digest(monkeypatch):
    registry = {**cli.REGISTRY, "T4_1": oracles.check_T4_1_four_vars}
    records = _check_value_records(monkeypatch, registry)
    assert len(records) == 942
    digest = hashlib.sha256(json.dumps(records).encode())
    assert digest.hexdigest() == CHECK_VALUE_DIGEST


def test_T4_1_values_digest(monkeypatch):
    records = _check_value_records(monkeypatch, {"T4_1": cli.REGISTRY["T4_1"]})
    assert len(records) == 63 + 20
    digest = hashlib.sha256(json.dumps(records).encode())
    assert digest.hexdigest() == T4_1_VALUE_DIGEST
