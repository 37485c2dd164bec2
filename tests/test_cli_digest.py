"""Byte-golden digest of `compute` and `table` output over every family.

One sha256 covers the stdout of every family in every format, at n <= 12,
orders {0, 1, 2, 3, -1, 1/2, -5/3} and block counts k <= 6, so any change in
a coefficient or in its formatting shows up here.
"""

import contextlib
import hashlib
import io

from belleuler import cli

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
        flag = cli.family_flag(name)
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
