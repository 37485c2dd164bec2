"""Acceptance suite: one test per acceptance criterion, every equality exact
(zero tolerance).  Each criterion prints a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import oracles
from belleuler import sequences as seq
from belleuler.algebra import Poly, QQ, Series
from belleuler.identities import CHECKS as IDENTITY_CHECKS, Grid, NEGATIVE_CONTROLS
from belleuler.umbral import (
    CHECKS as UMBRAL_CHECKS,
    check_integral,
    check_multinomial,
    check_orthogonality,
    check_roundtrip,
)

X, Y = Poly.gens("x", "y")


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_base_sequence_oracles():
    with criterion("base-sequence oracle equality"):
        triangle = oracles.bell_triangle(15)
        assert triangle[:7] == [1, 1, 2, 5, 15, 52, 203]
        for n in range(16):
            assert seq.bell_number(n) == triangle[n]

        for n in range(11):
            for k in range(n + 2):
                assert seq.stirling2_number(n, k) == oracles.stirling2_brute(n, k)

        for n in range(13):
            e = seq.euler_poly_order(n, 1)
            assert e.subs({"x": X + 1}) + e == 2 * X**n


def test_identity_suite():
    with criterion("identity suite on default grids"):
        for check_id, check in IDENTITY_CHECKS.items():
            if check_id in NEGATIVE_CONTROLS:
                continue
            report = check()
            assert report.passed, (check_id, report.counterexample)
        assert IDENTITY_CHECKS["T3_3"]().checked == 36
        assert IDENTITY_CHECKS["T4_1"]().checked == 63   # n <= 6, 9 order pairs


def test_dual_path_equivalence():
    with criterion("dual-path equivalence (series / convolution / umbral)"):
        for mu in (1, 2, 3):
            for n in range(11):
                series_path = seq.bell_euler_poly(n, mu)
                convolution_path = seq.bell_euler_convolution(n, mu)
                umbral_path = oracles.appell_inverse_apply(mu, n)
                assert series_path == convolution_path == umbral_path
                assert series_path.terms == oracles.bell_euler_dict(n, mu)


def test_umbral_suite():
    with criterion("umbral suite (orthogonality/roundtrip/integral/multinomial)"):
        orth = check_orthogonality(Grid(n_max=6, alphas=(1, 2, 3)))
        assert orth.passed and orth.checked == 3 * 49

        roundtrip = check_roundtrip(Grid(n_max=8, alphas=(1, 2, 3)))
        assert roundtrip.passed and roundtrip.checked == 100

        integral = check_integral(Grid(n_max=8))
        assert integral.passed and integral.checked == 9 * 3 * 2

        multinomial = check_multinomial(Grid(n_max=8, alphas=(2, 3)))
        assert multinomial.passed and multinomial.checked == 18


def test_negative_control():
    with criterion("negative control (uncorrected form fails at n=1)"):
        literal = IDENTITY_CHECKS["T4_4_literal"]()
        assert not literal.passed
        assert literal.counterexample is not None
        assert literal.counterexample.params["n"] == 1
        assert literal.counterexample.lhs != literal.counterexample.rhs

        corrected = IDENTITY_CHECKS["T4_4_corrected"]()
        assert corrected.passed


def _random_series(rng, order, head=None):
    coeffs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
              for _ in range(order + 1)]
    if head is not None:
        coeffs[0] = head
    elif coeffs[0] == 0:
        coeffs[0] = F(1)
    return Series(QQ, coeffs)


def test_series_engine_laws():
    with criterion("series-engine laws, 200 randomized instances at N=12"):
        rng = random.Random(940721)
        order = 12
        one = Series.one(QQ, order)

        for _ in range(50):
            f = _random_series(rng, order, head=F(1))
            assert f.log().exp() == f

        for _ in range(50):
            f = _random_series(rng, order)
            assert f * f.inverse() == one

        for _ in range(50):
            f = _random_series(rng, order)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert f.pow(a + b) == f.pow(a) * f.pow(b)

        for _ in range(50):
            f = _random_series(rng, order)
            g = _random_series(rng, order, head=F(0))
            h = _random_series(rng, order, head=F(0))
            assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_cli_end_to_end(run_cli):
    with criterion("CLI end-to-end (verify --all exits 0, byte goldens)"):
        code, out, _ = run_cli("verify", "--all", "--n-max", "6")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        assert "T4_4_literal" not in {r["id"] for r in reports}

        code, out, _ = run_cli("compute", "--family", "bell-number", "--n", "5")
        assert code == 0 and out == "52\n"

        code, out, _ = run_cli("compute", "--family", "bell-euler",
                               "--alpha", "0", "--n", "1", "--format", "pretty")
        assert code == 0 and out == "x + y\n"

        code, out, _ = run_cli("compute", "--family", "bell-euler",
                               "--alpha", "1", "--n", "2", "--format", "json")
        assert code == 0
        assert out == '{"x^2":"1","x^1*y^1":"2","y^2":"1","x^1":"-1"}\n'

        code, out, _ = run_cli("table", "--family", "stirling2", "--n-max", "4")
        assert code == 0
        assert out.splitlines()[-1] == "4,0,1,7,6,1"

        code, out, _ = run_cli("table", "--family", "euler",
                               "--alpha", "1", "--n-max", "2")
        assert code == 0 and out == "n,value\n0,1\n1,x - 1/2\n2,x^2 - x\n"

        code, out, _ = run_cli("table", "--family", "bell-number", "--n-max", "0")
        assert code == 0 and out == "n,value\n0,1\n"

        code, out, _ = run_cli("expand", "--mu", "1", "x")
        assert code == 0
        assert out == '{"mu":1,"coeffs":["1/2 - y","1"],"residual":"0"}\n'

        code, out, _ = run_cli("expand", "--mu", "1", "1")
        assert code == 0 and out == '{"mu":1,"coeffs":["1"],"residual":"0"}\n'

        code, out, _ = run_cli("expand", "--mu", "2", "x^3 - 2/3")
        assert code == 0 and json.loads(out)["residual"] == "0"

        code, out, _ = run_cli("verify", "--id", "T4_4_literal")
        assert code == 1
        assert json.loads(out)[0]["counterexample"]["params"]["n"] == 1


def test_suites_complete_quickly():
    # the whole registry must stay desk-scale; generous ceiling vs. the
    # 60-second budget for everything
    with criterion("registry completes inside the time budget"):
        start = time.perf_counter()
        for check_id, check in {**IDENTITY_CHECKS, **UMBRAL_CHECKS}.items():
            check()
        assert time.perf_counter() - start < 60
