"""Dual-pairing layer: pairing axioms, operator actions, Appell-sequence
constructions, and the section's identity checks."""

import random
import re
import tracemalloc
from fractions import Fraction as F
from hashlib import sha256
from math import factorial

import pytest

import oracles
from oracles import integral_pairing_form, integral_via_operator, multinomial_decomposition
from belleuler import sequences as seq
from belleuler.algebra import Poly, QQ, Series, XY
from belleuler.cli import main as cli_main
from belleuler.identities import Grid, json_order
from belleuler.umbral import (
    CHECKS as UMBRAL_CHECKS,
    ROUNDTRIP_COUNT,
    ROUNDTRIP_SEED,
    AppellContext,
    _power_prefix,
    apply_operator,
    check_integral,
    check_multinomial,
    check_orthogonality,
    check_roundtrip,
    difference_quotient_operator,
    expand_in_appell,
    pair,
    random_rational_poly,
    reconstruct,
)

X, Y = Poly.gens("x", "y")

RATIONAL_AND_NONPOSITIVE_ORDERS = (F(1, 2), F(-5, 3), 0, -1)


def t_power(k, order, ring=QQ):
    return Series.one(ring, order).shift(k).coeffs


class TestPairing:
    def test_monomial_duality(self):
        # <t^k | x^n> = n! delta_{n,k}
        for n in range(7):
            for k in range(7):
                value = pair(t_power(k, 6), X**n)
                assert value == (factorial(n) if n == k else 0)

    def test_exponential_evaluates(self):
        e2t = (Series.t(QQ, 4) * 2).exp()
        assert pair(e2t.coeffs, X**3) == 8
        # <e^{ct} | q(x)> = q(c)
        q = X**2 - 3 * X + F(1, 4)
        for c in (F(0), F(1), F(-2, 5)):
            ect = (Series.t(QQ, 3) * c).exp()
            assert pair(ect.coeffs, q) == q.evaluate({"x": c, "y": 0})

    def test_linearity_example(self):
        expm1 = Series.exp_t(QQ, 3) - 1
        assert pair(expm1.coeffs, X**2 + 1) == 1   # (1^2+1) - (0^2+1)

    def test_truncation_bound(self):
        with pytest.raises(ValueError):
            pair(Series.one(QQ, 2).coeffs, X**3)

    def test_polynomial_valued_pairing(self):
        # against a series with formal-y coefficients the result carries y
        h = Series(XY, [Poly.constant(1), Y, Y**2]).coeffs
        assert pair(h, X) == Y
        assert pair(h, X**2) == 2 * Y**2

    def test_product_pairing_multinomial_oracle(self):
        rng = random.Random(9)
        order = 5
        for _ in range(10):
            f1 = Series(QQ, [F(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(order + 1)])
            f2 = Series(QQ, [F(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(order + 1)])
            for n in range(order + 1):
                direct = pair((f1 * f2).coeffs, X**n)
                expanded = sum(
                    (F(factorial(n), factorial(i) * factorial(n - i))
                     * pair(f1.coeffs, X**i) * pair(f2.coeffs, X**(n - i))
                     for i in range(n + 1)), F(0))
                assert direct == expanded

    def test_matches_unscaled_product_formula(self):
        # pair skips zero functional coefficients and scales by constant
        # x-coefficients; the plain formula multiplies every term as Polys
        def reference(f, q):
            total = Poly.zero(q.names)
            for n in range(max(q.degree("x"), 0) + 1):
                qn = q.coefficient_in("x", n)
                if qn:
                    total = total + factorial(n) * f[n] * qn
            return total

        rng = random.Random(17)
        order = 5
        scalar = lambda: F(rng.randint(-9, 9), rng.randint(1, 9)) \
            if rng.random() < 0.7 else F(0)
        for ring in (QQ, XY):
            for _ in range(25):
                coeffs = [scalar() if ring is QQ else
                          scalar() + scalar() * Y + scalar() * Y**2
                          for _ in range(order + 1)]
                f = Series(ring, coeffs).coeffs
                q = sum((scalar() * X**i * Y**j for i in range(order + 1)
                         for j in range(3) if rng.random() < 0.5), Poly.zero())
                got = pair(f, q)
                assert got == reference(f, q)
                assert isinstance(got, Poly) and got.names == q.names


class TestOperators:
    def test_t_differentiates(self):
        assert apply_operator(Series.t(QQ, 3).coeffs, X**3) == 3 * X**2

    def test_exp_shifts(self):
        assert apply_operator(Series.exp_t(QQ, 2).coeffs, X**2) == (X + 1) ** 2

    def test_difference_quotient(self):
        for z in (F(1), F(1, 3), F(-2, 7)):
            op = difference_quotient_operator(z, 2)
            assert apply_operator(op, X**2) == \
                z * X**2 + z**2 * X + Poly.constant(z**3 / 3)

    def test_degree_lowering_on_family(self):
        t_big = Series.t(QQ, 12).coeffs
        for mu in (0, 1, 2, 3):
            for n in range(11):
                lhs = apply_operator(t_big, seq.bell_euler_poly(n, mu))
                rhs = n * seq.bell_euler_poly(n - 1, mu) if n else Poly.zero()
                assert lhs == rhs

    def test_truncation_bound(self):
        with pytest.raises(ValueError):
            apply_operator(Series.one(QQ, 1).coeffs, X**3)


class TestAppellContext:
    def test_formal_base_series_is_invertible(self):
        ctx = AppellContext.create(2, 6)
        assert len(ctx.h) == 7 and ctx.h[0] == 1
        assert oracles.h_inverse(ctx)[0] == 1

    def test_non_integer_order_rejected(self):
        # an inexact order is refused; exact rational orders are accepted
        with pytest.raises(ValueError):
            AppellContext.create(1.5, 4)
        assert AppellContext.create(F(4, 2), 4).mu == 2

    def test_orthogonality_truncates_h_at_n_max(self, monkeypatch):
        # the (n, k) square pairs t^k h(t) with members of degree <= n_max,
        # so h reads the x = 0 rows 0..n_max at the opposite order once
        real = seq._negated_y_rows
        read = []

        def record(n, alpha):
            read.append((n, alpha))
            return real(n, alpha)

        monkeypatch.setattr(seq, "_negated_y_rows", record)
        assert check_orthogonality(Grid(n_max=5, alphas=(F(13, 7),))).passed
        assert read == [(5, F(-13, 7))]

    @pytest.mark.parametrize("order", [-1, 2.5, True], ids=repr)
    def test_truncation_order_must_be_a_non_negative_int(self, order):
        with pytest.raises(ValueError, match="non-negative int"):
            AppellContext.create(1, order)


class TestInversePath:
    def test_matches_series_path(self):
        for mu in (1, 2, 3):
            for n in range(11):
                assert oracles.appell_inverse_apply(mu, n) == \
                    seq.bell_euler_poly(n, mu)

    def test_degree_zero(self):
        assert oracles.appell_inverse_apply(1, 0) == 1

    @pytest.mark.parametrize("mu", [1, F(1, 2), F(-5, 3)], ids=str)
    def test_reads_only_the_inverse_series(self, monkeypatch, mu):
        # h reads the rows that build the members; the oracle's 1/h must
        # not, or it would hold each member against itself
        def refuse_h(n, alpha):
            raise AssertionError("appell_inverse_apply built h")

        monkeypatch.setattr(seq, "_negated_y_rows", refuse_h)
        for n in range(9):
            assert oracles.appell_inverse_apply(mu, n) == seq.bell_euler_poly(n, mu)


class TestOrthogonality:
    def test_context_check_full_square(self):
        report = check_orthogonality(Grid(n_max=6, alphas=(1,)))
        assert report.passed and report.checked == 49

    def test_registry_check(self):
        report = check_orthogonality(Grid(n_max=4, alphas=(1, 2)))
        assert report.passed and report.checked == 2 * 25

    @pytest.mark.parametrize("mu", RATIONAL_AND_NONPOSITIVE_ORDERS, ids=str)
    def test_any_exact_order_full_square(self, mu):
        report = check_orthogonality(Grid(n_max=5, alphas=(mu,)))
        assert report.passed and report.checked == 36

    @pytest.mark.parametrize("error", [1, X], ids=str)
    def test_counterexample_is_a_column_or_the_scaled_pairing(self, monkeypatch, error):
        # a wrong x = 0 row of member (2, 1) fails as n!/(n-k)! V_(n-k) and
        # n! delta_{n,k}, the constant 0 at k = 0; a wrong x-column fails as
        # that column and C(n, s) Z_(n-s), here 2 Z_1
        true_member = seq.bell_euler_poly

        def perturbed(n, a):
            member = true_member(n, a)
            return member + error if (n, a) == (2, 1) else member

        z_1 = true_member(1, 1).coefficient_in("x", 0)
        monkeypatch.setattr(seq, "bell_euler_poly", perturbed)
        report = check_orthogonality(Grid(n_max=3, alphas=(1,)))
        assert not report.passed and report.checked == 9
        assert report.counterexample.params == {"mu": 1, "n": 2, "k": 0}
        lhs, rhs = report.counterexample.lhs, report.counterexample.rhs
        assert lhs - rhs == 1 and rhs == (0 if error == 1 else 2 * z_1)


def test_multinomial_reads_each_order_one_member_once_per_call(monkeypatch):
    # Grid(n_max=10) at orders 2 and 3 sums over i <= n at 132 grid points,
    # but reads special_case(i, 1) for only 11 distinct i
    calls = []
    special = seq.special_case

    def counted(n, a):
        calls.append((n, a))
        return special(n, a)

    monkeypatch.setattr(seq, "special_case", counted)
    for _ in range(2):
        calls.clear()
        assert check_multinomial(Grid(n_max=10)).passed
        assert sorted(calls) == [(i, 1) for i in range(11)]
    # the oracle's single point still reads special_case on every call
    calls.clear()
    multinomial_decomposition(3, 2)
    assert calls == [(i, 1) for i in range(4)]


def test_only_multinomial_needs_positive_orders():
    # only the composition oracle splits n into mu parts; every check,
    # check_multinomial included, takes the orders 0 and -1
    for mu in (0, -1):
        with pytest.raises(ValueError, match="mu must be at least 1"):
            multinomial_decomposition(3, mu)
    grid = Grid(n_max=4, alphas=(0, -1))
    for check in UMBRAL_CHECKS.values():
        assert check(grid).passed


def test_only_multinomial_rejects_rationals():
    # only the composition oracle needs an integer count of parts; every
    # check, check_multinomial included, takes the order 1/2
    with pytest.raises(ValueError, match="integer orders"):
        multinomial_decomposition(3, F(1, 2))
    grid = Grid(n_max=4, alphas=(F(1, 2),))
    for check in UMBRAL_CHECKS.values():
        assert check(grid).passed


def test_no_production_path_builds_a_series(monkeypatch, capsys):
    # Series is the tests' oracle: the umbral checks and expand must run
    # with its constructor disabled
    def refuse(self, *args, **kwargs):
        raise AssertionError("a production path built a Series")

    monkeypatch.setattr(Series, "__init__", refuse)
    with pytest.raises(AssertionError):
        Series.one(QQ, 2)
    for check in UMBRAL_CHECKS.values():
        assert check(Grid(n_max=4)).passed
    assert cli_main(["expand", "--mu", "2", "x^3 - 2/3"]) == 0
    assert '"residual":"0"' in capsys.readouterr().out


class TestExpansion:
    def test_family_members_expand_to_delta(self):
        for m in range(5):
            expansion = expand_in_appell(seq.bell_euler_poly(m, 1), 1)
            for k, b in enumerate(expansion.coeffs):
                assert b == (1 if k == m else 0)

    def test_expand_x_frozen(self):
        expansion = expand_in_appell(X, 1)
        assert expansion.coeffs == (F(1, 2) - Y, F(1))
        assert expansion.to_json_dict() == {"mu": 1, "coeffs": ["1/2 - y", "1"]}

    def test_reconstruction_roundtrip_random(self):
        rng = random.Random(31)
        for mu in (1, 2, 3):
            for _ in range(5):
                q = random_rational_poly(rng, rng.randint(0, 8))
                expansion = expand_in_appell(q, mu)
                assert reconstruct(expansion) == q

    def test_registry_roundtrip_is_100_instances(self):
        report = check_roundtrip()
        assert report.passed and report.checked == 100

    def test_roundtrip_at_any_exact_order(self):
        report = check_roundtrip(Grid(n_max=6, alphas=RATIONAL_AND_NONPOSITIVE_ORDERS))
        assert report.passed and report.checked == 100

    def test_roundtrip_draws_are_pinned(self):
        # the 100 polynomials check_roundtrip(Grid(n_max=10)) expands, drawn
        # with its seed, degrees and orders; the digest was taken before the
        # draws were written without Fractions, so a changed draw shows here
        max_degree, mus = Grid(n_max=10).resolve(8, (1, 2, 3))
        rng = random.Random(ROUNDTRIP_SEED)
        lines = []
        for index in range(ROUNDTRIP_COUNT):
            mu = mus[index % len(mus)]
            degree = rng.randint(0, max_degree)
            lines.append(f"{json_order(mu)} {degree} "
                         f"{random_rational_poly(rng, degree).pretty()}\n")
        assert (max_degree, mus) == (10, (1, 2, 3))
        assert sha256("".join(lines).encode()).hexdigest() == (
            "6e549f105edd5c05f284eba1d1e51127415b018378ebfdf0b987b4092348a19b")


class TestExpansionPass:
    """The one-pass expansion against ``oracles.reference_expansion``, the
    kernel form it replaced, at sizes and rings hypothesis does not draw."""

    ORDERS = (0, 1, 3, -1, F(-5, 3), F(7, 2))

    @staticmethod
    def random_xy_poly(rng, x_degree):
        # up to 31 terms c x^n y^i with n <= x_degree and i <= 6
        terms = {(x_degree, rng.randint(0, 6)): F(rng.randint(1, 99), rng.randint(1, 40))}
        for _ in range(rng.randint(0, 30)):
            terms[rng.randint(0, x_degree), rng.randint(0, 6)] = F(
                rng.randint(-99, 99), rng.randint(1, 40))
        return Poly(("x", "y"), terms)

    @pytest.mark.parametrize("mu", ORDERS, ids=str)
    def test_matches_the_kernel_form_up_to_x_degree_40(self, mu):
        rng = random.Random(24)
        for x_degree in (0, 1, 2, 7, 19, 40):
            q = self.random_xy_poly(rng, x_degree)
            assert expand_in_appell(q, mu).coeffs == oracles.reference_expansion(q, mu)

    @pytest.mark.parametrize("names", [("x",), ("x", "y", "z"), ("y", "x")], ids=str)
    def test_a_poly_outside_the_xy_ring_is_refused(self, names):
        q = Poly.gen("x", names) ** 2 + 1
        for expand in (expand_in_appell, oracles.reference_expansion):
            with pytest.raises(ValueError, match=re.escape(
                    f"variable mismatch: expected {names}")):
                expand(q, 1)

    def test_each_coefficient_is_checked_at_the_ceiling_of_y(self):
        # the row BE_4^(5/3)(0; -y) reaches y^4, so x^4 y^16380 writes
        # y^16384 into b_0, one past the last exponent a key holds
        mu = F(-5, 3)
        for expand in (expand_in_appell, oracles.reference_expansion):
            with pytest.raises(ValueError, match="exponent reaches the ceiling 16384"):
                expand(X**4 * Y**16380, mu)
        q = X**4 * Y**16379
        coeffs = expand_in_appell(q, mu).coeffs
        assert coeffs == oracles.reference_expansion(q, mu)
        assert coeffs[0].degree("y") == 16383

    @pytest.mark.parametrize("names", [("x",), ("x", "y", "z")], ids=str)
    def test_zero_expands_to_one_zero_coefficient_in_its_ring(self, names):
        zero = Poly.zero(names)
        for mu in (1, F(-5, 3)):
            coeffs = expand_in_appell(zero, mu).coeffs
            assert coeffs == oracles.reference_expansion(zero, mu) == (zero,)
            assert coeffs[0].names == names

    @pytest.mark.parametrize("mu", ORDERS, ids=str)
    def test_matches_the_kernel_form_over_a_wide_y_span(self, mu):
        for q in (Y**16000 + X**40, X**3 * Y**5 - F(2, 3) * Y**2 + 1):
            assert expand_in_appell(q, mu).coeffs == oracles.reference_expansion(q, mu)

    def test_memory_follows_the_terms_not_the_y_span(self):
        # one list per y-exponent of q's terms: a list from y^0 would hold
        # 16,001 slots for each of the 41 coefficients, about 5 MB
        q, mu = Y**16000 + X**40, F(-5, 3)
        expected = expand_in_appell(q, mu)  # the rows are built here, outside the trace
        tracemalloc.start()
        try:
            assert expand_in_appell(q, mu) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_reads_no_kernel_sum_while_reconstruct_does(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the expansion called the kernel or built row Polys")

        q = X**6 * Y - F(2, 3) * X**2 + 5
        kernel = Poly.sum_of_products
        with monkeypatch.context() as patch:
            patch.setattr(seq, "_negated_y_rows", refuse)
            patch.setattr(Poly, "sum_of_products", classmethod(refuse))
            expansion = expand_in_appell(q, F(-5, 3))
        sums = []

        def counted(cls, names, items):
            sums.append(names)
            return kernel(names, items)

        monkeypatch.setattr(Poly, "sum_of_products", classmethod(counted))
        assert reconstruct(expansion) == q and sums == [seq.NAMES]


class TestIntegral:
    def test_degree_zero_gives_z(self):
        lhs, rhs = integral_via_operator(0, F(1))
        assert lhs == rhs == 1
        lhs, rhs = integral_via_operator(0, F(5, 4))
        assert lhs == rhs == F(5, 4)

    def test_degree_one_frozen(self):
        for z in (F(1), F(1, 2), F(-2, 3)):
            lhs, rhs = integral_via_operator(1, z)
            assert lhs == rhs == z * (X + Y - F(1, 2)) + Poly.constant(z**2 / 2)

    def test_z_zero_trivial(self):
        lhs, rhs = integral_via_operator(3, 0)
        assert lhs == rhs == Poly.zero()

    def test_pairing_form(self):
        for n in range(6):
            for z in (F(1), F(1, 2), F(-2, 3)):
                lhs, rhs = integral_pairing_form(n, z)
                assert lhs == rhs

    def test_inexact_z_rejected(self):
        # a float would be read as its binary expansion, a string parsed
        for z in (0.1, "1/3", True):
            for call in (lambda: difference_quotient_operator(z, 2),
                         lambda: integral_via_operator(2, z),
                         lambda: integral_pairing_form(2, z)):
                with pytest.raises(ValueError, match="exact"):
                    call()

    def test_registry_grid(self):
        report = check_integral(Grid(n_max=8))
        assert report.passed and report.checked == 9 * 3 * 2

    def test_members_run_over_the_grid_orders(self):
        report = check_integral(Grid(n_max=4, alphas=(0, F(7, 2), F(-5, 3))))
        assert report.passed and report.checked == 5 * 3 * 3 * 2


class TestMultinomial:
    def test_mu_one_trivial(self):
        lhs, rhs = multinomial_decomposition(4, 1)
        assert lhs == rhs

    def test_n_zero(self):
        lhs, rhs = multinomial_decomposition(0, 3)
        assert lhs == rhs == 1

    def test_frozen_small_value(self):
        lhs, rhs = multinomial_decomposition(1, 2)
        assert lhs == rhs == Y - 1

    def test_registry_grid(self):
        report = check_multinomial(Grid(n_max=8, alphas=(2, 3)))
        assert report.passed and report.checked == 18

    def test_mu_zero_rejected(self):
        # the composition oracle splits n into mu parts; the check takes mu = 0
        with pytest.raises(ValueError):
            multinomial_decomposition(3, 0)

    @pytest.mark.parametrize("mu", [F(7, 2), F(-5, 3), F(1, 97), 0, -2])
    def test_power_prefix_is_the_series_power(self, mu):
        # g_m against the t^m coefficients of (2/(e^t+1))^(mu-1) from the
        # Series engine, exp(alpha log f) at a non-integer exponent, with no
        # Miller recurrence
        f = (Series.exp_t(QQ, 12) + 1).inverse() * 2
        assert _power_prefix(mu, 12) == f.pow(mu - 1).coeffs
        report = check_multinomial(Grid(n_max=12, alphas=(mu,)))
        assert report.passed and report.checked == 13

    @pytest.mark.parametrize("mu", range(1, 6))
    def test_rhs_matches_literal_composition_sum(self, mu):
        for n in range(9):
            _, rhs = multinomial_decomposition(n, mu)
            assert rhs.terms == oracles.multinomial_rhs_dict(n, mu)

    def test_orders_too_large_to_enumerate_compositions(self):
        # C(n+mu-1, mu-1) compositions: 352716 at (10, 12), and more than
        # can ever be listed at mu = 10^9
        report = check_multinomial(Grid(n_max=10, alphas=(12, 10**9)))
        assert report.passed and report.checked == 22
