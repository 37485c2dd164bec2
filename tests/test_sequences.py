"""Dual-path tests for every sequence family: the closed-form values
must match recurrence oracles and brute-force enumeration exactly."""

import sys
import threading
from fractions import Fraction as F

import pytest

import oracles
from belleuler import sequences as seq
from belleuler.algebra import Poly

X, Y = Poly.gens("x", "y")


class TestBellFamilies:
    def test_bell_numbers_against_triangle(self):
        triangle = oracles.bell_triangle(15)
        assert triangle[:7] == [1, 1, 2, 5, 15, 52, 203]
        for n in range(16):
            assert seq.bell_number(n) == triangle[n]

    def test_bell_numbers_are_stirling_row_sums(self):
        for n in range(61):
            assert seq.bell_number(n) == \
                sum(seq.stirling2_number(n, k) for k in range(n + 1))

    def test_bell_number_leaves_the_stirling_triangle_alone(self):
        # the shared triangle keeps every row for the life of the process,
        # O(n^2) big ints, while a Bell number needs only O(n) of them
        before = len(seq._stirling_rows)
        seq.bell_number(max(300, before))
        assert len(seq._stirling_rows) == before

    def test_bell_poly_values(self):
        assert seq.bell_poly(0) == 1
        assert seq.bell_poly(3) == Y**3 + 3 * Y**2 + Y
        for n in range(13):
            assert seq.bell_poly(n).terms == oracles.bell_poly_dict(n)

    def test_bivariate_bell_values(self):
        assert seq.bivariate_bell(0) == 1
        assert seq.bivariate_bell(1) == X + Y
        assert seq.bivariate_bell(2) == X**2 + 2 * X * Y + Y**2 + Y

    def test_bivariate_bell_against_convolution(self):
        for n in range(11):
            assert seq.bivariate_bell(n).terms == oracles.bivariate_bell_dict(n)
            assert seq.bivariate_bell(n) == seq.bivariate_bell_convolution(n)


class TestEulerFamilies:
    def test_low_degrees(self):
        assert seq.euler_poly_order(0, 1) == 1
        assert seq.euler_poly_order(0, F(2, 3)) == 1
        assert seq.euler_poly_order(1, 1) == X - F(1, 2)
        assert seq.euler_poly_order(2, 1) == X**2 - X

    def test_reflection_identity(self):
        for n in range(13):
            e = seq.euler_poly_order(n, 1)
            assert e.subs({"x": X + 1}) + e == 2 * X**n

    def test_against_recurrence_oracle(self):
        for n in range(10):
            for alpha in (-2, -1, 0, 1, 2, 3):
                assert seq.euler_poly_order(n, alpha).terms == \
                    oracles.euler_poly_dict(n, alpha)

    def test_order_zero_is_power_basis(self):
        for n in range(8):
            assert seq.euler_poly_order(n, 0) == X**n

    def test_numbers(self):
        assert seq.euler_number_order(0, 1) == 1
        assert seq.euler_number_order(2, 1) == 0
        for n in range(1, 9):
            assert seq.euler_number_order(n, 0) == 0
        for n in range(9):
            assert seq.euler_number_order(n, 2) == oracles.euler_numbers(2, 8)[n]

    def test_recurrence_numbers_at_a_deep_order(self):
        # one convolution per order, so the order sets no recursion depth
        assert seq.euler_numbers_of_order(1500, 2) == \
            tuple(seq.euler_number_order(n, 1500) for n in range(3))

    def test_rational_order_convolution_square(self):
        # order-1/2 numbers convolved with themselves give the order-1 numbers
        from math import comb
        half = [seq.euler_number_order(n, F(1, 2)) for n in range(8)]
        whole = oracles.euler_numbers(1, 7)
        for n in range(8):
            total = sum(comb(n, k) * half[k] * half[n - k] for k in range(n + 1))
            assert total == whole[n]

    def test_rejects_inexact_orders(self):
        for bad in (0.5, 1j, "2", True):
            with pytest.raises(ValueError):
                seq.euler_poly_order(2, bad)


class TestStirling:
    def test_diagonal_and_small_values(self):
        for n in range(9):
            assert seq.stirling2_number(n, n) == 1
        assert seq.stirling2_number(3, 2) == 3
        assert seq.stirling2_number(4, 2) == 7

    def test_against_brute_force_enumeration(self):
        for n in range(9):
            for k in range(n + 2):
                assert seq.stirling2_number(n, k) == oracles.stirling2_brute(n, k)

    def test_against_recurrence(self):
        for n in range(13):
            for k in range(n + 1):
                assert seq.stirling2_number(n, k) == oracles.stirling2_rec(n, k)
                assert seq.stirling2_recurrence(n, k) == oracles.stirling2_rec(n, k)

    def test_recurrence_at_a_deep_degree(self):
        assert seq.stirling2_recurrence(1200, 2) == seq.stirling2_number(1200, 2)

    def test_poly_reduces_to_number(self):
        for n in range(7):
            for k in range(n + 1):
                p = seq.stirling2_poly(n, k)
                assert p.subs({"x": 0}) == seq.stirling2_number(n, k)

    def test_stirling_sum_is_bell_poly(self):
        for n in range(13):
            total = Poly.zero()
            for k in range(n + 1):
                total = total + seq.stirling2_number(n, k) * Y**k
            assert total == seq.bell_poly(n)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            seq.stirling2_poly(3, -1)


class TestFallingFactorialBasis:
    def test_values(self):
        assert seq.falling_factorial(0) == 1
        assert seq.falling_factorial(2) == X**2 - X
        assert seq.falling_factorial(2).evaluate({"x": 3, "y": 0}) == 6

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            seq.falling_factorial(-2)

    def test_power_basis_change(self):
        # x^n = sum_k (x)_k S2(n, k)
        for n in range(13):
            total = Poly.zero()
            for k in range(n + 1):
                total = total + seq.falling_factorial(k) * seq.stirling2_number(n, k)
            assert total == X**n


class TestBellEuler:
    def test_alpha_zero_is_bivariate_bell(self):
        for n in range(9):
            assert seq.bell_euler_poly(n, 0) == seq.bivariate_bell(n)

    def test_low_degrees(self):
        assert seq.bell_euler_poly(1, 1) == X + Y - F(1, 2)
        # oracle-computed: the +y and -y contributions of the convolution cancel
        assert seq.bell_euler_poly(2, 1) == X**2 + 2 * X * Y + Y**2 - X

    def test_against_recurrence_convolution(self):
        for n in range(13):
            for alpha in range(-3, 5):
                assert seq.bell_euler_poly(n, alpha).terms == \
                    oracles.bell_euler_dict(n, alpha)
                assert seq.bell_euler_convolution(n, alpha) == \
                    seq.bell_euler_poly(n, alpha)

    def test_members_never_read_special_case(self, monkeypatch):
        # T3_5 holds each member against special_case's closed form, so the
        # members must be built without it
        orders = (0, 1, 3, F(1, 2), F(-5, 3))
        built = {(n, a): seq.bell_euler_poly(n, a) for a in orders for n in range(13)}

        def refuse(*args):
            raise AssertionError("a member read special_case")

        monkeypatch.setattr(seq, "special_case", refuse)
        monkeypatch.setattr(seq, "_special_case", refuse)
        seq._bell_euler_poly.cache_clear()
        seq._member_rows.clear()
        for (n, a), member in built.items():
            assert seq.bell_euler_poly(n, a) == member

    def test_x0_rows_match_the_euler_number_convolution(self):
        # the three-term recurrence against the T3_4 convolution at x = 0
        for alpha in (0, 1, 2, -1, -7, 1200, F(1, 2), F(-5, 3), F(7, 11),
                      F(-9973, 9967)):
            assert seq._bell_euler_rows(96, alpha)[:97] == \
                oracles.convolution_rows(96, alpha)

    def test_x0_rows_read_no_stirling_row_or_euler_number(self, monkeypatch):
        # T3_3 and T3_4 hold each member against the Euler-number and
        # Stirling tables, so the members must be built without them
        orders = (0, 1, 3, -2, F(1, 2), F(-5, 3), F(7, 11))
        built = {(n, a): seq.bell_euler_poly(n, a) for a in orders for n in range(41)}

        def refuse(*args):
            raise AssertionError("an x = 0 row read a table")

        monkeypatch.setattr(seq, "_stirling_row", refuse)
        monkeypatch.setattr(seq, "_euler_numerator", refuse)
        monkeypatch.setattr(seq, "_member_rows", {})
        seq._bell_euler_poly.cache_clear()
        for (n, a), member in built.items():
            assert seq.bell_euler_poly(n, a) == member

    def test_x0_rows_grow_safely_from_threads(self):
        # six threads build members of one fresh order at interleaved
        # degrees, so they grow its one row table together; a lost or
        # doubled row would leave a wrong member or a wrong row count
        alpha = F(13, 173)  # an order no other test builds
        assert alpha not in seq._member_rows
        results, switch = {}, sys.getswitchinterval()

        def work(k):
            results[k] = {n: seq.bell_euler_poly(n, alpha) for n in range(k, 41, 6)}

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 6
        rows = seq._member_rows.pop(alpha)
        assert len(rows) == 41
        seq._bell_euler_poly.cache_clear()
        for members in results.values():
            for n, member in members.items():
                assert member == seq.bell_euler_poly(n, alpha)
        assert rows == seq._member_rows[alpha]

    def test_a_sweep_builds_each_x0_row_once(self):
        alpha = F(11, 131)  # an order no other test builds
        assert alpha not in seq._member_rows
        for n in range(41):
            seq.bell_euler_poly(n, alpha)
        rows = seq._member_rows[alpha]
        assert len(rows) == 41
        seq._bell_euler_poly.cache_clear()
        for n in range(41):
            seq.bell_euler_poly(n, alpha)
        assert len(rows) == 41
        seq.bell_euler_poly(41, alpha)
        assert len(rows) == 42

    def test_recurrence_convolution_at_a_deep_order(self):
        assert seq.bell_euler_convolution(3, 1200) == seq.bell_euler_poly(3, 1200)

    def test_monic_in_x(self):
        for n in range(13):
            for alpha in (0, 1, 2, 3, F(1, 2)):
                assert seq.bell_euler_poly(n, alpha).coefficient((n, 0)) == 1

    def test_degree_bounds(self):
        # every family value has deg_x <= n and deg_y <= n
        for n in range(10):
            for p in (seq.bivariate_bell(n), seq.bell_poly(n),
                      seq.euler_poly_order(n, 2), seq.bell_euler_poly(n, 3),
                      seq.stirling2_poly(n, max(n - 1, 0))):
                assert p.degree("x") <= n and p.degree("y") <= n

    def test_specialization_chain(self):
        for n in range(9):
            for alpha in (0, 1, 2):
                p = seq.bell_euler_poly(n, alpha)
                assert p.subs({"y": 0}) == seq.euler_poly_order(n, alpha)
                assert p.evaluate({"x": 0, "y": 1}) == seq.bell_euler_number(n, alpha)
        for n in range(9):
            assert seq.bell_euler_poly(n, 0) == seq.bivariate_bell(n)

    def test_numbers(self):
        assert seq.bell_euler_number(0, 1) == 1
        assert seq.bell_euler_number(1, 1) == F(1, 2)
        for n in range(9):
            assert seq.bell_euler_number(n, 0) == seq.bell_number(n)


class TestSpecialCases:
    def test_y_zero(self):
        # at y = 0 the hybrid member is the Euler polynomial of the same order
        assert seq.bell_euler_poly(2, 1).subs({"y": 0}) == X**2 - X
        for alpha in (0, 1, 2, F(1, 2), F(-5, 3)):
            for n in range(9):
                assert seq.bell_euler_poly(n, alpha).subs({"y": 0}) == \
                    seq.euler_poly_order(n, alpha)

    def test_y_zero_alpha_one(self):
        # order 1 at y = 0 is the classical Euler polynomial of the recurrence
        for n in range(9):
            assert seq.bell_euler_poly(n, 1).subs({"y": 0}) == \
                seq.euler_poly_recurrence(n)

    def test_x_zero(self):
        assert seq.special_case(2, 0) == Y**2 + Y
        # special_case and bell_euler_number have their own closed form; both
        # match the x^0 column of the full member
        for alpha in (0, 1, 2, 3, -1, F(1, 2), F(-5, 3)):
            for n in range(17):
                member = seq.bell_euler_poly(n, alpha)
                assert seq.special_case(n, alpha) == member.coefficient_in("x", 0)
                assert seq.bell_euler_number(n, alpha) == \
                    member.evaluate({"x": 0, "y": 1})

    def test_memo_keys_on_normalized_arguments(self):
        # equal orders share an entry, distinct orders do not
        for n in range(6):
            for alpha in (1, F(2, 2), 2, F(1, 2)):
                assert seq.special_case(n, alpha) == \
                    seq.bell_euler_poly(n, alpha).subs({"x": 0})


def test_negative_degree_rejected():
    for generate in (seq.bell_number, seq.bell_poly, seq.bivariate_bell,
                     lambda n: seq.euler_poly_order(n, 1),
                     lambda n: seq.euler_number_order(n, F(1, 2)),
                     lambda n: seq.stirling2_poly(n, 0),
                     lambda n: seq.stirling2_number(n, 0),
                     lambda n: seq.bell_euler_poly(n, 2)):
        with pytest.raises(ValueError):
            generate(-1)
