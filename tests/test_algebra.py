"""Contract tests for rationals, polynomials, and the truncated series engine."""

import doctest
from fractions import Fraction as F
from math import factorial

import pytest

import oracles
import belleuler.algebra
from belleuler.algebra import Poly, QQ, Series, XY, format_fraction, parse_fraction

X, Y = Poly.gens("x", "y")


def test_doctests_in_algebra_module():
    failures, _ = doctest.testmod(belleuler.algebra)
    assert failures == 0


class TestFractionSerialization:
    def test_roundtrip(self):
        for text, value in [("3/4", F(3, 4)), ("-2", F(-2)), ("0", F(0)),
                            ("+2/4", F(1, 2)), ("-6/4", F(-3, 2))]:
            assert parse_fraction(text) == value

    def test_canonical_form(self):
        assert format_fraction(F(3, 4)) == "3/4"
        assert format_fraction(F(-3, 4)) == "-3/4"
        assert format_fraction(F(8, 4)) == "2"
        assert format_fraction(F(2, -4)) == "-1/2"

    @pytest.mark.parametrize("bad", ["1.5", "x", "", "3/0", "1/2/3", "2e3", "1/-2"])
    def test_rejects_inexact(self, bad):
        with pytest.raises(ValueError):
            parse_fraction(bad)


class TestPoly:
    def test_canonical_no_zero_terms(self):
        p = Poly(("x", "y"), {(1, 0): F(1), (0, 1): F(0)})
        assert p.terms == {(1, 0): F(1)}
        assert (X - X) == Poly.zero()

    def test_equality_is_map_equality(self):
        assert X + Y == Y + X
        assert X != Y
        assert Poly.constant(2) == 2 == Poly.constant(F(2))

    def test_hash_agrees_with_scalar_equality(self):
        # equal values must collapse in sets and find each other in dicts
        assert len({Poly.constant(1), 1}) == 1
        assert len({Poly.zero(), 0}) == 1
        assert len({Poly.constant(F(1, 2)), F(1, 2)}) == 1
        assert {F(-3, 4): "value"}[Poly.constant(F(-3, 4))] == "value"
        assert {0: "zero"}[X - X] == "zero"
        assert Poly.constant(5, ("a",)) in {5}
        assert X + 1 in {1 + X} and X not in {1, Poly.constant(1)}

    def test_arithmetic(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2
        assert (X + 1)**3 == X**3 + 3 * X**2 + 3 * X + 1
        assert 2 - X == Poly.constant(2) - X
        assert (X * F(1, 2)) * 2 == X

    def test_derivative(self):
        assert (X**2 * Y).derivative("x") == 2 * X * Y
        assert (X**2 * Y).derivative("y") == X**2
        assert Poly.constant(5).derivative("x") == Poly.zero()

    def test_antiderivative_fundamental_theorem(self):
        p = X**3 - X
        assert p.derivative("x").antiderivative("x") == p
        assert (X**2).antiderivative("x") == X**3 / 3
        assert (X**2).antiderivative("x").coefficient((0, 0)) == 0

    def test_definite_integral_of_one(self):
        # integral of 1 from x to x+z is z
        z = F(5, 7)
        anti = Poly.constant(1).antiderivative("x")
        assert anti.subs({"x": X + z}) - anti == Poly.constant(z)

    def test_subs_shift(self):
        p = X**2 - X
        assert p.subs({"x": X + 1}) == X**2 + X

    def test_subs_ring_change(self):
        x1, x2, y1, y2 = Poly.gens("x1", "x2", "y1", "y2")
        p = X * Y + X
        image = p.subs({"x": x1 + x2, "y": y1 + y2})
        assert image == (x1 + x2) * (y1 + y2) + x1 + x2

    def test_subs_scalar(self):
        p = X**2 + Y
        assert p.subs({"x": F(1, 2)}) == F(1, 4) + Y
        assert p.subs({"x": 2, "y": 3}).constant_value() == 7

    def test_evaluate(self):
        p = X**2 * Y - Y
        assert p.evaluate({"x": F(2), "y": F(1, 3)}) == F(4, 3) - F(1, 3)
        with pytest.raises(KeyError):
            p.evaluate({"x": 1})
        assert isinstance(p.evaluate({"x": 3, "y": 2}), F)
        with pytest.raises(ValueError, match="exact scalar"):
            p.evaluate({"x": 1.5, "y": 1})

    def test_degrees(self):
        p = X**2 * Y + Y**4
        assert p.degree("x") == 2
        assert p.degree("y") == 4
        assert p.degree() == 4
        assert Poly.zero().degree() == -1

    def test_coefficient_in(self):
        p = X**2 * Y + 2 * X**2 + Y
        assert p.coefficient_in("x", 2) == Y + 2
        assert p.coefficient_in("x", 0) == Y
        assert p.coefficient_in("x", 5) == Poly.zero()

    def test_constant_value_errors(self):
        with pytest.raises(ValueError):
            X.constant_value()

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            X ** -1

    def test_mismatched_rings_rejected(self):
        z = Poly.gen("z", ("z",))
        with pytest.raises(ValueError):
            X + z

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Poly.gen("z", ("x", "y")), ValueError, "is not one of"),
        (lambda: X / 0, ZeroDivisionError, "division by zero"),
        # __add__ and __mul__ return NotImplemented, and so does the str or
        # float on the right, so Python raises
        (lambda: X + "1", TypeError, "unsupported operand"),
        (lambda: X * 1.5, TypeError, "unsupported operand"),
        (lambda: X.subs({"x": Poly.gen("s", ("s",)), "y": Poly.gen("t", ("t",))}),
         ValueError, "different rings"),
    ])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestPolySerialization:
    def test_json_key_order_and_format(self):
        p = X**2 + 2 * X * Y + Y**2 - X
        assert p.to_json_map() == {
            "x^2": "1", "x^1*y^1": "2", "y^2": "1", "x^1": "-1"}
        assert list(p.to_json_map()) == ["x^2", "x^1*y^1", "y^2", "x^1"]

    def test_json_constant_key(self):
        assert (X - F(1, 2)).to_json_map() == {"x^1": "1", "1": "-1/2"}
        assert Poly.zero().to_json_map() == {}

    def test_pretty_goldens(self):
        assert (X + Y).pretty() == "x + y"
        assert (X - F(1, 2)).pretty() == "x - 1/2"
        assert (X**2 - X).pretty() == "x^2 - x"
        assert (F(1, 2) - Y).pretty() == "1/2 - y"
        assert Poly.zero().pretty() == "0"
        assert (-X + 1).pretty() == "-x + 1"
        assert (2 * X * Y).pretty() == "2*x*y"
        assert Poly.constant(F(-3, 4)).pretty() == "-3/4"


def geometric(order):
    return Series(QQ, [F(1)] * (order + 1))


class TestSeriesBasics:
    def test_difference_of_squares(self):
        one_plus = Series(QQ, [1, 1, 0])
        one_minus = Series(QQ, [1, -1, 0])
        assert one_plus * one_minus == Series(QQ, [1, 0, -1])

    def test_multiplicative_identity(self):
        a = Series(QQ, [F(2), F(-1, 3), F(5)])
        assert a * Series.one(QQ, 2) == a

    def test_exp_times_exp(self):
        e = Series.exp_t(QQ, 4)
        assert (e * e).coefficient(3) == F(4, 3)   # e^{2t}

    def test_coefficient_bounds(self):
        a = Series.one(QQ, 3)
        with pytest.raises(ValueError):
            a.coefficient(4)
        with pytest.raises(ValueError):
            a.coefficient(-1)

    def test_order_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            Series.one(QQ, 3) + Series.one(QQ, 4)
        with pytest.raises(ValueError):
            Series.one(QQ, 3) * Series.one(QQ, 4)

    def test_explicit_truncation(self):
        a = Series.exp_t(QQ, 5)
        assert a.truncate(3) == Series.exp_t(QQ, 3)
        with pytest.raises(ValueError):
            a.truncate(9)

    def test_valuation(self):
        assert Series.zero(QQ, 3).valuation() is None
        assert Series.one(QQ, 3).valuation() == 0
        assert Series.t(QQ, 3).valuation() == 1
        assert Series.t(QQ, 3).is_delta()
        assert Series.one(QQ, 3).is_invertible()

    def test_float_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Series(QQ, [0.5, 1])

    def test_poly_ring_coercion(self):
        s = Series(XY, [X, Y])
        assert s.coefficient(0) == X
        with pytest.raises(ValueError):
            Series(QQ, [X])
        z = Poly.gen("z", ("z",))
        with pytest.raises(ValueError):
            Series(XY, [z])


class TestSeriesExp:
    def test_exp_zero(self):
        assert Series.zero(QQ, 4).exp() == Series.one(QQ, 4)

    def test_exp_t_coefficients(self):
        e = Series.t(QQ, 6).exp()
        for k in range(7):
            assert e.coefficient(k) == F(1, factorial(k))

    def test_exp_of_expm1_gives_bell_numbers(self):
        s = (Series.exp_t(QQ, 4) - 1).exp()
        values = [factorial(k) * s.coefficient(k) for k in range(5)]
        assert values == [1, 1, 2, 5, 15]
        assert values == oracles.bell_triangle(4)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            Series.one(QQ, 3).exp()


class TestSeriesLog:
    def test_log_one(self):
        assert Series.one(QQ, 4).log() == Series.zero(QQ, 4)

    def test_log_exp_t(self):
        t = Series.t(QQ, 6)
        assert t.exp().log() == t

    def test_mercator(self):
        log1p = (Series.t(QQ, 5) + 1).log()
        assert log1p.coefficient(3) == F(1, 3)
        assert log1p.coefficient(2) == F(-1, 2)

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            (Series.one(QQ, 3) * 2).log()


class TestSeriesInverse:
    def test_inverse_of_one(self):
        assert Series.one(QQ, 4).inverse() == Series.one(QQ, 4)

    def test_geometric_series(self):
        inv = (Series.t(QQ, 6) + 1).inverse()
        assert inv == Series(QQ, [(-1) ** k for k in range(7)])

    def test_inverse_is_two_sided(self):
        f = Series(QQ, [F(3, 2), F(1, 7), F(-4), F(0), F(2, 3)])
        assert f * f.inverse() == Series.one(QQ, 4)
        assert f.inverse() * f == Series.one(QQ, 4)

    def test_euler_numbers_from_inverse(self):
        # 2/(e^t+1) carries the order-1 Euler numbers
        half_sum = (Series.exp_t(QQ, 7) + 1) / 2
        inv = half_sum.inverse()
        got = [factorial(k) * inv.coefficient(k) for k in range(8)]
        assert got == list(oracles.euler_numbers(1, 7))

    def test_requires_invertible_constant(self):
        with pytest.raises(ValueError):
            Series.t(QQ, 3).inverse()
        with pytest.raises(ValueError):
            Series(XY, [X, Y]).inverse()


class TestSeriesPow:
    def test_power_zero_and_one(self):
        f = Series(QQ, [F(2), F(3), F(-1)])
        assert f.pow(0) == Series.one(QQ, 2)
        assert f.pow(1) == f

    def test_negative_square_two_paths(self):
        f = (Series.exp_t(QQ, 10) + 1) / 2
        assert f.pow(-2) == f.inverse() * f.inverse()

    def test_integer_matches_repeated_multiplication(self):
        f = Series(QQ, [F(1), F(-2, 3), F(5)])
        assert f.pow(3) == f * f * f

    def test_rational_power_additivity(self):
        f = (Series.exp_t(QQ, 8) + 1) / 2
        half = f.pow(F(1, 2))
        assert half * half == f

    def test_rational_power_needs_unit_constant(self):
        f = Series(QQ, [F(2), F(1)])
        with pytest.raises(ValueError):
            f.pow(F(1, 2))

    def test_float_exponent_rejected(self):
        with pytest.raises(ValueError):
            Series.one(QQ, 2).pow(0.5)


class TestSeriesCompose:
    def test_compose_with_t(self):
        f = Series(QQ, [F(7), F(1, 3), F(-2), F(4)])
        assert f.compose(Series.t(QQ, 3)) == f

    def test_t_compose(self):
        g = Series(QQ, [F(0), F(2), F(-1), F(5)])
        assert Series.t(QQ, 3).compose(g) == g

    def test_exp_compose_expm1_gives_bell(self):
        e = Series.exp_t(QQ, 5)
        s = e.compose(e - 1)
        got = [factorial(k) * s.coefficient(k) for k in range(6)]
        assert got == oracles.bell_triangle(5)

    def test_requires_delta_inner(self):
        with pytest.raises(ValueError):
            Series.exp_t(QQ, 3).compose(Series.one(QQ, 3))


class TestSeriesShift:
    def test_shift_up_then_down(self):
        f = Series(QQ, [F(1), F(2), F(3)])
        up = f.shift(1)
        assert up == Series(QQ, [F(0), F(1), F(2)])
        assert up.shift(-1) == Series(QQ, [F(1), F(2)])

    def test_divide_by_t_requires_zero_head(self):
        with pytest.raises(ValueError):
            Series.one(QQ, 3).shift(-1)

    def test_expm1_over_t(self):
        quotient = (Series.exp_t(QQ, 5) - 1).shift(-1)
        assert quotient.order == 4
        for k in range(5):
            assert quotient.coefficient(k) == F(1, factorial(k + 1))
