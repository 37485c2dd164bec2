"""The defining generating functions as the oracle for the closed-form path:
n! times the t^n coefficient of each family's series, expanded by the series
engine over the (x, y) polynomial ring, must equal the production value.  The
same engine checks the umbral layer's Appell base series h and the oracle's
1/h.  When
sympy is installed, its ``series`` rebuilds a few members as well."""

from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from belleuler import sequences as seq
from belleuler.algebra import Poly, QQ, XY, Series
from belleuler.umbral import AppellContext

X, Y = Poly.gens("x", "y")

ORDERS = (-2, -1, 0, 1, 2, 3, F(1, 2), F(-5, 3))
N_MAX = 10


def egf(series: Series, n: int):
    return factorial(n) * series.coefficient(n)


@lru_cache(maxsize=None)
def euler_factor(alpha, order: int, ring=XY) -> Series:
    """(2 / (e^t + 1))^alpha."""
    return ((Series.exp_t(ring, order) + 1) / 2).pow(-alpha)


@lru_cache(maxsize=None)
def x_exponential(order: int) -> Series:
    """e^{xt}."""
    return (Series.t(XY, order) * X).exp()


@lru_cache(maxsize=None)
def mixed_exponential(order: int) -> Series:
    """e^{xt + y(e^t - 1)}."""
    expm1 = Series.exp_t(XY, order) - 1
    return (Series.t(XY, order) * X + expm1 * Y).exp()


@pytest.mark.parametrize("alpha", ORDERS, ids=str)
def test_bell_euler_poly(alpha):
    series = euler_factor(alpha, N_MAX) * mixed_exponential(N_MAX)
    for n in range(N_MAX + 1):
        assert seq.bell_euler_poly(n, alpha) == egf(series, n)


@pytest.mark.parametrize("alpha", ORDERS, ids=str)
def test_euler_poly_and_numbers(alpha):
    series = euler_factor(alpha, N_MAX) * x_exponential(N_MAX)
    numbers = euler_factor(alpha, N_MAX, QQ)
    for n in range(N_MAX + 1):
        assert seq.euler_poly_order(n, alpha) == egf(series, n)
        assert seq.euler_number_order(n, alpha) == egf(numbers, n)


def test_bivariate_bell_and_bell_numbers():
    series = mixed_exponential(N_MAX)
    numbers = (Series.exp_t(QQ, N_MAX) - 1).exp()
    for n in range(N_MAX + 1):
        assert seq.bivariate_bell(n) == egf(series, n)
        assert seq.bell_poly(n) == egf(series, n).subs({"x": 0})
        assert seq.bell_number(n) == egf(numbers, n)


@pytest.mark.parametrize("k", range(N_MAX + 2))
def test_stirling2_poly_and_numbers(k):
    blocks = (Series.exp_t(XY, N_MAX) - 1).pow(k) / factorial(k)
    series = blocks * x_exponential(N_MAX)
    for n in range(N_MAX + 1):
        assert seq.stirling2_poly(n, k) == egf(series, n)
        assert seq.stirling2_number(n, k) == egf(blocks, n)


exact_orders = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=25, deadline=None)
@given(exact_orders, st.integers(0, 6))
def test_closed_form_matches_series_at_random_rational_order(alpha, n):
    order = max(n, 1)  # the series of t needs order 1
    series = euler_factor(alpha, order) * mixed_exponential(order)
    assert seq.bell_euler_poly(n, alpha) == egf(series, n)
    assert seq.euler_number_order(n, alpha) == egf(euler_factor(alpha, order, QQ), n)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 5), st.integers(0, 8))
def test_closed_form_matches_umbral_inverse_at_integer_order(mu, n):
    assert seq.bell_euler_poly(n, mu) == oracles.appell_inverse_apply(mu, n)


APPELL_ORDER = 20


@pytest.mark.parametrize("mu", [0, 1, 3, -1, F(1, 2), F(-5, 3)], ids=str)
def test_appell_base_matches_series_engine(mu):
    # h = ((e^t+1)/2)^mu e^{-y(e^t-1)} and 1/h, coefficient by coefficient
    expm1 = Series.exp_t(XY, APPELL_ORDER) - 1
    h = ((Series.exp_t(XY, APPELL_ORDER) + 1) / 2).pow(mu) * (expm1 * -Y).exp()
    ctx = AppellContext.create(mu, APPELL_ORDER)
    assert ctx.h == tuple(h.coeffs)
    assert oracles.h_inverse(ctx) == tuple(h.inverse().coeffs)


@pytest.mark.parametrize("n, alpha", [(5, 2), (5, F(1, 2)), (4, F(-5, 3))], ids=str)
def test_closed_form_matches_sympy_series(n, alpha):
    # an oracle sharing no code with this package: sympy expands each factor
    # of (2/(e^t+1))^alpha * e^{xt} * e^{y(e^t-1)} and multiplies the series
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y")
    factors = ((2 / (sympy.exp(t) + 1)) ** sympy.Rational(alpha.numerator,
                                                          alpha.denominator),
               sympy.exp(x * t), sympy.exp(y * (sympy.exp(t) - 1)))
    product = sympy.Integer(1)
    for factor in factors:
        product = sympy.expand(product * sympy.series(factor, t, 0, n + 1).removeO())
    member = sympy.Poly(sympy.factorial(n) * product.coeff(t, n), x, y)
    expected = {exps: F(int(c.p), int(c.q)) for exps, c in member.terms()}
    assert seq.bell_euler_poly(n, alpha).terms == expected
