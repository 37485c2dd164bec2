"""Property-based tests: exact ring laws for the series engine and the
dual-pairing product rule, on randomized inputs."""

from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import given, settings

from belleuler.algebra import Poly, QQ, Series
from belleuler.umbral import apply_operator, pair

rationals = st.fractions(min_value=F(-10**6), max_value=F(10**6),
                         max_denominator=10**6)


def series_strategy(order, head=None):
    """Series of a fixed order; `head` pins the constant term."""
    body = st.lists(rationals, min_size=order + 1, max_size=order + 1)
    if head is None:
        return body.map(lambda cs: Series(QQ, cs))
    return body.map(lambda cs: Series(QQ, [head] + cs[1:]))


small_orders = st.integers(min_value=2, max_value=16)


@settings(max_examples=60, deadline=None)
@given(small_orders.flatmap(lambda n: st.tuples(
    series_strategy(n), series_strategy(n), series_strategy(n))))
def test_series_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_orders.flatmap(lambda n: series_strategy(n, head=F(1))))
def test_exp_log_roundtrip(f):
    assert f.log().exp() == f


@settings(max_examples=60, deadline=None)
@given(small_orders.flatmap(lambda n: series_strategy(n, head=F(1))),
       st.integers(-3, 3), st.integers(-3, 3))
def test_pow_additivity(f, a, b):
    assert f.pow(a + b) == f.pow(a) * f.pow(b)


@settings(max_examples=60, deadline=None)
@given(small_orders.flatmap(lambda n: series_strategy(n)).filter(
    lambda s: s.coefficient(0) != 0))
def test_inverse_law(f):
    assert f * f.inverse() == Series.one(QQ, f.order)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=10).flatmap(lambda n: st.tuples(
    series_strategy(n), series_strategy(n, head=F(0)),
    series_strategy(n, head=F(0)))))
def test_composition_associativity(triple):
    f, g, h = triple
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    series_strategy(n), series_strategy(n),
    st.lists(rationals, min_size=n + 1, max_size=n + 1))))
def test_pairing_product_rule(triple):
    # <g h | q> = <g | h(t) q(x)> with h acting as a derivative operator
    g, h, q_coeffs = triple
    q = Poly(("x", "y"), {(i, 0): c for i, c in enumerate(q_coeffs)})
    assert pair((g * h).coeffs, q) == pair(g.coeffs, apply_operator(h.coeffs, q))


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_poly_ring_laws(ac, bc, cc):
    x, y = Poly.gens("x", "y")
    build = lambda cs: cs[0] + cs[1] * x + cs[2] * y + x * y * cs[1]
    a, b, c = build(ac), build(bc), build(cc)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
