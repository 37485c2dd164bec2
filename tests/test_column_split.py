"""Differential tests for the one-pass x-column split: ``Poly.columns``
against the dict oracle's coefficient degree by degree, and ``pair`` and
``expand_in_appell``, which read the columns, against the per-degree
definition of the pairing.  Rings where "x" is not the first variable check
that the split uses x's own field of the packed key."""

from fractions import Fraction as F
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from belleuler.algebra import Poly
from belleuler.cli import parse_x_polynomial
from belleuler.umbral import AppellContext, expand_in_appell, pair, reconstruct

RINGS = (("x", "y"), ("y", "x"), ("y1", "x", "y2"))

scalars = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6)))


@st.composite
def polys(draw, names=None):
    names = names or draw(st.sampled_from(RINGS))
    exps = st.tuples(*[st.integers(0, 4)] * len(names))
    return Poly(names, draw(st.dictionaries(exps, scalars, max_size=8)))


def reference_pair(coeffs, q):
    # <f | q> = sum_n n! coeffs[n] q_n, one coefficient_in per degree
    total = Poly.zero(q.names)
    for n in range(q.degree("x") + 1):
        total = total + factorial(n) * coeffs[n] * q.coefficient_in("x", n)
    return total


@settings(max_examples=150, deadline=None)
@given(polys())
def test_columns_equal_coefficient_in_per_degree(q):
    # coefficient_in reads columns, so the reference is the dict oracle's
    for i, var in enumerate(q.names):
        expected = {k: Poly(q.names, oracles.dict_coefficient_in(q.terms, i, k))
                    for k in range(q.degree(var) + 1)}
        assert q.columns(var) == {k: c for k, c in expected.items() if c}


@settings(max_examples=150, deadline=None)
@given(polys(), st.lists(scalars, min_size=5, max_size=5))
def test_pair_matches_the_per_degree_definition(q, coeffs):
    got = pair(coeffs, q)
    assert got == reference_pair(coeffs, q) and got.names == q.names


@settings(max_examples=60, deadline=None)
@given(polys(("x", "y")), st.sampled_from((1, 2, F(1, 2), F(-5, 3))))
def test_expansion_coefficients_are_the_scaled_pairings(q, mu):
    coeffs = expand_in_appell(q, mu).coeffs
    assert len(coeffs) == max(q.degree("x"), 0) + 1
    ctx = AppellContext.create(mu, len(coeffs) - 1)
    for k, b in enumerate(coeffs):
        assert b == pair(ctx.functionals[k], q) / factorial(k)
        assert b == reference_pair(ctx.functionals[k], q) / factorial(k)


@pytest.mark.parametrize("names", RINGS)
def test_a_too_short_functional_is_refused(names):
    x = Poly.gen("x", names)
    with pytest.raises(ValueError, match="truncated at order 2"):
        pair((F(1),) * 3, x**3 + 1)


def test_a_degree_40_literal_expands_and_reconstructs_exactly():
    # the expansion reads the x = 0 members, so no truncation order bounds it
    q = parse_x_polynomial("x^40 - 7/2*x^13 + 2/3")
    expansion = expand_in_appell(q, F(-5, 3))
    assert len(expansion.coeffs) == 41 and expansion.coeffs[40] == 1
    assert reconstruct(expansion) == q
