"""Differential test for the two formatters of ``Poly``: ``pretty`` and
``to_json_map`` against the tuple-per-term reference formatters in
``oracles``, in rings of 0 to 4 variables, with the term order compared
as well as the text."""

from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import given, settings

import oracles
from belleuler.algebra import EXPONENT_CEILING, Poly

RINGS = ((), ("x",), ("x", "y"), ("x", "y", "z"), ("x1", "x2", "y1", "y2"))

numerators = st.one_of(st.integers(-40, 40), st.integers(-10**40, 10**40))


@st.composite
def polys(draw):
    """A Poly whose common denominator is 1 or not, with coefficients of
    +-1 (numerator equal to +-den), small and big numerators, constants and
    the zero polynomial among the draws."""
    names = draw(st.sampled_from(RINGS))
    # most draws keep exponents small, so that terms share exponents; the
    # rest reach the largest exponent a key holds
    top = draw(st.sampled_from((3, 3, 3, EXPONENT_CEILING - 1)))
    exponents = st.one_of(st.integers(0, top), st.just(top))
    den = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(2, 10**30)))
    coefficient = st.one_of(st.sampled_from((1, -1)),
                            numerators.map(lambda n: F(n, den)))
    terms = draw(st.dictionaries(st.tuples(*[exponents] * len(names)),
                                 coefficient, max_size=8))
    return Poly(names, terms)


@settings(max_examples=300, deadline=None)
@given(polys())
def test_formatters_match_reference(p):
    assert p.pretty() == oracles.reference_pretty(p)
    assert list(p.to_json_map().items()) == \
        list(oracles.reference_to_json_map(p).items())

