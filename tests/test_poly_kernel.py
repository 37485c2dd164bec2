"""Differential tests for the integer kernel under ``Poly``: every operation
against the plain ``{exps: Fraction}`` reference in ``oracles``, plus the
canonical-form invariants and the eq/hash contract."""

from fractions import Fraction as F
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from belleuler.algebra import Poly

RINGS = (("x", "y"), ("x1", "x2", "y1", "y2"))

# small numerators over mixed denominators, so lcm and gcd reduction both work
coefficients = st.builds(F, st.integers(-12, 12),
                         st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12, 35)))
nonzero = coefficients.filter(bool)


def term_maps(nvars, max_size=5):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exps, coefficients, max_size=max_size).map(
        oracles.dict_nonzero)


@st.composite
def poly_pairs(draw, names=None):
    """Two term maps in one ring; the second may cancel part of the first."""
    names = names or draw(st.sampled_from(RINGS))
    a = draw(term_maps(len(names)))
    b = draw(term_maps(len(names)))
    for e, c in a.items():
        if draw(st.booleans()):
            b[e] = -c
    return names, a, b


def check_canonical(p: Poly):
    assert p._den > 0
    assert gcd(p._den, *p._num.values()) == 1
    assert all(type(c) is int and c for c in p._num.values())
    assert all(len(e) == len(p.names) for e in p._num)
    assert 0 not in p.terms.values()


def check_matches(p: Poly, names, reference):
    check_canonical(p)
    assert p.names == names
    assert p.terms == reference
    twin = Poly(names, reference)
    assert p == twin and hash(p) == hash(twin)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), nonzero, st.integers(0, 3))
def test_ring_operations_match_reference(pair, scalar, k):
    names, a, b = pair
    p, q = Poly(names, a), Poly(names, b)
    check_matches(p, names, a)
    check_matches(p + q, names, oracles.dict_add(a, b))
    check_matches(p - q, names, oracles.dict_add(a, oracles.dict_scale(b, -1)))
    check_matches(-p, names, oracles.dict_scale(a, -1))
    check_matches(p * q, names, oracles.dict_mul(a, b))
    check_matches(p * scalar, names, oracles.dict_scale(a, scalar))
    check_matches(scalar - p, names,
                  oracles.dict_add({(0,) * len(names): scalar},
                                   oracles.dict_scale(a, -1)))
    check_matches(p / scalar, names, oracles.dict_scale(a, 1 / scalar))
    check_matches(p ** k, names, oracles.dict_pow(a, k, len(names)))
    check_matches(p - p, names, {})


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.integers(0, 3))
def test_calculus_and_queries_match_reference(pair, k):
    names, a, _ = pair
    p = Poly(names, a)
    for i, var in enumerate(names):
        check_matches(p.derivative(var), names, oracles.dict_derivative(a, i))
        check_matches(p.antiderivative(var), names,
                      oracles.dict_antiderivative(a, i))
        check_matches(p.coefficient_in(var, k), names,
                      oracles.dict_coefficient_in(a, i, k))


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.lists(coefficients, min_size=4, max_size=4))
def test_evaluate_matches_reference(pair, point):
    names, a, _ = pair
    value = Poly(names, a).evaluate(dict(zip(names, point)))
    assert type(value) is F
    assert value == oracles.dict_evaluate(a, point)


@st.composite
def substitutions(draw):
    """A source poly and images for its variables: some scalars, some polys
    in the source ring (unmapped variables stay), or all polys in the
    4-variable ring as the addition theorem does."""
    names, a, _ = draw(poly_pairs())
    if names == RINGS[0] and draw(st.booleans()):
        target = RINGS[1]
        images = [draw(term_maps(4, max_size=3)) for _ in names]
        return names, a, target, dict(zip(names, images)), images
    target = names
    mapping, images = {}, []
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(("keep", "scalar", "poly")))
        if kind == "keep":
            images.append({tuple(int(j == i) for j in range(len(names))): F(1)})
            continue
        if kind == "scalar":
            value = draw(coefficients)
            mapping[name] = value
            images.append({(0,) * len(names): value} if value else {})
        else:
            image = draw(term_maps(len(names), max_size=3))
            mapping[name] = image
            images.append(image)
    return names, a, target, mapping, images


@settings(max_examples=150, deadline=None)
@given(substitutions())
def test_subs_matches_reference(case):
    names, a, target, mapping, images = case
    mapping = {name: Poly(target, v) if isinstance(v, dict) else v
               for name, v in mapping.items()}
    check_matches(Poly(names, a).subs(mapping), target,
                  oracles.dict_subs(a, images, len(target)))


@settings(max_examples=150, deadline=None)
@given(coefficients, st.sampled_from(RINGS))
def test_constants_equal_and_hash_like_their_value(value, names):
    for scalar in (value, int(value)):
        p = Poly.constant(scalar, names)
        check_canonical(p)
        assert p == scalar and scalar == p
        assert hash(p) == hash(scalar) == hash(F(scalar))
        assert len({p, scalar, F(scalar)}) == 1
        assert p.constant_value() == scalar
        x = Poly.gen(names[0], names)
        assert (x + scalar - x) == p and hash(x + scalar - x) == hash(p)
        assert x + scalar != scalar


def test_public_constructor_validates_and_reduces():
    p = Poly(["x", "y"], {(1, 0): F(2, 4), (0, 1): 3, (2, 2): F(0)})
    assert p._num == {(1, 0): 1, (0, 1): 6} and p._den == 2
    assert p.terms == {(1, 0): F(1, 2), (0, 1): F(3)}
    assert Poly(("x", "y"), {}) == Poly.zero() and Poly.zero()._den == 1
    for bad in ({(1,): F(1)}, {(1, 0): 0.5}):
        with pytest.raises(ValueError):
            Poly(("x", "y"), bad)


def test_terms_is_a_fresh_read_only_view():
    p = Poly(("x", "y"), {(1, 0): F(1, 3)})
    p.terms[(1, 0)] = F(5)
    assert p.terms == {(1, 0): F(1, 3)}
    with pytest.raises(AttributeError):
        p.terms = {}
