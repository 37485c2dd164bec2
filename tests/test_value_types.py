"""The value types of the identity and Appell layers (``Grid``,
``Counterexample``, ``IdentityReport``, ``AppellContext``,
``AppellExpansion``) are named tuples: immutable, hashed and compared as
tuples, and printed as ``Name(field=value, ...)``."""

from fractions import Fraction as F

import pytest

from belleuler.algebra import Poly
from belleuler.identities import Counterexample, Grid, IdentityReport
from belleuler.umbral import AppellContext, expand_in_appell

X = Poly.gen("x")


def instances():
    """Two equal, separately built instances of each value type."""
    def build():
        counterexample = Counterexample({"n": 1}, X, Poly.constant(1))
        return [Grid(n_max=3, alphas=(1, F(1, 2))), counterexample,
                IdentityReport("T3_3", 4, None, 0.5), AppellContext.create(2, 3),
                expand_in_appell(X, 2)]
    return list(zip(build(), build()))


@pytest.mark.parametrize("value, twin", instances(), ids=lambda v: type(v).__name__)
def test_every_assignment_is_refused(value, twin):
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == twin


def test_appell_context_refuses_h_before_and_after_its_first_read():
    ctx = AppellContext.create(2, 3)
    with pytest.raises(AttributeError):
        ctx.h = ()
    h = ctx.h
    with pytest.raises(AttributeError):
        ctx.h = ()
    assert ctx.h is h and len(h) == 4


@pytest.mark.parametrize("a, b", [pair for pair in instances()
                                  if not isinstance(pair[0], Counterexample)],
                         ids=lambda v: type(v).__name__)
def test_equal_values_hash_alike(a, b):
    assert a is not b and a == b and hash(a) == hash(b)


def test_reprs():
    assert repr(Grid(3)) == "Grid(n_max=3, alphas=None)"
    assert repr(Grid()) == "Grid(n_max=None, alphas=None)"
    assert repr(AppellContext.create(2, 3)) == "AppellContext(mu=2, order=3)"
    assert repr(expand_in_appell(X, 2)) == \
        "AppellExpansion(mu=2, coeffs=(Poly('1 - y'), Poly('1')))"
