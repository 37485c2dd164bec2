"""Differential tests for the integer kernel under ``Poly``: every operation
and the fused ``sum_of_products`` against the plain ``{exps: Fraction}``
reference in ``oracles``, plus the canonical-form invariants, the exponent
ceiling of the packed keys and the eq/hash contract."""

import hashlib
import json
import sys
import threading
from fractions import Fraction as F
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import oracles
from belleuler import algebra
from belleuler import sequences as seq
from belleuler.algebra import EXPONENT_CEILING, FIELD_BITS, Poly
from belleuler.cli import parse_x_polynomial
from belleuler.identities import Grid, check_T3_3

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
    # packed keys: ints that fit len(names) fields, with no guard bit set
    fields = len(p.names)
    guard = sum(EXPONENT_CEILING << (FIELD_BITS * i) for i in range(fields))
    assert all(type(k) is int and 0 <= k < 1 << (FIELD_BITS * fields)
               and not k & guard for k in p._num)
    assert all(len(e) == fields for e in p.terms)
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


SUBS_RINGS = (("x",), ("x", "y"), ("x", "y", "z"), RINGS[1])


def _unit(j, nvars):
    return {tuple(int(i == j) for i in range(nvars)): F(1)}


@st.composite
def image_kinds(draw):
    """A source poly in 1 to 4 variables and an image of every kind that
    subs tells apart: a rename onto a variable of the target ring (several
    may land on one), an int or Fraction scalar, a constant or zero poly,
    another poly, or the variable kept.  The target ring is the source's
    or another one; the first image is then a poly, which fixes it."""
    names = draw(st.sampled_from(SUBS_RINGS))
    target = draw(st.sampled_from((names, names, ("t",)) + SUBS_RINGS))
    a = draw(term_maps(len(names)))
    n = len(target)
    mapping, images = {}, []
    for i, name in enumerate(names):
        kinds = ["rename", "constant", "zero", "poly"]
        if i or target == names:
            kinds.append("scalar")
            if name in target:
                kinds.append("keep")
        kind = draw(st.sampled_from(kinds))
        if kind == "keep":
            images.append(_unit(target.index(name), n))
            continue
        if kind == "rename":
            j = draw(st.integers(0, n - 1))
            mapping[name], image = Poly.gen(target[j], target), _unit(j, n)
        elif kind == "scalar":
            value = draw(st.one_of(coefficients, st.integers(-3, 3)))
            mapping[name], image = value, {(0,) * n: F(value)} if value else {}
        else:
            if kind == "constant":
                image = {(0,) * n: draw(nonzero)}
            else:
                image = {} if kind == "zero" else draw(term_maps(n, max_size=3))
            mapping[name] = Poly(target, image)
        images.append(image)
    return names, a, target, mapping, images


@settings(max_examples=300, deadline=None)
@given(image_kinds())
def test_subs_of_every_image_kind_matches_reference(case):
    names, a, target, mapping, images = case
    check_matches(Poly(names, a).subs(mapping), target,
                  oracles.dict_subs(a, images, len(target)))


big_exponents = st.one_of(st.integers(0, 3),
                          st.integers(EXPONENT_CEILING // 3, EXPONENT_CEILING - 1))


@st.composite
def large_renames(draw):
    """Exponents up to the ceiling under renames into ("s", "t") or ("t",),
    so two or three variables may land on one, and under nonzero scalars and
    constant polys.  Two source variables may carry several terms, three
    carry one: then subs must raise exactly where the result reaches the
    ceiling, as no product that reaches it can cancel."""
    names = draw(st.sampled_from((("x", "y"), ("x", "y", "z"))))
    target = draw(st.sampled_from((("s", "t"), ("t",))))
    exps = st.tuples(*[big_exponents] * len(names))
    a = draw(st.dictionaries(exps, nonzero, min_size=1,
                             max_size=4 if len(names) == 2 else 1))
    n = len(target)
    mapping, images = {}, []
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(("rename", "rename", "scalar", "constant")
                                    if i else ("rename", "constant")))
        value = draw(st.sampled_from((1, -1, 2, F(1, 2), F(-5, 3))))
        if kind == "rename":
            j = draw(st.integers(0, n - 1))
            mapping[name], image = Poly.gen(target[j], target), _unit(j, n)
        else:
            image = {(0,) * n: F(value)}
            mapping[name] = value if kind == "scalar" else Poly(target, image)
        images.append(image)
    return names, a, target, mapping, images


@settings(max_examples=100, deadline=None)
@given(large_renames())
def test_subs_at_large_exponents_raises_where_the_result_reaches_the_ceiling(case):
    names, a, target, mapping, images = case
    reference = oracles.dict_subs(a, images, len(target))
    if any(e >= EXPONENT_CEILING for exps in reference for e in exps):
        with pytest.raises(ValueError, match="ceiling"):
            Poly(names, a).subs(mapping)
    else:
        check_matches(Poly(names, a).subs(mapping), target, reference)


def test_subs_checks_each_rename_offset_it_adds():
    # each offset is below the ceiling, but the three sum past the guard bit
    # of their field; a sum left unchecked carries out of it instead
    x, y, z = Poly.gens("x", "y", "z")
    with pytest.raises(ValueError, match="ceiling"):
        ((x * y * z) ** 16000).subs({"x": z, "y": z})
    # in two variables, terms that reach it only to cancel leave no trace
    x, y = Poly.gens("x", "y")
    t = Poly.gen("t", ("t",))
    a, b = x ** 10000 * y ** 7000, x ** 7000 * y ** 10000
    assert (a - b).subs({"x": t, "y": t}) == Poly.zero(("t",))
    with pytest.raises(ValueError, match="ceiling"):
        (a + b).subs({"x": t, "y": t})


def test_subs_leaves_a_terms_last_rename_offset_to_the_result():
    # in three variables each term's full offset passes the guard bit only
    # at its last rename, and the two cancel: the result's check sees none
    x, y, z = Poly.gens("x", "y", "z")
    t = Poly.gen("t", ("t",))
    a, b = x ** 10000 * z ** 7000, y ** 10000 * z ** 7000
    assert (a - b).subs({"x": t, "y": t, "z": t}) == Poly.zero(("t",))
    with pytest.raises(ValueError, match="ceiling"):
        (a + b).subs({"x": t, "y": t, "z": t})
    # where a power row follows, the full offset is checked before it
    with pytest.raises(ValueError, match="ceiling"):
        (x * y ** 10000 * z ** 7000 - x * y ** 7000 * z ** 10000).subs(
            {"x": t + 1, "y": t, "z": t})


def test_subs_checks_the_offset_before_a_last_row_that_starts_at_key_0():
    # the image of x is 1 + t, whose power row starts at key 0; each term's
    # full offset passes the guard bit before that row, and the two would
    # cancel past it
    x, y, z = Poly.gens("x", "y", "z")
    t = Poly.gen("t", ("t",))
    one_plus_t = Poly.constant(1, ("t",)) + t
    assert next(iter(one_plus_t._num)) == 0
    with pytest.raises(ValueError, match="ceiling"):
        (x * y ** 10000 * z ** 7000 - x * y ** 7000 * z ** 10000).subs(
            {"x": one_plus_t, "y": t, "z": t})


def test_subs_of_an_affine_image_at_rising_and_falling_degrees():
    # one three-term image at rising and falling degrees, and in two rings:
    # each call builds the powers it reads and keeps none for the next
    for names in (("x", "y"), ("x", "y", "z")):
        x, y = Poly.gens(*names)[:2]
        image = x + F(1, 2) * y - 3
        for n in (1, 3, 7, 2, 12, 5):
            member = (x + y) ** n - F(2, 7) * x * y
            check_matches(member.subs({"x": image}), names, oracles.dict_subs(
                member.terms, [image.terms] + [_unit(i, len(names)) for i in
                                               range(1, len(names))], len(names)))


def test_subs_from_threads_matches_powers():
    # six threads substitute one image at interleaved rising degrees; subs
    # shares no state between calls, so each result is its own power
    x, y = Poly.gens("x", "y")
    image = x + y + 11
    results, switch = {}, sys.getswitchinterval()

    def work(k):
        results[k] = [(x ** n).subs({"x": image}) for n in range(k % 3, 24, 3)]

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
    for k, powers in results.items():
        assert powers == [image ** n for n in range(k % 3, 24, 3)]


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


@pytest.mark.parametrize("names", RINGS)
def test_bools_are_not_exact_scalars_in_equality(names):
    # Poly.constant(True), + True and * True raise, so == must not read a
    # bool as 1 or 0 either; like a float, it compares unequal
    one, zero = Poly.constant(1, names), Poly.zero(names)
    for p, flag in ((one, True), (zero, False), (one, 1.0), (zero, 0.0)):
        assert p != flag and flag != p
        assert not p == flag and not flag == p
    assert hash(one) == hash(1) and hash(zero) == hash(0)


def test_int_scalars_build_no_fraction(monkeypatch):
    # Poly reads an int scalar as it is, and the order helpers read an
    # order's numerator and denominator off it, so none of these builds a
    # Fraction; each result is the one its Fraction form gives
    x, y = Poly.gens("x", "y")
    p = x ** 2 * y - F(1, 2) * x + 5
    operations = {
        "Poly(...)": lambda c: Poly(("x", "y"), {(2, 1): c, (0, 0): -c, (1, 0): 0}),
        "Poly.constant": Poly.constant,
        "p * c": lambda c: p * c,
        "c * p": lambda c: c * p,
        "p / c": lambda c: p / c,
        "p + c": lambda c: p + c,
        "p - c": lambda c: p - c,
        "bell_euler_poly(12, c - 1)": lambda c: seq.bell_euler_poly(12, c - 1),
        "special_case(8, c)": lambda c: seq.special_case(8, c),
    }
    true_new, built = F.__new__, []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return true_new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        # the families from empty tables, so every row is built here
        patch.setattr(seq, "_stirling_rows", [(1,)])
        patch.setattr(seq, "_member_rows", {})
        seq._bell_euler_poly.cache_clear()
        patch.setattr(F, "__new__", staticmethod(counting))
        got = {name: op(3) for name, op in operations.items()}
    assert built == []
    for name, op in operations.items():
        want = op(F(3))
        assert got[name] == want and hash(got[name]) == hash(want), name


def test_public_constructor_validates_and_reduces():
    p = Poly(["x", "y"], {(1, 0): F(2, 4), (0, 1): 3, (2, 2): F(0)})
    assert p._num == {1: 1, 1 << FIELD_BITS: 6} and p._den == 2
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


@pytest.mark.parametrize("exps", [(-1, 0), (0, -2), (1.5, 0), (1.0, 0), (True, 0),
                                  (0, False), (EXPONENT_CEILING, 0), (0, 2**40)])
def test_public_constructor_rejects_invalid_exponents(exps):
    # negative, non-int (bool included) and at or above the field ceiling
    with pytest.raises(ValueError, match="exponent"):
        Poly(("x", "y"), {exps: 1})


@st.composite
def product_items(draw):
    """Items (c, a, b) in one ring: int or Fraction scales over mixed
    denominators, b None for a scalar multiple, and at times an item that
    cancels an earlier one."""
    names = draw(st.sampled_from(RINGS))
    items = []
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.one_of(nonzero, st.integers(-5, 5)))
        b = draw(st.one_of(st.none(), term_maps(len(names))))
        items.append((c, draw(term_maps(len(names))), b))
    if items and draw(st.booleans()):
        c, a, b = draw(st.sampled_from(items))
        items.append((-c, a, b))
    return names, items


@settings(max_examples=200, deadline=None)
@given(product_items())
def test_sum_of_products_matches_reference(case):
    names, items = case
    reference = {}
    for c, a, b in items:
        term = a if b is None else oracles.dict_mul(a, b)
        reference = oracles.dict_add(reference, oracles.dict_scale(term, F(c)))
    polys = [(c, Poly(names, a), None if b is None else Poly(names, b))
             for c, a, b in items]
    check_matches(Poly.sum_of_products(names, polys), names, reference)


def test_sum_of_products_edge_cases():
    x, y = Poly.gens("x", "y")
    assert Poly.sum_of_products(("x", "y"), []) == Poly.zero()
    cancelled = Poly.sum_of_products(("x", "y"), [(F(1, 3), x, y), (F(-1, 3), y, x)])
    check_canonical(cancelled)
    assert cancelled == 0 and cancelled._den == 1
    with pytest.raises(ValueError, match="variable mismatch"):
        Poly.sum_of_products(("x", "y"), [(1, Poly.gen("x", ("x",)), None)])
    with pytest.raises(ValueError, match="exact scalar"):
        Poly.sum_of_products(("x", "y"), [(0.5, x, y)])


def test_make_drops_zero_numerators_then_reduces():
    # the one canonical-form step: every writer hands it raw int sums
    p = Poly._make(("x", "y"), {0: 0, 1: 2}, 4)
    assert p._num == {1: 1} and p._den == 2
    check_canonical(p)


def test_algebra_keeps_no_table_between_calls():
    assert not [name for name, value in vars(algebra).items()
                if callable(value) and hasattr(value, "cache_info")]


def test_kernel_checks_the_ceiling_after_cancellation():
    # each product reaches x^16384, and the two cancel to zero
    x = Poly.gen("x", ("x",))
    items = [(1, x ** 10000, x ** 6384), (-1, x ** 10000, x ** 6384)]
    assert Poly.sum_of_products(("x",), items) == 0
    with pytest.raises(ValueError, match="ceiling"):
        Poly.sum_of_products(("x",), items[:1])


@pytest.mark.parametrize("names", RINGS)
def test_exponent_ceiling_raises_and_never_wraps(names):
    top = EXPONENT_CEILING - 1          # 2^(FIELD_BITS - 1) - 1
    for i, var in enumerate(names):
        p = Poly(names, {tuple(top if j == i else 0 for j in range(len(names))): 1})
        v = Poly.gen(var, names)
        assert p.degree(var) == top and p.degree() == top
        assert (p.derivative(var) * v) == top * p
        for overflow in (lambda: p * v, lambda: p * p, lambda: p.antiderivative(var),
                         lambda: Poly.sum_of_products(names, [(1, p, v)])):
            with pytest.raises(ValueError, match="ceiling"):
                overflow()


def test_subs_checks_the_ceiling_of_the_products_it_writes():
    # each image's power stays below the ceiling, but the image of the term
    # x*y, x^8192 * x^8192, reaches it
    x, y = Poly.gens("x", "y")
    half = x ** (EXPONENT_CEILING // 2)
    with pytest.raises(ValueError, match="ceiling"):
        (x * y).subs({"x": half, "y": half})


def test_subs_checks_each_image_power():
    # (t^5)^7000 = t^35000 would carry past the guard bit of t, so the power
    # raises before any term is written
    x, t = Poly.gen("x", ("x",)), Poly.gen("t", ("t",))
    with pytest.raises(ValueError, match="ceiling"):
        (x ** 7000).subs({"x": t ** 5})


def test_subs_checks_each_head_product_it_builds():
    # each cube of the image stays below the ceiling and the head product of
    # the images of x and y reaches it; with the tail, every term of the
    # result would carry past the guard bit of t, where no check sees it
    x, y, z = Poly.gens("x", "y", "z")
    t = Poly.gen("t", ("t",))
    image = t ** 5000 + t ** 4999
    with pytest.raises(ValueError, match="ceiling"):
        ((x * y * z) ** 3).subs({"x": image, "y": image, "z": image})


# hypothesis draws small polynomials only; these pin subs at the sizes the
# checks reach, by the sha256 of each result's canonical JSON as the earlier
# subs, which read its powers from process-wide tables, computed it
LARGE_SUBS = {
    "sum images, 20475 terms": (
        24, lambda x1, x2, y1, y2: {"x": x1 + x2, "y": y1 + y2},
        "4599e625f73aaab57e015483a27b68dc42ac52e0f183d74f43a678a8e79025d0"),
    "rational shift": (
        48, lambda *_: {"x": seq.X - F(2, 3)},
        "ceef42d1d3295e4756bda153f64696fa650839112981ef3dd5e04ea5166c69dd"),
    "rational point": (
        48, lambda *_: {"x": F(7, 5), "y": F(-3, 2)},
        "0f2319dc6c1e35d58cab57aff7bb766efc1feb26c9132ae929aa813a71ff511f"),
}


@pytest.mark.parametrize("case", LARGE_SUBS)
def test_large_subs_match_pinned_digests(case):
    n, mapping, expected = LARGE_SUBS[case]
    image = seq.bell_euler_poly(n, F(-5, 3)).subs(
        mapping(*Poly.gens("x1", "x2", "y1", "y2")))
    text = json.dumps(image.to_json_map(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_family_builders_refuse_degrees_the_keys_cannot_hold():
    # the builders write packed keys directly, so they check n up front
    with pytest.raises(ValueError, match="below"):
        seq.bell_euler_poly(EXPONENT_CEILING, 1)


def test_oracle_subs_and_parser_never_call_the_kernel(monkeypatch):
    # the oracle is the independent path the kernel's results are held
    # against, so it must build with the kernel disabled
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel was called")

    for cached in (seq.euler_poly_recurrence, seq.euler_numbers_of_order,
                   seq.stirling2_recurrence):
        cached.cache_clear()
    monkeypatch.setattr(Poly, "sum_of_products", refuse)
    with pytest.raises(AssertionError):
        check_T3_3(Grid(n_max=2))
    assert seq.bell_euler_convolution(6, 2).terms == oracles.bell_euler_dict(6, 2)
    assert seq.euler_poly_recurrence(8).terms == \
        {(j, 0): c for j, c in enumerate(oracles.euler_poly_coeffs(8)) if c}
    shifted = seq.bell_euler_poly(5, 1).subs({"x": seq.X + 1, "y": F(1, 2)})
    assert shifted.degree("x") == 5 and shifted.degree("y") == 0
    assert parse_x_polynomial("x^3 - 2/3") == seq.X ** 3 - F(2, 3)
