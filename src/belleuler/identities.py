"""Executable identity checks: each theorem becomes an exact polynomial
equality verified over a parameter grid, reported with counterexamples.

Check ids are opaque registry labels (``T3_3`` ... ``T5_2``); the docstring of
each check states the identity it verifies.  ``T4_4_literal`` is a negative
control: an uncorrected double-sum form that is *not* an identity, kept to
prove the harness detects false statements.

The docstrings of ``T4_1`` and of the checks with one order give the degree
in the order of both sides at fixed n: two sides of degree at most d that
agree at d + 1 orders agree at every order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from math import comb

from .algebra import Poly, _count
from . import sequences as seq

DEFAULT_N_MAX = 8
DEFAULT_ALPHAS = (0, 1, 2, 3)


def validate_n_max(n_max: int) -> int:
    """The grid-size rule every identity check applies: a count of at least 1."""
    if isinstance(n_max, int) and n_max < 1:
        raise ValueError("n_max must be at least 1")
    return _count(n_max, "n_max")


@dataclass(frozen=True)
class Grid:
    """Parameter grid for a check; None fields fall back to per-check defaults."""

    n_max: "int | None" = None
    alphas: "tuple | None" = None

    def resolve(self, n_default=DEFAULT_N_MAX, alphas_default=DEFAULT_ALPHAS):
        """(n_max, orders) from the grid or the check's defaults, validated
        once, so that every check refuses a bad grid before its first case."""
        n_max = validate_n_max(self.n_max if self.n_max is not None else n_default)
        alphas = self.alphas if self.alphas is not None else alphas_default
        if not alphas:
            raise ValueError("alpha list must be non-empty")
        return n_max, tuple(map(seq.validate_order, alphas))


@dataclass(frozen=True)
class Counterexample:
    params: dict
    lhs: Poly
    rhs: Poly

    def to_json_dict(self):
        return {
            "params": dict(self.params),
            "lhs": self.lhs.to_json_map(),
            "rhs": self.rhs.to_json_map(),
        }


@dataclass(frozen=True)
class IdentityReport:
    id: str
    checked: int
    counterexample: "Counterexample | None"
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self):
        out = {"id": self.id, "pass": self.passed, "checked": self.checked}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_dict()
        out["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return out


def run_cases(check_id: str, cases) -> IdentityReport:
    """Evaluate (params, thunk) pairs in order; stop at the first failing
    equality so the reported counterexample is grid-minimal."""
    start = time.perf_counter()
    checked = 0
    for params, thunk in cases:
        lhs, rhs = thunk()
        checked += 1
        if lhs != rhs:
            elapsed = time.perf_counter() - start
            return IdentityReport(check_id, checked,
                                  Counterexample(params, lhs, rhs), elapsed)
    return IdentityReport(check_id, checked, None, time.perf_counter() - start)


def json_order(value):
    """A grid value as the reports print it: an int stays a JSON int, a
    Fraction becomes its "p/q" string and a string stays as it is."""
    return value if isinstance(value, int) else str(value)


def product_cases(pair, **axes):
    """(params, thunk) for ``pair(*point)`` over the product of the named
    axes, the first outermost: the one case generator of every grid check
    but ``roundtrip``, whose params come from seeded draws.

    A param whose name starts with ``alpha`` prints as ``str(value)``, any
    other as :func:`json_order`; each axis value is spelled once per call,
    and each case's params zip the spelled values of its point.  The
    thunks are evaluated in order by :func:`run_cases`, so the first
    failing point is grid-minimal; a check sees only what its ``pair``
    reads, and ``tests/test_mutants.py`` pins which seeded engine faults
    each check fails.
    """
    names, values = tuple(axes), [tuple(axis) for axis in axes.values()]
    spelled = [[str(value) if name.startswith("alpha") else json_order(value)
                for value in axis] for name, axis in zip(names, values)]
    for point, shown in zip(product(*values), product(*spelled)):
        yield dict(zip(names, shown)), partial(pair, *point)


def _grid_cases(grid: Grid, pair_fn):
    n_max, alphas = grid.resolve()
    return product_cases(pair_fn, n=range(n_max + 1), alpha=alphas)


def check_T3_3(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial = binomial convolution of Euler polynomials of the
    same order with Bell polynomials.  The member is built from x = 0 rows
    of a three-term recurrence, and the right side from the Euler-number and
    Stirling tables, so a wrong entry in either table fails the check.  At
    fixed n both sides have coefficients of degree at most n in a."""
    # members recur across grid points; each table dies with this call, so
    # a later call builds them afresh (T3_4, T4_1 and T4_3 do the same)
    euler, bell = cache(seq.euler_poly_order), cache(seq.bell_poly)

    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), euler(k, a), bell(n - k)) for k in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T3_3", _grid_cases(grid, pair))


def check_T3_4(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial = convolution of Euler numbers with bivariate Bell
    polynomials, the right side again from the tables that the member's
    x = 0 rows do not read.  At fixed n both sides have coefficients of
    degree at most n in a."""
    bivariate, euler = cache(seq.bivariate_bell), cache(seq.euler_number_order)

    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k) * euler(k, a), bivariate(n - k), None)
            for k in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T3_4", _grid_cases(grid, pair))


def check_T3_5(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial = convolution of its own x=0 specialization with
    powers of x.  The member is built from x = 0 rows of a three-term
    recurrence; ``special_case`` reads the same rows off its falling-product
    form over one Stirling row, so the check holds two distinct closed
    forms.  At fixed n both sides have coefficients of degree at most n in
    a."""
    # the x = 0 members and the powers of x recur across grid points; the
    # tables die with this call
    power, special = cache(seq.X.__pow__), cache(seq.special_case)

    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), special(k, a), power(n - k))
            for k in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T3_5", _grid_cases(grid, pair))


def appell_columns():
    """Two tables over the members ``bell_euler_poly(n, a)``, for one check
    call: ``columns(n, a)``, the member's x-columns ``{s: coefficient of
    x^s}``, and ``column_gap(n, a)``, the first x-column s >= 1 that is not
    C(n, s) times the x^0 column of member n - s, with what it should be, or
    None.  A member with no gap is Appell in x, [x^s] BE_n^(a)(x; y) =
    C(n, s) Z_(n-s)^(a)(y) with Z_r the x = 0 row, and has no column past
    n; ``T4_1`` and ``orthogonality`` hold each member they read to that
    form before they compare what it reduces their identities to."""
    zero = Poly.zero(seq.NAMES)

    @cache
    def columns(n, a):
        return seq.bell_euler_poly(n, a).columns("x")

    @cache
    def column_gap(n, a):
        # column 0 is Z_n itself
        found = columns(n, a)
        for s in range(1, max([n, *found]) + 1):
            want = comb(n, s) * columns(n - s, a).get(0, zero) if s <= n else zero
            if found.get(s, zero) != want:
                return found.get(s, zero), want
        return None

    return columns, column_gap


_SPLIT_Y = ("y1", "y2")


def check_T4_1(grid: Grid = Grid()) -> IdentityReport:
    """Addition theorem, for every pair of the grid's orders:
    BE_n^(a1+a2)(x1+x2; y1+y2) = sum_k C(n, k) BE_k^(a1)(x1; y1)
    BE_(n-k)^(a2)(x2; y2), checked through the x = 0 rows.

    A member is Appell in x when [x^s] BE_n^(a)(x; y) = C(n, s)
    Z_(n-s)^(a)(y), with Z_r the x = 0 row, and for Appell members the
    theorem at every n' <= n is Z_r^(a1+a2)(y1 + y2) = W_r := sum_m C(r, m)
    Z_m^(a1)(y1) Z_(r-m)^(a2)(y2) at every r <= n.  So the point n compares
    each x-column of the members of orders a1, a2 and a1 + a2 at n with
    C(n, s) times the x = 0 row it should be, in the (x, y) ring
    (:func:`appell_columns`), and then Z_n^(a1+a2)(y1 + y2) with W_n, in
    the (y1, y2) ring; the points below n, which run first, hold the rest.
    A counterexample is the first column that fails, or else the two rows.
    Each member's columns and each row at y1, y2 or y1 + y2 are built once
    per call, and W_n costs O(n^3) term products.  At fixed n both sides
    have coefficients of degree at most n in each of a1 and a2."""
    n_max, alphas = grid.resolve(6, (0, 1, 2))

    y1, y2 = Poly.gens(*_SPLIT_Y)
    images = {"sum": y1 + y2, "left": y1, "right": y2}
    zero = Poly.zero(seq.NAMES)

    # the tables die with this call
    columns, column_gap = appell_columns()

    @cache
    def row(r, a, point):
        return columns(r, a).get(0, zero).subs({"x": 0, "y": images[point]})

    def pair(n, a1, a2):
        for a in (a1, a2, a1 + a2):
            gap = column_gap(n, a)
            if gap is not None:
                return gap
        # W_n is read at this point only
        return row(n, a1 + a2, "sum"), Poly.sum_of_products(_SPLIT_Y, (
            (comb(n, m), row(m, a1, "left"), row(n - m, a2, "right"))
            for m in range(n + 1)))

    return run_cases("T4_1", product_cases(
        pair, n=range(n_max + 1), alpha1=alphas, alpha2=alphas))


def check_R4_2(grid: Grid = Grid()) -> IdentityReport:
    """Unit shift in x equals the full binomial sum of lower members.  At
    fixed n both sides have coefficients of degree at most n in a."""
    def pair(n, a):
        lhs = seq.bell_euler_poly(n, a).subs({"x": seq.X + 1})
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), seq.bell_euler_poly(k, a), None) for k in range(n + 1)))
        return lhs, rhs
    return run_cases("R4_2", _grid_cases(grid, pair))


def check_T4_2(grid: Grid = Grid()) -> IdentityReport:
    """Forward difference of the degree-(n+1) member equals the truncated
    binomial sum with C(n+1, k), k <= n.  At fixed n the left side has
    coefficients of degree at most n + 1 in a, the right side at most n."""
    def pair(n, a):
        top = seq.bell_euler_poly(n + 1, a)
        lhs = top.subs({"x": seq.X + 1}) - top
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n + 1, k), seq.bell_euler_poly(k, a), None) for k in range(n + 1)))
        return lhs, rhs
    return run_cases("T4_2", _grid_cases(grid, pair))


def check_T4_3(grid: Grid = Grid()) -> IdentityReport:
    """Order shift: the order-(a-1) hybrid is the average of the order-a
    hybrid at x and x+1, and likewise for the Euler polynomials (its y=0
    shadow).  At a = 1 this is the bivariate Bell polynomial and the
    classical 'average equals x^n' relation.  At fixed n both sides have
    coefficients of degree at most n in a, the order-(a-1) member too."""
    n_max, alphas = grid.resolve(alphas_default=(1,))
    members = {"bivariate": seq.bell_euler_poly,
               "classical": cache(seq.euler_poly_order)}

    def pair(n, a, part):
        lower, member = members[part](n, a - 1), members[part](n, a)
        return lower, (member.subs({"x": seq.X + 1}) + member) / 2
    return run_cases("T4_3", product_cases(
        pair, n=range(n_max + 1), alpha=alphas, part=members))


def _stirling_weight(j: int) -> Poly:
    # sum_k (x)_k S2(j, k): the change of basis from falling factorials
    return Poly.sum_of_products(seq.NAMES, (
        (seq.stirling2_number(j, k), seq.falling_factorial(k), None)
        for k in range(j + 1)))


def check_T4_4_corrected(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial rebuilt from its x=0 family through the
    falling-factorial/Stirling change of basis (the index-corrected form).
    It reads no Euler number and no ``subs``, so a wrong Euler number or a
    wrong substitution passes it.  At fixed n both sides have coefficients
    of degree at most n in a."""
    # the weights and x = 0 members recur across grid points, in per-call tables
    weight, special = cache(_stirling_weight), cache(seq.special_case)

    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, j), weight(j), special(n - j, a))
            for j in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T4_4_corrected", _grid_cases(grid, pair))


def check_T4_4_literal(grid: Grid = Grid()) -> IdentityReport:
    """Negative control: the uncorrected form whose summand keeps the degree-n
    member independent of the summation index.  Not an identity; the k-sum is
    finite because the Stirling factors vanish for k > j.  Expected to fail
    with a counterexample at n = 1; the mutation matrix, which pins the
    checks meant to pass, leaves it out."""
    weight = cache(_stirling_weight)

    def pair(n, a):
        base = seq.special_case(n, a)
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, j), weight(j), base) for j in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T4_4_literal", _grid_cases(grid, pair))


def check_T5_1(grid: Grid = Grid()) -> IdentityReport:
    """d/dx lowers the degree: derivative of the n-th member is n times the
    (n-1)-th.  n = 0 checks that the derivative vanishes.  At fixed n the
    left side has coefficients of degree at most n in a, the right side at
    most n - 1."""
    def pair(n, a):
        lhs = seq.bell_euler_poly(n, a).derivative("x")
        rhs = n * seq.bell_euler_poly(n - 1, a) if n else Poly.zero()
        return lhs, rhs
    return run_cases("T5_1", _grid_cases(grid, pair))


def check_T5_2(grid: Grid = Grid()) -> IdentityReport:
    """d/dy acts as -2 times the difference between consecutive orders.
    The order-(a-1) member is built as T3_5's right side, from
    ``special_case`` and powers of x, so it shares no builder with the member.
    At fixed n both sides have coefficients of degree at most n in a, the
    order-(a-1) member too."""
    # the powers of x and x = 0 members recur across grid points, in per-call tables
    power, special = cache(seq.X.__pow__), cache(seq.special_case)

    def pair(n, a):
        member = seq.bell_euler_poly(n, a)
        lower = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), special(k, a - 1), power(n - k))
            for k in range(n + 1)))
        return member.derivative("y"), -2 * (member - lower)
    return run_cases("T5_2", _grid_cases(grid, pair))


CHECKS = {
    "T3_3": check_T3_3,
    "T3_4": check_T3_4,
    "T3_5": check_T3_5,
    "T4_1": check_T4_1,
    "R4_2": check_R4_2,
    "T4_2": check_T4_2,
    "T4_3": check_T4_3,
    "T4_4_corrected": check_T4_4_corrected,
    "T5_1": check_T5_1,
    "T5_2": check_T5_2,
    "T4_4_literal": check_T4_4_literal,
}

# the negative control only runs when asked for by name
NEGATIVE_CONTROLS = frozenset({"T4_4_literal"})
