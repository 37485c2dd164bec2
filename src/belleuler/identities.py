"""Executable identity checks: each theorem becomes an exact polynomial
equality verified over a parameter grid, reported with counterexamples.

Check ids are opaque registry labels (``T3_3`` ... ``T5_2``); the docstring of
each check states the identity it verifies.  ``T4_4_literal`` is a negative
control: an uncorrected double-sum form that is *not* an identity, kept to
prove the harness detects false statements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb

from .algebra import Poly
from . import sequences as seq

DEFAULT_N_MAX = 8
DEFAULT_ALPHAS = (0, 1, 2, 3)


def validate_n_max(n_max: int) -> int:
    """The grid-size rule every identity check applies: n_max >= 1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return n_max


@dataclass(frozen=True)
class Grid:
    """Parameter grid for a check; None fields fall back to per-check defaults."""

    n_max: "int | None" = None
    alphas: "tuple | None" = None

    def resolve(self, n_default=DEFAULT_N_MAX, alphas_default=DEFAULT_ALPHAS):
        n_max = self.n_max if self.n_max is not None else n_default
        alphas = self.alphas if self.alphas is not None else alphas_default
        validate_n_max(n_max)
        if not alphas:
            raise ValueError("alpha list must be non-empty")
        return n_max, tuple(alphas)


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


def _grid_cases(grid: Grid, pair_fn):
    n_max, alphas = grid.resolve()
    for n in range(n_max + 1):
        for alpha in alphas:
            yield ({"n": n, "alpha": str(alpha)},
                   lambda n=n, a=alpha: pair_fn(n, a))


def check_T3_3(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial = binomial convolution of Euler polynomials of the
    same order with Bell polynomials.  The member is built from x = 0 rows
    of a three-term recurrence, and the right side from the Euler-number and
    Stirling tables, so a wrong entry in either table fails the check."""
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
    x = 0 rows do not read."""
    bivariate = cache(seq.bivariate_bell)

    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k) * seq.euler_number_order(k, a), bivariate(n - k), None)
            for k in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T3_4", _grid_cases(grid, pair))


def check_T3_5(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial = convolution of its own x=0 specialization with
    powers of x.  The member is built from x = 0 rows of a three-term
    recurrence; ``special_case`` reads the same rows off its falling-product
    form over one Stirling row, so the check holds two distinct closed
    forms."""
    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), seq.special_case(k, a), seq.X ** (n - k))
            for k in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T3_5", _grid_cases(grid, pair))


_FOUR_VARS = ("x1", "x2", "y1", "y2")


def check_T4_1(grid: Grid = Grid()) -> IdentityReport:
    """Addition theorem in four formal variables: the order-(a1+a2) polynomial
    at (x1+x2, y1+y2) equals the binomial convolution of the order-a1 and
    order-a2 polynomials at the split arguments, expanded exactly in the
    4-variable polynomial ring, for every pair of the grid's orders."""
    n_max, alphas = grid.resolve(6, (0, 1, 2))

    x1, x2, y1, y2 = Poly.gens(*_FOUR_VARS)
    points = {"sum": {"x": x1 + x2, "y": y1 + y2},
              "left": {"x": x1, "y": y1}, "right": {"x": x2, "y": y2}}

    @cache
    def image(k, a, point):
        return seq.bell_euler_poly(k, a).subs(points[point])

    def ring_pair(n, a1, a2):
        lhs = image(n, a1 + a2, "sum")
        rhs = Poly.sum_of_products(_FOUR_VARS, (
            (comb(n, k), image(k, a1, "left"), image(n - k, a2, "right"))
            for k in range(n + 1)))
        return lhs, rhs

    def cases():
        for n in range(n_max + 1):
            for a1 in alphas:
                for a2 in alphas:
                    params = {"n": n, "alpha1": str(a1), "alpha2": str(a2)}
                    yield params, (lambda n=n, a1=a1, a2=a2: ring_pair(n, a1, a2))

    return run_cases("T4_1", cases())


def check_R4_2(grid: Grid = Grid()) -> IdentityReport:
    """Unit shift in x equals the full binomial sum of lower members."""
    def pair(n, a):
        lhs = seq.bell_euler_poly(n, a).subs({"x": seq.X + 1})
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, k), seq.bell_euler_poly(k, a), None) for k in range(n + 1)))
        return lhs, rhs
    return run_cases("R4_2", _grid_cases(grid, pair))


def check_T4_2(grid: Grid = Grid()) -> IdentityReport:
    """Forward difference of the degree-(n+1) member equals the truncated
    binomial sum with C(n+1, k), k <= n."""
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
    classical 'average equals x^n' relation."""
    n_max, alphas = grid.resolve(alphas_default=(1,))
    euler = cache(seq.euler_poly_order)

    def average(member):
        return (member.subs({"x": seq.X + 1}) + member) / 2

    def cases():
        for n in range(n_max + 1):
            for a in alphas:
                params = {"n": n, "alpha": str(a)}
                yield ({**params, "part": "bivariate"},
                       lambda n=n, a=a: (seq.bell_euler_poly(n, a - 1),
                                         average(seq.bell_euler_poly(n, a))))
                yield ({**params, "part": "classical"},
                       lambda n=n, a=a: (euler(n, a - 1), average(euler(n, a))))

    return run_cases("T4_3", cases())


@lru_cache(maxsize=None)
def _stirling_weight(j: int) -> Poly:
    # sum_k (x)_k S2(j, k): the change of basis from falling factorials
    return Poly.sum_of_products(seq.NAMES, (
        (seq.stirling2_number(j, k), seq.falling_factorial(k), None)
        for k in range(j + 1)))


def check_T4_4_corrected(grid: Grid = Grid()) -> IdentityReport:
    """Hybrid polynomial rebuilt from its x=0 family through the
    falling-factorial/Stirling change of basis (the index-corrected form)."""
    def pair(n, a):
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, j), _stirling_weight(j), seq.special_case(n - j, a))
            for j in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T4_4_corrected", _grid_cases(grid, pair))


def check_T4_4_literal(grid: Grid = Grid()) -> IdentityReport:
    """Negative control: the uncorrected form whose summand keeps the degree-n
    member independent of the summation index.  Not an identity; the k-sum is
    finite because the Stirling factors vanish for k > j.  Expected to fail
    with a counterexample at n = 1."""
    def pair(n, a):
        base = seq.special_case(n, a)
        rhs = Poly.sum_of_products(seq.NAMES, (
            (comb(n, j), _stirling_weight(j), base) for j in range(n + 1)))
        return seq.bell_euler_poly(n, a), rhs
    return run_cases("T4_4_literal", _grid_cases(grid, pair))


def check_T5_1(grid: Grid = Grid()) -> IdentityReport:
    """d/dx lowers the degree: derivative of the n-th member is n times the
    (n-1)-th.  n = 0 checks that the derivative vanishes."""
    def pair(n, a):
        lhs = seq.bell_euler_poly(n, a).derivative("x")
        rhs = n * seq.bell_euler_poly(n - 1, a) if n else Poly.zero()
        return lhs, rhs
    return run_cases("T5_1", _grid_cases(grid, pair))


def check_T5_2(grid: Grid = Grid()) -> IdentityReport:
    """d/dy acts as -2 times the difference between consecutive orders."""
    def pair(n, a):
        lhs = seq.bell_euler_poly(n, a).derivative("y")
        rhs = -2 * (seq.bell_euler_poly(n, a) - seq.bell_euler_poly(n, a - 1))
        return lhs, rhs
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
