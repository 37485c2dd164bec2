"""Dual-space layer: truncated series double as linear functionals on
polynomials in x, and as shift/derivative operators acting on them.

The pairing <f | x^n> = n! * (coefficient of t^n in f) identifies the dual of
the polynomial space with formal series; t^k acts on polynomials as the k-th
x-derivative, so e^{yt} acts as the shift x -> x+y.  On top of that sit the
Appell-sequence constructions for the Bell-based Euler family: the series
h(t) = ((e^t+1)/2)^mu * e^{-y(e^t-1)} is invertible, its inverse applied to
x^n reproduces the family, and <h t^k | .> extracts expansion coefficients.
The parameter y is carried formally, as a polynomial generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .algebra import Poly, QQ, XY, Series
from .identities import Grid, IdentityReport, run_cases
from . import sequences as seq


def pair(f: Series, q: Poly) -> Poly:
    """Dual pairing <f | q>, reading q as a polynomial in x.

    Returns a polynomial in q's ring, constant in x.  The truncation order
    of f must cover deg_x(q).
    """
    deg = q.degree("x")
    if deg > f.order:
        raise ValueError(
            f"functional truncated at order {f.order} cannot pair with a "
            f"degree-{deg} polynomial")
    total = Poly.zero(q.names)
    for n in range(max(deg, 0) + 1):
        fn = f.coefficient(n)
        if not fn:
            continue
        qn = q.coefficient_in("x", n)
        if qn:
            # a scalar coefficient scales instead of multiplying polynomials
            if qn.is_constant():
                qn = qn.constant_value()
            total = total + factorial(n) * fn * qn
    return total


def apply_operator(g: Series, q: Poly) -> Poly:
    """Act with g(t) on q: t^k differentiates k times in x.

    e.g. applying the series of e^{ct} shifts x -> x + c.
    """
    deg = q.degree("x")
    if deg > g.order:
        raise ValueError(
            f"operator truncated at order {g.order} cannot act on a "
            f"degree-{deg} polynomial")
    result = Poly.zero(q.names)
    d = q
    for k in range(max(deg, 0) + 1):
        gk = g.coefficient(k)
        if gk and d:
            result = result + gk * d
        d = d.derivative("x")
    return result


def difference_quotient_operator(z, order: int) -> Series:
    """The series (e^{zt} - 1)/t, realized by an exact coefficient shift."""
    return _difference_quotient(Fraction(z), order)


@lru_cache(maxsize=None)
def _difference_quotient(z: Fraction, order: int) -> Series:
    ez = (Series.t(QQ, order + 1) * z).exp()
    return (ez - 1).shift(-1)


@dataclass(frozen=True)
class AppellContext:
    """Invertible base series for the order-mu Bell-based Euler family."""

    mu: int
    order: int
    h: Series

    @classmethod
    def create(cls, mu: int, order: int) -> "AppellContext":
        if isinstance(mu, bool) or not isinstance(mu, int):
            raise ValueError("mu must be an integer order")
        base = (Series.exp_t(XY, order) + 1) / 2
        expm1 = Series.exp_t(XY, order) - 1
        h = base.pow(mu) * (expm1 * -XY.gen("y")).exp()
        if h.coefficient(0) != XY.one:
            raise AssertionError("base series must have constant term 1")
        return cls(mu, order, h)

    @cached_property
    def functionals(self) -> tuple:
        """h(t) t^k for k = 0..order: pairing with the k-th gives k! times
        the k-th Appell coefficient."""
        return tuple(self.h.shift(k) for k in range(self.order + 1))


def appell_inverse_apply(ctx: AppellContext, n: int) -> Poly:
    """(1/h(t)) x^n: the umbral route to the degree-n family member."""
    return apply_operator(ctx.h.inverse(), Poly.gen("x") ** n)


@dataclass(frozen=True)
class AppellExpansion:
    """Coefficients b_0..b_n of a polynomial in the order-mu Appell basis."""

    mu: int
    coeffs: tuple

    def to_json_dict(self):
        return {
            "mu": self.mu,
            "coeffs": [c.pretty() for c in self.coeffs],
        }


def expand_in_appell(q: Poly, ctx: AppellContext) -> AppellExpansion:
    """b_k = (1/k!) <h(t) t^k | q>; reconstruction is exact by orthogonality."""
    degree = max(q.degree("x"), 0)
    coeffs = tuple(pair(ctx.functionals[k], q) / factorial(k)
                   for k in range(degree + 1))
    return AppellExpansion(ctx.mu, coeffs)


def reconstruct(expansion: AppellExpansion, ctx: AppellContext) -> Poly:
    total = Poly.zero()
    for k, b in enumerate(expansion.coeffs):
        total = total + b * seq.bell_euler_poly(k, ctx.mu)
    return total


def _orthogonality_cases(ctx: AppellContext, n_max: int):
    """<h(t) t^k | S_n> = n! delta_{n,k} over the full (n, k) square."""
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            def pair_nk(n=n, k=k):
                lhs = pair(ctx.functionals[k], seq.bell_euler_poly(n, ctx.mu))
                return lhs, Poly.constant(factorial(n) if n == k else 0)
            yield {"mu": ctx.mu, "n": n, "k": k}, pair_nk


def integral_via_operator(n: int, z):
    """Both routes to the running integral of the order-1 family member:
    exact antiderivative from x to x+z, and the (e^{zt}-1)/t operator."""
    z = Fraction(z)
    member = seq.bell_euler_poly(n, 1)
    anti = member.antiderivative("x")
    lhs = anti.subs({"x": seq.X + z}) - anti
    rhs = apply_operator(difference_quotient_operator(z, n + 1), member)
    return lhs, rhs


def integral_pairing_form(n: int, z):
    """Corollary form: the integral from 0 to z equals the pairing of
    (e^{zt}-1)/t against the member, read as a polynomial in x."""
    z = Fraction(z)
    member = seq.bell_euler_poly(n, 1)
    anti = member.antiderivative("x")
    lhs = anti.subs({"x": z}) - anti.subs({"x": 0})
    rhs = pair(difference_quotient_operator(z, n + 1), member)
    return lhs, rhs


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _positive_order(mu: int) -> None:
    # the composition sum splits n into mu parts, so it needs at least one
    if mu < 1:
        raise ValueError("mu must be at least 1")


def multinomial_decomposition(n: int, mu: int):
    """x=0 member of order mu versus the composition sum over order-1 members
    weighted by order-1 Euler numbers."""
    _positive_order(mu)
    lhs = seq.special_case(n, mu)
    rhs = Poly.zero()
    for parts in _compositions(n, mu):
        weight = Fraction(factorial(n))
        for i in parts:
            weight /= factorial(i)
        for i in parts[:-1]:
            weight *= seq.euler_number_order(i, 1)
        if weight:
            rhs = rhs + weight * seq.special_case(parts[-1], 1)
    return lhs, rhs


# -- registry wrappers ------------------------------------------------------

def _integer_orders(alphas) -> tuple:
    orders = []
    for a in alphas:
        a = seq.validate_order(a)
        if not isinstance(a, int):
            raise ValueError(f"umbral checks need integer orders, got {a}")
        orders.append(a)
    return tuple(orders)


# registry checks whose grid orders are Appell orders mu, so integers only
INTEGER_ORDER_CHECKS = frozenset({"orthogonality", "multinomial", "roundtrip"})


def validate_orders(check_ids, alphas) -> None:
    """Reject, before any check runs, orders that a selected check cannot take."""
    if alphas is None or not INTEGER_ORDER_CHECKS.intersection(check_ids):
        return
    orders = _integer_orders(alphas)
    if "multinomial" in check_ids:
        for mu in orders:
            _positive_order(mu)


def check_orthogonality(grid: Grid = Grid()) -> IdentityReport:
    n_max, alphas = grid.resolve(6, (1, 2, 3))
    mus = _integer_orders(alphas)

    def cases():
        for mu in mus:
            yield from _orthogonality_cases(AppellContext.create(mu, n_max + 1), n_max)

    return run_cases("orthogonality", cases())


INTEGRAL_Z_VALUES = (Fraction(1), Fraction(1, 2), Fraction(-2, 3))


def check_integral(grid: Grid = Grid()) -> IdentityReport:
    n_max, _ = grid.resolve(8)

    def cases():
        for n in range(n_max + 1):
            for z in INTEGRAL_Z_VALUES:
                yield ({"n": n, "z": str(z), "form": "operator"},
                       lambda n=n, z=z: integral_via_operator(n, z))
                yield ({"n": n, "z": str(z), "form": "pairing"},
                       lambda n=n, z=z: integral_pairing_form(n, z))

    return run_cases("integral", cases())


def check_multinomial(grid: Grid = Grid()) -> IdentityReport:
    n_max, alphas = grid.resolve(8, (2, 3))
    mus = _integer_orders(alphas)

    def cases():
        for n in range(n_max + 1):
            for mu in mus:
                yield ({"n": n, "mu": mu},
                       lambda n=n, mu=mu: multinomial_decomposition(n, mu))

    return run_cases("multinomial", cases())


ROUNDTRIP_COUNT = 100
ROUNDTRIP_SEED = 271828


def random_rational_poly(rng: random.Random, degree: int) -> Poly:
    terms = {}
    for i in range(degree + 1):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        if num:
            terms[(i, 0)] = Fraction(num, den)
    return Poly(("x", "y"), terms)


def check_roundtrip(grid: Grid = Grid()) -> IdentityReport:
    """Expansion followed by reconstruction returns the input exactly, for
    seeded random rational polynomials across the allowed orders."""
    max_degree, alphas = grid.resolve(8, (1, 2, 3))
    mus = _integer_orders(alphas)
    rng = random.Random(ROUNDTRIP_SEED)
    contexts = {mu: AppellContext.create(mu, max_degree + 1) for mu in mus}

    def cases():
        for index in range(ROUNDTRIP_COUNT):
            mu = mus[index % len(mus)]
            degree = rng.randint(0, max_degree)
            q = random_rational_poly(rng, degree)

            def roundtrip(q=q, mu=mu):
                ctx = contexts[mu]
                return q, reconstruct(expand_in_appell(q, ctx), ctx)
            yield {"instance": index, "mu": mu, "degree": degree}, roundtrip

    return run_cases("roundtrip", cases())


CHECKS = {
    "orthogonality": check_orthogonality,
    "integral": check_integral,
    "multinomial": check_multinomial,
    "roundtrip": check_roundtrip,
}
