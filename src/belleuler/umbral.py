"""Dual-space layer: truncated series double as linear functionals on
polynomials in x, and as shift/derivative operators acting on them.

A series is a coefficient sequence: ``coeffs[k]`` is the raw coefficient of
t^k and ``len(coeffs) - 1`` the truncation order.  The pairing
<f | x^n> = n! * coeffs[n] identifies the dual of the polynomial space with
formal series; t^k acts on polynomials as the k-th x-derivative, so e^{yt}
acts as the shift x -> x+y.  On top of that sit the Appell-sequence
constructions for the Bell-based Euler family: the series
h(t) = ((e^t+1)/2)^mu * e^{-y(e^t-1)} is invertible, its inverse applied to
x^n reproduces the family, and <h t^k | .> extracts expansion coefficients.
The parameter y is carried formally, as a polynomial generator, and mu may
be any exact order.

h generates BE_k^(-mu)(0; -y): the x = 0 rows that build the members, at
the opposite order and y sign, so the expansion takes mu alone and only
the orthogonality pairing truncates h.  The expansion reads those rows as
int numerators and writes every coefficient in one triangular pass, with
no ``Poly.sum_of_products`` and no row ``Poly``; the reconstruction sums
the members through that kernel, so the ``roundtrip`` check holds the two
routes against each other.  The tests hold h against the ``Series``
engine of :mod:`.algebra`, and the expansion against its kernel form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb, factorial

from .algebra import FIELD_BITS, _FIELD_MASK, Poly, _as_fraction, _check_ceiling, _count
from .identities import Grid, IdentityReport, json_order, product_cases, run_cases
from . import sequences as seq


def _truncation(coeffs, deg: int, role: str) -> int:
    """deg, the x-degree of the argument, which the truncation order of
    ``coeffs`` must cover."""
    if deg > len(coeffs) - 1:
        raise ValueError(
            f"{role} truncated at order {len(coeffs) - 1} cannot act on a "
            f"degree-{deg} polynomial")
    return deg


def _item(scale: int, c, p: Poly) -> tuple:
    """The kernel item for scale * c * p, where c is a scalar or a Poly."""
    return (scale, c, p) if isinstance(c, Poly) else (scale * c, p, None)


def _pair_columns(coeffs, columns: dict, names: tuple) -> Poly:
    """<f | q> from q's x-columns ``{n: coefficient of x^n}``."""
    _truncation(coeffs, max(columns, default=-1), "functional")
    return Poly.sum_of_products(names, (
        _item(factorial(n), coeffs[n], columns[n])
        for n in sorted(columns) if coeffs[n]))


def pair(coeffs, q: Poly) -> Poly:
    """Dual pairing <f | q> of the series f = sum_k coeffs[k] t^k with q,
    read as a polynomial in x.

    Returns a polynomial in q's ring, constant in x.
    """
    return _pair_columns(coeffs, q.columns("x"), q.names)


def apply_operator(coeffs, q: Poly) -> Poly:
    """Act with g(t) = sum_k coeffs[k] t^k on q: t^k differentiates k times
    in x.

    e.g. applying the series of e^{ct} shifts x -> x + c.
    """
    items = []
    d = q
    for k in range(max(_truncation(coeffs, q.degree("x"), "operator"), 0) + 1):
        if coeffs[k] and d:
            items.append(_item(1, coeffs[k], d))
        d = d.derivative("x")
    return Poly.sum_of_products(q.names, items)


def difference_quotient_operator(z, order: int) -> tuple:
    """The series (e^{zt} - 1)/t to t^order: coefficient z^(k+1)/(k+1)!."""
    z = _as_fraction(z)
    return tuple(z ** (k + 1) / factorial(k + 1)
                 for k in range(_count(order, "truncation order") + 1))


@dataclass(frozen=True)
class AppellContext:
    """Invertible base series h for the order-mu Bell-based Euler family,
    truncated at t^order; h and the functionals are coefficient tuples
    built on first read."""

    mu: "int | Fraction"
    order: int

    @classmethod
    def create(cls, mu, order: int) -> "AppellContext":
        return cls(seq.validate_order(mu), _count(order, "truncation order"))

    @cached_property
    def h(self) -> tuple:
        """h(t) = ((e^t+1)/2)^mu e^{-y(e^t-1)} generates BE^(-mu)(0; -y)."""
        return tuple(row / factorial(k) for k, row in
                     enumerate(seq._negated_y_rows(self.order, -self.mu)))

    @cached_property
    def functionals(self) -> tuple:
        """h(t) t^k for k = 0..order: pairing with the k-th gives k! times
        the k-th Appell coefficient."""
        return tuple((0,) * k + self.h[:len(self.h) - k]
                     for k in range(self.order + 1))


@dataclass(frozen=True)
class AppellExpansion:
    """Coefficients b_0..b_n of a polynomial in the order-mu Appell basis."""

    mu: "int | Fraction"
    coeffs: tuple

    def to_json_dict(self):
        return {
            "mu": json_order(self.mu),
            "coeffs": [c.pretty() for c in self.coeffs],
        }


def expand_in_appell(q: Poly, mu) -> AppellExpansion:
    """b_k = sum_(n >= k) C(n, k) BE_(n-k)^(-mu)(0; -y) q_n over q's x-columns
    q_n: the closed form of (1/k!) <h(t) t^k | q>, the pairing the tests use.

    One pass over the terms c x^n y^i of q, each k <= n and each entry z_j
    of the numerator row z_(n-k) = S^(n-k) BE_(n-k)^(-mu)(0; y) of
    ``_bell_euler_rows`` adds C(n, k) S^(top-(n-k)) (-1)^j z_j c to the
    y^(i+j) numerator of b_k, as ``sequences._appell`` writes the members.
    Every b_k is over den(q) S^top, with S = 2 * denominator(mu) and top
    the x-degree of q.  A nonzero q must be in the (x, y) ring, and each b_k
    is refused at the exponent ceiling of y, as a kernel product would be;
    a zero q in any ring gives one zero coefficient in that ring."""
    mu = seq.validate_order(mu)
    if not q._num:
        return AppellExpansion(mu, (Poly.zero(q.names),))
    if q.names != seq.NAMES:
        raise ValueError(f"variable mismatch: expected {q.names}")
    top = q.degree("x")
    scale = seq._order_scale(-mu)
    rows = seq._bell_euler_rows(top, -mu)
    powers = [scale ** e for e in range(top + 1)]
    sums = [{} for _ in range(top + 1)]
    for key, c in q._num.items():
        n = key & _FIELD_MASK
        y_part = key - n
        for k in range(n + 1):
            acc = sums[k]
            get = acc.get
            weight = comb(n, k) * c * powers[top - n + k]
            signed = (weight, -weight)  # (-1)^j on y^j
            for j, z in enumerate(rows[n - k]):
                at = y_part + (j << FIELD_BITS)
                acc[at] = get(at, 0) + signed[j & 1] * z
    den = q._den * powers[top]
    coeffs = []
    for acc in sums:
        num = {key: v for key, v in acc.items() if v}
        _check_ceiling(num, len(seq.NAMES))
        coeffs.append(Poly._make(seq.NAMES, num, den))
    return AppellExpansion(mu, tuple(coeffs))


def reconstruct(expansion: AppellExpansion) -> Poly:
    return Poly.sum_of_products(seq.NAMES, (
        _item(1, b, seq.bell_euler_poly(k, expansion.mu))
        for k, b in enumerate(expansion.coeffs)))


def integral_via_operator(n: int, z, alpha=1):
    """Both routes to the running integral of the order-alpha family member:
    exact antiderivative from x to x+z, and the (e^{zt}-1)/t operator."""
    z = _as_fraction(z)
    member = seq.bell_euler_poly(n, alpha)
    anti = member.antiderivative("x")
    lhs = anti.subs({"x": seq.X + z}) - anti
    rhs = apply_operator(difference_quotient_operator(z, n + 1), member)
    return lhs, rhs


def integral_pairing_form(n: int, z, alpha=1):
    """Corollary form: the integral from 0 to z equals the pairing of
    (e^{zt}-1)/t against the member, read as a polynomial in x."""
    z = _as_fraction(z)
    member = seq.bell_euler_poly(n, alpha)
    anti = member.antiderivative("x")
    lhs = anti.subs({"x": z}) - anti.subs({"x": 0})
    rhs = pair(difference_quotient_operator(z, n + 1), member)
    return lhs, rhs


def _part_count(mu) -> int:
    # the composition sum splits n into mu parts, so mu counts at least one
    mu = seq.validate_order(mu)
    if not isinstance(mu, int):
        raise ValueError(f"multinomial needs integer orders, got {mu}")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    return mu


def multinomial_decomposition(n: int, mu: int):
    """x=0 member of order mu versus the composition sum over order-1 members
    weighted by order-1 Euler numbers, grouped by the last part i:
    rhs = sum_i C(n,i) (n-i)! g_(n-i) BE_i^(1)(0; y), where g_m is the t^m
    coefficient of f^(mu-1), f_k = E_k^(1)/k!, from J. C. P. Miller's power
    recurrence g_m = (1/m) sum_(k=1..m) (mu k - m) f_k g_(m-k), O(n^2).
    The left side is the x = 0 column of the member ``bell_euler_poly``;
    the right side reads ``special_case`` at order 1 and Euler numbers."""
    return _multinomial_sides(n, mu, seq.special_case)


def _multinomial_sides(n: int, mu: int, special):
    # special(i, 1) is the order-1 x = 0 member, through the caller's table
    mu = _part_count(mu)
    lhs = seq.bell_euler_poly(n, mu).coefficient_in("x", 0)
    f = [seq.euler_number_order(k, 1) / factorial(k) for k in range(n + 1)]
    g = [Fraction(1)]
    for m in range(1, n + 1):
        g.append(sum((mu * k - m) * f[k] * g[m - k] for k in range(1, m + 1)) / m)
    items = [(comb(n, i) * factorial(n - i) * g[n - i], special(i, 1), None)
             for i in range(n + 1)]
    return lhs, Poly.sum_of_products(seq.NAMES, items)


# -- registry wrappers ------------------------------------------------------

def validate_orders(check_ids, alphas) -> None:
    """Reject, before any check runs, orders that a selected check cannot
    take: every check takes any exact order but multinomial."""
    if alphas is not None and "multinomial" in check_ids:
        for mu in alphas:
            _part_count(mu)


def check_orthogonality(grid: Grid = Grid()) -> IdentityReport:
    """<h(t) t^k | BE_n^(mu)> = n! delta_{n,k} over the full (n, k) square,
    for each order mu.  It reads no Euler number and no ``subs``, so a wrong
    Euler number or a wrong substitution passes it."""
    n_max, mus = grid.resolve(6, (1, 2, 3))
    # each order's h is truncated once, and each member split into its
    # x-columns once for every k; both tables die with this call
    context = cache(lambda mu: AppellContext.create(mu, n_max))
    columns = cache(lambda n, mu: seq.bell_euler_poly(n, mu).columns("x"))

    def pair(mu, n, k):
        lhs = _pair_columns(context(mu).functionals[k], columns(n, mu), seq.NAMES)
        return lhs, Poly.constant(factorial(n) if n == k else 0)
    degrees = range(n_max + 1)
    return run_cases("orthogonality", product_cases(pair, mu=mus, n=degrees, k=degrees))


INTEGRAL_Z_VALUES = (Fraction(1), Fraction(1, 2), Fraction(-2, 3))


def check_integral(grid: Grid = Grid()) -> IdentityReport:
    n_max, alphas = grid.resolve(8, (1,))

    forms = {"operator": integral_via_operator, "pairing": integral_pairing_form}

    def pair(n, a, z, form):
        return forms[form](n, z, a)
    return run_cases("integral", product_cases(
        pair, n=range(n_max + 1), alpha=alphas, z=INTEGRAL_Z_VALUES, form=forms))


def check_multinomial(grid: Grid = Grid()) -> IdentityReport:
    n_max, alphas = grid.resolve(8, (2, 3))
    mus = tuple(_part_count(mu) for mu in alphas)
    # the order-1 x = 0 members recur across grid points and orders; the
    # table dies with this call
    pair = partial(_multinomial_sides, special=cache(seq.special_case))
    return run_cases("multinomial", product_cases(pair, n=range(n_max + 1), mu=mus))


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
    seeded random rational polynomials cycling through the grid's orders."""
    max_degree, mus = grid.resolve(8, (1, 2, 3))
    rng = random.Random(ROUNDTRIP_SEED)

    def cases():
        for index in range(ROUNDTRIP_COUNT):
            mu = mus[index % len(mus)]
            degree = rng.randint(0, max_degree)
            q = random_rational_poly(rng, degree)

            def roundtrip(q=q, mu=mu):
                return q, reconstruct(expand_in_appell(q, mu))
            yield ({"instance": index, "mu": json_order(mu), "degree": degree},
                   roundtrip)

    return run_cases("roundtrip", cases())


CHECKS = {
    "orthogonality": check_orthogonality,
    "integral": check_integral,
    "multinomial": check_multinomial,
    "roundtrip": check_roundtrip,
}
