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
the orthogonality check truncates h.  The expansion reads those rows as
int numerators and writes every coefficient in one triangular pass, with
no ``Poly.sum_of_products`` and no row ``Poly``; the reconstruction sums
the members through that kernel, so the ``roundtrip`` check holds the two
routes against each other.  The orthogonality check reads the members'
x = 0 rows too: once a member's x-columns are C(n, s) Z_(n-s), the pairing
<h t^k | BE_n> is n!/(n-k)! V_(n-k), one kernel sum V_r per degree and
order, so it pairs no functional with a member; ``pair`` is the
library's pairing, and the tests' form of the check.  The tests hold h
against the ``Series`` engine of :mod:`.algebra`, and the expansion against
its kernel form.

A check's tables (members' columns and x-derivatives, h, V_r,
antiderivatives, operators, Miller's g) live for one call, like those of
:mod:`.identities`.  The docstrings of ``orthogonality`` and ``integral``
give the degree in the order of both sides at fixed n, which
``tests/test_identities.py`` reads to prove them for every order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial

from .algebra import FIELD_BITS, _FIELD_MASK, Poly, _as_fraction, _check_ceiling, _count
from .identities import (Grid, IdentityReport, appell_columns, json_order, product_cases,
                         run_cases)
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
    """The kernel item for scale * c * p, where c is a scalar or a Poly; a
    scale of 1 leaves a scalar c as it is."""
    if isinstance(c, Poly):
        return scale, c, p
    return (c if scale == 1 else scale * c), p, None


def _pair_columns(coeffs, columns: dict, names) -> Poly:
    """<f | q> over q's x-columns ``{n: q_n}``, as ``pair`` reads them."""
    _truncation(coeffs, max(columns, default=-1), "functional")
    return Poly.sum_of_products(names, (
        _item(factorial(n), coeffs[n], columns[n])
        for n in sorted(columns) if coeffs[n]))


def pair(coeffs, q: Poly) -> Poly:
    """Dual pairing <f | q> = sum_n n! coeffs[n] q_n of the series
    f = sum_k coeffs[k] t^k with q, over q's x-columns q_n.

    Returns a polynomial in q's ring, constant in x.
    """
    return _pair_columns(coeffs, q.columns("x"), q.names)


def _x_derivatives(q: Poly) -> list:
    """[q, q', ..., q^(d)], the x-derivatives of q to its x-degree d."""
    chain = [q]
    for _ in range(q.degree("x")):
        chain.append(chain[-1].derivative("x"))
    return chain


def _act(coeffs, derivatives: list) -> Poly:
    """sum_k coeffs[k] q^(k) over ``_x_derivatives(q)``, as
    ``apply_operator`` acts on q."""
    q = derivatives[0]
    _truncation(coeffs, len(derivatives) - 1 if q else -1, "operator")
    return Poly.sum_of_products(q.names, (
        _item(1, c, d) for c, d in zip(coeffs, derivatives) if c and d))


def apply_operator(coeffs, q: Poly) -> Poly:
    """Act with g(t) = sum_k coeffs[k] t^k on q: t^k differentiates k times
    in x.

    e.g. applying the series of e^{ct} shifts x -> x + c.
    """
    return _act(coeffs, _x_derivatives(q))


def difference_quotient_operator(z, order: int) -> tuple:
    """The series (e^{zt} - 1)/t to t^order: coefficient z^(k+1)/(k+1)!,
    each term written from the one before it as term(k - 1) * z / (k + 1)."""
    z = _as_fraction(z)
    terms = [z]
    for k in range(1, _count(order, "truncation order") + 1):
        terms.append(terms[-1] * z / (k + 1))
    return tuple(terms)


@dataclass(frozen=True)
class AppellContext:
    """Invertible base series h for the order-mu Bell-based Euler family,
    truncated at t^order; h is a coefficient tuple built on first read."""

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
    return AppellExpansion(mu, tuple(_check_ceiling(Poly._make(seq.NAMES, acc, den))
                                     for acc in sums))


def reconstruct(expansion: AppellExpansion) -> Poly:
    return Poly.sum_of_products(seq.NAMES, (
        _item(1, b, seq.bell_euler_poly(k, expansion.mu))
        for k, b in enumerate(expansion.coeffs)))


def _operator_sides(anti: Poly, derivatives: list, z: Fraction, operator: tuple):
    # the member's running integral from x to x + z, and the operator's
    # action on it, over the member's x-derivatives
    return anti.subs({"x": seq.X + z}) - anti, _act(operator, derivatives)


def _pairing_sides(anti: Poly, columns: dict, z: Fraction, operator: tuple):
    # the member's integral from 0 to z, and the operator's pairing with it,
    # over the member's x-columns
    return (anti.subs({"x": z}) - anti.subs({"x": 0}),
            _pair_columns(operator, columns, anti.names))


def _part_count(mu) -> int:
    # the composition sum splits n into mu parts, so mu counts at least one
    mu = seq.validate_order(mu)
    if not isinstance(mu, int):
        raise ValueError(f"multinomial needs integer orders, got {mu}")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    return mu


def _power_prefix(mu: int, m_max: int) -> list:
    """[g_0, ..., g_(m_max)] of Miller's recurrence at the order mu: g_m
    reads only g_0..g_(m-1), so one prefix serves every n <= m_max."""
    f = [seq.euler_number_order(k, 1) / factorial(k) for k in range(m_max + 1)]
    g = [Fraction(1)]
    for m in range(1, m_max + 1):
        g.append(sum((mu * k - m) * f[k] * g[m - k] for k in range(1, m + 1)) / m)
    return g


def _multinomial_sides(n: int, mu: int, g: list, special):
    # g is a prefix of Miller's g to at least n, and special(i, 1) the
    # order-1 x = 0 member, through the caller's tables
    lhs = seq.bell_euler_poly(n, mu).coefficient_in("x", 0)
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
    for each order mu, checked through the x = 0 rows.

    With h_j the t^j coefficient of h, the pairing is sum_(s >= k) s!
    h_(s-k) q_s over the member's x-columns q_s.  For a member that is
    Appell in x, q_s = C(n, s) Z_(n-s) with Z_r the x = 0 row, so the
    pairing is n!/(n-k)! V_(n-k) for k <= n and zero for k > n, with
    V_r = sum_j r!/(r-j)! h_j Z_(r-j): it reads n and k only through
    n - k.  So the point (mu, n, k) compares each x-column of the member
    with C(n, s) Z_(n-s), as ``T4_1`` does (``identities.appell_columns``),
    and then n!/(n-k)! V_(n-k) with n! delta_{n,k}.  A counterexample is
    the first column that fails, or else these two.  Each order's h, each
    member's columns and each V_r, one kernel sum of r + 1 products, are
    built once per call, so a point costs O(n) term products beyond them.

    It reads no Euler number and no ``subs``, so a wrong Euler number or a
    wrong substitution passes it.  At fixed n both sides have coefficients
    of degree at most n in mu: h_j has degree at most j and the column s
    of the member at most n - s, so the pairing has degree at most
    n - k <= n."""
    n_max, mus = grid.resolve(6, (1, 2, 3))
    zero = Poly.zero(seq.NAMES)
    # the tables die with this call
    columns, column_gap = appell_columns()
    h = cache(lambda mu: AppellContext.create(mu, n_max).h)

    @cache
    def scaled_pairing(r, mu):
        # V_r; like the pairing, it skips a zero h_j or a missing column
        h_mu = h(mu)
        return Poly.sum_of_products(seq.NAMES, (
            _item(factorial(r) // factorial(r - j), h_mu[j], columns(r - j, mu)[0])
            for j in range(r + 1) if h_mu[j] and 0 in columns(r - j, mu)))

    def pair(mu, n, k):
        gap = column_gap(n, mu)
        if gap is not None:
            return gap
        lhs = factorial(n) // factorial(n - k) * scaled_pairing(n - k, mu) if k <= n else zero
        return lhs, Poly.constant(factorial(n) if n == k else 0)
    degrees = range(n_max + 1)
    return run_cases("orthogonality", product_cases(pair, mu=mus, n=degrees, k=degrees))


INTEGRAL_Z_VALUES = (Fraction(1), Fraction(1, 2), Fraction(-2, 3))


def check_integral(grid: Grid = Grid()) -> IdentityReport:
    """The running integral of the member BE_n^(alpha) against the operator
    (e^{zt} - 1)/t, at each point (n, alpha, z), in two forms.  The
    operator form: the exact antiderivative from x to x + z equals the
    operator's action on the member.  The pairing form: the integral from
    0 to z equals the operator's pairing with the member, read as a
    polynomial in x.  Each member's antiderivative, x-derivatives and
    x-columns are built once per (n, alpha), and each z's operator once,
    to t^(n_max + 1), and read to t^(n + 1), in tables that die with this
    call.  At a fixed z both sides of either form are linear in the member,
    so at fixed n their coefficients have degree at most n in alpha."""
    n_max, alphas = grid.resolve(8, (1,))
    antiderivative = cache(lambda n, a: seq.bell_euler_poly(n, a).antiderivative("x"))
    forms = {"operator": (_operator_sides, cache(
                 lambda n, a: _x_derivatives(seq.bell_euler_poly(n, a)))),
             "pairing": (_pairing_sides, cache(
                 lambda n, a: seq.bell_euler_poly(n, a).columns("x")))}
    operator = cache(lambda z: difference_quotient_operator(z, n_max + 1))

    def pair(n, a, z, form):
        sides, member = forms[form]
        return sides(antiderivative(n, a), member(n, a), z, operator(z)[:n + 2])
    return run_cases("integral", product_cases(
        pair, n=range(n_max + 1), alpha=alphas, z=INTEGRAL_Z_VALUES, form=forms))


def check_multinomial(grid: Grid = Grid()) -> IdentityReport:
    """The x = 0 member of integer order mu >= 1 against the composition sum
    over order-1 members weighted by order-1 Euler numbers, grouped by the
    last part i: BE_n^(mu)(0; y) = sum_i C(n, i) (n-i)! g_(n-i)
    BE_i^(1)(0; y), at each point (n, mu).  g_m is the t^m coefficient of
    f^(mu-1), f_k = E_k^(1)/k!, from J. C. P. Miller's power recurrence
    g_m = (1/m) sum_(k=1..m) (mu k - m) f_k g_(m-k), O(n^2) per order.
    The left side is the x = 0 column of the member ``bell_euler_poly``;
    the right side reads ``special_case`` at order 1 and Euler numbers."""
    n_max, alphas = grid.resolve(8, (2, 3))
    mus = tuple(_part_count(mu) for mu in alphas)
    # the order-1 x = 0 members recur across grid points and orders, and
    # each order's g_0..g_(n_max) across grid points; the tables die with
    # this call
    special = cache(seq.special_case)
    prefix = cache(lambda mu: _power_prefix(mu, n_max))

    def pair(n, mu):
        return _multinomial_sides(n, mu, prefix(mu), special)
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
