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
int numerators, signed once per call, and writes every coefficient in one
triangular pass into dense int lists, one per y-exponent of q's terms,
with no ``Poly.sum_of_products`` and no row ``Poly``; the reconstruction sums
the members through that kernel, so the ``roundtrip`` check holds the two
routes against each other.  The orthogonality check reads the members'
x = 0 rows too: once a member's x-columns are C(n, s) Z_(n-s), the pairing
<h t^k | BE_n> is n!/(n-k)! V_(n-k), one kernel sum V_r per degree and
order, so it pairs no functional with a member; ``pair`` is the
library's pairing, and the tests' form of the check.  The tests hold h
against the ``Series`` engine of :mod:`.algebra`, and the expansion against
its kernel form.

The checks read the members' x-columns and the x = 0 members from the
:class:`.identities.Tables` of one run, or one call when called alone; the
tables that a grid bounds, or that one check alone reads (h, V_r,
antiderivatives and x-derivatives, operators, Miller's g), live for one
call.  The docstrings of
``orthogonality``, ``integral`` and ``multinomial`` give the degree in the
order of both sides at fixed n, which ``tests/test_identities.py`` reads to
prove them for every order.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, gcd, lcm

from .algebra import FIELD_BITS, _FIELD_MASK, Poly, _as_fraction, _check_ceiling, _count
from .identities import (Grid, IdentityReport, Tables, json_order, product_cases,
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


class AppellContext(namedtuple("AppellContext", "mu order")):
    """Invertible base series h for the order-mu Bell-based Euler family,
    truncated at t^order; h is a coefficient tuple built on first read."""

    # h is cached in the instance dict, which must still refuse assignment
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: AppellContext is immutable")

    @classmethod
    def create(cls, mu, order: int) -> "AppellContext":
        return cls(seq.validate_order(mu), _count(order, "truncation order"))

    @cached_property
    def h(self) -> tuple:
        """h(t) = ((e^t+1)/2)^mu e^{-y(e^t-1)} generates BE^(-mu)(0; -y)."""
        return tuple(row / factorial(k) for k, row in
                     enumerate(seq._negated_y_rows(self.order, -self.mu)))


class AppellExpansion(namedtuple("AppellExpansion", "mu coeffs")):
    """Coefficients b_0..b_n of a polynomial in the order-mu Appell basis."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "mu": json_order(self.mu),
            "coeffs": [c.pretty() for c in self.coeffs],
        }


def expand_in_appell(q: Poly, mu) -> AppellExpansion:
    """b_k = sum_(n >= k) C(n, k) BE_(n-k)^(-mu)(0; -y) q_n over q's x-columns
    q_n: the closed form of (1/k!) <h(t) t^k | q>, the pairing the tests use.

    One pass over the terms c x^n y^i of q, grouped by their y-exponent i.
    The numerator rows z_m = S^m BE_m^(-mu)(0; y) of ``_bell_euler_rows``
    are signed once per call, (-1)^j z_j on y^j, and for each i and each k
    a dense int list holds the y^(i+j) numerators of b_k: each term of the
    group with n >= k adds C(n, k) S^(top-n) c times the signed row
    z_(n-k) to its head, as ``sequences._appell`` writes the members.  Each
    list is then written into b_k's map in one step.  A group's lists span
    its own x-degree, so time and memory grow with q's terms, not with its
    y-span; an x-only q has one group.  Each b_k is over den(q) S^(top-k),
    with S = 2 * denominator(mu) and top the x-degree of q.  A nonzero q
    must be in the (x, y) ring, and each b_k is refused at the exponent
    ceiling of y, as a kernel product would be; a zero q in any ring gives
    one zero coefficient in that ring."""
    mu = seq.validate_order(mu)
    if not q._num:
        return AppellExpansion(mu, (Poly.zero(q.names),))
    if q.names != seq.NAMES:
        raise ValueError(f"variable mismatch: expected {q.names}")
    top = q.degree("x")
    scale = seq._order_scale(-mu)
    signed = [[-z if j & 1 else z for j, z in enumerate(row)]
              for row in seq._bell_euler_rows(top, -mu)[:top + 1]]
    powers = [scale ** e for e in range(top + 1)]
    groups = {}  # the y-part of a key -> the (n, c) of its terms c x^n y^i
    for key, c in q._num.items():
        n = key & _FIELD_MASK
        groups.setdefault(key - n, []).append((n, c))
    sums = [{} for _ in range(top + 1)]
    step = 1 << FIELD_BITS
    for y_part, terms in groups.items():
        width = max(n for n, _ in terms) + 1
        # dense[k][j]: this group's y^(i+j) numerator of b_k
        dense = [[0] * (width - k) for k in range(width)]
        for n, c in terms:
            c *= powers[top - n]
            for k in range(n + 1):
                weight = comb(n, k) * c
                sums_k = dense[k]
                for j, z in enumerate(signed[n - k]):
                    sums_k[j] += weight * z
        for k, sums_k in enumerate(dense):
            keys = range(y_part, y_part + len(sums_k) * step, step)
            acc = sums[k]
            if acc:  # another group wrote b_k first
                for key, v in zip(keys, sums_k):
                    acc[key] = acc.get(key, 0) + v
            else:
                sums[k] = dict(zip(keys, sums_k))
    return AppellExpansion(mu, tuple(
        _check_ceiling(Poly._make(seq.NAMES, acc, q._den * powers[top - k]))
        for k, acc in enumerate(sums)))


def reconstruct(expansion: AppellExpansion) -> Poly:
    return Poly.sum_of_products(seq.NAMES, (
        _item(1, b, seq.bell_euler_poly(k, expansion.mu))
        for k, b in enumerate(expansion.coeffs)))


def _operator_sides(anti: Poly, derivatives: list, z: Fraction, operator: tuple):
    # the member's running integral from x to x + z, and the operator's
    # action on it, over the member's x-derivatives
    return anti.subs({"x": seq.X + z}) - anti, _act(operator, derivatives)


def _pairing_sides(anti: Poly, start: Poly, columns: dict, z: Fraction, operator: tuple):
    # the member's integral from 0 to z, with start the antiderivative at
    # x = 0, and the operator's pairing with it, over the member's x-columns
    return anti.subs({"x": z}) - start, _pair_columns(operator, columns, anti.names)


def _power_prefix(mu, m_max: int) -> list:
    """[g_0, ..., g_(m_max)] of Miller's recurrence at any exact order mu:
    g_m reads only g_0..g_(m-1), so one prefix serves every n <= m_max."""
    f = [seq.euler_number_order(k, 1) / factorial(k) for k in range(m_max + 1)]
    g = [Fraction(1)]
    for m in range(1, m_max + 1):
        g.append(sum((mu * k - m) * f[k] * g[m - k] for k in range(1, m + 1)) / m)
    return g


def _multinomial_sides(n: int, mu, g: list, special):
    # at any exact order mu: g is a prefix of Miller's g to at least n, and
    # special(i, 1) the order-1 x = 0 member, through the caller's tables
    lhs = seq.bell_euler_poly(n, mu).coefficient_in("x", 0)
    items = [(comb(n, i) * factorial(n - i) * g[n - i], special(i, 1), None)
             for i in range(n + 1)]
    return lhs, Poly.sum_of_products(seq.NAMES, items)


# -- registry wrappers ------------------------------------------------------

def check_orthogonality(grid: Grid = Grid(), tables: Tables | None = None) -> IdentityReport:
    """<h(t) t^k | BE_n^(mu)> = n! delta_{n,k} over the full (n, k) square,
    for each order mu, checked through the x = 0 rows.

    With h_j the t^j coefficient of h, the pairing is sum_(s >= k) s!
    h_(s-k) q_s over the member's x-columns q_s.  For a member that is
    Appell in x, q_s = C(n, s) Z_(n-s) with Z_r the x = 0 row, so the
    pairing is n!/(n-k)! V_(n-k) for k <= n and zero for k > n, with
    V_r = sum_j r!/(r-j)! h_j Z_(r-j): it reads n and k only through
    n - k.  So the point (mu, n, k) compares each x-column of the member
    with C(n, s) Z_(n-s), as ``T4_1`` does (``Tables.column_gap``), and
    then n!/(n-k)! V_(n-k) with n! delta_{n,k}.  A counterexample is the
    first column that fails, or else these two.  Each member's columns are
    built once per run, or once per call when called alone, and each
    order's h and each V_r, one kernel sum of r + 1 products, once per
    call, so a point costs O(n) term products beyond them.

    It reads no Euler number and no ``subs``, so a wrong Euler number or a
    wrong substitution passes it.  At fixed n both sides have coefficients
    of degree at most n in mu: h_j has degree at most j and the column s
    of the member at most n - s, so the pairing has degree at most
    n - k <= n."""
    n_max, mus = grid.resolve(6, (1, 2, 3))
    zero = Poly.zero(seq.NAMES)
    tables = Tables() if tables is None else tables
    columns, column_gap = tables.columns, tables.column_gap
    # h and V_r die with this call
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


def check_integral(grid: Grid = Grid(), tables: Tables | None = None) -> IdentityReport:
    """The running integral of the member BE_n^(alpha) against the operator
    (e^{zt} - 1)/t, at each point (n, alpha, z), in two forms.  The
    operator form: the exact antiderivative from x to x + z equals the
    operator's action on the member.  The pairing form: the integral from
    0 to z equals the operator's pairing with the member, read as a
    polynomial in x.  Each member's x-columns are built once per run, or
    once per call when called alone; its antiderivative, that at x = 0 and
    its x-derivatives once per (n, alpha), and each z's operator once, to
    t^(n_max + 1), and read to t^(n + 1), in tables that die with this
    call.  At a fixed z both sides of either form are linear in the member,
    so at fixed n their coefficients have degree at most n in alpha."""
    n_max, alphas = grid.resolve(8, (1,))
    columns = (Tables() if tables is None else tables).columns
    antiderivative = cache(lambda n, a: seq.bell_euler_poly(n, a).antiderivative("x"))
    start = cache(lambda n, a: antiderivative(n, a).subs({"x": 0}))
    derivatives = cache(lambda n, a: _x_derivatives(seq.bell_euler_poly(n, a)))
    operator = cache(lambda z: difference_quotient_operator(z, n_max + 1))

    def pair(n, a, z, form):
        anti, op = antiderivative(n, a), operator(z)[:n + 2]
        if form == "operator":
            return _operator_sides(anti, derivatives(n, a), z, op)
        return _pairing_sides(anti, start(n, a), columns(n, a), z, op)
    return run_cases("integral", product_cases(
        pair, n=range(n_max + 1), alpha=alphas, z=INTEGRAL_Z_VALUES,
        form=("operator", "pairing")))


def check_multinomial(grid: Grid = Grid(), tables: Tables | None = None) -> IdentityReport:
    """The x = 0 member of any exact order mu against the order-1 members
    weighted by the t^m coefficients of a power of f(t) = 2/(e^t+1), at
    each point (n, mu).  The members' generating function at x = 0 is the
    product f^mu e^{y(e^t-1)} = f^(mu-1) * f e^{y(e^t-1)}, so
    BE_n^(mu)(0; y) = sum_i C(n, i) (n-i)! g_(n-i) BE_i^(1)(0; y), with
    g_m the t^m coefficient of f^(mu-1).  As f_0 = 1, J. C. P. Miller's
    power recurrence g_m = (1/m) sum_(k=1..m) (mu k - m) f_k g_(m-k), with
    f_k = E_k^(1)/k!, gives g at every order, O(n^2) per order.  g_m has
    degree at most m in mu, and the member's coefficients at most n, so at
    fixed n each side has coefficients of degree at most n in mu.  The
    left side is the x = 0 column of the member ``bell_euler_poly``; the
    right side reads ``special_case`` at order 1 and Euler numbers."""
    n_max, mus = grid.resolve(8, (2, 3))
    # the order-1 x = 0 members recur across grid points and orders, in the
    # run's tables, and each order's g_0..g_(n_max) across grid points, in a
    # table that dies with this call
    special = (Tables() if tables is None else tables).special
    prefix = cache(lambda mu: _power_prefix(mu, n_max))

    def pair(n, mu):
        return _multinomial_sides(n, mu, prefix(mu), special)
    return run_cases("multinomial", product_cases(pair, n=range(n_max + 1), mu=mus))


ROUNDTRIP_COUNT = 100
ROUNDTRIP_SEED = 271828


def random_rational_poly(rng: random.Random, degree: int) -> Poly:
    """sum_i num_i/den_i x^i for i <= degree, with one draw of num_i and then
    den_i per power; each ratio is reduced and the Poly written over their
    lcm, so the draw builds no Fraction."""
    terms = {}
    for i in range(degree + 1):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        if num:
            g = gcd(num, den)
            terms[i] = num // g, den // g
    den = lcm(*(d for _, d in terms.values()))
    return Poly._make(seq.NAMES, {i: p * (den // d) for i, (p, d) in terms.items()}, den)


def check_roundtrip(grid: Grid = Grid(), tables: Tables | None = None) -> IdentityReport:
    """Expansion followed by reconstruction returns the input exactly, for
    seeded random rational polynomials cycling through the grid's orders.
    It reads no table."""
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
