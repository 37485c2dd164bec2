"""Independent oracles used by the tests: recurrences, closed sums, and
brute-force enumeration only, apart from ``convolution_rows``, which reads
the package's Euler-number and Stirling tables, and the umbral route to the
members, ``h_inverse`` and ``appell_inverse_apply``, which reads
``special_case``, and ``reference_expansion``, the Appell expansion as the
kernel built it from the package's rows.  ``check_T4_1_four_vars`` and
``check_orthogonality_pairing`` are the two registry checks that go
through the x = 0 rows, ``T4_1`` and ``orthogonality``, in forms that read
whole members.  ``functionals`` shifts an ``AppellContext``'s h into the
functionals h(t) t^k, and ``integral_via_operator``,
``integral_pairing_form`` and ``multinomial_decomposition`` are single
points of the ``integral`` and ``multinomial`` checks, built through the
checks' own sides.  Nothing here touches the package's series engine;
polynomials are plain dicts {(deg_x, deg_y): Fraction} so comparisons
against ``Poly.terms`` stay honest.  The ``dict_*`` helpers are a reference
polynomial arithmetic on such dicts, in any number of variables, with one
Fraction per coefficient and no shared denominator.  ``build_parser`` is the
command line's argparse parser as it stood before ``cli.parse`` replaced it,
the oracle of that table-driven parse.
"""

import argparse
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, gcd

from belleuler import sequences
from belleuler.algebra import Poly, _as_fraction
from belleuler.cli import (FAMILIES, _ORDER_HELP, cmd_compute, cmd_expand, cmd_table,
                           cmd_verify)
from belleuler.identities import Grid, product_cases, run_cases
from belleuler.sequences import (_euler_numerator, _negated_y_rows, _order_scale, _stirling_row,
                                 special_case, validate_order)
from belleuler.umbral import (AppellContext, _multinomial_sides, _operator_sides,
                              _pairing_sides, _power_prefix, _x_derivatives,
                              apply_operator, difference_quotient_operator, pair)


def bell_triangle(n_max):
    """Bell numbers 0..n_max from the Bell-triangle recurrence."""
    numbers = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        numbers.append(row[0])
    return numbers


def set_partitions(n):
    """All set partitions of range(n) as restricted-growth strings."""
    def rec(i, max_block, prefix):
        if i == n:
            yield prefix
            return
        for b in range(max_block + 2):
            yield from rec(i + 1, max(max_block, b), prefix + [b])
    if n == 0:
        yield []
        return
    yield from rec(1, 0, [0])


def stirling2_brute(n, k):
    """Count partitions of an n-set into k blocks by full enumeration."""
    return sum(1 for p in set_partitions(n) if len(set(p)) == (k if n else 0)) \
        if n else (1 if k == 0 else 0)


@lru_cache(maxsize=None)
def stirling2_rec(n, k):
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2_rec(n - 1, k) + stirling2_rec(n - 1, k - 1)


def bell_poly_dict(n):
    """Classical Bell polynomial as {(0, k): S2(n, k)}."""
    return {(0, k): Fraction(stirling2_rec(n, k))
            for k in range(n + 1) if stirling2_rec(n, k)}


@lru_cache(maxsize=None)
def euler_poly_coeffs(n):
    """Order-1 Euler polynomial coefficients (index = x power), from the
    triangular relation E_n(x) = x^n - (1/2) sum_{k<n} C(n,k) E_k(x)."""
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(n):
        for j, c in enumerate(euler_poly_coeffs(k)):
            coeffs[j] -= Fraction(1, 2) * comb(n, k) * c
    return tuple(coeffs)


@lru_cache(maxsize=None)
def euler_numbers(alpha, n_max):
    """Euler numbers of integer order alpha (any sign), recurrence-only."""
    if alpha == 0:
        return tuple(Fraction(1 if n == 0 else 0) for n in range(n_max + 1))
    if alpha < 0:
        m = -alpha
        return tuple(
            Fraction(sum(comb(m, i) * i ** n for i in range(m + 1)), 2 ** m)
            if n else Fraction(1)
            for n in range(n_max + 1))
    prev = euler_numbers(alpha - 1, n_max)
    base = tuple(euler_poly_coeffs(n)[0] for n in range(n_max + 1))
    return tuple(
        sum((comb(n, k) * prev[k] * base[n - k] for k in range(n + 1)),
            Fraction(0))
        for n in range(n_max + 1))


def euler_poly_dict(n, alpha):
    """E_n^{(alpha)}(x) = sum_k C(n,k) E_k^{(alpha)} x^{n-k} as a dict."""
    numbers = euler_numbers(alpha, n)
    out = {}
    for k in range(n + 1):
        c = comb(n, k) * numbers[k]
        if c:
            out[(n - k, 0)] = out.get((n - k, 0), Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def dict_nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def dict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(i + j for i, j in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return dict_nonzero(out)


def dict_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return dict_nonzero(out)


def dict_scale(a, s):
    return {k: c * s for k, c in a.items() if c * s}


def dict_pow(a, k, nvars):
    """a^k by repeated squaring, so exponents near the ceiling stay cheap."""
    out = {(0,) * nvars: Fraction(1)}
    while k:
        if k & 1:
            out = dict_mul(out, a)
        k >>= 1
        if k:
            a = dict_mul(a, a)
    return out


def dict_derivative(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def dict_antiderivative(a, i):
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c / (e[i] + 1) for e, c in a.items()}


def dict_coefficient_in(a, i, k):
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == k}


def dict_subs(a, images, nvars):
    """Substitute images[i] (a dict in ``nvars`` variables) for variable i,
    one term at a time."""
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for image, k in zip(images, e):
            term = dict_mul(term, dict_pow(image, k, nvars))
        out = dict_add(out, term)
    return out


def dict_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(point, e):
            c *= Fraction(v) ** k
        total += c
    return total


def bivariate_bell_dict(n):
    """B_n(x;y) = sum_k C(n,k) x^{n-k} B_k(y), recurrence-only."""
    out = {}
    for k in range(n + 1):
        for (_, j), c in bell_poly_dict(k).items():
            key = (n - k, j)
            out[key] = out.get(key, Fraction(0)) + comb(n, k) * c
    return {k: c for k, c in out.items() if c}


def bell_euler_dict(n, alpha):
    """Hybrid polynomial via the binomial convolution of the Euler and Bell
    oracles; integer alpha of any sign."""
    out = {}
    for k in range(n + 1):
        piece = dict_scale(
            dict_mul(euler_poly_dict(k, alpha), bell_poly_dict(n - k)),
            Fraction(comb(n, k)))
        out = dict_add(out, piece)
    return out


def compositions(total, parts):
    """Every tuple of ``parts`` non-negative ints that sums to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial_rhs_dict(n, mu):
    """The multinomial check's composition sum built literally: over every
    split p_1 + ... + p_mu = n, the weight n!/(p_1! ... p_mu!) times the
    order-1 Euler numbers E_(p_1) ... E_(p_(mu-1)), times the x = 0 part of
    the order-1 hybrid polynomial of degree p_mu."""
    euler = euler_numbers(1, n)
    members = [{key: c for key, c in bell_euler_dict(i, 1).items() if key[0] == 0}
               for i in range(n + 1)]
    out = {}
    for parts in compositions(n, mu):
        weight = Fraction(factorial(n))
        for p in parts:
            weight /= factorial(p)
        for p in parts[:-1]:
            weight *= euler[p]
        out = dict_add(out, dict_scale(members[parts[-1]], weight))
    return out


# -- reference formatters ---------------------------------------------------
# The formatters of ``Poly`` as they stood before they read the packed keys
# directly: one exponent tuple per term, tuple sort keys and f-strings.  The
# helpers are copied too, so these share no code with ``belleuler.algebra``.

_REF_FIELD_BITS = 15
_REF_FIELD_MASK = (1 << _REF_FIELD_BITS) - 1


def _ref_unpack(key, nvars):
    if nvars == 2:   # the (x, y) ring of every family
        return key & _REF_FIELD_MASK, key >> _REF_FIELD_BITS
    return tuple([(key >> shift) & _REF_FIELD_MASK
                  for shift in range(0, _REF_FIELD_BITS * nvars, _REF_FIELD_BITS)])


def _ref_format_ratio(num, den):
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _ref_unpacked(poly):
    nvars = len(poly.names)
    return [(_ref_unpack(k, nvars), c) for k, c in poly._num.items()]


def _ref_monomial_key(poly, exps):
    return "*".join([f"{n}^{k}" for n, k in zip(poly.names, exps) if k]) or "1"


def reference_to_json_map(poly):
    """``Poly.to_json_map``: terms by total degree, then exponent tuple,
    both descending."""
    den = poly._den
    ordered = sorted(_ref_unpacked(poly), key=lambda t: (sum(t[0]), t[0]),
                     reverse=True)
    return {_ref_monomial_key(poly, e): _ref_format_ratio(c, den) for e, c in ordered}


def reference_pretty(poly):
    """``Poly.pretty``: terms by the first exponent descending, then the
    others ascending."""
    if not poly._num:
        return "0"
    den = poly._den
    ordered = sorted(_ref_unpacked(poly),
                     key=lambda t: (-t[0][0],) + t[0][1:] if t[0] else ())
    chunks = []
    for e, c in ordered:
        mono = "*".join(n if k == 1 else f"{n}^{k}"
                        for n, k in zip(poly.names, e) if k)
        if not mono:
            body = _ref_format_ratio(abs(c), den)
        elif abs(c) == den:
            body = mono
        else:
            body = f"{_ref_format_ratio(abs(c), den)}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def convolution_rows(n, alpha):
    """The x = 0 rows of the hybrid family, Z_m = BE_m^(alpha)(0; y) for
    m <= n, as y-coefficient numerators over (2q)^m for alpha = p/q, from
    the convolution Z_m[y^j] = sum_k C(m, k) E_k^(alpha) S2(m - k, j) of the
    package's Euler-number and Stirling tables, in O(n^3)."""
    scale = _order_scale(alpha)
    euler = [_euler_numerator(k, alpha.numerator, alpha.denominator) for k in range(n + 1)]
    stirling = [_stirling_row(i) for i in range(n + 1)]
    rows = []
    for m in range(n + 1):
        z = [0] * (m + 1)
        for k in range(m + 1):
            c = comb(m, k) * euler[k] * scale ** (m - k)
            if c:
                for j, s in enumerate(stirling[m - k]):
                    z[j] += c * s
        rows.append(tuple(z))
    return rows


def h_inverse(context):
    """1/h(t) of an ``AppellContext``: it generates the x = 0 members
    BE^(mu)(0; y), read off ``special_case`` and not off the rows that
    build the members and h."""
    return tuple(special_case(k, context.mu) / factorial(k)
                 for k in range(context.order + 1))


def appell_inverse_apply(mu, n):
    """(1/h(t)) x^n: the umbral route to the degree-n member of order mu."""
    return apply_operator(h_inverse(AppellContext.create(mu, n)), Poly.gen("x") ** n)


def functionals(context):
    """h(t) t^k for k = 0..order of an ``AppellContext``: pairing with the
    k-th gives k! times the k-th Appell coefficient."""
    return tuple((0,) * k + context.h[:len(context.h) - k]
                 for k in range(context.order + 1))


def _integral_sides(sides, read, n: int, z, alpha):
    # ``read`` gives, from the member and its antiderivative, the parts that
    # ``sides`` takes after the antiderivative
    z = _as_fraction(z)
    member = sequences.bell_euler_poly(n, alpha)
    anti = member.antiderivative("x")
    return sides(anti, *read(member, anti), z, difference_quotient_operator(z, n + 1))


def integral_via_operator(n: int, z, alpha=1):
    """Both routes to the running integral of the order-alpha family member:
    exact antiderivative from x to x+z, and the (e^{zt}-1)/t operator."""
    return _integral_sides(_operator_sides, lambda member, anti: (_x_derivatives(member),),
                           n, z, alpha)


def integral_pairing_form(n: int, z, alpha=1):
    """Corollary form: the integral from 0 to z equals the pairing of
    (e^{zt}-1)/t against the member, read as a polynomial in x."""
    return _integral_sides(_pairing_sides, lambda member, anti: (
        anti.subs({"x": 0}), member.columns("x")), n, z, alpha)


def _part_count(mu) -> int:
    # the composition sum splits n into mu parts, so mu counts at least one
    mu = validate_order(mu)
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
    mu, n = _part_count(mu), sequences._degree(n)
    return _multinomial_sides(n, mu, _power_prefix(mu, n), sequences.special_case)


def reference_expansion(q, mu):
    """The coefficients of ``expand_in_appell(q, mu)`` as the kernel built
    them: b_k = sum_(n >= k) C(n, k) BE_(n-k)^(-mu)(0; -y) q_n, with q's
    x-columns q_n from ``Poly.columns``, the rows as ``_negated_y_rows``
    Polys, and one ``Poly.sum_of_products`` for each k."""
    mu = validate_order(mu)
    columns = q.columns("x")
    top = max(columns, default=0)
    rows = _negated_y_rows(top, -mu)
    return tuple(Poly.sum_of_products(q.names, (
        (comb(n, k), rows[n - k], q_n) for n, q_n in columns.items() if n >= k))
        for k in range(top + 1))


_FOUR_VARS = ("x1", "x2", "y1", "y2")


def check_T4_1_four_vars(grid=Grid()):
    """``identities.check_T4_1`` in four formal variables: the order-(a1+a2)
    member at (x1+x2, y1+y2) against the binomial convolution of the
    order-a1 and order-a2 members at the split arguments, both expanded
    whole, O(n^5) term products per point.  It reads the members,
    ``Poly.subs`` and the kernel, and it reports under the same id, on the
    same grid, in the same case order."""
    n_max, alphas = grid.resolve(6, (0, 1, 2))

    x1, x2, y1, y2 = Poly.gens(*_FOUR_VARS)
    points = {"sum": {"x": x1 + x2, "y": y1 + y2},
              "left": {"x": x1, "y": y1}, "right": {"x": x2, "y": y2}}

    @cache
    def image(k, a, point):
        return sequences.bell_euler_poly(k, a).subs(points[point])

    def ring_pair(n, a1, a2):
        lhs = image(n, a1 + a2, "sum")
        rhs = Poly.sum_of_products(_FOUR_VARS, (
            (comb(n, k), image(k, a1, "left"), image(n - k, a2, "right"))
            for k in range(n + 1)))
        return lhs, rhs

    return run_cases("T4_1", product_cases(
        ring_pair, n=range(n_max + 1), alpha1=alphas, alpha2=alphas))


def check_orthogonality_pairing(grid=Grid()):
    """``umbral.check_orthogonality`` as a pairing of each functional with
    each member: at every point (mu, n, k), ``pair`` of h(t) t^k, from
    ``functionals``, with the whole member, O(n^3) term products per point.
    It reads the members, h and the kernel, assumes nothing of the members'
    x-columns, and reports under the same id, on the same grid, in the same
    case order."""
    n_max, mus = grid.resolve(6, (1, 2, 3))
    shifted = cache(lambda mu: functionals(AppellContext.create(mu, n_max)))

    def pairing(mu, n, k):
        lhs = pair(shifted(mu)[k], sequences.bell_euler_poly(n, mu))
        return lhs, Poly.constant(factorial(n) if n == k else 0)
    degrees = range(n_max + 1)
    return run_cases("orthogonality", product_cases(pairing, mu=mus, n=degrees, k=degrees))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belleuler",
        description="Exact Bell/Euler polynomial families and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one family value")
    p_compute.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_compute.add_argument("--n", required=True, type=int)
    p_compute.add_argument("--alpha", help=_ORDER_HELP.format("alpha"))
    p_compute.add_argument("--k", type=int, help="block count for stirling2 families")
    p_compute.add_argument("--format", default="pretty",
                           choices=("json", "csv", "pretty"))
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="values for n = 0..n_max")
    p_table.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_table.add_argument("--n-max", required=True, type=int, dest="n_max")
    p_table.add_argument("--alpha", help=_ORDER_HELP.format("alpha"))
    p_table.add_argument("--format", default="csv",
                         choices=("json", "csv", "pretty"))
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser(
        "verify", help="run identity checks; JSON reports on stdout")
    p_verify.add_argument("--id", action="append",
                          help="registry id (repeatable); the negative control "
                               "T4_4_literal only runs when named here")
    p_verify.add_argument("--all", action="store_true",
                          help="run every check except negative controls")
    p_verify.add_argument("--n-max", type=int, dest="n_max")
    p_verify.add_argument("--alphas",
                          help="comma-separated integers or p/q; write a list "
                               "that starts with a minus sign as --alphas=-1,2")
    p_verify.add_argument("--parallel", action="store_true",
                          help="accepted for compatibility; checks run "
                               "sequentially (same output)")
    p_verify.set_defaults(func=cmd_verify)

    p_expand = sub.add_parser(
        "expand", help="expand a polynomial in the order-mu Appell basis")
    p_expand.add_argument("--mu", required=True, help=_ORDER_HELP.format("mu"))
    p_expand.add_argument("polynomial", help='literal such as "x^3 - 2/3"')
    p_expand.set_defaults(func=cmd_expand)

    return parser
