"""Independent oracles used by the tests: recurrences, closed sums, and
brute-force enumeration only, apart from ``convolution_rows``, which reads
the package's Euler-number and Stirling tables, and the umbral route to the
members, ``h_inverse`` and ``appell_inverse_apply``, which reads
``special_case``.  Nothing here touches the package's series engine;
polynomials are plain dicts {(deg_x, deg_y): Fraction} so comparisons
against ``Poly.terms`` stay honest.  The ``dict_*`` helpers are a reference
polynomial arithmetic on such dicts, in any number of variables, with one
Fraction per coefficient and no shared denominator.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

from belleuler.algebra import Poly
from belleuler.sequences import _euler_numerator, _order_scale, _stirling_row, special_case
from belleuler.umbral import AppellContext, apply_operator


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
    euler = [_euler_numerator(k, alpha) for k in range(n + 1)]
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
