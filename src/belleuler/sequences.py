"""Sequence families: Bell, Euler (any exact order), Stirling-2, and the hybrid
Bell-based Euler polynomials, each with a closed-form path and an independent
recurrence/summation path.

The closed-form path reads the Euler, Bell and Stirling families off two
exact tables.  Since 2/(e^t+1) = 1/(1+u) with u = (e^t-1)/2, the defining
generating function factors into Stirling numbers and rising factorials:

    E_k^(a)       = sum_j (-1)^j a^(j) S2(k, j) / 2^j      (a^(j) rising factorial)
    B_m(x; y)     = sum_i C(m, i) x^(m-i) sum_j S2(i, j) y^j
    BE_n^(a)(x;y) = sum_k C(n, k) E_k^(a) B_{n-k}(x; y)

Every polynomial family is an Appell sequence in x, P_n(x) = sum_m C(n, m)
x^(n-m) Z_m with Z_m = P_m(0), and one builder (``_appell``) writes each
member from its x = 0 rows: the Euler numbers for E_n^(a)(x), the Stirling
rows for B_n(x; y) and for the Stirling polynomials, and, for the hybrid
family, the rows Z_m(y) = BE_m^(a)(0; y).  These are not read off the
Euler-number convolution sum_k C(m, k) E_k^(a) B_{m-k}(y): each follows from
the row before it by a three-term recurrence of the generating function
(``_bell_euler_rows``), in O(m), without reading the Euler numbers or the
Stirling triangle, so the T3_3 and T3_4 checks hold each member against
tables that did not build it.  An order's rows are kept and cost O(n^2) in
all.  Each family that ``_appell`` builds exposes its rows as an Appell form
``(row, scale)`` (``bell_euler_form``, ``euler_form``,
``bivariate_bell_form``, ``stirling2_poly_form``), and ``compute`` and
``table`` write each member's text straight off it, with no member Poly.
A sweep of members 0..n still writes O(n^3) terms, but it keeps nothing
per member: the member memo of ``bell_euler_poly`` holds only
what the library's callers and the ``verify`` checks read.  The umbral layer
reads the same rows, at y -> -y, for its base series h.  ``special_case``
reads Z_n(y) off a third closed form, a falling product over one Stirling
row: it is the checks' oracle (T3_5 holds the two against each other), and
no production path reads it.

The recurrence path uses only binomials and triangle recurrences.  Tests hold
the two against each other, against brute-force enumeration, and against the
generating function expanded by the series engine of :mod:`.algebra`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, prod

from .algebra import EXPONENT_CEILING, FIELD_BITS, Poly, _as_fraction, _count

NAMES = ("x", "y")
X = Poly.gen("x", NAMES)
Y = Poly.gen("y", NAMES)


def validate_order(alpha):
    """Normalize the family order, an exact scalar of
    :func:`.algebra._is_exact`.  An int is returned as it is; anything else
    goes to :func:`.algebra._as_fraction`, which refuses a bool, and an
    integral Fraction becomes its int.  The helpers below read a
    normalized order's ``numerator`` and ``denominator`` off it, an int's
    too, and build no Fraction."""
    if type(alpha) is int:
        return alpha
    alpha = _as_fraction(alpha)
    return alpha.numerator if alpha.denominator == 1 else alpha


def _degree(n: int) -> int:
    if _count(n, "degree n") >= EXPONENT_CEILING:
        # the builders below write packed keys, which hold smaller exponents
        raise ValueError(f"degree n must be below {EXPONENT_CEILING}")
    return n


# -- closed-form path -------------------------------------------------------

_stirling_rows = [(1,)]
_member_rows = {}  # order -> [Z_0, Z_1, ...], the x = 0 rows of bell_euler_poly
_rows_lock = threading.Lock()  # guards the growth of both tables


def _stirling_row(n: int) -> tuple:
    """(S2(n, 0), ..., S2(n, n)) as ints; the shared triangle grows row by row."""
    rows = _stirling_rows
    if _degree(n) >= len(rows):
        with _rows_lock:
            while len(rows) <= n:
                prev = rows[-1]
                rows.append((0,) + tuple(k * prev[k] + prev[k - 1]
                                         for k in range(1, len(prev))) + (1,))
    return rows[n]


def _order_scale(alpha) -> int:
    # E_k^(alpha) * scale^k is an integer, scale = 2 * denominator(alpha);
    # alpha is a normalized order, an int or a Fraction
    return 2 * alpha.denominator


@lru_cache(maxsize=None)
def _euler_numerator(k: int, alpha) -> int:
    """E_k^(alpha) * scale^k, from the Stirling closed form with the rising
    factorial p (p+q) ... (p+(j-1)q) = q^j alpha^(j) for alpha = p/q."""
    p, q = alpha.numerator, alpha.denominator
    scale = _order_scale(alpha)
    total, rising = 0, 1
    for j, s in enumerate(_stirling_row(k)):
        total += (-1) ** j * rising * s * scale ** (k - j)
        rising *= p + j * q
    return total


def _appell(n: int, row, scale: int = 1) -> Poly:
    """sum_m C(n, m) x^(n-m) Z_m(y) over scale^n, with row(m)[j] the y^j
    coefficient of the x = 0 row Z_m times scale^m: each (m, j) owns one key."""
    return Poly._make(NAMES, {n - m | j << FIELD_BITS: weight * c for m in range(n + 1)
                              for weight in (comb(n, m) * scale ** (n - m),)
                              for j, c in enumerate(row(m))}, scale ** n)


def _bell_euler_rows(n: int, alpha) -> list:
    """The x = 0 rows Z_m = BE_m^(alpha)(0; y), m <= n, as numerators
    z_m = S^m Z_m with S = scale = 2q for alpha = p/q, each from the row
    before it in O(m) operations.

    Z_m[y^j] = m! [t^m] F_j with F_j = (2/(e^t+1))^alpha u^j / j! and
    u = e^t - 1.  Multiplying F_j' by 2 + u and using u F_j = (j+1) F_(j+1)
    gives, at t^m,

        2 Z_(m+1)[j] + (j+1) Z_(m+1)[j+1]
            = 2 Z_m[j-1] + (3j+1-alpha) Z_m[j] + (j+1)(j+1-alpha) Z_m[j+1],

    solved for j = m, ..., 0 from Z_(m+1)[m+1] = 1.  Over S^(m+1) the
    halving of the last term is exact, since every other term is an integer.
    The rows read no Euler number and no Stirling row, an order's table
    grows under the lock, and its rows to n cost O(n^2) operations."""
    rows = _member_rows.get(alpha)
    if rows is None or n >= len(rows):
        p, q = alpha.numerator, alpha.denominator
        scale = _order_scale(alpha)
        with _rows_lock:
            rows = _member_rows.setdefault(alpha, [(1,)])
            for m in range(len(rows), n + 1):
                w = (0,) + rows[-1] + (0,)  # w[j + 1] = z_(m-1)[j]
                z = [0] * m + [scale ** m]
                for j in range(m - 1, -1, -1):
                    z[j] = (scale * w[j] + (q * (3 * j + 1) - p) * w[j + 1]
                            + (j + 1) * (q * (j + 1) - p) * w[j + 2]
                            - (j + 1) * z[j + 1] // 2)
                rows.append(tuple(z))
    return rows


def bell_euler_form(n: int, alpha) -> tuple:
    """The Appell form ``(row, scale)`` of ``bell_euler_poly(n, alpha)``:
    ``row(m)[j]`` is the y^j coefficient of its x = 0 row Z_m times
    scale^m, for m <= n, as ``_appell`` reads it.  Each family that
    ``_appell`` builds has one such form, and ``cli`` writes a member's text
    straight off it, with no member Poly."""
    n, alpha = _degree(n), validate_order(alpha)
    return _bell_euler_rows(n, alpha).__getitem__, _order_scale(alpha)


@lru_cache(maxsize=None)
def _bell_euler_poly(n: int, alpha) -> Poly:
    return _appell(n, *bell_euler_form(n, alpha))


def bivariate_bell_form(n: int) -> tuple:
    """The Appell form of ``bivariate_bell(n)``: the Stirling rows, scale 1."""
    _degree(n)
    return _stirling_row, 1


def bivariate_bell(n: int) -> Poly:
    """n-th polynomial of e^{xt + y(e^t - 1)}: mixes powers of x with partition counts."""
    return _appell(n, *bivariate_bell_form(n))


def bell_poly(n: int) -> Poly:
    """Classical Bell polynomial sum_k S2(n, k) y^k: bivariate value at x = 0."""
    row = _stirling_row(n)
    return Poly._make(NAMES, {k << FIELD_BITS: s for k, s in enumerate(row)}, 1)


def bell_number(n: int) -> Fraction:
    """Number of set partitions of an n-element set, from the int Bell
    triangle: it holds one row of O(n) ints and leaves the Stirling
    triangle alone."""
    row = [1]
    for _ in range(_degree(n)):
        row = list(accumulate(row, initial=row[-1]))
    return Fraction(row[0])


def euler_form(n: int, alpha) -> tuple:
    """The Appell form of ``euler_poly_order(n, alpha)``: each row holds one
    Euler number's numerator, over the order's scale."""
    alpha = validate_order(alpha)
    _degree(n)
    return lambda m: (_euler_numerator(m, alpha),), _order_scale(alpha)


def euler_poly_order(n: int, alpha) -> Poly:
    """Euler polynomial of order alpha (univariate in x)."""
    return _appell(n, *euler_form(n, alpha))


def euler_number_order(n: int, alpha) -> Fraction:
    alpha = validate_order(alpha)
    return Fraction(_euler_numerator(_degree(n), alpha), _order_scale(alpha) ** n)


def stirling2_poly_form(n: int, k: int) -> tuple:
    """The Appell form of ``stirling2_poly(n, k)``: each row holds S2(m, k),
    scale 1."""
    _count(k, "block count k")
    _degree(n)
    return lambda m: (_stirling_row(m)[k] if k <= m else 0,), 1


def stirling2_poly(n: int, k: int) -> Poly:
    """n-th polynomial of (e^t - 1)^k / k! * e^{xt}."""
    return _appell(n, *stirling2_poly_form(n, k))


def stirling2_number(n: int, k: int) -> Fraction:
    """Partitions of an n-set into k nonempty blocks."""
    _count(k, "block count k")
    row = _stirling_row(n)
    return Fraction(row[k] if k <= n else 0)


def bell_euler_poly(n: int, alpha) -> Poly:
    """Hybrid family: n-th polynomial of (2/(e^t+1))^alpha * e^{xt + y(e^t-1)}."""
    return _bell_euler_poly(_degree(n), validate_order(alpha))


def bell_euler_number(n: int, alpha) -> Fraction:
    """BE_n^(alpha)(0; 1): the sum of the x = 0 row of ``bell_euler_poly``."""
    n, alpha = _degree(n), validate_order(alpha)
    return Fraction(sum(_bell_euler_rows(n, alpha)[n]), _order_scale(alpha) ** n)


def falling_factorial(k: int) -> Poly:
    """x(x-1)...(x-k+1); the empty product is 1."""
    return prod((X - i for i in range(_count(k, "falling factorial length k"))),
                start=Poly.constant(1))


def _negated_y_rows(n: int, alpha) -> list:
    """[BE_m^(alpha)(0; -y) for m <= n]: the x = 0 rows of
    ``_bell_euler_rows`` with a sign (-1)^j on each y^j."""
    scale, rows = _order_scale(alpha), _bell_euler_rows(n, alpha)[:n + 1]
    return [Poly._make(NAMES, {j << FIELD_BITS: (-1) ** j * c
                               for j, c in enumerate(row)}, scale ** m)
            for m, row in enumerate(rows)]


def special_case(n: int, alpha) -> Poly:
    """BE_n^(alpha)(0; y), the x = 0 member, from one Stirling row in O(n^2):
    the checks' oracle for the rows of ``bell_euler_poly``.  Its series is
    (1+u)^mu e^{2yu} = sum_i C(mu, i) u^i e^{2yu} with u = (e^t-1)/2 and
    mu = -alpha = p/q, so the y^m coefficient is
    sum_j S2(n, j) C(j, m) f_(j-m) (2q)^(n-j+m) / (2q)^n,
    f_i = p (p-q) ... (p-(i-1)q) = q^i i! C(mu, i)."""
    n, alpha = _degree(n), validate_order(alpha)
    p, q = -alpha.numerator, alpha.denominator
    scale = _order_scale(alpha)
    falling = [1]
    for i in range(n):
        falling.append(falling[-1] * (p - i * q))
    row = _stirling_row(n)
    return Poly._make(NAMES, {m << FIELD_BITS: sum(
                          row[j] * comb(j, m) * falling[j - m] * scale ** (n - j + m)
                          for j in range(m, n + 1))
                      for m in range(n + 1)}, scale ** n)


# -- recurrence / summation path ------------------------------------------

def bell_number_triangle(n: int) -> Fraction:
    """Bell number from the Bell-triangle recurrence (no series involved)."""
    row = [Fraction(1)]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


@lru_cache(maxsize=None)
def stirling2_recurrence(n: int, k: int) -> Fraction:
    """S2(n, k) from S2(m, j) = j S2(m-1, j) + S2(m-1, j-1), filled bottom-up
    in m over the columns j <= k (a recursion per degree overflows the stack)."""
    if k < 0 or k > n:
        return Fraction(0)
    row = [1] + [0] * k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return Fraction(row[k])


def bell_poly_from_stirling(n: int) -> Poly:
    terms = {(0, k): stirling2_recurrence(n, k) for k in range(n + 1)}
    return Poly(("x", "y"), terms)


@lru_cache(maxsize=None)
def euler_poly_recurrence(n: int) -> Poly:
    """Order-1 Euler polynomial from the triangular relation
    E_n(x) = x^n - (1/2) sum_{k<n} C(n,k) E_k(x)."""
    result = X ** n
    for k in range(n):
        result = result - Fraction(1, 2) * comb(n, k) * euler_poly_recurrence(k)
    return result


@lru_cache(maxsize=None)
def euler_numbers_of_order(alpha: int, n_max: int) -> tuple:
    """Euler numbers of integer order via convolution (alpha >= 0) or the
    closed binomial sum for the reciprocal factor (alpha < 0)."""
    if alpha == 0:
        return tuple(Fraction(1 if n == 0 else 0) for n in range(n_max + 1))
    if alpha < 0:
        m = -alpha
        return tuple(
            Fraction(sum(comb(m, i) * i ** n for i in range(m + 1)), 2 ** m)
            if n else Fraction(1)
            for n in range(n_max + 1))
    base = [euler_poly_recurrence(n).evaluate({"x": 0, "y": 0})
            for n in range(n_max + 1)]
    numbers = euler_numbers_of_order(0, n_max)
    for _ in range(alpha):  # a loop: a recursion per order overflows the stack
        numbers = tuple(
            sum((comb(n, k) * numbers[k] * base[n - k] for k in range(n + 1)), Fraction(0))
            for n in range(n_max + 1))
    return numbers


def euler_poly_order_convolution(n: int, alpha: int) -> Poly:
    """E_n^{(alpha)}(x) = sum_k C(n,k) E_k^{(alpha)} x^{n-k} (numbers from recurrences)."""
    numbers = euler_numbers_of_order(alpha, n)
    result = Poly.zero()
    for k in range(n + 1):
        result = result + comb(n, k) * numbers[k] * X ** (n - k)
    return result


def bivariate_bell_convolution(n: int) -> Poly:
    result = Poly.zero()
    for k in range(n + 1):
        result = result + comb(n, k) * X ** (n - k) * bell_poly_from_stirling(k)
    return result


def bell_euler_convolution(n: int, alpha: int) -> Poly:
    """Binomial convolution of Euler polynomials with Bell polynomials,
    entirely on the recurrence path."""
    result = Poly.zero()
    for k in range(n + 1):
        result = result + (comb(n, k) * euler_poly_order_convolution(k, alpha)
                           * bell_poly_from_stirling(n - k))
    return result
