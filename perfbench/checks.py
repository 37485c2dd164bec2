"""Correctness gate for the benchmark: every command's exit code and output is
checked here, outside the timed region.

Integer-order families are compared with the library's recurrence path
(``belleuler.sequences``), which shares no code with the generating-function
path the CLI uses.  For rational orders the library has no second path, so
``bell_euler_terms`` below is an independent closed form:

    E_k^(a)       = sum_j (-1)^j a^(j) S2(k, j) / 2^j     (a^(j) rising factorial)
    B_m(x; y)     = sum_i C(m, i) x^(m-i) sum_j S2(i, j) y^j
    BE_n^(a)(x;y) = sum_k C(n, k) E_k^(a) B_{n-k}(x; y)   (the T3_4 convolution)

Polynomials are compared as ``{(deg_x, deg_y): Fraction}`` maps parsed from
the CLI's text, so the oracle never goes through ``Poly``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb

# `checked` counts of `verify --all --n-max 10`, from each check's grid:
# 11 degrees x 4 default orders, 9 order pairs for T4_1, 2 parts for T4_3,
# 3 orders x 11 x 11 for orthogonality, 3 z values x 2 forms for integral,
# 2 orders for multinomial and a fixed 100 instances for roundtrip.
VERIFY_N_MAX = 10
VERIFY_CHECKED = {
    "T3_3": 44, "T3_4": 44, "T3_5": 44, "T4_1": 99, "R4_2": 44, "T4_2": 44,
    "T4_3": 22, "T4_4_corrected": 44, "T5_1": 44, "T5_2": 44,
    "orthogonality": 363, "integral": 66, "multinomial": 22, "roundtrip": 100,
}
NEGATIVE_CONTROL = "T4_4_literal"
UMBRAL_IDS = frozenset({"orthogonality", "integral", "multinomial", "roundtrip"})

_ELAPSED = re.compile(r',"elapsed_ms":[-+0-9.eE]+')


def strip_elapsed(text: str) -> str:
    """Verify output without its wall-clock fields, for byte comparison."""
    return _ELAPSED.sub("", text)


# -- closed-form oracle -----------------------------------------------------

@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _euler_numbers(a: Fraction, n_max: int) -> list:
    """E_k^(a) for k = 0..n_max from the Stirling closed form."""
    rising = [Fraction(1)]
    for j in range(n_max):
        rising.append(rising[-1] * (a + j))
    return [sum((Fraction((-1) ** j * _stirling2(k, j), 2 ** j) * rising[j]
                 for j in range(k + 1)), Fraction(0))
            for k in range(n_max + 1)]


def euler_terms(n: int, a: Fraction) -> dict:
    """E_n^(a)(x) = sum_k C(n, k) E_k^(a) x^(n-k)."""
    numbers = _euler_numbers(a, n)
    terms = {(n - k, 0): comb(n, k) * numbers[k] for k in range(n + 1)}
    return {e: c for e, c in terms.items() if c}


def bell_euler_terms(n: int, a: Fraction) -> dict:
    numbers = _euler_numbers(a, n)
    terms = {}
    for k in range(n + 1):
        if not numbers[k]:
            continue
        m = n - k
        for i in range(m + 1):
            weight = comb(n, k) * numbers[k] * comb(m, i)
            for j in range(i + 1):
                key = (m - i, j)
                terms[key] = terms.get(key, Fraction(0)) + weight * _stirling2(i, j)
    return {e: c for e, c in terms.items() if c}


def poly_terms(poly) -> dict:
    """Library ``Poly`` in (x, y) as an exponent map, for recurrence-path values."""
    return {tuple(e): Fraction(c) for e, c in poly.terms.items()}


# -- parsers for CLI output -------------------------------------------------

_MONOMIAL = re.compile(r"^([xy])(?:\^(\d+))?$")


def _add_monomial(terms: dict, coeff: Fraction, factors) -> None:
    exps = [0, 0]
    for factor in factors:
        match = _MONOMIAL.match(factor)
        if not match:
            raise ValueError(f"bad monomial factor {factor!r}")
        exps["xy".index(match.group(1))] += int(match.group(2) or 1)
    key = tuple(exps)
    if key in terms:
        raise ValueError(f"repeated monomial {key}")
    terms[key] = coeff


def parse_pretty(text: str) -> dict:
    """Parse ``Poly.pretty`` output such as "x^2 - 3/2*x*y + 1/4"."""
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    first = parts[0]
    chunks = [("-" if first.startswith("-") else "+", first.lstrip("-"))]
    chunks += list(zip(parts[1::2], parts[2::2]))
    terms = {}
    for sign, body in chunks:
        factors = body.split("*")
        coeff = Fraction(1)
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        _add_monomial(terms, -coeff if sign == "-" else coeff, factors)
    return terms


def parse_json_map(text: str) -> dict:
    """Parse ``Poly.to_json_map`` output such as {"x^2":"1","x^1*y^1":"2"}."""
    terms = {}
    for key, value in json.loads(text).items():
        factors = [] if key == "1" else key.split("*")
        _add_monomial(terms, Fraction(value), factors)
    return terms


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


# -- per-command checks -----------------------------------------------------
# Each returns None when the output is right, else a one-line reason.

def check_verify_all(code: int, out: str):
    if code != 0:
        return f"exit {code}"
    reports = json.loads(out)
    got = {r["id"]: (r["pass"], r["checked"]) for r in reports}
    want = {i: (True, n) for i, n in VERIFY_CHECKED.items()}
    if [r["id"] for r in reports] != list(VERIFY_CHECKED) or got != want:
        return f"reports differ: {got}"
    return None


def check_negative_control(code: int, out: str):
    if code != 1:
        return f"negative control exit {code}, expected 1"
    (report,) = json.loads(out)
    example = report.get("counterexample") or {}
    if report["id"] != NEGATIVE_CONTROL or report["pass"] \
            or example.get("params", {}).get("n") != 1:
        return "negative control not detected at n = 1"
    return None


def check_json_poly(code: int, out: str, expected: dict):
    if code != 0:
        return f"exit {code}"
    return None if parse_json_map(out) == expected else "polynomial differs"


def check_json_number(code: int, out: str, expected: Fraction):
    if code != 0:
        return f"exit {code}"
    return None if Fraction(json.loads(out)) == expected else "value differs"


def check_value_table(code: int, out: str, expected: list, parse):
    """`table` CSV with header n,value; ``parse`` reads one value cell."""
    if code != 0:
        return f"exit {code}"
    rows = _csv_rows(out)
    if rows[0] != ["n", "value"] or len(rows) != len(expected) + 1:
        return "table shape differs"
    for n, (row, want) in enumerate(zip(rows[1:], expected)):
        if row[0] != str(n) or parse(row[1]) != want:
            return f"table row n={n} differs"
    return None


def check_block_table(code: int, out: str, expected: list):
    """Stirling `table` CSV: rows n, columns k = 0..n_max."""
    if code != 0:
        return f"exit {code}"
    rows = _csv_rows(out)
    size = len(expected)
    if rows[0] != ["n"] + [f"k={k}" for k in range(size)] or len(rows) != size + 1:
        return "table shape differs"
    for n, (row, want) in enumerate(zip(rows[1:], expected)):
        if row[0] != str(n) or [Fraction(c) for c in row[1:]] != want:
            return f"table row n={n} differs"
    return None


def check_expand(code: int, out: str, mu: int, degree: int):
    if code != 0:
        return f"exit {code}"
    payload = json.loads(out)
    if payload["mu"] != mu or len(payload["coeffs"]) != degree + 1:
        return "expansion shape differs"
    return None if payload["residual"] == "0" else "nonzero residual"
