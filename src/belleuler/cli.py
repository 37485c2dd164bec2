"""Command-line front end: sequence values and tables, identity verification,
and Appell-basis expansion, with machine-readable output.

Exit codes: 0 = success / all checks pass, 1 = an identity check failed,
2 = usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import re
import sys
from fractions import Fraction

from .algebra import Poly, format_fraction, parse_fraction
from .identities import (CHECKS as IDENTITY_CHECKS, Grid, NEGATIVE_CONTROLS,
                         validate_n_max)
from .umbral import (CHECKS as UMBRAL_CHECKS, expand_in_appell, reconstruct,
                     validate_orders)
from . import sequences as seq

REGISTRY = {**IDENTITY_CHECKS, **UMBRAL_CHECKS}

# CLI name -> generator; the generator's parameter after n, if any, is the
# one flag the family takes (--alpha or --k)
FAMILIES = {
    "bell-number": seq.bell_number,
    "bell-poly": seq.bell_poly,
    "bivariate-bell": seq.bivariate_bell,
    "euler": seq.euler_poly_order,
    "euler-number": seq.euler_number_order,
    "stirling2": seq.stirling2_number,
    "stirling2-poly": seq.stirling2_poly,
    "bell-euler": seq.bell_euler_poly,
    "bell-euler-number": seq.bell_euler_number,
}

_JSON_COMPACT = {"separators": (",", ":")}

# The largest size each command accepts, so that a mistyped size is refused
# at once instead of running for minutes.  Each is the largest measured size
# whose slowest case stays near 10 s of CPU and 200 MB (Python 3.11, 2 vCPUs;
# README, "Limits"), far below the exponent ceiling of the packed keys.
MAX_COMPUTE_N = 256       # bell-euler at order -5/3: 0.6 s, 72 MB (n 384: 202 MB)
MAX_TABLE_N = 96          # bell-euler at order -5/3: 1.2 s, 79 MB (n-max 128: 198 MB)
MAX_VERIFY_N = 24         # verify --all: 6.3 s, 96 MB
MAX_EXPAND_DEGREE = 96    # expand at mu -5/3: 2.9 s, 52 MB (degree 128: 10 s)
MAX_VERIFY_ALPHAS = 32    # verify --n-max 10, orders j/97: 10.8 s, 58 MB (48: 20 s)
# digits of the numerator, and of the denominator, of a compute/table --alpha
# or an expand --mu; verify --alphas is not bounded by it
MAX_ORDER_DIGITS = 4      # at -9973/9967: table n-max 96 178 MB, expand 8.4 s (5: 206 MB)


class UsageError(Exception):
    """Parameter problem reported on stderr with exit code 2."""


def _within(value: int, limit: int, name: str) -> int:
    if value > limit:
        raise UsageError(f"{name} {value} is over the limit {limit}")
    return value


def _parse_order(text: str, name: str = "alpha"):
    try:
        return seq.validate_order(parse_fraction(text))
    except ValueError as exc:
        raise UsageError(f"bad {name} {text!r}: {exc}") from None


def _printed_order(text: str, name: str):
    """An order for a command that prints polynomials, whose coefficients
    grow with the digits of its numerator and denominator."""
    order = _parse_order(text, name)
    ratio = Fraction(order)
    digits = max(len(str(abs(ratio.numerator))), len(str(ratio.denominator)))
    _within(digits, MAX_ORDER_DIGITS, f"--{name} digit count")
    return order


def _parse_alphas(text: str):
    values = tuple(_parse_order(part) for part in text.split(",") if part)
    if not values:
        raise UsageError("empty --alphas list")
    # T4_1 runs every pair of orders, so the list's length is bounded too
    _within(len(values), MAX_VERIFY_ALPHAS, "--alphas length")
    return values


def _text(value) -> str:
    return value.pretty() if isinstance(value, Poly) else format_fraction(value)


def _serialize_value(value, fmt: str) -> str:
    if fmt == "json":
        map_or_text = value.to_json_map() if isinstance(value, Poly) \
            else format_fraction(value)
        return json.dumps(map_or_text, **_JSON_COMPACT)
    return _text(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _flag(args, name: str, needed: bool):
    """The raw value of --<name>, which the chosen family needs or refuses."""
    value = getattr(args, name, None)
    if needed and value is None:
        raise UsageError(f"family {args.family} needs --{name}")
    if not needed and value is not None:
        raise UsageError(f"family {args.family} does not take --{name}")
    return value


def family_flag(name: str):
    """The flag family ``name`` takes after n: "alpha", "k" or None."""
    params = list(inspect.signature(FAMILIES[name]).parameters)
    return params[1] if len(params) > 1 else None


def _family(args):
    """The chosen generator, the flag it takes, and its parsed --alpha as a
    tuple of arguments after n; compute and table both check --alpha here."""
    flag = family_flag(args.family)
    alpha = _flag(args, "alpha", flag == "alpha")
    params = () if alpha is None else (_printed_order(alpha, "alpha"),)
    return FAMILIES[args.family], flag, params


def cmd_compute(args) -> int:
    _within(args.n, MAX_COMPUTE_N, "--n")
    generate, flag, params = _family(args)
    k = _flag(args, "k", flag == "k")
    value = generate(args.n, *params) if k is None else generate(args.n, k)
    if args.format == "csv":
        print(_csv_text(["n", "value"], [[args.n, _text(value)]]))
    else:
        print(_serialize_value(value, args.format))
    return 0


def cmd_table(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        raise UsageError("--n-max must be non-negative")
    _within(n_max, MAX_TABLE_N, "--n-max")
    generate, flag, params = _family(args)

    if flag == "k":
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = [[n] + [_text(generate(n, k)) for k in range(n_max + 1)]
                for n in range(n_max + 1)]
    else:
        header = ["n", "value"]
        rows = [[n, _text(generate(n, *params))] for n in range(n_max + 1)]

    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        print(json.dumps(payload, **_JSON_COMPACT))
    elif args.format == "pretty":
        width = max(len(str(cell)) for row in rows for cell in row)
        for row in rows:
            print("  ".join(str(cell).rjust(width) for cell in row))
    else:
        print(_csv_text(header, rows))
    return 0


def cmd_verify(args) -> int:
    overrides = {}
    if args.n_max is not None:
        overrides["n_max"] = validate_n_max(_within(args.n_max, MAX_VERIFY_N,
                                                    "--n-max"))
    if args.alphas is not None:
        overrides["alphas"] = _parse_alphas(args.alphas)
    grid = Grid(**overrides)

    if args.id and args.all:
        raise UsageError("verify takes --id or --all, not both")
    if args.id:
        unknown = [i for i in args.id if i not in REGISTRY]
        if unknown:
            raise UsageError(f"unknown identity id(s): {', '.join(unknown)}; "
                             f"known: {', '.join(REGISTRY)}")
        selected = list(args.id)
    elif args.all:
        selected = [i for i in REGISTRY if i not in NEGATIVE_CONTROLS]
    else:
        raise UsageError("verify needs --id or --all")
    validate_orders(selected, grid.alphas)
    reports = [REGISTRY[check_id](grid) for check_id in selected]

    print(json.dumps([r.to_json_dict() for r in reports], **_JSON_COMPACT))
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{report.id}: {status} ({report.checked} cases)", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


_POLY_TOKEN = re.compile(
    r"^([+-]?)(?:(\d+(?:/0*[1-9]\d*)?)\*?)?(x(?:\^(\d+))?)?$")


def parse_x_polynomial(text: str) -> Poly:
    """Parse a univariate polynomial literal like "x^3 - 2/3" or "1/2*x + 1",
    of degree at most MAX_EXPAND_DEGREE."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise UsageError("empty polynomial literal")
    tokens = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(tokens) != stripped:
        raise UsageError(f"cannot parse polynomial literal {text!r}")
    coeffs = {}   # exponent -> the sum of its tokens' coefficients
    for token in tokens:
        match = _POLY_TOKEN.match(token)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise UsageError(f"cannot parse polynomial term {token!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = Fraction(match.group(2)) if match.group(2) else Fraction(1)
        exponent = 0
        if match.group(3):
            exponent = int(match.group(4)) if match.group(4) else 1
            _within(exponent, MAX_EXPAND_DEGREE, "degree")
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
    return Poly(seq.NAMES, {(e, 0): c for e, c in coeffs.items()})


def cmd_expand(args) -> int:
    mu = _printed_order(args.mu, "mu")
    q = parse_x_polynomial(args.polynomial)
    expansion = expand_in_appell(q, mu)
    residual = q - reconstruct(expansion)
    payload = expansion.to_json_dict()
    payload["residual"] = residual.pretty()
    print(json.dumps(payload, **_JSON_COMPACT))
    return 0


# argparse reads "-5/3" as an option, so a negative rational needs the = form
_ORDER_HELP = "order, an integer or p/q; write a negative p/q as --{}=-5/3"


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


_session_parser = None


def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built on the first main call and kept for
    the process: every call parses into a fresh Namespace, and the tree of
    subparsers, arguments and help texts never changes."""
    global _session_parser
    if _session_parser is None:
        _session_parser = build_parser()
    return _session_parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
