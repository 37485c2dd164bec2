"""Command-line front end: sequence values and tables, identity verification,
and Appell-basis expansion, with machine-readable output.  One table,
COMMANDS, gives each command's handler and flags; ``parse`` reads argv off it
and ``-h`` renders it, so a run imports no argparse.

Exit codes: 0 = success / all checks pass, 1 = an identity check failed,
2 = usage or parameter error.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from .algebra import (FIELD_BITS, Poly, _count, _json_terms, _pretty_terms,
                      format_fraction, parse_fraction)
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

# CLI name -> the Appell form (row, scale) of member n, for each family that
# sequences._appell builds; compute and table write these members off it
APPELL_FORMS = {
    "bell-euler": seq.bell_euler_form,
    "bivariate-bell": seq.bivariate_bell_form,
    "euler": seq.euler_form,
    "stirling2-poly": seq.stirling2_poly_form,
}

_JSON_COMPACT = {"separators": (",", ":")}

# The largest size each command accepts, so that a mistyped size is refused
# at once instead of running for minutes.  Each but MAX_VERIFY_ALPHAS, which
# waits for a bound on a grid's work, is the largest measured size whose
# slowest case stays near 10 s of CPU and 200 MB (Python 3.11, 2 vCPUs;
# README, "Limits"); a four-digit order binds the two member limits.
MAX_COMPUTE_N = 256       # bell-euler at order -5/3: 0.5 s, 56 MB (n 384: 9.5 s, 402 MB at -9973/9967)
MAX_TABLE_N = 128         # bell-euler at order -5/3: 2.3 s, 62 MB (n-max 160: 19.2 s, 348 MB at -9973/9967)
MAX_VERIFY_N = 40         # verify --all: 5.7 s, 35 MB (n-max 48: 10.3 s)
MAX_EXPAND_DEGREE = 96    # expand at mu -5/3: 2.9 s, 52 MB (degree 128: 10 s)
MAX_VERIFY_ALPHAS = 32    # verify --n-max 10, orders j/97: 3.7 s, 23 MB (48 orders: 5.9 s, 26 MB)
# digits of the numerator, and of the denominator, of a compute/table --alpha,
# an expand --mu, or an expand literal's summed coefficient at each power;
# verify --alphas is not bounded by it.  The slowest expand is a dense
# degree-96 literal of four-digit coefficients at a four-digit order.
MAX_ORDER_DIGITS = 4      # at -9973/9967: table 158 MB, dense expand 14.7 s, 75 MB (5 digits: expand 11 s)


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


def _within_digits(ratio: Fraction, name: str) -> None:
    # the digits of the numerator, and of the denominator, of a ratio
    digits = max(len(str(abs(ratio.numerator))), len(str(ratio.denominator)))
    _within(digits, MAX_ORDER_DIGITS, f"{name} digit count")


def _printed_order(text: str, name: str):
    """An order for a command that prints polynomials, whose coefficients
    grow with the digits of its numerator and denominator."""
    order = _parse_order(text, name)
    _within_digits(Fraction(order), f"--{name}")
    return order


def _parse_alphas(text: str):
    values = tuple(_parse_order(part) for part in text.split(",") if part)
    if not values:
        raise UsageError("empty --alphas list")
    # T4_1 runs every pair of orders, so the list's length is bounded too
    _within(len(values), MAX_VERIFY_ALPHAS, "--alphas length")
    return values


def _appell_text(n: int, row, scale: int, fmt: str) -> str:
    """The member sum_m C(n, m) x^(n-m) Z_m(y), with row(m)[j] the y^j
    numerator of its x = 0 row Z_m over scale^m, in the bytes that
    ``Poly.pretty`` (fmt "pretty") or a compact ``json.dumps`` of
    ``Poly.to_json_map`` (fmt "json") writes for the Poly that
    ``sequences._appell`` builds, without building it.

    The term x^(n-m) y^j has the coefficient C(n, m) row(m)[j] / scale^m,
    reduced against scale^m alone, and a zero entry writes no term.  Pretty
    order is m, then j, ascending; json order is total degree
    n - (m - j) descending, then m ascending, so no term is sorted.  Every
    json key and value is of ``[0-9xy^*/-]``, which json.dumps writes as it
    is, so the pairs are joined as they are."""
    keys, nums, dens = [], [], []
    if fmt == "pretty":
        power = 1   # scale^m
        for m in range(n + 1):
            weight = comb(n, m)
            for j, c in enumerate(row(m)):
                if c:
                    keys.append(n - m | j << FIELD_BITS)
                    nums.append(weight * c)
                    dens.append(power)
            power *= scale
        return _pretty_terms(seq.NAMES, keys, nums, dens)
    rows = [row(m) for m in range(n + 1)]
    weights = [comb(n, m) for m in range(n + 1)]
    powers = [scale ** m for m in range(n + 1)]
    wide = max(map(len, rows))
    for r in range(n + 1):   # r = m - j, from the top total degree down
        for m in range(r, min(n + 1, r + wide)):
            z = rows[m]
            if m - r < len(z) and z[m - r]:
                keys.append(n - m | m - r << FIELD_BITS)
                nums.append(weights[m] * z[m - r])
                dens.append(powers[m])
    return "{" + ",".join(f'"{key}":"{value}"' for key, value in
                          _json_terms(seq.NAMES, keys, nums, dens)) + "}"


def _value_text(family: str, n: int, params, fmt: str = "pretty") -> str:
    """The text of value n of ``family``, whose arguments after n are
    ``params``: pretty text, or (fmt "json") its compact json."""
    form = APPELL_FORMS.get(family)
    if form is not None:
        return _appell_text(n, *form(n, *params), fmt)
    value = FAMILIES[family](n, *params)
    if fmt == "pretty":
        return value.pretty() if isinstance(value, Poly) else format_fraction(value)
    return json.dumps(value.to_json_map() if isinstance(value, Poly)
                      else format_fraction(value), **_JSON_COMPACT)


def _csv_text(header, rows) -> None:
    """Write the header, then each row as the iterable yields it, to stdout.
    No cell holds a comma, a quote or a line break (a cell is an int, a
    header, a number or a polynomial's pretty text), so csv's minimal
    quoting leaves each one bare, and the cells are joined as they are:
    the csv module would copy each line into a buffer of four bytes a
    character first."""
    write = sys.stdout.write
    write(",".join(header) + "\n")
    for row in rows:
        write(",".join(map(str, row)) + "\n")


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
    """The flag the chosen family takes, and its parsed --alpha as a tuple
    of arguments after n; compute and table both check --alpha here."""
    flag = family_flag(args.family)
    alpha = _flag(args, "alpha", flag == "alpha")
    params = () if alpha is None else (_printed_order(alpha, "alpha"),)
    return flag, params


def cmd_compute(args) -> int:
    _within(args.n, MAX_COMPUTE_N, "--n")
    flag, params = _family(args)
    k = _flag(args, "k", flag == "k")
    if k is not None:
        params = (k,)
    if args.format == "csv":
        _csv_text(["n", "value"], [[args.n, _value_text(args.family, args.n, params)]])
    else:
        print(_value_text(args.family, args.n, params, args.format))
    return 0


def cmd_table(args) -> int:
    n_max = _within(_count(args.n_max, "--n-max"), MAX_TABLE_N, "--n-max")
    flag, params = _family(args)
    family = args.family

    # each row is built as it is written, after every refusal
    if flag == "k":
        header = ["n"] + [f"k={k}" for k in range(n_max + 1)]
        rows = ([n] + [_value_text(family, n, (k,)) for k in range(n_max + 1)]
                for n in range(n_max + 1))
    else:
        header = ["n", "value"]
        rows = ([n, _value_text(family, n, params)] for n in range(n_max + 1))

    if args.format == "json":
        # the bytes of one compact json.dumps of the list of row objects
        sys.stdout.write("[")
        for i, row in enumerate(rows):
            sys.stdout.write(("," if i else "") + json.dumps(
                dict(zip(header, row)), **_JSON_COMPACT))
        print("]")
    elif args.format == "pretty":
        rows = list(rows)  # every cell is padded to the widest of them all
        width = max(len(str(cell)) for row in rows for cell in row)
        for row in rows:
            print("  ".join(str(cell).rjust(width) for cell in row))
    else:
        _csv_text(header, rows)
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
    of degree at most MAX_EXPAND_DEGREE, whose summed coefficient at each
    power has at most MAX_ORDER_DIGITS digits in its numerator and in its
    denominator."""
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
    for coeff in coeffs.values():
        _within_digits(coeff, "coefficient")
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


# a command's flag; kind is "value", "switch", "append" (a repeatable value)
# or "positional", and a flag not given reads its default (False for a switch)
Flag = namedtuple("Flag", "dest type required default choices kind help",
                  defaults=(str, False, None, None, "value", ""))
_FAMILY = Flag("family", required=True, choices=tuple(sorted(FAMILIES)), help="family name")
_FORMATS = ("json", "csv", "pretty")
_ORDER_HELP = "order, an integer or p/q; write a negative p/q as --{}=-5/3"
_ALPHA = Flag("alpha", help=_ORDER_HELP.format("alpha"))

# the parse table: command -> (handler, help, {option or positional: Flag})
COMMANDS = {
    "compute": (cmd_compute, "one family value", {
        "--family": _FAMILY, "--n": Flag("n", int, required=True, help="index"),
        "--alpha": _ALPHA, "--k": Flag("k", int, help="block count for stirling2 families"),
        "--format": Flag("format", default="pretty", choices=_FORMATS)}),
    "table": (cmd_table, "values for n = 0..n_max", {
        "--family": _FAMILY, "--n-max": Flag("n_max", int, required=True, help="largest n"),
        "--alpha": _ALPHA, "--format": Flag("format", default="csv", choices=_FORMATS)}),
    "verify": (cmd_verify, "run identity checks; JSON reports on stdout", {
        "--id": Flag("id", kind="append", help="registry id (repeatable); the "
                     "negative control T4_4_literal only runs when named here"),
        "--all": Flag("all", kind="switch", help="every check but negative controls"),
        "--n-max": Flag("n_max", int, help="largest n of every check's grid"),
        "--alphas": Flag("alphas", help="comma-separated integers or p/q; write "
                         "a list that starts with a minus sign as --alphas=-1,2"),
        "--parallel": Flag("parallel", kind="switch",
                           help="accepted; checks run sequentially (same output)")}),
    "expand": (cmd_expand, "expand a polynomial in the order-mu Appell basis", {
        "--mu": Flag("mu", required=True, help=_ORDER_HELP.format("mu")),
        "polynomial": Flag("polynomial", required=True, kind="positional",
                           help='literal such as "x^3 - 2/3"')}),
}
_COMMAND = Flag("command", choices=tuple(COMMANDS))
# argparse's rule: a token that starts with "-" is an option, unless it is
# "-" alone, a negative number, or holds a space before any "="
_OPTION = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ =]+(=|$)")


def _value(name: str, flag: Flag, text: str):
    try:
        value = flag.type(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {flag.type.__name__} "
                         f"value: {text!r}") from None
    if flag.choices and value not in flag.choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose "
                         f"from {', '.join(map(repr, flag.choices))})")
    return value


def parse(argv):
    """The handler and a fresh namespace for ``argv``, read off COMMANDS.
    -h or --help gives the help handler; a usage error raises UsageError."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, None
    if not argv:
        raise UsageError("the following arguments are required: command")
    handler, _, flags = COMMANDS[_value("command", _COMMAND, argv[0])]
    args = {f.dest: f.kind != "switch" and f.default for f in flags.values()}
    positionals = [name for name, f in flags.items() if f.kind == "positional"]
    tokens, options = iter(argv[1:]), True
    for token in tokens:
        if options and token == "--":  # every later token is a positional
            options = False
            continue
        if options and token in ("-h", "--help"):
            return _help, argv[0]
        name, equals, text = (token.partition("=") if options and _OPTION.match(token)
                              else (positionals.pop(0) if positionals else None, "=", token))
        flag = flags.get(name)
        if flag is None or (equals and flag.kind == "switch"):
            raise UsageError(f"unrecognized arguments: {token}")
        if not equals and flag.kind != "switch":
            text = next(tokens, None)
            if text is None or _OPTION.match(text):
                raise UsageError(f"argument {name}: expected one argument")
        value = True if flag.kind == "switch" else _value(name, flag, text)
        args[flag.dest] = [*(args[flag.dest] or ()), value] if flag.kind == "append" else value
    missing = [name for name, f in flags.items() if f.required and args[f.dest] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**args)


def _help(command) -> int:
    """Print the --help text of one command, or of belleuler itself."""
    if command is None:
        print(f"usage: belleuler {{{','.join(COMMANDS)}}} ...\n\n" + "\n".join(
            f"  {name:<9}{spec[1]}" for name, spec in COMMANDS.items()))
        return 0
    _, summary, flags = COMMANDS[command]
    forms, lines = [], ["  -h, --help  show this help"]
    for name, f in flags.items():
        metavar = "{" + ",".join(f.choices) + "}" if f.choices else f.dest.upper()
        form = name if f.kind in ("switch", "positional") else f"{name} {metavar}"
        forms.append(form if f.required else f"[{form}]")
        lines.append(f"  {form}  {f.help}" + (f" (default {f.default})" if f.default else ""))
    print(f"usage: belleuler {command} [-h] {' '.join(forms)}", "", summary, "",
          *lines, sep="\n")
    return 0


def main(argv=None) -> int:
    try:
        handler, args = parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
