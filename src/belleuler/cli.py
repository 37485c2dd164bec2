"""Command-line front end: sequence values and tables, identity verification,
and Appell-basis expansion, with machine-readable output.  One table,
COMMANDS, gives each command's handler and flags; ``parse`` reads argv off it
and ``-h`` renders it, so a run imports no argparse.  Another, FAMILIES, gives
each family of ``compute`` and ``table`` one row: the flag it takes, its
generator, and for the four Appell families the form their text is written
off.

Exit codes: 0 = success / all checks pass, 1 = an identity check failed,
2 = usage or parameter error.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, islice
from math import comb
from types import SimpleNamespace

from . import algebra
from .algebra import FIELD_BITS, Poly, _count, format_fraction, parse_fraction
from .identities import (CHECKS as IDENTITY_CHECKS, Grid, NEGATIVE_CONTROLS,
                         validate_n_max)
from .umbral import CHECKS as UMBRAL_CHECKS, expand_in_appell, reconstruct
from . import sequences as seq

REGISTRY = {**IDENTITY_CHECKS, **UMBRAL_CHECKS}

# a family of compute and table: the one flag it takes after n ("alpha", "k"
# or None), its generator, and for each family that sequences._appell builds
# the Appell form (row, scale) of member n, which compute and table write the
# member's text off, with no Poly
Family = namedtuple("Family", "flag generator form")

FAMILIES = {
    "bell-number": Family(None, seq.bell_number, None),
    "bell-poly": Family(None, seq.bell_poly, None),
    "bivariate-bell": Family(None, seq.bivariate_bell, seq.bivariate_bell_form),
    "euler": Family("alpha", seq.euler_poly_order, seq.euler_form),
    "euler-number": Family("alpha", seq.euler_number_order, None),
    "stirling2": Family("k", seq.stirling2_number, None),
    "stirling2-poly": Family("k", seq.stirling2_poly, seq.stirling2_poly_form),
    "bell-euler": Family("alpha", seq.bell_euler_poly, seq.bell_euler_form),
    "bell-euler-number": Family("alpha", seq.bell_euler_number, None),
}

_JSON_COMPACT = {"separators": (",", ":")}
# terms per piece of a member's json text, which compute writes as it goes
_JSON_RUN = 1024

# The largest size each command accepts, so that a mistyped size is refused
# at once instead of running for minutes.  Each but MAX_VERIFY_ALPHAS, which
# waits for a bound on a grid's work, is the largest measured size whose
# slowest case stays near 10 s of CPU and 200 MB (Python 3.11, 2 vCPUs;
# README, "Limits"); a four-digit order binds the two member limits.
MAX_COMPUTE_N = 384       # bell-euler at order -9973/9967: 6.3 s, 83 MB (n 512: 19.3 s, 155 MB)
MAX_TABLE_N = 128         # bell-euler at order -5/3: 2.3 s, 62 MB (n-max 160: 19.2 s, 348 MB at -9973/9967)
MAX_VERIFY_N = 40         # verify --all: 5.7 s, 35 MB (n-max 48: 10.3 s)
MAX_EXPAND_DEGREE = 96    # expand at mu -5/3: 2.9 s, 52 MB (degree 128: 10 s)
MAX_VERIFY_ALPHAS = 32    # verify --all --n-max 10, orders j/97: 2.4 s, 24 MB (48 orders: 4.3 s, 26 MB)
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


def _appell_text(n: int, row, scale: int, fmt: str):
    """The member sum_m C(n, m) x^(n-m) Z_m(y), with row(m)[j] the y^j
    numerator of its x = 0 row Z_m over scale^m, in the bytes that
    ``Poly.pretty`` (fmt "pretty") or a compact ``json.dumps`` of
    ``Poly.to_json_map`` (fmt "json") writes for the Poly that
    ``sequences._appell`` builds, without building it.  The text comes in
    pieces, so that a caller can write each one as it is spelled.

    The term x^(n-m) y^j has the coefficient C(n, m) row(m)[j] / scale^m,
    reduced against scale^m alone, and a zero entry writes no term.  Pretty
    order is m, then j, ascending: row m is one block of the speller, and
    one piece.  Json order is total degree n - (m - j) descending, then m
    ascending, so no term is sorted; its pieces are runs of _JSON_RUN
    terms.  Every json key and value is of ``[0-9xy^*/-]``, which json.dumps
    writes as it is, so the pairs are joined as they are."""
    if fmt == "pretty":
        yield from algebra._pretty_terms(seq.NAMES, (
            (n - m, scale ** m, comb(n, m), enumerate(row(m))) for m in range(n + 1)))
        return
    rows = [row(m) for m in range(n + 1)]
    weights = [comb(n, m) for m in range(n + 1)]
    powers = [scale ** m for m in range(n + 1)]
    wide = max(map(len, rows))
    diagonals = ([(n - m | m - r << FIELD_BITS, weights[m] * z[m - r], powers[m])
                  for m in range(r, min(n + 1, r + wide))
                  for z in (rows[m],) if m - r < len(z) and z[m - r]]
                 for r in range(n + 1))   # r = m - j, from the top total degree down
    pairs = algebra._json_terms(seq.NAMES, chain.from_iterable(diagonals))
    sep = "{"
    while run := [f'"{mono}":"{value}"' for mono, value in islice(pairs, _JSON_RUN)]:
        yield sep + ",".join(run)
        sep = ","
    yield "{}" if sep == "{" else "}"


def _value_pieces(family: str, n: int, params, fmt: str = "pretty"):
    """The text of value n of ``family``, whose arguments after n are
    ``params``, in pieces: pretty text, or (fmt "json") its compact json.
    The arguments are checked before this returns, so that a refusal comes
    before any piece is written."""
    row = FAMILIES[family]
    if row.form is not None:
        return _appell_text(n, *row.form(n, *params), fmt)
    value = row.generator(n, *params)
    if fmt == "pretty":
        return (value.pretty() if isinstance(value, Poly) else format_fraction(value),)
    return (json.dumps(value.to_json_map() if isinstance(value, Poly)
                       else format_fraction(value), **_JSON_COMPACT),)


def _value_text(family: str, n: int, params, fmt: str = "pretty") -> str:
    """The text of value n of ``family``, whose arguments after n are
    ``params``: pretty text, or (fmt "json") its compact json."""
    return "".join(_value_pieces(family, n, params, fmt))


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


def _params(args) -> tuple:
    """The chosen family's arguments after n: its --alpha, parsed as an order
    that it prints, or compute's --k (table writes k = 0..n-max as columns).
    A family needs its own flag and refuses the other, --alpha first."""
    flag, params = FAMILIES[args.family].flag, ()
    for name in ("alpha", "k"):
        if name not in vars(args):
            continue
        value = getattr(args, name)
        if value is None and flag == name:
            raise UsageError(f"family {args.family} needs --{name}")
        if value is not None and flag != name:
            raise UsageError(f"family {args.family} does not take --{name}")
        if value is not None:
            params = (_printed_order(value, name) if name == "alpha" else value,)
    return params


def cmd_compute(args) -> int:
    _within(args.n, MAX_COMPUTE_N, "--n")
    pieces = _value_pieces(args.family, args.n, _params(args),
                           "pretty" if args.format == "csv" else args.format)
    # the value is written piece by piece, as it is spelled; its csv is the
    # header and one row, whose one cell is the pretty text
    write = sys.stdout.write
    if args.format == "csv":
        write(f"n,value\n{args.n},")
    for piece in pieces:
        write(piece)
    write("\n")
    return 0


def cmd_table(args) -> int:
    n_max = _within(_count(args.n_max, "--n-max"), MAX_TABLE_N, "--n-max")
    params = _params(args)
    family = args.family

    # each row is built as it is written, after every refusal
    if FAMILIES[family].flag == "k":
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
