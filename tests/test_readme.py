"""The README's examples run as written: its Library block executes, and
each quoted ``expand`` output is what the CLI prints, so a changed signature
or output fails here instead of leaving the docs stale.  Its "Families"
sentence is held to cli.FAMILIES, its "Limits" table to the ``MAX_*``
constants of cli.py, and the registry's last column to the mutation matrix
of test_mutants.py."""

import inspect
import re
import shlex
from pathlib import Path

from belleuler import cli
from belleuler.cli import main
from test_mutants import CHECK_IDS, MATRIX

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_families_sentence_names_each_familys_flag():
    # "Families, by the flag each takes: `--alpha` for ...; `--k` for ...;
    # none for ...", one clause a flag, whose family names come before any
    # " in " that names a command
    sentence, = re.findall(r"^Families, by the flag each takes: (.*?)\.  ", README, re.M | re.S)
    named = {}
    for clause in sentence.replace("\n", " ").split("; "):
        flag, names = re.match(r"(?:`--(\w+)`|none) for (.*?)(?: in `\w+`.*)?$",
                               clause).groups()
        for name in re.findall(r"`([\w-]+)`", names):
            assert name not in named, name
            named[name] = flag
    assert named == {name: row.flag for name, row in cli.FAMILIES.items()}


def test_library_block_runs():
    block, = re.findall(r"^## Library\n\n```python\n(.*?)^```", README, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_quoted_expand_outputs(capsys):
    examples = re.findall(r"^belleuler (expand .*)\n#   -> (.*)$", README, re.M)
    assert len(examples) == 2
    for command, output in examples:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == output + "\n"


# each MAX_* constant of cli.py, the first cell of its README "Limits" row,
# and the next size measured over it
LIMIT_ROWS = {
    "MAX_COMPUTE_N": ("`compute --n`", "n 512"),
    "MAX_TABLE_N": ("`table --n-max`", "n-max 160"),
    "MAX_VERIFY_N": ("`verify --n-max`", "n-max 48"),
    "MAX_EXPAND_DEGREE": ("degree of an `expand` literal", "degree 128"),
    "MAX_ORDER_DIGITS": ("digits of the numerator", "5 digits"),
    "MAX_VERIFY_ALPHAS": ("length of the `verify --alphas` list", "48 orders"),
}
FIGURE = re.compile(r"\b\d+(?:\.\d+)? (?:s|MB)\b")


def _limit_rows():
    section, = re.findall(r"^### Limits\n(.*?)^###? ", README, re.M | re.S)
    rows = [line.strip("|").split(" | ")
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0][0].strip() == "input"
    return [[cell.strip() for cell in row] for row in rows[1:]]


def _limit_comments():
    source = Path(inspect.getsourcefile(cli)).read_text()
    return {name: (int(value), comment) for name, value, comment in
            re.findall(r"^(MAX_\w+) = (\d+) +# (.*)$", source, re.M)}


def test_limits_table_and_cli_comments_name_each_constant():
    rows, comments = _limit_rows(), _limit_comments()
    assert sorted(comments) == sorted(LIMIT_ROWS)
    assert len(rows) == len(LIMIT_ROWS)
    for name, (label, next_size) in LIMIT_ROWS.items():
        row, = [r for r in rows if r[0].startswith(label)]
        value, comment = comments[name]
        assert value == getattr(cli, name)
        assert row[1] == str(value), name
        # the comment's figures are the README row's, and so is the next size
        assert set(FIGURE.findall(comment)) <= set(FIGURE.findall(" ".join(row[2:]))), name
        measured_next = re.search(r"\(([^():]+):[^()]*\)$", comment)
        assert measured_next.group(1) == next_size, name
        assert re.match(rf"{re.escape(next_size)}\b", row[3]), name


# the README's label for each fault of tests/test_mutants.py's matrix
FAULT_LABELS = {
    "Stirling entry": "stirling_entry",
    "Euler number": "euler_numerator",
    "row recurrence": "row_recurrence",
    "`_appell` binomial": "appell_binomial",
    "`special_case` row": "special_case_row",
    "`subs` image": "subs_polynomial_image",
    "kernel item": "kernel_drops_an_item",
}


def _registry_cells():
    # {check id: its "seeded faults it passes under" cell}; the statement
    # cells may hold " | " themselves, so the id and the cell are the ends
    section, = re.findall(r"^### Identity registry\n(.*?)^The last column",
                          README, re.M | re.S)
    cells = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            check_id = re.match(r"\| `(\w+)` \|", line).group(1)
            cells[check_id] = line.rstrip(" |").rsplit(" | ", 1)[1]
    return cells


def test_registry_column_names_the_faults_each_check_passes_under():
    cells = _registry_cells()
    assert sorted(cells) == sorted(cli.REGISTRY)
    for check_id, cell in cells.items():
        labels = cell.partition(": ")[0].split("; ")
        if labels == ["none"]:
            labels = []
        assert set(labels) <= set(FAULT_LABELS) and \
            len(set(labels)) == len(labels), (check_id, cell)
        if check_id in CHECK_IDS:
            passes_under = {fault for fault, (_, failing) in MATRIX.items()
                            if check_id not in failing}
        else:
            passes_under = set()   # a negative control is not in the matrix
        assert {FAULT_LABELS[label] for label in labels} == passes_under, check_id
