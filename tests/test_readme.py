"""The README's examples run as written: its Library block executes, and
each quoted ``expand`` output is what the CLI prints, so a changed signature
or output fails here instead of leaving the docs stale."""

import re
import shlex
from pathlib import Path

from belleuler.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_block_runs():
    block, = re.findall(r"^## Library\n\n```python\n(.*?)^```", README, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_quoted_expand_outputs(capsys):
    examples = re.findall(r"^belleuler (expand .*)\n#   -> (.*)$", README, re.M)
    assert len(examples) == 2
    for command, output in examples:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == output + "\n"
