"""What a fresh interpreter loads to import the command line: every command
starts one, so a module that the import pulls in is paid by each run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the standard library's dataclass machinery, which the value types do not use
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclass_machinery():
    # -S keeps the host's site and its .pth files, which may import any of
    # these, out of the child; PYTHONPATH gives it this checkout's src alone
    script = ("import sys\nimport belleuler.cli\n"
              f"print([m for m in {UNWANTED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
