import pytest
from hypothesis import settings

from belleuler.cli import main as cli_main

# a failing example prints the blob that replays it; the profile is the one
# already loaded plus print_blob, so no example count or deadline changes
settings.register_profile("replay", parent=settings.default, print_blob=True)
settings.load_profile("replay")


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""
    def run(*argv):
        code = cli_main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err
    return run
