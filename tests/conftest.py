import pytest
from hypothesis import settings

from belleuler import identities, umbral
from belleuler import sequences as seq
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


@pytest.fixture
def reset_tables(monkeypatch):
    """``reset()`` empties every process-lifetime table: the Stirling and
    x = 0 row tables of ``sequences`` and every lru_cache of ``sequences``,
    ``identities`` and ``umbral``; ``reset(rows=False)`` empties the caches
    alone.  After the test the row tables are the ones it found, and the
    caches are emptied once more, so that no entry built on the test's
    tables, or under a fault it injected, outlives it."""
    memos = [f for module in (seq, identities, umbral) for f in vars(module).values()
             if callable(getattr(f, "cache_clear", None))]

    def reset(rows=True):
        if rows:
            monkeypatch.setattr(seq, "_stirling_rows", [(1,)])
            monkeypatch.setattr(seq, "_member_rows", {})
        for memo in memos:
            memo.cache_clear()

    yield reset
    for memo in memos:
        memo.cache_clear()
