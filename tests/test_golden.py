"""Every row of the golden table (`golden.py`), run in process through
click's test runner.  CI runs the same rows through the installed entry
point with ``python tests/golden.py``."""

import pytest
from click.testing import CliRunner

from golden import ROWS, check, prepare, runnable
from unitals.cli import main


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    """Every runnable row, run in order in one directory: row name -> how its run differs from the table."""
    work = tmp_path_factory.mktemp("golden")
    runner = CliRunner()
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for row in filter(runnable, ROWS):
            prepare(row, work)
            result = runner.invoke(main, row.args())
            found[row.name] = check(row, work, result.exit_code, result.stdout_bytes, result.stderr_bytes)
            if not (result.exception is None or isinstance(result.exception, SystemExit)):
                found[row.name].insert(0, f"ended by {result.exception!r}, not by a return or SystemExit")
    return found


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_golden_row(problems, row):
    if not runnable(row):
        pytest.skip("needs /dev/full, a device that is always full")
    assert problems[row.name] == []
