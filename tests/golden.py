"""The pinned output of the ``unital`` command line, one row per run.

Each row gives the arguments of one run, the directories to make and the
files to copy before it, its exit code, what it prints on standard output
and standard error, and the files it writes.  The rows run in order in one
scratch directory, so the ``h4.json`` that one row writes is read by the
rows after it.  ``{appendix}`` in an argument or a copy stands for the
order-4 appendix unital, ``src/unitals/data/appendix_order4.txt``.

An expected stream or file is one of:

* a ``str``: the exact text, with ``\\r\\n`` read as ``\\n``;
* `Digest`: the SHA-256 of the bytes, their line count, and how many lines
  end with each given text;
* `Prefix`: one line that starts with the given text, for messages that
  click or the operating system words;
* ``None``: not checked.

Two runners read the table: ``tests/test_golden.py`` runs every row in
process through click's test runner, and ``python tests/golden.py`` runs
every row as a subprocess of the ``unital`` found on ``PATH``.  This module
imports nothing from ``unitals``, so it checks an installed entry point as
it stands.

To add a row, run the command once, check its output by hand, and pin it
here: exact text when it is short, a `Digest` with the counts a reader
should see when it is long.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

APPENDIX = str(Path(__file__).resolve().parent.parent / "src" / "unitals" / "data" / "appendix_order4.txt")


@dataclass(frozen=True)
class Digest:
    sha256: str
    lines: int
    ends: tuple[tuple[str, int], ...] = ()  # (line ending, number of lines that end with it)


@dataclass(frozen=True)
class Prefix:
    text: str


Expected = str | Digest | Prefix | None


@dataclass(frozen=True)
class Row:
    name: str
    argv: tuple[str, ...]
    code: int = 0
    stdout: Expected = ""
    stderr: Expected = ""
    files: tuple[tuple[str, Expected], ...] = ()
    mkdir: tuple[str, ...] = ()
    copy: tuple[tuple[str, str], ...] = ()  # (source, destination directory)

    def args(self) -> list[str]:
        return [a.format(appendix=APPENDIX) for a in self.argv]


def _usage(name: str, *argv: str) -> Row:
    """A usage error, of a command or of the group's own options: one ERROR ARGS line and exit 1."""
    return Row(f"usage-{name}", argv, code=1, stderr=Prefix("ERROR ARGS:"))


ROWS = (
    Row(
        "appendix-check",
        ("appendix-check",),
        stdout="dataset hash ok; validates as 2-(65,5,1) with 208 blocks\n"
        "blocks [1, 33, 200] form an embedded dual 3-net\n"
        "coordinate latin square is not group-based (net is non-cyclic)\n"
        "perspectivity group of (1,33): order 120, structure S5\n"
        "86 embedded dual 3-nets, 81 cyclic\n"
        "PASS\n",
    ),
    # the appendix unital has non-cyclic nets, so a CLI that called every net cyclic fails here
    Row(
        "dualnets-appendix",
        ("dualnets", "{appendix}"),
        stdout=Digest(
            "72321cb9eaa602154d5f74caba671f2d995a53e3fb3026eba1be459cbdd23913",
            87,
            (("86 embedded dual 3-net(s)", 1), (": cyclic", 81), (": non-cyclic", 5), ("blocks [1, 33, 200]: non-cyclic", 1)),
        ),
    ),
    # the latin square of every appendix net: a change of square labelling fails here
    Row(
        "dualnets-appendix-latin",
        ("dualnets", "{appendix}", "--latin"),
        stdout=Digest("8271f83be3aee6628715fda6e2350d2e430b2ef6f0a5a8b59d36d7c9791c4273", 517),
    ),
    Row(
        "fullpoints-appendix-1-33",
        ("fullpoints", "{appendix}", "--blocks", "1,33"),
        stdout="full points of (1,33): [30, 31, 35, 46, 48]\ngroup order 120, structure S5\nSFPR triple: False\n",
    ),
    # H(4) and H(5): a change of point, block or coordinate order fails here
    Row(
        "hermitian-h4",
        ("hermitian", "--q", "4", "--out", "h4.json", "--coords", "h4.coords"),
        stdout="wrote H(4) to h4.json\nwrote coordinates to h4.coords\n",
        files=(
            ("h4.json", Digest("6f641e564ee0dad856eab31bf8112f8cfe0449be47b1ed940950795dc908efa5", 1463)),
            ("h4.coords", Digest("293b3d1f1d60342d100afff24098238a75158e1f65944e0d10a2b128d59de2bf", 66)),
        ),
    ),
    Row(
        "hermitian-h5",
        ("hermitian", "--q", "5", "--out", "h5.json", "--coords", "h5.coords"),
        stdout="wrote H(5) to h5.json\nwrote coordinates to h5.coords\n",
        files=(
            ("h5.json", Digest("b099fe6fb14341cf6fdf5fc75cbb7aa20f427acb22a817b6f61482cc8e9ab362", 4207)),
            ("h5.coords", Digest("501bf80cc83ee744d1d3ab9662c3bab2b811367581df1dbff9ac574850c6fa55", 127)),
        ),
    ),
    # H(5), built from the secant lines of the Hermitian curve, validates as a unital
    Row("validate-h5", ("validate", "h5.json"), stdout="OK: unital of order 5 with 126 points and 525 blocks\n"),
    # the net search on an input other than the appendix file
    Row(
        "dualnets-h4",
        ("dualnets", "h4.json"),
        stdout=Digest(
            "1b2ce0e713f6d6501cac0a088b5d5da73165eb1ab95f1bd2b91afade560eded7",
            417,
            (("416 embedded dual 3-net(s)", 1), (": cyclic", 416), (": non-cyclic", 0)),
        ),
    ),
    # a block id is ASCII digits (`int` would read 3_3 as 33) and inside 1..num_blocks
    Row(
        "fullpoints-appendix-bad-id",
        ("fullpoints", "{appendix}", "--blocks", "1,3_3"),
        code=1,
        stderr="ERROR ARGS: --blocks: non-integer token: '3_3'\n",
    ),
    Row(
        "fullpoints-appendix-block-0",
        ("fullpoints", "{appendix}", "--blocks", "0,33"),
        code=1,
        stderr="ERROR ARGS: --blocks: block index 0 outside 1..208\n",
    ),
    # one pair: one full-point scan, its group and its SFPR verdict
    Row(
        "fullpoints-h4-1-197",
        ("fullpoints", "h4.json", "--blocks", "1,197"),
        stdout="full points of (1,197): [1, 2, 3, 4, 5]\ngroup order 5, structure C5\nSFPR triple: True\n",
    ),
    Row(
        "hermitian-h2",
        ("hermitian", "--q", "2", "--out", "h2.json"),
        stdout="wrote H(2) to h2.json\n",
        files=(("h2.json", Digest("e033dc61397da6c6ca7812ab65414d1099c3bf93951207f538bce9bf8f475b02", 67)),),
    ),
    Row(
        "dualnets-h2-latin",
        ("dualnets", "h2.json", "--latin"),
        stdout="4 embedded dual 3-net(s)\n"
        "blocks [1, 11, 12]: cyclic\n0 1 2\n2 0 1\n1 2 0\n"
        "blocks [2, 7, 9]: cyclic\n0 2 1\n2 1 0\n1 0 2\n"
        "blocks [3, 5, 10]: cyclic\n0 2 1\n2 1 0\n1 0 2\n"
        "blocks [4, 6, 8]: cyclic\n0 2 1\n2 1 0\n1 0 2\n",
    ),
    # the census of the appendix unital and H(4): the group and totals tables
    Row(
        "census-appendix-h4",
        ("census", "census-in", "--out", "census1"),
        mkdir=("census-in",),
        copy=(("{appendix}", "census-in"), ("h4.json", "census-in")),
        stdout="census of 2 unital(s) written to census1_groups.csv, census1_totals.csv, census1_large.csv\n",
        files=(
            ("census1_groups.csv", "full_points,group,count\n2,C5,1\n3,C5,1\n4,C5,1\n5,C5,2\n5,S5,1\n"),
            ("census1_totals.csv", "library,unitals,fpr,sfpr\ncensus-in,2,1,1\n"),
            (
                "census1_large.csv",
                "set,property,count\n"
                "Omega,at least one large full point set,2\n"
                "A,all large full point sets form a block,1\n"
                "B,all large full point sets are contained in a block,1\n"
                "Bbar,some large full point sets are not contained in a block,1\n"
                "C,no large full point set is contained in a block,0\n",
            ),
        ),
    ),
    # a file that is not a unital is skipped with one line, coded as `validate` would name its failure
    Row(
        "census-one-skipped",
        ("census", "skip-in", "--out", "skip"),
        mkdir=("skip-in",),
        copy=(("h2.json", "skip-in"), ("h4.coords", "skip-in")),
        stdout="census of 1 unital(s) written to skip_groups.csv, skip_totals.csv, skip_large.csv (1 file(s) skipped)\n",
        stderr="skipped skip-in/h4.coords: PARSE: non-integer token: '[0' (line 2)\n",
        files=(("skip_totals.csv", "library,unitals,fpr,sfpr\nskip-in,1,1,1\n"),),
    ),
    # a census table that cannot be written (a directory is in its way) is one ERROR OUT line and exit 1
    Row(
        "census-unwritable-table",
        ("census", "unwritable-in", "--out", "unwritable"),
        mkdir=("unwritable-in", "unwritable_groups.csv"),
        copy=(("{appendix}", "unwritable-in"),),
        code=1,
        stderr=Prefix("ERROR OUT: cannot write unwritable_groups.csv: "),
    ),
    # the tables are opened before the first file is classified: no skip line comes before the ERROR OUT line
    Row(
        "census-blocked-table-before-skip",
        ("census", "blocked-in", "--out", "blocked"),
        mkdir=("blocked-in", "blocked_groups.csv"),
        copy=(("{appendix}", "blocked-in"), ("h4.coords", "blocked-in")),
        code=1,
        stderr=Prefix("ERROR OUT: cannot write blocked_groups.csv: "),
    ),
    Row(
        "census-empty-dir",
        ("census", "empty", "--out", "x"),
        mkdir=("empty",),
        code=1,
        stderr="ERROR CENSUS: no unital files in empty\n",
    ),
    # one file named twice is refused before H(q) is built: --coords would overwrite the JSON
    Row(
        "hermitian-out-is-coords",
        ("hermitian", "--q", "2", "--out", "same.txt", "--coords", "./same.txt"),
        code=1,
        stderr="ERROR ARGS: --out same.txt and --coords ./same.txt name one file\n",
    ),
    Row("hermitian-bad-order", ("hermitian", "--q", "6"), code=1, stderr="ERROR HERMITIAN: q=6 exceeds the desk-scale cap 5\n"),
    # a hermitian file that cannot be written (the device is full) is one ERROR OUT line and exit 1
    Row(
        "hermitian-out-dev-full",
        ("hermitian", "--q", "2", "--out", "/dev/full"),
        code=1,
        stderr=Prefix("ERROR OUT: cannot write /dev/full: "),
    ),
    Row(
        "hermitian-coords-dev-full",
        ("hermitian", "--q", "2", "--coords", "/dev/full"),
        code=1,
        stdout=None,
        stderr=Prefix("ERROR OUT: cannot write /dev/full: "),
    ),
    _usage("missing-file", "validate", "missing.json"),
    _usage("bad-int", "hermitian", "--q", "abc"),
    _usage("missing-option", "fullpoints", "{appendix}"),
    _usage("missing-dir", "census", "missing", "--out", "x"),
    # census-in, made by an earlier row, exists: the one error is the removed option
    _usage("census-library", "census", "census-in", "--out", "x", "--library", "x"),
    _usage("unknown-command", "bogus"),
    _usage("unknown-group-option", "--bogus"),
)


def runnable(row: Row) -> bool:
    """A row that writes to /dev/full runs only where that device exists."""
    return "/dev/full" not in row.argv or os.path.exists("/dev/full")


def prepare(row: Row, work: Path) -> None:
    """Make the row's directories and copy its files into WORK."""
    for name in row.mkdir:
        (work / name).mkdir(exist_ok=True)
    for source, dest in row.copy:
        source = source.format(appendix=APPENDIX)
        shutil.copy(source if os.path.isabs(source) else work / source, work / dest)


def compare(what: str, expected: Expected, data: bytes) -> list[str]:
    """How DATA, the bytes of one stream or file, differs from EXPECTED; empty when it matches."""
    text = data.decode("utf-8", "replace").replace("\r\n", "\n")
    shown = text if len(text) <= 300 else text[:300] + "…"
    if expected is None:
        return []
    if isinstance(expected, str):
        return [] if text == expected else [f"{what}: expected {expected!r}, got {shown!r}"]
    if isinstance(expected, Prefix):
        lines = text.splitlines()
        ok = len(lines) == 1 and lines[0].startswith(expected.text)
        return [] if ok else [f"{what}: expected one line starting {expected.text!r}, got {shown!r}"]
    problems = []
    digest = hashlib.sha256(data).hexdigest()
    if digest != expected.sha256:
        problems.append(f"{what}: SHA-256 {digest}, expected {expected.sha256}")
    newlines = data.count(b"\n")
    if newlines != expected.lines:
        problems.append(f"{what}: {newlines} lines, expected {expected.lines}")
    for end, count in expected.ends:
        got = sum(line.endswith(end) for line in text.splitlines())
        if got != count:
            problems.append(f"{what}: {got} lines end {end!r}, expected {count}")
    return problems


def check(row: Row, work: Path, code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """How one run of ROW in WORK differs from the table; empty when it matches."""
    problems = [] if code == row.code else [f"exit code {code}, expected {row.code}"]
    problems += compare("stdout", row.stdout, stdout) + compare("stderr", row.stderr, stderr)
    for name, expected in row.files:
        path = work / name
        problems += compare(name, expected, path.read_bytes()) if path.is_file() else [f"{name}: not written"]
    return problems


def main() -> int:
    unital = shutil.which("unital")
    if unital is None:
        print("no `unital` on PATH: install the package first", file=sys.stderr)
        return 2
    ran = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for row in ROWS:
            if not runnable(row):
                print(f"skip {row.name}: no /dev/full")
                continue
            prepare(row, work)
            run = subprocess.run([unital, *row.args()], cwd=work, capture_output=True)
            problems = check(row, work, run.returncode, run.stdout, run.stderr)
            ran, failed = ran + 1, failed + bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {row.name}")
            for problem in problems:
                print(f"     {problem}")
    print(f"{failed} of {ran} rows failed" if failed else f"all {ran} rows run pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
