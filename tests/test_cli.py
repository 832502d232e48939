import builtins
import csv
import json
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from unitals import census, cli, formats, groups, nets
from unitals.cli import main
from unitals.formats import appendix_text, serialize_json
from conftest import block_list_text

MALFORMED = {
    "points.json": b'{"order": 2, "points": "x", "blocks": [[1, 2, 3]]}',
    "blocks.json": b'{"order": 2, "points": 9, "blocks": 5}',
    "latin1.txt": b"1 2 3\n\xff\n",
    "nested.json": b'{"order": 2, "points": 9, "blocks": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "bigint.json": b'{"order": 2, "points": 9, "blocks": [[' + b"1" * 5000 + b", 2, 3]]}",
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def appendix_file(tmp_path):
    p = tmp_path / "appendix.txt"
    p.write_text(appendix_text())
    return str(p)


def test_validate_ok(runner, appendix_file):
    result = runner.invoke(main, ["validate", appendix_file])
    assert result.exit_code == 0
    assert "OK: unital of order 4 with 65 points and 208 blocks" in result.output


def test_validate_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 x\n")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert "ERROR PARSE:" in result.output


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_malformed_input(runner, tmp_path, name):
    bad = tmp_path / name
    bad.write_bytes(MALFORMED[name])
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("ERROR PARSE:") and result.output.count("ERROR") == 1


def test_validate_json_header_must_match_blocks(runner, tmp_path, h2):
    obj = json.loads(serialize_json(h2.unital, "h2"))
    for key, value, error in (("order", 7, "PARSE: JSON field 'order' is 7"), ("points", 10, "NOT_A_UNITAL: point count 10")):
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(dict(obj, **{key: value})))
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 1
        assert result.output.startswith(f"ERROR {error}")


def test_validate_not_a_unital(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5 6\n")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert "ERROR NOT_A_UNITAL:" in result.output


def test_hermitian_stdout(runner):
    result = runner.invoke(main, ["hermitian", "--q", "2"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["order"] == 2 and obj["points"] == 9 and len(obj["blocks"]) == 12


def test_hermitian_files(runner, tmp_path):
    out = tmp_path / "h3.json"
    coords = tmp_path / "h3.coords"
    result = runner.invoke(main, ["hermitian", "--q", "3", "--out", str(out), "--coords", str(coords)])
    assert result.exit_code == 0
    obj = json.loads(out.read_text())
    assert obj["points"] == 28 and len(obj["blocks"]) == 63
    lines = [l for l in coords.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 28


@pytest.mark.parametrize("option", ["--out", "--coords"])
def test_hermitian_opens_every_output_before_writing_any(runner, tmp_path, option):
    """An output in a missing directory is the same ERROR OUT line as any
    file that cannot be opened, and comes before the other output is written."""
    missing = str(tmp_path / "missing" / "x")
    other = "--coords" if option == "--out" else "--out"
    result = runner.invoke(main, ["hermitian", "--q", "2", option, missing, other, str(tmp_path / "other")])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"ERROR OUT: cannot write {missing}: No such file or directory"]
    assert result.stdout == "" and (option == "--coords" or not (tmp_path / "other").exists())


@pytest.mark.parametrize("option", ["--out", "--coords"])
def test_hermitian_file_that_cannot_be_written_gives_one_error_line(runner, tmp_path, monkeypatch, option):
    target = str(tmp_path / "h2.out")

    def full_open(path, *args, **kwargs):
        if str(path) == target:
            raise OSError(28, "No space left on device", path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    result = runner.invoke(main, ["hermitian", "--q", "2", option, target])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines() == [f"ERROR OUT: cannot write {target}: No space left on device"]
    assert "wrote" not in result.stdout


def test_hermitian_one_file_for_out_and_coords_gives_one_error_line(runner, tmp_path, monkeypatch):
    """Two names of one file are refused before H(q) is built, and nothing is written."""
    built = []
    monkeypatch.setattr("unitals.hermitian.hermitian_unital", built.append)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["hermitian", "--q", "2", "--out", "same.txt", "--coords", "./same.txt"])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == ["ERROR ARGS: --out same.txt and --coords ./same.txt name one file"]
    assert result.stdout == "" and built == [] and list(tmp_path.iterdir()) == []


def test_fullpoints_bad_args(runner, appendix_file):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1"])
    assert result.exit_code == 1
    assert "ERROR ARGS:" in result.output
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1,999"])
    assert result.exit_code == 1
    assert "ERROR ARGS:" in result.output


@pytest.mark.parametrize(
    "pair, message",
    [
        ("1,3_3", "--blocks: non-integer token: '3_3'"),
        ("0,33", "--blocks: block index 0 outside 1..208"),
        ("1,1", "--blocks: full points need two distinct blocks"),
        ("0,0", "--blocks: block index 0 outside 1..208"),
        ("300,300", "--blocks: block index 300 outside 1..208"),
        ("1,209", "--blocks: block index 209 outside 1..208"),
        ("+1,33", "--blocks: non-integer token: '+1'"),
        ("1,33,200", "--blocks expects two block ids, got '1,33,200'"),
    ],
)
def test_fullpoints_bad_block_ids_give_one_error_line(runner, appendix_file, pair, message):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", pair])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"ERROR ARGS: {message}"] and result.stdout == ""


@pytest.mark.parametrize("pair", ["1 33", "1, 33", " 1\t33 # a comment"])
def test_fullpoints_blocks_read_as_a_block_list_line(runner, appendix_file, pair):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", pair])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "full points of (1,33): [30, 31, 35, 46, 48]"


@pytest.mark.parametrize(
    "name, pair, expected",
    [
        ("appendix", "1,33", ["full points of (1,33): [30, 31, 35, 46, 48]", "group order 120, structure S5", "SFPR triple: False"]),
        (
            "appendix",
            "1,2",
            [
                "full points of (1,2): []",
                "group trivial (fewer than 2 full points)",
                "blocks intersect; regularity flags apply to disjoint pairs only",
            ],
        ),
        ("h4", "1,197", ["full points of (1,197): [1, 2, 3, 4, 5]", "group order 5, structure C5", "SFPR triple: True"]),
    ],
)
def test_fullpoints_text_from_one_full_point_scan(runner, tmp_path, request, monkeypatch, name, pair, expected):
    fixture = request.getfixturevalue(name)
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_json(getattr(fixture, "unital", fixture), name))
    calls = []
    real = census.full_points
    for module in (census, cli):  # the command may not scan the pair itself as well
        monkeypatch.setattr(module, "full_points", lambda *args: calls.append(args) or real(*args), raising=False)
    result = runner.invoke(main, ["fullpoints", str(path), "--blocks", pair])
    assert result.exit_code == 0
    assert result.output.splitlines() == expected
    assert len(calls) == 1


def test_dualnets_latin_builds_each_square_once(runner, appendix_file, appendix, monkeypatch):
    calls = []
    real = nets.latin_square_from_3net
    monkeypatch.setattr(nets, "latin_square_from_3net", lambda *args: calls.append(args) or real(*args))
    result = runner.invoke(main, ["dualnets", appendix_file, "--latin"])
    assert result.exit_code == 0
    assert len(calls) == 86
    expected = ["86 embedded dual 3-net(s)"]
    for net in nets.find_dual_3nets(appendix):
        expected.append(f"blocks {list(net)}: {'cyclic' if nets.is_cyclic_3net(appendix, net) else 'non-cyclic'}")
        expected += real(appendix, net).serialize().splitlines()
    assert result.output.splitlines() == expected


@pytest.fixture
def small_group_cap(monkeypatch):
    """Cap closures below the order 120 of the appendix pair (1, 33)'s S5.
    The structure catalog lists each model up to its own order, so the cap
    does not bear on it."""
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 100)


def test_fullpoints_group_over_cap_gives_one_error_line(runner, appendix_file, small_group_cap):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1,33"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("ERROR GROUP: group order exceeds cap 100") and result.output.count("ERROR") == 1


def test_census_skips_and_counts_a_group_over_cap(runner, tmp_path, h2, small_group_cap):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    (src / "appendix.txt").write_text(appendix_text())
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "1 file(s) skipped" in result.output
    assert f"skipped {src / 'appendix.txt'}: GROUP: group order exceeds cap 100" in result.output
    with open(prefix + "_totals.csv") as fh:
        assert list(csv.reader(fh))[1] == ["lib", "1", "1", "1"]


def test_census_writes_tables(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    (src / "broken.txt").write_text("1 2 3\n")
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix])
    assert result.exit_code == 0
    assert "1 file(s) skipped" in result.output

    with open(prefix + "_totals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["library", "unitals", "fpr", "sfpr"]
    assert rows[1] == ["lib", "1", "1", "1"]

    with open(prefix + "_groups.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["full_points", "group", "count"]
    assert ["3", "C3", "1"] in rows

    with open(prefix + "_large.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["set", "property", "count"]
    assert rows[1][0] == "Omega"


def test_census_labels_the_library_by_its_directory_name(runner, tmp_path, h2):
    """The totals row's label is DIRECTORY's name, CSV-quoted where it must
    be, with or without a trailing slash."""
    src = tmp_path / 'lib, "q"'
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    for directory, prefix in ((str(src), "plain"), (str(src) + os.sep, "slash")):
        result = runner.invoke(main, ["census", directory, "--out", str(tmp_path / prefix)])
        assert result.exit_code == 0
        text = (tmp_path / f"{prefix}_totals.csv").read_text()
        assert text.splitlines()[1] == '"lib, ""q""",1,1,1'
        assert list(csv.reader(text.splitlines()))[1] == ['lib, "q"', "1", "1", "1"]


def test_census_skips_and_counts_malformed_files(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    for name, content in MALFORMED.items():
        (src / name).write_bytes(content)
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "5 file(s) skipped" in result.output
    for name in MALFORMED:
        assert f"skipped {src / name}: " in result.output
    with open(prefix + "_totals.csv") as fh:
        assert list(csv.reader(fh))[1] == ["lib", "1", "1", "1"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_census_skips_and_counts_entries_that_are_not_regular_files(runner, tmp_path, h2):
    """A FIFO and a dangling symlink are inputs too: each is skipped with
    `load_unital`'s reason, and the tables are those of the unital alone
    in a directory of the same name."""
    alone, src = tmp_path / "alone" / "lib", tmp_path / "lib"
    for d in (alone, src):
        d.mkdir(parents=True)
        (d / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    os.mkfifo(src / "fifo")
    os.symlink(tmp_path / "missing.txt", src / "dangling.txt")
    expected = runner.invoke(main, ["census", str(alone), "--out", str(tmp_path / "alone")])
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "lib")])
    assert expected.exit_code == 0 and result.exit_code == 0
    assert result.stderr.splitlines() == [
        f"skipped {src / 'dangling.txt'}: PARSE: cannot read file: No such file or directory",
        f"skipped {src / 'fifo'}: PARSE: not a regular file",
    ]
    assert result.stdout.startswith("census of 1 unital(s)") and result.stdout.endswith(" (2 file(s) skipped)\n")
    for table in ("groups", "totals", "large"):
        assert (tmp_path / f"lib_{table}.csv").read_text() == (tmp_path / f"alone_{table}.csv").read_text()


def test_byte_order_mark_is_accepted(runner, tmp_path, appendix):
    """A UTF-8 file may start with a byte-order mark, in either format."""
    src = tmp_path / "lib"
    src.mkdir()
    (src / "bom.txt").write_bytes(("\ufeff" + appendix_text()).encode("utf-8"))
    (src / "bom.json").write_bytes(("\ufeff" + serialize_json(appendix, "appendix")).encode("utf-8"))
    for name in ("bom.txt", "bom.json"):
        result = runner.invoke(main, ["validate", str(src / name)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("OK: unital of order 4 with 65 points and 208 blocks")
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "census")])
    assert result.exit_code == 0
    assert "census of 2 unital(s)" in result.output and "skipped" not in result.output


@pytest.fixture
def unreadable(monkeypatch):
    """Opening a file named locked.txt fails as a file without read
    permission does (permission bits do not stop a superuser, so `open`
    is replaced instead)."""

    def fake_open(path, *args, **kwargs):
        if str(path).endswith("locked.txt"):
            raise PermissionError(13, "Permission denied", str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(formats, "open", fake_open, raising=False)


def test_census_skips_and_counts_unreadable_files(runner, tmp_path, h2, unreadable):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    (src / "locked.txt").write_text(block_list_text(h2.unital, "h2"))
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "census")])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "1 file(s) skipped" in result.output
    assert f"skipped {src / 'locked.txt'}: PARSE: cannot read file: Permission denied" in result.output


# each command that reads one unital FILE, with the options it needs
READERS = [["validate"], ["fullpoints", "--blocks", "1,2"], ["dualnets"]]


@pytest.mark.parametrize("args", READERS, ids=[args[0] for args in READERS])
def test_unreadable_file_gives_one_error_line(runner, tmp_path, h2, unreadable, args):
    locked = tmp_path / "locked.txt"
    locked.write_text(block_list_text(h2.unital, "h2"))
    result = runner.invoke(main, [args[0], str(locked), *args[1:]])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("ERROR PARSE: cannot read file") and result.output.count("ERROR") == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("args", READERS, ids=[args[0] for args in READERS])
def test_fifo_gives_one_error_line(tmp_path, args):
    """A FIFO passes click's exists check; reading it would wait for a writer forever."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "unitals.cli", args[0], str(fifo), *args[1:]]
    run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=20)
    assert run.returncode == 1
    assert run.stdout == "" and run.stderr.splitlines() == ["ERROR PARSE: not a regular file"]


@pytest.mark.parametrize("name", [*sorted(MALFORMED), "not-a-unital.txt"])
def test_every_command_names_a_bad_file_alike(runner, tmp_path, name):
    """`validate`, `fullpoints` and `dualnets` fail on a file with one
    ``ERROR CODE: reason`` line, and `census` skips it with the same
    ``CODE: reason``: a file that does not parse is PARSE, one that parses
    but is no unital NOT_A_UNITAL."""
    src = tmp_path / "lib"
    src.mkdir()
    bad = src / name
    bad.write_bytes(MALFORMED.get(name, b"1 2 3\n4 5 6\n"))
    failures = []
    for args in READERS:
        result = runner.invoke(main, [args[0], str(bad), *args[1:]])
        assert result.exit_code == 1 and result.stdout == ""
        [line] = result.stderr.splitlines()
        failures.append(line.removeprefix("ERROR "))
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "census")])
    assert result.exit_code == 0 and result.stdout.endswith(" (1 file(s) skipped)\n")
    [line] = result.stderr.splitlines()
    failures.append(line.removeprefix(f"skipped {bad}: "))
    code = "PARSE" if name in MALFORMED else "NOT_A_UNITAL"
    assert failures == [failures[0]] * 4 and failures[0].startswith(f"{code}: ")


def test_census_checks_out_dir_before_classifying(runner, tmp_path, h2, monkeypatch):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    classified = []
    monkeypatch.setattr(cli, "_census_worker", classified.append)
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "missing" / "census")])
    assert result.exit_code == 1
    assert result.output.startswith("ERROR OUT:") and result.output.count("ERROR") == 1
    assert classified == []


def test_census_table_that_cannot_be_written_gives_one_error_line(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    prefix = tmp_path / "census"
    (tmp_path / "census_groups.csv").mkdir()
    result = runner.invoke(main, ["census", str(src), "--out", str(prefix)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR OUT: cannot write {prefix}_groups.csv: ")


def test_census_opens_its_tables_before_classifying(runner, tmp_path, h2, monkeypatch):
    """A table that cannot be opened is one ERROR OUT line before the first
    file is classified, so a file that would be skipped prints nothing."""
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    (src / "notes.txt").write_text("not a unital\n")
    prefix = tmp_path / "census"
    (tmp_path / "census_groups.csv").mkdir()
    classified = []
    monkeypatch.setattr(cli, "_census_worker", classified.append)
    result = runner.invoke(main, ["census", str(src), "--out", str(prefix)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR OUT: cannot write {prefix}_groups.csv: ")
    assert classified == []


def test_second_census_into_its_directory_reads_none_of_its_tables(runner, tmp_path, h2, monkeypatch):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(block_list_text(h2.unital, "h2"))
    prefix = os.path.join(str(src), "run")
    first = runner.invoke(main, ["census", str(src), "--out", prefix])
    tables = {name: (src / name).read_text() for name in ("run_groups.csv", "run_totals.csv", "run_large.csv")}
    classified = []
    real = cli._census_worker
    monkeypatch.setattr(cli, "_census_worker", lambda path: classified.append(path) or real(path))
    second = runner.invoke(main, ["census", str(src), "--out", prefix])
    assert first.exit_code == second.exit_code == 0
    assert second.stderr == "" and second.stdout == first.stdout and second.stdout.startswith("census of 1 unital(s)")
    assert classified == [str(src / "h2.txt")]
    assert {name: (src / name).read_text() for name in tables} == tables


def test_census_worker_returns_the_report_unchanged(tmp_path, h2):
    p = tmp_path / "h2.txt"
    p.write_text(block_list_text(h2.unital, "h2"))
    path, report, error = cli._census_worker(str(p))
    assert (path, error) == (str(p), None)
    assert report == census.classify_unital(h2.unital)


def test_census_directory_that_cannot_be_listed_gives_one_error_line(runner, tmp_path, monkeypatch):
    """A directory without read permission (permission bits do not stop a
    superuser, so `os.listdir` is replaced instead)."""
    locked = tmp_path / "locked"
    locked.mkdir()
    listdir = os.listdir

    def fake_listdir(path="."):
        if str(path) == str(locked):
            raise PermissionError(13, "Permission denied", str(path))
        return listdir(path)

    monkeypatch.setattr(os, "listdir", fake_listdir)
    result = runner.invoke(main, ["census", str(locked), "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.splitlines() == [f"ERROR CENSUS: cannot read {locked}: Permission denied"]


def test_appendix_check_drifted_hash_gives_one_error_line(runner, monkeypatch):
    monkeypatch.setattr(formats, "APPENDIX_SHA256", "0" * 64)
    result = runner.invoke(main, ["appendix-check"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["ERROR GOLDEN: embedded dataset hash drifted"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize(
    "args",
    [
        ["hermitian", "--q", "2"],
        ["validate", "{appendix}"],
        ["fullpoints", "{appendix}", "--blocks", "1,33"],
        ["dualnets", "{appendix}"],
        ["census", "{dir}", "--out", "{dir}/census"],
        ["appendix-check"],
    ],
    ids=["hermitian", "validate", "fullpoints", "dualnets", "census", "appendix-check"],
)
def test_full_standard_output_gives_one_error_line(tmp_path, appendix_file, args):
    """Every command, its standard output on a full device (click's test
    runner has no file descriptor to point there, so each runs as a process)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "unitals.cli", *(a.format(appendix=appendix_file, dir=tmp_path) for a in args)]
    with open("/dev/full", "w") as full:
        run = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR OUT: cannot write standard output: ")


def test_broken_pipe_ends_quietly(appendix_file):
    """A reader that closes standard output after one line, as `| head -n 1`
    does, ends the run with exit 1 and nothing on stderr."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "unitals.cli", "dualnets", appendix_file, "--latin"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as run:
        assert run.stdout.readline() == b"86 embedded dual 3-net(s)\n"
        run.stdout.close()
        assert run.stderr.read() == b""
        assert run.wait() == 1


@pytest.mark.parametrize("args", [[], ["--help"]])
def test_bare_group_and_help_behave_as_in_click(runner, args):
    """Bare `unital` and `unital --help` print what a plain click group with
    the same commands prints, with its exit code, in any click version."""
    plain = click.Group(main.name, commands=main.commands, help=main.help)
    ours, theirs = runner.invoke(main, args), runner.invoke(plain, args)
    assert "Commands:" in ours.output
    assert (ours.output, ours.exit_code) == (theirs.output, theirs.exit_code)
