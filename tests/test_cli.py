import builtins
import csv
import json
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from unitals import census, cli, formats, groups, hermitian, nets
from unitals.cli import main
from unitals.formats import appendix_text, serialize_json, serialize_text

MALFORMED = {
    "points.json": b'{"order": 2, "points": "x", "blocks": [[1, 2, 3]]}',
    "blocks.json": b'{"order": 2, "points": 9, "blocks": 5}',
    "latin1.txt": b"1 2 3\n\xff\n",
    "nested.json": b'{"order": 2, "points": 9, "blocks": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
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
def test_hermitian_checks_out_dirs_before_building(runner, tmp_path, monkeypatch, option):
    built = []
    monkeypatch.setattr(hermitian, "hermitian_unital", built.append)
    result = runner.invoke(main, ["hermitian", "--q", "2", option, str(tmp_path / "missing" / "x.json")])
    assert result.exit_code == 1
    assert result.output.startswith(f"ERROR OUT: {option} directory") and result.output.count("ERROR") == 1
    assert built == []


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


def test_hermitian_bad_order(runner):
    result = runner.invoke(main, ["hermitian", "--q", "6"])
    assert result.exit_code == 1
    assert "ERROR HERMITIAN:" in result.output


def test_fullpoints_golden(runner, appendix_file):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1,33"])
    assert result.exit_code == 0
    assert "[30, 31, 35, 46, 48]" in result.output
    assert "group order 120, structure S5" in result.output
    assert "SFPR triple: False" in result.output


def test_fullpoints_bad_args(runner, appendix_file):
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1"])
    assert result.exit_code == 1
    assert "ERROR ARGS:" in result.output
    result = runner.invoke(main, ["fullpoints", appendix_file, "--blocks", "1,999"])
    assert result.exit_code == 1
    assert "ERROR ARGS:" in result.output


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


def test_dualnets_h2(runner, tmp_path, h2):
    p = tmp_path / "h2.txt"
    p.write_text(serialize_text(h2.unital, "h2"))
    result = runner.invoke(main, ["dualnets", str(p), "--latin"])
    assert result.exit_code == 0
    assert "embedded dual 3-net(s)" in result.output
    assert "cyclic" in result.output


def test_dualnets_appendix(runner, appendix_file):
    result = runner.invoke(main, ["dualnets", appendix_file])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "86 embedded dual 3-net(s)"
    assert (sum(l.endswith(": cyclic") for l in lines), sum(l.endswith(": non-cyclic") for l in lines)) == (81, 5)
    assert "blocks [1, 33, 200]: non-cyclic" in lines


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
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    (src / "appendix.txt").write_text(appendix_text())
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix, "--library", "demo"])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "1 file(s) skipped" in result.output
    assert f"skipped {src / 'appendix.txt'}: group order exceeds cap 100" in result.output
    with open(prefix + "_totals.csv") as fh:
        assert list(csv.reader(fh))[1] == ["demo", "1", "1", "1"]


def test_census_writes_tables(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    (src / "broken.txt").write_text("1 2 3\n")
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix, "--library", "demo"])
    assert result.exit_code == 0
    assert "1 file(s) skipped" in result.output

    with open(prefix + "_totals.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["library", "unitals", "fpr", "sfpr"]
    assert rows[1] == ["demo", "1", "1", "1"]

    with open(prefix + "_groups.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["full_points", "group", "count"]
    assert ["3", "C3", "1"] in rows

    with open(prefix + "_large.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["set", "property", "count"]
    assert rows[1][0] == "Omega"


def test_census_skips_and_counts_malformed_files(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    for name, content in MALFORMED.items():
        (src / name).write_bytes(content)
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix, "--library", "demo"])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "4 file(s) skipped" in result.output
    for name in MALFORMED:
        assert f"skipped {src / name}: " in result.output
    with open(prefix + "_totals.csv") as fh:
        assert list(csv.reader(fh))[1] == ["demo", "1", "1", "1"]


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
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    (src / "locked.txt").write_text(serialize_text(h2.unital, "h2"))
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "census")])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "1 file(s) skipped" in result.output
    assert f"skipped {src / 'locked.txt'}: cannot read file: Permission denied" in result.output


@pytest.mark.parametrize(
    "args, code",
    [(["validate"], "PARSE"), (["fullpoints", "--blocks", "1,2"], "LOAD"), (["dualnets"], "LOAD")],
    ids=["validate", "fullpoints", "dualnets"],
)
def test_unreadable_file_gives_one_error_line(runner, tmp_path, h2, unreadable, args, code):
    locked = tmp_path / "locked.txt"
    locked.write_text(serialize_text(h2.unital, "h2"))
    result = runner.invoke(main, [args[0], str(locked), *args[1:]])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"ERROR {code}: cannot read file") and result.output.count("ERROR") == 1


def test_census_checks_out_dir_before_classifying(runner, tmp_path, h2, monkeypatch):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    classified = []
    monkeypatch.setattr(cli, "_census_worker", classified.append)
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "missing" / "census")])
    assert result.exit_code == 1
    assert result.output.startswith("ERROR OUT:") and result.output.count("ERROR") == 1
    assert classified == []


def test_census_table_that_cannot_be_written_gives_one_error_line(runner, tmp_path, h2):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    prefix = tmp_path / "census"
    (tmp_path / "census_groups.csv").mkdir()
    result = runner.invoke(main, ["census", str(src), "--out", str(prefix)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ERROR OUT: cannot write {prefix}_groups.csv: ")


def test_census_worker_returns_the_report_unchanged(tmp_path, h2):
    p = tmp_path / "h2.txt"
    p.write_text(serialize_text(h2.unital, "h2"))
    path, report, error = cli._census_worker(str(p))
    assert (path, error) == (str(p), None)
    assert report == census.classify_unital(h2.unital, "h2.txt")


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


def test_census_empty_dir(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(main, ["census", str(empty), "--out", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "ERROR CENSUS:" in result.output


def test_appendix_check(runner):
    result = runner.invoke(main, ["appendix-check"])
    assert result.exit_code == 0
    assert result.output.strip().endswith("PASS")


@pytest.mark.parametrize(
    "args",
    [
        ["validate", "{tmp}/missing.json"],
        ["hermitian", "--q", "abc"],
        ["fullpoints", "{appendix}"],
        ["census", "{tmp}/missing", "--out", "{tmp}/x"],
        ["bogus"],
        ["--bogus"],
    ],
    ids=["missing-file", "bad-int", "missing-option", "missing-dir", "unknown-command", "unknown-group-option"],
)
def test_usage_errors_give_one_error_line(runner, tmp_path, appendix_file, args):
    result = runner.invoke(main, [a.format(tmp=tmp_path, appendix=appendix_file) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ARGS:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize("args", [["hermitian", "--q", "2"], ["validate", "{appendix}"]], ids=["hermitian", "validate"])
def test_full_standard_output_gives_one_error_line(appendix_file, args):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "unitals.cli", *(a.format(appendix=appendix_file) for a in args)]
    with open("/dev/full", "w") as full:
        run = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR OUT: cannot write standard output: ")


@pytest.mark.parametrize("args", [[], ["--help"]])
def test_bare_group_and_help_behave_as_in_click(runner, args):
    """Bare `unital` and `unital --help` print what a plain click group with
    the same commands prints, with its exit code, in any click version."""
    plain = click.Group(main.name, commands=main.commands, help=main.help)
    ours, theirs = runner.invoke(main, args), runner.invoke(plain, args)
    assert "Commands:" in ours.output
    assert (ours.output, ours.exit_code) == (theirs.output, theirs.exit_code)
