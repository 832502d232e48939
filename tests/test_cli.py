import builtins
import csv
import json

import pytest
from click.testing import CliRunner

from unitals import census, cli, formats
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
    monkeypatch.setattr(cli, "hermitian_unital", built.append)
    result = runner.invoke(main, ["hermitian", "--q", "2", option, str(tmp_path / "missing" / "x.json")])
    assert result.exit_code == 1
    assert result.output.startswith(f"ERROR OUT: {option} directory") and result.output.count("ERROR") == 1
    assert built == []


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


def test_dualnets_h2(runner, tmp_path, h2):
    p = tmp_path / "h2.txt"
    p.write_text(serialize_text(h2.unital, "h2"))
    result = runner.invoke(main, ["dualnets", str(p), "--latin"])
    assert result.exit_code == 0
    assert "embedded dual 3-net(s)" in result.output
    assert "cyclic" in result.output


def test_census_writes_tables(runner, tmp_path, h2, monkeypatch):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    (src / "broken.txt").write_text("1 2 3\n")
    monkeypatch.setenv("UNITAL_THREADS", "1")
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


def test_census_skips_and_counts_malformed_files(runner, tmp_path, h2, monkeypatch):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    for name, content in MALFORMED.items():
        (src / name).write_bytes(content)
    monkeypatch.setenv("UNITAL_THREADS", "1")
    prefix = str(tmp_path / "census")
    result = runner.invoke(main, ["census", str(src), "--out", prefix, "--library", "demo"])
    assert result.exit_code == 0
    assert "census of 1 unital(s)" in result.output and "4 file(s) skipped" in result.output
    for name in MALFORMED:
        assert f"skipped {src / name}: " in result.output
    with open(prefix + "_totals.csv") as fh:
        assert list(csv.reader(fh))[1] == ["demo", "1", "1", "1"]


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


def test_census_skips_and_counts_unreadable_files(runner, tmp_path, h2, monkeypatch, unreadable):
    src = tmp_path / "lib"
    src.mkdir()
    (src / "h2.txt").write_text(serialize_text(h2.unital, "h2"))
    (src / "locked.txt").write_text(serialize_text(h2.unital, "h2"))
    monkeypatch.setenv("UNITAL_THREADS", "1")
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
    monkeypatch.setenv("UNITAL_THREADS", "1")
    monkeypatch.setattr(cli, "_census_worker", classified.append)
    result = runner.invoke(main, ["census", str(src), "--out", str(tmp_path / "missing" / "census")])
    assert result.exit_code == 1
    assert result.output.startswith("ERROR OUT:") and result.output.count("ERROR") == 1
    assert classified == []


def test_census_worker_returns_the_report_unchanged(tmp_path, h2):
    p = tmp_path / "h2.txt"
    p.write_text(serialize_text(h2.unital, "h2"))
    path, report, error = cli._census_worker(str(p))
    assert (path, error) == (str(p), None)
    assert report == census.classify_unital(h2.unital, "h2.txt")


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
