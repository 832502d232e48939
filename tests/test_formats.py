import json

import pytest

from unitals.census import classify_unital
from unitals.design import NotAUnital
from unitals.formats import (
    APPENDIX_SHA256,
    ParseError,
    appendix_digest,
    builtin_appendix_unital,
    load_unital,
    parse_unital,
    serialize_json,
)
from conftest import block_list_text


def test_text_round_trip(h2):
    u = h2.unital
    again = parse_unital(block_list_text(u, "h2")).validate()
    assert again.all_blocks == u.all_blocks
    assert again.num_points == u.num_points


def test_json_round_trip(h2):
    u = h2.unital
    text = serialize_json(u, "h2")
    uf = parse_unital(text)
    assert uf.points == 9
    assert uf.validate().all_blocks == u.all_blocks


@pytest.mark.parametrize("name", [None, "h2", 5, [1]], ids=["absent", "string", "int", "list"])
def test_json_name_is_ignored(h2, name):
    """A JSON file's "name" may be absent or of any type: the unital and its
    census report are the same."""
    obj = json.loads(serialize_json(h2.unital))
    if name is None:
        del obj["name"]
    else:
        obj["name"] = name
    u = parse_unital(json.dumps(obj)).validate()
    assert u.all_blocks == h2.unital.all_blocks
    assert classify_unital(u) == classify_unital(h2.unital)


def test_text_parser_handles_commas_and_comments():
    text = "# comment\n1, 2, 3\n4 5 6  # trailing\n1 4 7\n"
    uf = parse_unital(text)
    assert uf.blocks == ((1, 2, 3), (4, 5, 6), (1, 4, 7))
    assert uf.points == 7


def test_json_missing_field():
    with pytest.raises(ParseError, match="blocks"):
        parse_unital('{"order": 2, "points": 9}')


def test_json_syntax_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_unital('{"order": 2,\n  "points": }')
    assert exc.value.line == 2


def test_json_nested_too_deeply():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_unital('{"order": 2, "points": 9, "blocks": ' + "[" * 100_000 + "]" * 100_000 + "}")


def test_json_integer_past_the_digit_limit():
    """json.loads raises a plain ValueError for an integer of more digits
    than the interpreter converts; that is a parse error too."""
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_unital('{"order": 2, "points": 9, "blocks": [[' + "1" * 5000 + ", 2, 3]]}")


def test_non_integer_token():
    with pytest.raises(ParseError) as exc:
        parse_unital("1 2 3\n4 x 6\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, line, reason",
    [
        ("1 2 3\n" + "1" * 5000 + " 2 3\n", 2, "integer token too long: '11111111111111111111…' (5000 characters)"),
        ("1 2 x" * 2000 + "\n", 1, "non-integer token: 'x1'"),
        ("1 2 " + "y" * 50 + "\n", 1, "non-integer token: 'yyyyyyyyyyyyyyyyyyyy…' (50 characters)"),
    ],
    ids=["past-the-digit-limit", "long-line", "long-token"],
)
def test_bad_text_token_is_named_short(text, line, reason):
    """A bad token is named by itself, cut to a short prefix with its
    length, not by the whole line it stands on."""
    with pytest.raises(ParseError) as exc:
        parse_unital(text)
    assert (exc.value.reason, exc.value.line) == (reason, line)


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "\uff11", "-1"])
def test_text_ids_are_ascii_decimal_digits(token):
    """`int` reads each of these as an integer; the text format does not."""
    with pytest.raises(ParseError) as exc:
        parse_unital(f"1 2 3\n4 {token} 6\n")
    assert (exc.value.reason, exc.value.line) == (f"non-integer token: {token!r}", 2)


def test_text_separators_and_comments():
    text = "# a comment line\n1, 2 ,3\n4\t5\t6  # trailing comment\n\n7,8,,9\n"
    uf = parse_unital(text)
    assert uf.blocks == ((1, 2, 3), (4, 5, 6), (7, 8, 9)) and uf.points == 9


def test_json_bad_block_reports_block_index():
    text = '{"order": 2,\n "points": 9,\n "blocks": [[1, 2, 3],\n  [4, "a", 6]]}'
    with pytest.raises(ParseError) as exc:
        parse_unital(text)
    assert exc.value.line is None
    assert str(exc.value).endswith("(block 2)")


def test_nonpositive_ids_rejected():
    with pytest.raises(ParseError, match="positive"):
        parse_unital("0 1 2\n")
    with pytest.raises(ParseError, match="positive"):
        parse_unital('{"order": 2, "points": 9, "blocks": [[-1, 2, 3]]}')


def test_empty_input():
    with pytest.raises(ParseError, match="no blocks"):
        parse_unital("# just a comment\n\n")


def test_validate_catches_bad_designs():
    # 3 blocks on 9 points is not a 2-(9,3,1) design
    with pytest.raises(NotAUnital):
        parse_unital("1 2 3\n4 5 6\n7 8 9\n").validate()


def test_load_unital(tmp_path, h3):
    p = tmp_path / "h3.txt"
    p.write_text(block_list_text(h3.unital, "h3"))
    u = load_unital(p)
    assert u.order == 3 and u.num_points == 28


def test_appendix_digest_pinned():
    assert appendix_digest() == APPENDIX_SHA256


def test_builtin_appendix_goldens(appendix):
    assert appendix is builtin_appendix_unital()
    assert appendix.order == 4
    assert appendix.num_points == 65
    assert appendix.num_blocks == 208
    assert appendix.block(1) == (1, 2, 55, 64, 65)
    assert appendix.block(33) == (3, 5, 10, 39, 59)
    assert appendix.block(200) == (30, 31, 35, 46, 48)
