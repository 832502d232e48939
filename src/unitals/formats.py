"""Unital file formats and the embedded order-4 reference dataset.

Two interchange formats are supported, both with 1-based point ids:

* plain text: one block per line, read by `parse_ids` (ASCII decimal ids,
  comma- or space-separated, ``#`` comments); the point count is the maximum id;
* JSON: an object with "order", "points" and "blocks" fields; "order" is
  checked against block 1, and any other field, such as the "name" that
  `serialize_json` writes, is ignored.
"""

from __future__ import annotations

import json
import os
import stat
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .design import AbstractUnital, validate_unital

#: sha256 of the embedded appendix dataset; drift fails the golden tests
APPENDIX_SHA256 = "d14a0d8a3e9b1f58fabda9d49d7728c3f1f3c3ec7683f3161047c4f510fdfd58"


class ParseError(ValueError):
    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        self.reason = reason
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{reason}{where}")


class UnitalFile(NamedTuple):
    points: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self) -> AbstractUnital:
        return validate_unital(self.points, self.blocks)


def parse_unital(text: str) -> UnitalFile:
    return _parse_json(text) if text.lstrip().startswith("{") else _parse_text(text)


def _parse_json(text: str) -> UnitalFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as e:  # an integer past the interpreter's int-string digit limit
        raise ParseError(f"invalid JSON: {e}") from None
    for key in ("order", "points", "blocks"):
        if key not in obj:
            raise ParseError(f"missing JSON field {key!r}")
    if not isinstance(obj["blocks"], list) or not all(isinstance(b, list) for b in obj["blocks"]):
        raise ParseError("JSON field 'blocks' must be a list of lists of point ids")
    blocks = tuple(map(tuple, obj["blocks"]))
    for i, blk in enumerate(blocks, start=1):
        if not all(type(x) is int and x > 0 for x in blk):
            raise ParseError(f"point ids must be positive integers, got {list(blk)} (block {i})")
    order, points = obj["order"], obj["points"]
    if type(order) is not int or type(points) is not int:
        raise ParseError(f"JSON fields 'order' and 'points' must be integers, got {order!r} and {points!r}")
    if blocks and order != len(blocks[0]) - 1:
        raise ParseError(f"JSON field 'order' is {order}, but block 1 has {len(blocks[0])} points")
    return UnitalFile(points, blocks)


def parse_ids(line: str, lineno: int | None = None) -> tuple[int, ...]:
    """The ids of one block-list line: ASCII decimal digits split by commas or
    whitespace, up to a ``#``; a bad token is a ParseError at LINENO naming it."""
    parts = line.split("#", 1)[0].replace(",", " ").split()
    kind, bad = "non-integer token", [t for t in parts if not (t.isascii() and t.isdigit())]
    if not bad:
        try:
            return tuple(map(int, parts))
        except ValueError:  # the longest token is past the interpreter's int-string digit limit
            kind, bad = "integer token too long", [max(parts, key=len)]
    shown = repr(bad[0]) if len(bad[0]) <= 20 else f"'{bad[0][:20]}…' ({len(bad[0])} characters)"
    raise ParseError(f"{kind}: {shown}", line=lineno)


def _parse_text(text: str) -> UnitalFile:
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ids = parse_ids(raw, lineno)
        if 0 in ids:
            raise ParseError("point ids must be positive", line=lineno)
        if ids:
            blocks.append(ids)
    if not blocks:
        raise ParseError("no blocks found")
    return UnitalFile(max(map(max, blocks)), tuple(blocks))


def serialize_json(u: AbstractUnital, name: str = "unital") -> str:
    blocks = [list(b) for b in u.all_blocks]
    return json.dumps({"name": name, "order": u.order, "points": u.num_points, "blocks": blocks}, indent=1)


def load_unital(path) -> AbstractUnital:
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # a FIFO or a device may block or never end
            raise ParseError("not a regular file")
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # drop a leading byte-order mark
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise ParseError(f"cannot read file: {e.strerror or e}") from None
    return parse_unital(text).validate()


def appendix_text() -> str:
    return resources.files("unitals.data").joinpath("appendix_order4.txt").read_text()


def appendix_digest() -> str:
    import hashlib
    return hashlib.sha256(appendix_text().encode()).hexdigest()


@lru_cache(maxsize=1)
def builtin_appendix_unital() -> AbstractUnital:
    """The embedded 65-point, 208-block unital of order 4."""
    if appendix_digest() != APPENDIX_SHA256:
        raise RuntimeError("embedded appendix dataset has drifted from its pinned hash")
    return parse_unital(appendix_text()).validate()
