"""Unital file formats and the embedded order-4 reference dataset.

Two interchange formats are supported, both with 1-based point ids:

* plain text: one block per line, comma- or space-separated integers,
  ``#`` starts a comment; the point count is the maximum id seen;
* JSON: an object with "order", "points" and "blocks" fields plus an
  optional "name".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .design import AbstractUnital, validate_unital

#: sha256 of the embedded appendix dataset; drift fails the golden tests
APPENDIX_SHA256 = "d14a0d8a3e9b1f58fabda9d49d7728c3f1f3c3ec7683f3161047c4f510fdfd58"


class ParseError(ValueError):
    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        self.reason = reason
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{reason}{where}")


@dataclass(frozen=True)
class UnitalFile:
    name: str
    order: int
    points: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self) -> AbstractUnital:
        return validate_unital(self.points, self.blocks)


def parse_unital(text: str, name: str = "unital") -> UnitalFile:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text, name)
    return _parse_text(text, name)


def _parse_json(text: str, name: str) -> UnitalFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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
    return UnitalFile(name=obj.get("name", name), order=order, points=points, blocks=blocks)


def _parse_text(text: str, name: str) -> UnitalFile:
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            ids = [int(x) for x in parts]
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", line=lineno) from None
        if min(ids) < 1:
            raise ParseError("point ids must be positive", line=lineno)
        blocks.append(tuple(ids))
    if not blocks:
        raise ParseError("no blocks found")
    points = max(max(b) for b in blocks)
    order = len(blocks[0]) - 1
    return UnitalFile(name=name, order=order, points=points, blocks=tuple(blocks))


def serialize_text(u: AbstractUnital, name: str = "unital") -> str:
    lines = [f"# {name}: order {u.order}, {u.num_points} points, {u.num_blocks} blocks"]
    lines.extend(" ".join(str(p) for p in blk) for blk in u.all_blocks)
    return "\n".join(lines) + "\n"


def serialize_json(u: AbstractUnital, name: str = "unital") -> str:
    blocks = [list(b) for b in u.all_blocks]
    return json.dumps({"name": name, "order": u.order, "points": u.num_points, "blocks": blocks}, indent=1)


def load_unital(path) -> AbstractUnital:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # drop a leading byte-order mark
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise ParseError(f"cannot read file: {e.strerror or e}") from None
    return parse_unital(text, name=str(path)).validate()


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
    return parse_unital(appendix_text(), name="appendix-order4").validate()
