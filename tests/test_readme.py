"""The README's library tour runs as written, so a renamed or deleted public
name fails here instead of leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    """The README's one python block."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    return tour


def test_readme_library_tour_runs():
    ns: dict = {}
    exec(compile(library_tour(), str(README), "exec"), ns)
    assert ns["fp"] == (30, 31, 35, 46, 48)
    assert ns["structure_name"](ns["g"]) == "S5"
    assert len(ns["nets"]) == 86 and (1, 33, 200) in ns["nets"]
    assert ns["is_group_based"](ns["sq"]) is None
    assert ns["report"].is_sfpr
