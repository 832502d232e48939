"""What importing the package and the CLI loads, each in a fresh interpreter,
and the named-tuple records that keep `dataclasses` out of it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import block_list_text

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run(code: str, **env_vars: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])), **env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_module_that_only_some_commands_run():
    out = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import unitals.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = out.split()
    assert "unitals.census" in loaded
    for module in ("unitals.hermitian", "unitals.nets", "unitals.gf", "unitals.plane", "hashlib", "concurrent.futures"):
        assert module not in loaded


def test_cli_import_loads_no_dataclasses_beyond_click():
    """Every record of the package is a named tuple, so the CLI needs
    `dataclasses` only if click does."""
    out = _run(
        "import sys, click\n"
        "before = set(sys.modules)\n"
        "import unitals.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    assert "unitals.formats" in out.split() and "dataclasses" not in out.split()


def test_no_module_imports_dataclasses():
    imports = []
    for path in sorted(Path(SRC, "unitals").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "dataclasses":
                imports.append(f"{path.name}: from {node.module}")
    assert imports == []


def test_records_keep_their_fields_and_refuse_assignment(h2):
    from unitals.census import analyze_pair, classify_unital
    from unitals.formats import appendix_text, parse_unital
    from unitals.nets import LatinSquare

    pair = next(h2.unital.disjoint_block_pairs())
    records = [
        (parse_unital(appendix_text()), ("points", "blocks")),
        (LatinSquare(2, ((0, 1), (1, 0))), ("m", "rows")),
        (h2, ("plane", "unital", "point_coords", "line_coords")),
        (analyze_pair(h2.unital, *pair)[1], ("full_point_count", "group_order", "group_name", "fp_structure", "fpr", "sfpr")),
        (classify_unital(h2.unital), ("order", "pair_kinds", "is_fpr", "is_sfpr")),
    ]
    for record, fields in records:
        assert record._fields == fields
        for name in (fields[0], "new_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def _tracing():
    """`perfbench/tracing.py`, loaded without installing the tracer."""
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(SRC, os.pardir, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_trace_target_exists():
    """Each `TARGETS` entry of `perfbench/tracing.py`, read without installing
    the tracer, names a callable `module` attribute or `Class.attr` in it."""
    tracing = _tracing()
    missing = []
    for name, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert len(tracing.TARGETS) > 20 and missing == []


def test_every_public_function_in_src_has_a_caller_beyond_the_tests():
    """Each public function or method that `src/unitals` defines is named in
    `src/unitals` beyond its own `def`, in the README's library tour, or as
    the last part of a `TARGETS` entry of `perfbench/tracing.py`, or it is a
    `@main.command`; a name that only the tests call does not belong in the
    package, and an export in `unitals.__all__` is not a use.
    `GaloisField.is_in_subfield` stays for the non-classical embedded
    unitals that ROADMAP plans.  A use is matched by name alone, so a method
    named like a common attribute (a `points()` method, beside the many
    `.points` fields) would pass unseen."""
    from test_readme import library_tour

    tracing = _tracing()
    kept = {attr.split(".")[-1] for _, _, attr, _ in tracing.TARGETS}
    kept |= {node.id for node in ast.walk(ast.parse(library_tour())) if isinstance(node, ast.Name)}
    defined, named = [], set()
    for path in sorted(Path(SRC, "unitals").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        qualname
        for qualname, f in defined
        if not f.name.startswith("_")
        and f.name not in named | kept
        and not any(ast.unparse(d).startswith("main.command") for d in f.decorator_list)
    ]
    assert unused == ["GaloisField.is_in_subfield"]


def test_census_classifies_every_file_in_its_own_process(tmp_path):
    """Whatever UNITAL_THREADS says, the census calls `_census_worker` once
    per file, in sorted order, and starts no worker process."""
    from unitals.formats import serialize_json
    from unitals.hermitian import hermitian_unital

    h2 = hermitian_unital(2).unital
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "b.txt").write_text(block_list_text(h2, "h2"))
    (lib / "a.json").write_text(serialize_json(h2, "h2"))
    (lib / "c.txt").write_text("1 2 3\n")
    out = _run(
        "import os, sys\n"
        "import unitals.cli as cli\n"
        "seen, real = [], cli._census_worker\n"
        "cli._census_worker = lambda path: seen.append(os.path.basename(path)) or real(path)\n"
        "try:\n"
        f"    cli.main(['census', {str(lib)!r}, '--out', {str(tmp_path / 'census')!r}])\n"
        "except SystemExit as e:\n"
        "    print(e.code)\n"
        "print(*seen)\n"
        "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n",
        UNITAL_THREADS="2",
    )
    summary, code, seen, loaded = out.splitlines()
    assert summary.endswith("(1 file(s) skipped)") and "census of 2 unital(s)" in summary
    assert code == "0"
    assert seen == "a.json b.txt c.txt"
    assert loaded == "False False"


def test_star_import_binds_each_public_name_to_its_definition():
    out = _run(
        "import sys, unitals\n"
        "from unitals import *\n"
        "for name in unitals.__all__:\n"
        "    obj = globals()[name]\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    assert vars(unitals)[name] is obj, name\n"
        "print(len(unitals.__all__))\n"
    )
    assert int(out) == 18


def test_unknown_name_raises_attribute_error():
    out = _run(
        "import unitals\n"
        "try:\n"
        "    unitals.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert "no_such_name" in out


def test_a_wrapper_on_the_module_is_not_kept_in_the_package():
    """A name first used while its module attribute is wrapped (as a tracer
    or a monkeypatch does) resolves to the wrapper then, and to the
    module's own object once the wrapper is removed."""
    out = _run(
        "import unitals, unitals.nets as nets\n"
        "original = nets.find_dual_3nets\n"
        "nets.find_dual_3nets = lambda u: ()\n"
        "assert unitals.find_dual_3nets is nets.find_dual_3nets\n"
        "nets.find_dual_3nets = original\n"
        "assert unitals.find_dual_3nets is original and vars(unitals)['find_dual_3nets'] is original\n"
        "print('ok')\n"
    )
    assert out.strip() == "ok"


def test_no_module_imports_a_private_name_of_another_unitals_module():
    """A `_` name is its module's own: another module that needs it needs a
    public name instead.  That holds for `from .m import _x` and for
    `m._x` on a sibling module bound by `from . import m`; a named tuple's
    own `_` methods and fields are public."""
    namedtuple_api = {"_replace", "_make", "_fields", "_asdict"}
    private = []
    for path in sorted(Path(SRC, "unitals").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "unitals"):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
                if node.module in (None, "unitals"):  # `from . import m`: the names are modules
                    siblings.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and node.attr not in namedtuple_api
            ):
                private.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert private == []
