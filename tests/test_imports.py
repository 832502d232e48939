"""What importing the package and the CLI loads, each in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_census_classifies_every_file_in_its_own_process(tmp_path):
    """Whatever UNITAL_THREADS says, the census calls `_census_worker` once
    per file, in sorted order, and starts no worker process."""
    from unitals.formats import serialize_json, serialize_text
    from unitals.hermitian import hermitian_unital

    h2 = hermitian_unital(2).unital
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "b.txt").write_text(serialize_text(h2, "h2"))
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
    assert int(out) == 19


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
    public name instead."""
    private = []
    for path in sorted(Path(SRC, "unitals").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "unitals"):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []
