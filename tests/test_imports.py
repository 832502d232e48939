"""What importing the package and the CLI loads, each in a fresh interpreter."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
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
