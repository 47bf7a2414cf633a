"""The runtime needs only the standard library, and the oracles are
independent of the package.

The first test runs a fresh interpreter in which every top-level module
outside sys.stdlib_module_names (ffba itself excepted) fails to import,
then imports ffba and ffba.cli and runs one `ffba expand`.  Third-party
packages installed next to the tests would otherwise hide a stray import.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCKED_RUN = r"""
import sys


class Block:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "ffba" and top not in sys.stdlib_module_names:
            raise ImportError(f"blocked non-stdlib import {name!r}")


sys.meta_path.insert(0, Block())
try:
    import hypothesis  # noqa: F401 -- installed for the tests, so it proves the block works
except ImportError:
    pass
else:
    sys.exit("the import block let a third-party package through")
import ffba
import ffba.cli

assert ffba.__file__.startswith(sys.argv[1]), ffba.__file__
sys.exit(ffba.cli.main(["expand", "--q", "2", "--num", "[1]", "--den", "[1,1,1]",
                        "--format", "json"]))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", BLOCKED_RUN, src], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert '"period": 3' in run.stdout


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [m for m in imported if m.partition(".")[0] == "ffba"] == []
