"""The top-level API matches what the README and the demos import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import bsrnnlite

ROOT = Path(__file__).resolve().parent.parent


def _documented_imports():
    """``(source, name)`` for every ``from bsrnnlite import name`` in README.md and demos/."""
    sources = [(f"README.md block {i}", block) for i, block in enumerate(
        re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S))]
    sources += [(path.name, path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    for where, code in sources:
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module == "bsrnnlite":
                yield from ((where, alias.name) for alias in node.names)


def test_documented_imports_are_exported():
    found = list(_documented_imports())
    assert found, "no `from bsrnnlite import ...` found in README.md or demos/"
    missing = sorted({f"{where}: {name}" for where, name in found if name not in bsrnnlite.__all__})
    assert not missing, missing


def test_every_exported_name_resolves():
    assert len(set(bsrnnlite.__all__)) == len(bsrnnlite.__all__)
    assert [name for name in bsrnnlite.__all__ if not hasattr(bsrnnlite, name)] == []


def test_import_loads_no_scipy_special():
    # the kernels need numpy only; scipy.special alone took most of the cold import,
    # and scipy.io (sparse, matlab) is loaded only by the first wav read or write
    env = dict(os.environ, PYTHONPATH=str(Path(bsrnnlite.__file__).resolve().parent.parent))
    code = "import sys, bsrnnlite.cli; print('scipy.special' in sys.modules, 'scipy.io' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False False"
