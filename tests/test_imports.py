"""Every module of the package imports on its own, and uses what it imports.

The package's ``__init__`` imports none of its modules, so a circular or
missing import shows only when the faulty module is the first one imported.
Each module is therefore imported first, in a fresh interpreter that finds
the package only in ``src/``. A name a module imports at top level and never
reads is left over from code that went; an import kept on purpose says so
with ``# noqa`` on its line.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iotgraph

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "iotgraph").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    code = f"import iotgraph.{module}, iotgraph; print(iotgraph.__version__)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{iotgraph.__version__}\n"


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports at top level and never reads, but on ``# noqa`` lines."""

    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_every_top_level_import_is_used():
    paths = sorted((SRC / "iotgraph").glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import (\n    dumps,\n    loads,\n)\n"
        "from re import compile as kept  # noqa: F401\n"
        "import sys as system\n"
        "print(os.sep, loads)\n"
    )
    assert _unused_imports(module) == ["module.py:3: dumps", "module.py:8: system"]
