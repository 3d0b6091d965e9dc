"""Every module of the package imports on its own.

The package's ``__init__`` imports none of its modules, so a circular or
missing import shows only when the faulty module is the first one imported.
Each module is therefore imported first, in a fresh interpreter that finds
the package only in ``src/``.
"""

from __future__ import annotations

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
