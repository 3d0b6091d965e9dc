from __future__ import annotations

import tomllib
from pathlib import Path

import iotgraph

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert iotgraph.__version__ == project["version"]
