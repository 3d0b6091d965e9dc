from __future__ import annotations

import re
from pathlib import Path

import iotgraph

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # A regular expression rather than tomllib, which Python 3.10 lacks.
    project = PYPROJECT.read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [iotgraph.__version__]
