"""Smoke tests for the scripts under scripts/: each runs end to end on small inputs."""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_case_studies_prints_each_fixture(capsys):
    script = load_script("run_case_studies")
    assert script.main(["--fixtures", "listing10,fig2"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines() if line.startswith("==== ")] == [
        "listing10",
        "fig2",
    ]


def test_run_scaling_prints_one_row_per_size(capsys):
    script = load_script("run_scaling")
    assert script.main(["--sizes", "40,80", "--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows if row and row[0].isdigit()] == ["40", "80"]
