"""Smoke tests for the scripts under scripts/: each runs end to end on small inputs.

The scripts run in this process, and as fresh processes without ``PYTHONPATH``,
as from a checkout where the package is not installed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    assert [row[0] for row in rows if row and row[0].isdigit()] == ["40", "80"]
    assert all(len(row) == 6 + len(script.STAGES) for row in rows if row and row[0].isdigit())
    summary = json.loads(lines[-1])
    assert [row["devices"] for row in summary["rows"]] == [40, 80]
    assert all(set(row["stages_s"]) == set(script.STAGES) for row in summary["rows"])
    assert all(row["write_s"] > 0 for row in summary["rows"])
    assert all(row["best_ref"] > 0 for row in summary["rows"])
    # Both in the units of the same reference time.
    for row in summary["rows"]:
        assert row["write_ref"] == pytest.approx(row["write_s"] * row["best_ref"] / row["best_s"])
    assert all(row["gc_s"] >= 0 for row in summary["rows"])
    assert all(row["tracked_objects"] > 0 for row in summary["rows"])


def test_run_scaling_ingests_a_synthetic_feed(capsys):
    script = load_script("run_scaling")
    argv = ["--sizes", "40", "--repeats", "1", "--seed", "3"]
    assert script.main(argv) == 0
    bundled = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert script.main([*argv, "--cves-per-product", "2"]) == 0
    dense = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (bundled["cves_per_product"], dense["cves_per_product"]) == (None, 2)
    # Two CVEs for every catalog product reach more of the home than the
    # bundled feed, which matches few of the synthetic products.
    assert dense["rows"][0]["graph_nodes"] > bundled["rows"][0]["graph_nodes"]


# Each argument run_scaling refuses, with what its usage error names.
REFUSED = {
    "no-sizes": (["--sizes", ""], "sizes must list at least one size"),
    "only-commas": (["--sizes", ","], "sizes must list at least one size"),
    "size-below-two": (["--sizes", "10,1"], "every size must be at least 2"),
    "size-not-an-integer": (["--sizes", "x"], "sizes must be integers"),
    "size-listed-twice": (["--sizes", "10,10"], "each size may be listed once"),
    "no-repeats": (["--repeats", "0"], "argument --repeats"),
    "no-cves": (["--cves-per-product", "0"], "argument --cves-per-product"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(), ids=REFUSED.keys())
def test_run_scaling_refuses_bad_arguments(argv, message, capsys):
    script = load_script("run_scaling")
    with pytest.raises(SystemExit) as refused:
        script.main(argv)
    assert refused.value.code == 2
    out, err = capsys.readouterr()
    # Refused before any work: no store built, no row printed.
    assert out == ""
    assert message in err


# Each --fixtures value run_case_studies refuses, with what its usage error names.
REFUSED_FIXTURES = {
    "unknown": (["--fixtures", "nosuch"], "unknown fixture 'nosuch'"),
    "the-feed": (["--fixtures", "mini_feed"], "unknown fixture 'mini_feed'"),
    "no-fixtures": (["--fixtures", ""], "fixtures must list at least one fixture"),
    "listed-twice": (["--fixtures", "fig2,fig2"], "each fixture may be listed once"),
}


@pytest.mark.parametrize("argv, message", REFUSED_FIXTURES.values(), ids=REFUSED_FIXTURES.keys())
def test_run_case_studies_refuses_bad_arguments(argv, message, capsys):
    script = load_script("run_case_studies")
    with pytest.raises(SystemExit) as refused:
        script.main(argv)
    assert refused.value.code == 2
    out, err = capsys.readouterr()
    # Refused before any work: no store built, no fixture analysed.
    assert out == ""
    assert message in err


def _run_plain(script: str, *argv: str, cwd) -> subprocess.CompletedProcess:
    """Run a script as a fresh process from outside the checkout, with no PYTHONPATH."""

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_from_a_plain_checkout(tmp_path):
    cases = _run_plain("run_case_studies", "--fixtures", "fig2", cwd=tmp_path)
    assert cases.returncode == 0, cases.stderr
    assert cases.stdout.startswith("==== fig2 ")
    scaling = _run_plain("run_scaling", "--sizes", "10", "--repeats", "1", cwd=tmp_path)
    assert scaling.returncode == 0, scaling.stderr
    assert [row["devices"] for row in json.loads(scaling.stdout.splitlines()[-1])["rows"]] == [10]


def test_run_case_studies_ends_quietly_when_its_reader_closes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # Unbuffered, so the first line arrives while four fixtures are still to run.
    env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, str(SCRIPTS / "run_case_studies.py"), "--out", str(tmp_path / "out")]
    with subprocess.Popen(
        argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        assert child.stdout.readline().startswith("==== listing10 ")
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert "Traceback" not in err
    assert code == 1


def test_run_scaling_ends_quietly_when_its_reader_closes(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # Unbuffered, so the header arrives while three sizes are still to run.
    env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, str(SCRIPTS / "run_scaling.py"), "--sizes", "10,20,40"]
    argv += ["--repeats", "1"]
    with subprocess.Popen(
        argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        assert child.stdout.readline().split()[0] == "devices"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert "Traceback" not in err
    assert code == 1
