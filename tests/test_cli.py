from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import sqlite3
import subprocess
import sys

import pytest

from iotgraph import cli
from iotgraph.cli import build_parser, main
from iotgraph.model import ConfigError
from iotgraph.pipeline import analyze

from conftest import FEED_PATH, FIXTURES, load_fixture_config


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("IOTGRAPH_STORE", raising=False)


def test_subcommand_options_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(s for a in parser._actions for s in a.option_strings)
        for name, parser in sub.choices.items()
    }
    inputs = ["--config", "--help", "--overrides", "--store", "-h"]
    assert options == {
        "ingest": ["--help", "--store", "-h"],
        "scan": ["--help", "--store", "-h"],
        "model": inputs,
        "extract-apps": ["--config", "--help", "--strict", "-h"],
        "compile": sorted([*inputs, "--goals", "--out"]),
        "analyze": sorted([*inputs, "--fail-on-reachable", "--format", "--goals", "--out"]),
        "metrics": sorted([*inputs, "--goals"]),
        "synth": ["--devices", "--help", "--out", "--seed", "-h"],
    }


def test_ingest_reports_counts(tmp_path, capsys):
    store = str(tmp_path / "store.db")
    code = main(["ingest", "--store", store, str(FEED_PATH)])
    out = capsys.readouterr().out
    assert code == 0
    assert "20 records added, 0 skipped" in out
    assert "20 records (20 new, 0 skipped)" in out


def test_ingest_bad_feed_exits_4(tmp_path, capsys):
    store = str(tmp_path / "store.db")
    gz = gzip.compress(FEED_PATH.read_bytes(), mtime=0)
    feeds = {
        "bad.json": b"{not json",
        "truncated.json.gz": gz[: len(gz) // 2],
        "corrupt.json.gz": gz[:10] + bytes(b ^ 0xFF for b in gz[10:40]) + gz[40:],
        "bad-method.json.gz": b"\x1f\x8b\x09" + gz[3:],
        "latin1.json": '{"CVE_Items": ["caf\u00e9"]}'.encode("latin-1"),
        "directory": None,
    }
    for name, blob in feeds.items():
        feed = tmp_path / name
        if blob is None:
            feed.mkdir()
        else:
            feed.write_bytes(blob)
        code = main(["ingest", "--store", store, str(feed)])
        err = capsys.readouterr().err
        assert (name, code) == (name, 4)
        assert err.startswith(f"error: ingest failed for {feed}:"), err


def test_ingest_failing_write_exits_4_and_keeps_the_store(tmp_path, capsys):
    store = tmp_path / "store.db"
    assert main(["ingest", "--store", str(store), str(FEED_PATH)]) == 0
    conn = sqlite3.connect(store)
    conn.execute(
        "CREATE TRIGGER refuse BEFORE INSERT ON tokens WHEN NEW.cve_id = 'CVE-2020-8864' "
        "BEGIN SELECT RAISE(ABORT, 'refused'); END"
    )
    conn.close()
    before = store.read_bytes()
    capsys.readouterr()
    code = main(["ingest", "--store", str(store), str(FEED_PATH)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"error: ingest failed for {FEED_PATH}:") and "refused" in err
    assert store.read_bytes() == before


def test_ingest_feed_list_exits_4(tmp_path, capsys):
    store = str(tmp_path / "store.db")
    feed = tmp_path / "list.json"
    feed.write_text("[]")
    code = main(["ingest", "--store", store, str(feed)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ingest failed")


def test_scan_lists_matches(store_path, capsys):
    code = main(["scan", "--store", store_path, "D-Link Router"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D-Link Router: 1 match(es)" in out
    assert "CVE-2020-8864 [adjacent]" in out


def test_scan_store_from_environment(store_path, capsys, monkeypatch):
    monkeypatch.setenv("IOTGRAPH_STORE", store_path)
    code = main(["scan", "Arlo Basestation"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Arlo Basestation: 2 match(es)" in out


def test_no_store_anywhere_exits_2(capsys):
    code = main(["scan", "D-Link Router"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no CVE store given" in err


def test_missing_store_file_exits_3(tmp_path, capsys):
    code = main(["scan", "--store", str(tmp_path / "nope.db"), "D-Link Router"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize(
    ("command", "kind"),
    [
        pytest.param("scan", "directory", id="directory"),
        pytest.param("scan", "text file", id="text file"),
        pytest.param("ingest", "directory", id="ingest-directory"),
        pytest.param("ingest", "text file", id="ingest-text file"),
    ],
)
def test_unreadable_store_exits_3(tmp_path, capsys, command, kind):
    path = tmp_path / "store.db"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("not a database\n")
    arg = str(FEED_PATH) if command == "ingest" else "D-Link Router"
    code = main([command, "--store", str(path), arg])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: cannot open vulnerability store {path}:")
    assert path.is_dir() or path.read_text() == "not a database\n"


@pytest.mark.parametrize("kind", ["empty file", "other database"])
def test_file_without_store_tables_exits_3_and_is_left_alone(tmp_path, capsys, kind):
    path = tmp_path / "store.db"
    if kind == "empty file":
        path.touch()
    else:
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE notes (body TEXT)")
        conn.close()
    before = path.read_bytes()
    code = main(["scan", "--store", str(path), "D-Link Router"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {path} is not a vulnerability store")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.db"]


def test_scan_and_analyze_leave_the_store_file_unchanged(tmp_path, capsys):
    path = tmp_path / "store.db"
    assert main(["ingest", "--store", str(path), str(FEED_PATH)]) == 0
    os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    before = path.read_bytes()
    assert main(["scan", "--store", str(path), "D-Link Router"]) == 0
    code = main(["analyze", "--store", str(path), "--config", fixture_path("fig2"),
                 "--out", str(tmp_path / "run")])
    assert code in (0, 1)
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 1_000_000_000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run", "store.db"]


def test_model_prints_classification(store_path, capsys):
    code = main(["model", "--store", store_path, "--config", fixture_path("listing10")])
    out = capsys.readouterr().out
    assert code == 0
    assert (
        "CVE-2020-8864 @ dLinkRouter: precondition=adjacentLogically effect=root" in out
    )
    assert "vulProperty('CVE-2020-8864', wifiAdjacentLogically(wifi1), rootPrivilege(dLinkRouter))" in out


def test_model_applies_overrides_file(store_path, tmp_path, capsys):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(
        json.dumps({"CVE-2020-8864": {"precondition": "network", "effect": "dos"}})
    )
    code = main(
        [
            "model",
            "--store",
            store_path,
            "--config",
            fixture_path("listing10"),
            "--overrides",
            str(overrides),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "CVE-2020-8864 @ dLinkRouter: precondition=network effect=dos" in out


def test_model_rejects_malformed_overrides(store_path, tmp_path, capsys):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"CVE-2020-8864": {"verdict": "scary"}}))
    code = main(
        [
            "model",
            "--store",
            store_path,
            "--config",
            fixture_path("listing10"),
            "--overrides",
            str(overrides),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "model"])
@pytest.mark.parametrize(
    "entry",
    [{"effect": "explode"}, {"precondition": "teleport"}, {"effect": 5}, {"precondition": None}],
    ids=["unknown-effect", "unknown-precondition", "number", "null"],
)
def test_invalid_override_kind_exits_2(store_path, tmp_path, capsys, command, entry):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"CVE-2020-6007": entry}))
    argv = [command, "--store", store_path, "--config", fixture_path("fig2")]
    if command == "analyze":
        argv += ["--out", str(tmp_path / "run")]
    code = main(argv + ["--overrides", str(overrides)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: override for CVE-2020-6007:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "doc",
    [
        ["x"],
        {"CVE-2019-17098": "dos"},
        {"CVE-2019-17098": {"effekt": "dos"}},
        {"CVE-2019-17098": {"precondition": None}},
        {"CVE-2019-17098": {"effect": "network"}},
    ],
    ids=["list", "string-entry", "misspelt-key", "null-kind", "wrong-table"],
)
def test_cli_and_analyze_reject_the_same_overrides(store, store_path, tmp_path, capsys, doc):
    with pytest.raises(ConfigError) as info:
        analyze(load_fixture_config("system28"), store, overrides=doc)
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps(doc))
    argv = ["model", "--store", store_path, "--config", fixture_path("system28")]
    code = main(argv + ["--overrides", str(overrides)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {info.value} (in {overrides})\n"


def test_unmatched_override_id_warns_on_stderr(store_path, tmp_path):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(
        json.dumps({"CVE-9999-0001": {"effect": "dos"}, "CVE-2020-6007": {"effect": "dos"}})
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("IOTGRAPH_STORE", None)
    argv = ["model", "--store", store_path, "--config", fixture_path("fig2")]
    proc = subprocess.run(
        [sys.executable, "-m", "iotgraph.cli", *argv, "--overrides", str(overrides)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "WARNING iotgraph.pipeline: override for CVE-9999-0001 matches no CVE found "
        "on a device; ignored"
    ]
    assert "CVE-2020-6007 @ hueBridge: precondition=adjacentPhysically effect=dos" in proc.stdout


def test_malformed_goal_in_config_exits_2(store_path, tmp_path, capsys):
    doc = json.loads(pathlib.Path(fixture_path("fig2")).read_text())
    doc["goals"] = ["unlock(frontLock"]
    cfg = tmp_path / "home.json"
    cfg.write_text(json.dumps(doc))
    code = main(
        ["analyze", "--store", store_path, "--config", str(cfg), "--out", str(tmp_path / "run")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid config")
    assert "unlock(frontLock" in err


def test_missing_config_exits_2(store_path, capsys):
    code = main(["model", "--store", store_path, "--config", "/nonexistent.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config" in err


def test_invalid_config_exits_2(store_path, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"devices": [{"name": "X", "type": "ufo", "network": ["n"]}]}))
    code = main(["model", "--store", store_path, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid config" in err


@pytest.mark.parametrize("kind", ["config", "overrides"])
def test_file_that_is_not_utf8_exits_2(store_path, tmp_path, capsys, kind):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('"caf\u00e9"'.encode("latin-1"))
    if kind == "config":
        argv = ["extract-apps", "--config", str(latin1)]
    else:
        argv = ["model", "--store", store_path, "--config", fixture_path("fig2")]
        argv += ["--overrides", str(latin1)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read {kind} {latin1}:"), err


NETS = [{"name": "wifi1", "type": "wifi"}]
HUB = [{"name": "Hub", "type": "gateway", "network": ["wifi1"]}]


@pytest.mark.parametrize(
    "doc",
    [
        {"devices": 5},
        {"networks": 7},
        {"apps": 3},
        {"goals": {"g": 1}},
        {"attacker": {"radio_adjacent": None}},
        {"attacker": {"physical_access": 4}},
        {"networks": NETS, "devices": [{"name": "Hub", "type": "gateway", "network": [["x"]]}]},
        {"networks": NETS, "attacker": {"radio_adjacent": [["wifi1"]]}},
        {"networks": NETS, "devices": HUB, "attacker": {"physical_access": [{"d": "Hub"}]}},
        {"networks": NETS, "devices": [*HUB, {"name": "Lamp", "type": "bulb", "plugs_into": [1]}]},
    ],
    ids=[
        "devices-number",
        "networks-number",
        "apps-number",
        "goals-object",
        "radio-null",
        "physical-number",
        "device-network-list",
        "radio-entry-list",
        "physical-entry-object",
        "wiring-list",
    ],
)
def test_mistyped_config_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "home.json"
    cfg.write_text(json.dumps(doc))
    code = main(["extract-apps", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid config")


def test_extract_apps_prints_semantics(capsys):
    code = main(["extract-apps", "--config", fixture_path("hall_light")])
    out = capsys.readouterr().out
    assert code == 0
    assert "== Hall Light: Welcome Home" in out
    assert "conditional:  ('AND', ['someone comes home', 'the door opens'])" in out
    assert "tuple: ('AND'" in out
    assert "on(hueWifiBulb) :-" in out


def test_extract_apps_strict_exits_4_on_failure(tmp_path, capsys):
    cfg = tmp_path / "apps.json"
    cfg.write_text(
        json.dumps(
            {
                "devices": [{"name": "Desk Bulb", "type": "bulb", "network": ["wifi1"]}],
                "networks": [{"name": "wifi1", "type": "Wifi"}],
                "apps": [
                    {
                        "App name": "No Trigger",
                        "description": "Turn on the desk bulb.",
                        "device map": {"bulb": "Desk Bulb"},
                    }
                ],
            }
        )
    )
    assert main(["extract-apps", "--config", str(cfg)]) == 0
    capsys.readouterr()
    code = main(["extract-apps", "--config", str(cfg), "--strict"])
    out = capsys.readouterr().out
    assert code == 4
    assert "parse error:" in out


def _voice_apps_config(tmp_path, command):
    """A home with one voice app whose command is ``command`` and one good voice app."""

    cfg = tmp_path / "voice.json"
    cfg.write_text(
        json.dumps(
            {
                "devices": [
                    {"name": "Yale Doorlock", "type": "lock", "network": ["wifi1"]},
                    {"name": "Sonos Speaker", "type": "speaker", "network": ["wifi1"]},
                    {"name": "Smart Oven", "type": "oven", "network": ["wifi1"]},
                ],
                "networks": [{"name": "wifi1", "type": "Wifi"}],
                "apps": [
                    {
                        "App name": "Odd Command",
                        "description": f"Unlock the front door when the speaker hears {command}.",
                        "device map": {"lock": "Yale Doorlock", "speaker": "Sonos Speaker"},
                    },
                    {
                        "App name": "Voice Preheat",
                        "description": "Preheat the oven when the speaker hears preheat the oven.",
                        "device map": {"oven": "Smart Oven", "speaker": "Sonos Speaker"},
                    },
                ],
            }
        )
    )
    return str(cfg)


UNUSABLE_COMMANDS = pytest.mark.parametrize("command", ["???", "2 times"], ids=["symbols", "digit"])


@UNUSABLE_COMMANDS
def test_analyze_skips_a_voice_app_whose_command_is_no_identifier(
    store_path, tmp_path, capsys, command
):
    out_dir = tmp_path / "run"
    code = main(
        ["analyze", "--store", store_path, "--config", _voice_apps_config(tmp_path, command),
         "--out", str(out_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "apps bound: 1 (skipped 1)" in out
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["apps_bound"] == ["Voice Preheat"]
    [skipped] = manifest["apps_skipped"]
    assert skipped["app"] == "Odd Command"
    assert f"{command!r}" in skipped["reason"]
    assert "speakerHears(preheatTheOven)" in (out_dir / "program.pl").read_text()


@UNUSABLE_COMMANDS
def test_extract_apps_reports_a_voice_command_that_is_no_identifier(tmp_path, capsys, command):
    cfg = _voice_apps_config(tmp_path, command)
    assert main(["extract-apps", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("parse error:") == 1
    assert "speakerHears(preheatTheOven)" in out
    assert main(["extract-apps", "--config", cfg, "--strict"]) == 4
    assert "parse error: voice trigger" in capsys.readouterr().out


def test_compile_to_stdout(store_path, capsys):
    code = main(["compile", "--store", store_path, "--config", fixture_path("listing10")])
    out = capsys.readouterr().out
    assert code == 0
    assert "% ==== facts: system configuration ====" in out
    assert "router(dLinkRouter)." in out


def test_compile_to_file_with_goals(store_path, tmp_path, capsys):
    out_file = tmp_path / "program.pl"
    code = main(
        [
            "compile",
            "--store",
            store_path,
            "--config",
            fixture_path("listing10"),
            "--out",
            str(out_file),
            "--goals",
            "attackerRoot(dLinkRouter)",
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert f"wrote {out_file}" in stdout
    assert "attackGoal(attackerRoot(dLinkRouter))." in out_file.read_text()


def test_bad_goal_atom_exits_2(store_path, capsys):
    code = main(
        [
            "compile",
            "--store",
            store_path,
            "--config",
            fixture_path("listing10"),
            "--goals",
            "not an atom(",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "bad goal" in err


def test_analyze_writes_outputs(store_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        [
            "analyze",
            "--store",
            store_path,
            "--config",
            fixture_path("fig2"),
            "--out",
            str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "goal unlock(yaleDoorlock): REACHABLE depth 14" in out
    for name in ("program.pl", "attack_graph.json", "attack_graph.dot",
                 "metrics_report.txt", "run_manifest.json"):
        assert (out_dir / name).exists(), name


@pytest.mark.parametrize(
    ("command", "out", "existing", "what"),
    [
        pytest.param("analyze", "file", "file", "not a directory", id="file"),
        pytest.param("analyze", "file/run", "file", "not a directory", id="file/run"),
        pytest.param("compile", "dir", "dir", "a directory", id="compile-dir"),
        pytest.param("compile", "file/x.pl", "file", "not a directory", id="compile-file/x.pl"),
        pytest.param("synth", "dir", "dir", "a directory", id="synth-dir"),
        pytest.param("synth", "file/x.json", "file", "not a directory", id="synth-file/x.json"),
    ],
)
def test_analyze_out_under_a_file_exits_2_before_analysing(
    store_path, tmp_path, capsys, monkeypatch, command, out, existing, what
):
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()

    def work(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("analyze", "scan_devices", "render_synth"):
        monkeypatch.setattr(cli, name, work)
    if command == "synth":
        argv = ["synth", "--devices", "10"]
    else:
        argv = [command, "--store", store_path, "--config", fixture_path("fig2")]
    code = main(argv + ["--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"error: cannot write outputs to {tmp_path / out}: {tmp_path / existing} is {what}\n"
    )
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("command", ["compile", "synth"])
def test_out_file_makes_missing_parent_directories(store_path, tmp_path, capsys, command):
    out = tmp_path / "missing" / "deeper" / "out.txt"
    if command == "synth":
        argv = ["synth", "--devices", "10"]
    else:
        argv = [command, "--store", store_path, "--config", fixture_path("fig2")]
    code = main(argv + ["--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    main(argv)
    assert out.read_text() == capsys.readouterr().out


def test_analyze_fail_on_reachable(store_path, tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--store",
            store_path,
            "--config",
            fixture_path("fig2"),
            "--out",
            str(tmp_path / "run"),
            "--fail-on-reachable",
        ]
    )
    capsys.readouterr()
    assert code == 1


def test_analyze_text_format(store_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        [
            "analyze",
            "--store",
            store_path,
            "--config",
            fixture_path("system28"),
            "--out",
            str(out_dir),
            "--format",
            "text",
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "attack_graph.txt").exists()
    assert not (out_dir / "attack_graph.dot").exists()


def test_metrics_prints_report(store_path, capsys):
    code = main(["metrics", "--store", store_path, "--config", fixture_path("fig2")])
    out = capsys.readouterr().out
    assert code == 0
    assert "cve universe:" in out
    assert "goal unlock(yaleDoorlock) (depth 14)" in out


def test_synth_prints_config(capsys):
    code = main(["synth", "--devices", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["devices"]) == 10


def test_synth_to_file(tmp_path, capsys):
    out_file = tmp_path / "synth.json"
    code = main(["synth", "--devices", "12", "--seed", "1", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert len(json.loads(out_file.read_text())["devices"]) == 12


def test_synth_too_small_exits_2(capsys):
    code = main(["synth", "--devices", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "synthesis failed" in err
