from __future__ import annotations

import gc
import json
import logging
import sys
import threading
import weakref

import pytest

import oracles
from iotgraph import exploits, metrics, pipeline
from iotgraph.cvestore import CveStore, keyword_set, tokenize
from iotgraph.exploits import models_for
from iotgraph.rules import config_facts
from iotgraph.logic import LogicProgram, parse_atom
from iotgraph.model import ConfigError, SystemConfig, parse_config
from iotgraph.pipeline import (
    DeviceFinding,
    analyze,
    bind_apps,
    render_summary,
    scan_devices,
    write_outputs,
)
from iotgraph.reasoner import saturate
from iotgraph.synth import synth_document, synthesize

from conftest import FIXTURE_NAMES, SYNTH_HOMES, load_fixture_config
from tables import build_models


@pytest.fixture(scope="module")
def fig2_result(fig2_config, store):
    return analyze(fig2_config, store)


def test_scan_finds_only_devices_with_cves(fig2_config, store):
    findings = scan_devices(fig2_config, store)
    by_atom = {f.device: {r.cve_id for r in f.records} for f in findings}
    assert "yaleDoorlock" not in by_atom
    assert by_atom["hueBridge"] == {"CVE-2020-6007"}
    assert by_atom["augustWifiBridge"] == {"CVE-2019-17098"}


def test_analyze_reaches_the_lock_goal(fig2_result):
    goal = parse_atom("unlock(yaleDoorlock)")
    results = {r.goal: r for r in fig2_result.goal_results}
    assert results[goal].reachable
    assert results[goal].depth == 14
    assert results[goal].trace is not None
    assert results[goal].patch.verdict == "blocked"
    assert fig2_result.any_reachable


def test_analyze_binds_every_fig2_app(fig2_result):
    assert [b.app.name for b in fig2_result.bound_apps] == [
        "Voice Unlock",
        "Voice Preheat",
        "Fire Door Release",
    ]
    assert fig2_result.skipped_apps == ()


def test_analyze_records_stage_timings(fig2_result):
    assert set(fig2_result.timings) == {
        "scan",
        "classify",
        "apps",
        "compile",
        "reason",
        "metrics",
    }


def test_analyze_defaults_to_attacker_privilege_goals(listing10_config, store):
    result = analyze(listing10_config, store)
    assert len(result.models) == 5
    assert len(result.goal_results) == 10
    assert all(r.reachable for r in result.goal_results)
    preds = {r.goal.pred for r in result.goal_results}
    assert preds == {
        "attackerRoot",
        "attackerDeviceControl",
        "attackerCommandInjection",
        "attackerEventAccess",
        "attackerInNetwork",
    }


def test_analyze_accepts_extra_goals(listing10_config, store):
    extra = parse_atom("attackerAdjacentPhysically(zigbee1)")
    result = analyze(listing10_config, store, extra_goals=(extra,))
    results = {r.goal: r for r in result.goal_results}
    assert extra in results
    assert results[extra].reachable


def test_overrides_replace_the_classified_model(listing10_config, store):
    overrides = {"CVE-2020-8864": {"precondition": "network", "effect": "dos"}}
    result = analyze(listing10_config, store, overrides=overrides)
    models = [m for m in result.models if m.cve_id == "CVE-2020-8864"]
    assert len(models) == 1
    assert models[0].precondition == "network"
    assert models[0].effect == "dos"


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        (
            {"CVE-2019-17098": {"effekt": "dos"}},
            "override for CVE-2019-17098 must be an object with precondition/effect keys",
        ),
        (
            {"CVE-2019-17098": "dos"},
            "override for CVE-2019-17098 must be an object with precondition/effect keys",
        ),
        (["x"], "overrides must be a JSON object keyed by CVE id"),
        (
            {"CVE-2019-17098": {"precondition": None}},
            "override for CVE-2019-17098: precondition must be one of "
            + ", ".join(exploits.PRECONDITION_KINDS)
            + ", not None",
        ),
    ],
    ids=["misspelt-key", "string-entry", "list", "null-kind"],
)
def test_analyze_rejects_malformed_overrides(system28_config, store, overrides, message):
    found = {r.cve_id for f in scan_devices(system28_config, store) for r in f.records}
    assert "CVE-2019-17098" in found
    with pytest.raises(ConfigError) as info:
        analyze(system28_config, store, overrides=overrides)
    assert str(info.value) == message


def test_bind_apps_skips_unparseable_descriptions():
    cfg = parse_config(
        {
            "devices": [
                {"name": "Desk Bulb", "type": "bulb", "network": ["wifi1"]},
                {"name": "Door Sensor", "type": "contact-sensor", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
            "apps": [
                {
                    "App name": "No Trigger",
                    "description": "Turn on the desk bulb.",
                    "device map": {"bulb": "Desk Bulb"},
                },
                {
                    "App name": "Works",
                    "description": "Turn on the desk bulb when the door opens.",
                    "device map": {"bulb": "Desk Bulb", "contact sensor": "Door Sensor"},
                },
            ],
        },
        source="test",
    )
    bound, skipped = bind_apps(cfg)
    assert [b.app.name for b in bound] == ["Works"]
    assert len(skipped) == 1
    assert skipped[0][0] == "No Trigger"
    assert skipped[0][1]


def test_wifi_access_is_granted_only_through_the_router_on_that_network(store):
    """A network-vector wifiAccess vulProperty does not name its device.

    Both routers carry the CVE, so the program holds
    ``vulExists(dLinkRouter2, C)`` and ``vulProperty(C, network,
    wifiAccess(homeWifi))``. Joining those two generically, as the exploit
    schemas read, would grant the home network through the guest router.
    """

    config = parse_config(
        {
            "devices": [
                {"name": "D-Link Router", "type": "router", "network": ["home wifi"]},
                {"name": "D-Link Router 2", "type": "router", "network": ["guest wifi"]},
            ],
            "networks": [
                {"name": "home wifi", "type": "Wifi"},
                {"name": "guest wifi", "type": "Wifi"},
            ],
            "goals": ["attackerInNetwork(homeWifi)", "attackerInNetwork(guestWifi)"],
        },
        source="test",
    )
    overrides = {"CVE-2020-8864": {"precondition": "network", "effect": "wifiAccess"}}
    result = analyze(config, store, overrides=overrides)
    facts = {a.render() for a in result.compiled.program.facts}
    assert "vulExists(dLinkRouter2, 'CVE-2020-8864')" in facts
    assert "vulProperty('CVE-2020-8864', network, wifiAccess(homeWifi))" in facts
    graph = result.graph
    for network, router in (("homeWifi", "dLinkRouter"), ("guestWifi", "dLinkRouter2")):
        node = graph.goal_nodes[parse_atom(f"attackerInNetwork({network})")]
        labels = [
            graph.node(p).text for p in graph.parents[node]
            if graph.node(p).text.startswith("exploit ")
        ]
        assert labels == [f"exploit CVE-2020-8864 @ {router}"]


def test_bind_apps_skips_unbindable_device_maps():
    cfg = parse_config(
        {
            "devices": [
                {"name": "Desk Bulb", "type": "bulb", "network": ["wifi1"]},
                {"name": "Door Sensor", "type": "contact-sensor", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
            "apps": [
                {
                    "App name": "Bad Map",
                    "description": "Turn on the desk bulb when the door opens.",
                    "device map": {"bulb": "Desk Bulb"},
                },
            ],
        },
        source="test",
    )
    bound, skipped = bind_apps(cfg)
    assert bound == []
    assert skipped[0][0] == "Bad Map"


def test_write_outputs_dot_format(fig2_result, tmp_path):
    written = write_outputs(fig2_result, tmp_path)
    names = [p.name for p in written]
    assert names == [
        "program.pl",
        "attack_graph.json",
        "attack_graph.dot",
        "metrics_report.txt",
        "run_manifest.json",
    ]
    for p in written:
        assert p.exists() and p.stat().st_size > 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["devices"] == 6
    assert manifest["apps_bound"] == ["Voice Unlock", "Voice Preheat", "Fire Door Release"]
    assert "CVE-2020-6007" in manifest["cve_hits"]
    assert manifest["goals"][0]["goal"] == "unlock(yaleDoorlock)"
    assert manifest["goals"][0]["reachable"] is True
    assert set(manifest["timings"]) == set(fig2_result.timings)
    doc = json.loads((tmp_path / "attack_graph.json").read_text())
    assert doc == oracles.graph_document(fig2_result.graph)


@pytest.mark.parametrize("home", [*FIXTURE_NAMES, *SYNTH_HOMES], ids=str)
def test_attack_graph_json_is_what_json_dumps_prints(home, store):
    config = load_fixture_config(home) if isinstance(home, str) else synthesize(*home)
    graph = analyze(config, store).graph
    assert graph.to_json() == json.dumps(oracles.graph_document(graph), indent=2) + "\n"


def test_analyze_and_write_compute_each_metric_once(fig2_config, store, tmp_path, monkeypatch):
    calls = {"attack_evidence": 0, "node_depths": 0, "device": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("attack_evidence", "node_depths"):
        monkeypatch.setattr(metrics, name, counted(name, getattr(metrics, name)))
    monkeypatch.setattr(SystemConfig, "device", counted("device", SystemConfig.device))
    result = analyze(fig2_config, store)
    assert result.models
    write_outputs(result, tmp_path)
    assert calls == {"attack_evidence": 1, "node_depths": 1, "device": 0}


def test_write_outputs_text_format(fig2_result, tmp_path):
    written = write_outputs(fig2_result, tmp_path, graph_format="text")
    names = [p.name for p in written]
    assert "attack_graph.txt" in names
    assert "attack_graph.dot" not in names
    text = (tmp_path / "attack_graph.txt").read_text()
    assert "goal unlock(yaleDoorlock): reachable" in text


@pytest.mark.parametrize("graph_format", ["svg", "DOT", ""])
def test_write_outputs_refuses_other_formats_before_writing(fig2_result, tmp_path, graph_format):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="graph_format"):
        write_outputs(fig2_result, out, graph_format=graph_format)
    assert not out.exists()


def test_render_summary_one_line_per_goal(fig2_result):
    summary = render_summary(fig2_result)
    assert "devices: 6" in summary
    assert "goal unlock(yaleDoorlock): REACHABLE depth 14" in summary


def test_render_summary_marks_unreachable(system28_config, store):
    result = analyze(system28_config, store, extra_goals=(parse_atom("unlock(ghostLock)"),))
    summary = render_summary(result)
    assert "goal open(windowOpener): REACHABLE" in summary
    assert "goal unlock(ghostLock): unreachable" in summary


# system28's antichains never hold more than one mask, so the valve cannot
# fire there; fig2 at cap 1 and listing10 at caps 1 and 2 make it fire.
@pytest.mark.parametrize(("name", "cap"), [("fig2", 1), ("listing10", 1), ("listing10", 2)])
def test_evidence_valve_marks_goals_and_keeps_plans_sound(name, cap, store, monkeypatch):
    config = load_fixture_config(name)
    exact = analyze(config, store)
    monkeypatch.setattr(metrics, "EVIDENCE_CAP", cap)
    result = analyze(config, store)
    assert result.evidence.approximate
    assert all(len(tags) <= cap for tags in result.evidence.tags.values())
    assert not all(r.exact for r in result.goal_results)

    program = result.compiled.program
    blocked = 0
    for r, ref in zip(result.goal_results, exact.goal_results):
        node = result.graph.goal_nodes[r.goal]
        if r.exact:
            assert result.evidence.tags[node] == exact.evidence.tags[node]
        # Every real combination still contains a stored one.
        stored = result.evidence.tags[node]
        assert all(any(s & t == s for s in stored) for t in exact.evidence.tags[node])
        if r.patch.verdict == "blocked":
            blocked += 1
            kept = tuple(
                f for f in program.facts if not (f.pred == "vulExists" and f.args[1] in r.patch.cves)
            )
            assert r.goal not in saturate(LogicProgram(facts=kept, rules=program.rules)).derived
    assert blocked

    for run, marked in ((result, True), (exact, False)):
        report = metrics.render_report(run.graph, run.evidence, run.goal_results)
        assert ("(approximate)" in report) == marked
        assert ("(approximate)" in render_summary(run)) == marked


# Per-device scan and classify as they were before each keyword tuple was
# searched once and each (record, protocols) pair classified once; the
# memoized stages must give the same findings and models in the same order.
def reference_scan_devices(config, store):
    """Per device, the records whose description holds every keyword of its name.

    Reads every record and matches in Python, so it shares no query with
    the store.
    """

    records = [
        (set(tokenize(r.description)), r)
        for r in sorted(store.all_records(), key=lambda r: r.cve_id)
    ]
    findings = []
    for d in config.devices:
        keywords = keyword_set(d.name)
        hits = tuple(r for tokens, r in records if keywords and tokens.issuperset(keywords))
        if hits:
            findings.append(DeviceFinding(device=d.atom, records=hits))
    return findings


def reference_build_models(config, findings, overrides=None):
    networks = config.network_index()
    devices = config.device_index()
    table, _ = config_facts(config)
    out = []
    for finding in findings:
        device = devices[finding.device]
        protocols = tuple(networks[n].protocol for n in device.networks)
        for record in finding.records:
            entry = (overrides or {}).get(record.cve_id, {})
            kinds = (
                entry.get("precondition") or exploits.classify_precondition(record, protocols),
                entry.get("effect") or exploits.classify_effect(record),
            )
            out.extend(models_for(device, record, protocols, kinds, table))
    found = {record.cve_id for finding in findings for record in finding.records}
    for cve_id in sorted((overrides or {}).keys() - found):
        logging.getLogger("iotgraph.pipeline").warning(
            "override for %s matches no CVE found on a device; ignored", cve_id
        )
    return out


def some_overrides(findings):
    """Overrides for a spread of the found CVEs plus one id nothing matches."""

    ids = sorted({r.cve_id for f in findings for r in f.records})
    entries = (
        {"precondition": "physical"},
        {"effect": "wifiAccess"},
        {"precondition": "adjacentLogically", "effect": "dos"},
        {},
    )
    overrides = {cve: entries[i % len(entries)] for i, cve in enumerate(ids[::2])}
    overrides["CVE-1999-0001"] = {"effect": "root"}
    return overrides


MEMO_HOMES = [
    *(("fixture", name) for name in ("fig2", "system28", "system37", "hall_light", "listing10")),
    *(("synth", (n, seed)) for n, seed in ((20, 1), (64, 2), (150, 3), (320, 4))),
]


def memo_home(kind, spec):
    if kind == "fixture":
        return load_fixture_config(spec)
    return parse_config(synth_document(*spec), source="synth")


@pytest.mark.parametrize("with_overrides", [False, True])
@pytest.mark.parametrize(("kind", "spec"), MEMO_HOMES)
def test_memoized_scan_and_classify_match_per_device_reference(
    kind, spec, with_overrides, store, caplog
):
    config = memo_home(kind, spec)
    findings = scan_devices(config, store)
    assert findings == reference_scan_devices(config, store)
    overrides = some_overrides(findings) if with_overrides else None

    caplog.clear()
    with caplog.at_level(logging.WARNING):
        expected = reference_build_models(config, findings, overrides)
    expected_warnings = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        models = build_models(config, findings, overrides)
    assert [r.getMessage() for r in caplog.records] == expected_warnings
    # Both tables hold the facts first and intern in one order: equal rows.
    assert [(m[:5], m.rule) for m in models] == [(m[:5], m.rule) for m in expected]
    if kind == "synth" and spec[0] >= 150:
        # Homes this large repeat products, so the memos are hit.
        assert len(findings) > len({f.records for f in findings})


@pytest.mark.parametrize(
    ("overrides", "skipped"),
    [
        (None, {"CVE-2019-15914": "needs network adjacency"}),
        (
            {"CVE-2019-15913": {"effect": "wifiAccess"}},
            {
                "CVE-2019-15913": "grants network credentials",
                "CVE-2019-15914": "needs network adjacency",
            },
        ),
    ],
)
def test_a_cve_on_a_device_with_no_networks_is_skipped(overrides, skipped, store, caplog, tmp_path):
    # CVE-2019-15914 classifies as adjacent, so it needs a network to be
    # adjacent on; forcing wifiAccess on CVE-2019-15913 needs one to grant.
    config = parse_config(
        {"devices": [{"name": "Xiaomi Mijia Gateway", "type": "gateway"}]}, source="networkless"
    )
    with caplog.at_level(logging.WARNING, logger="iotgraph.exploits"):
        result = analyze(config, store, overrides=overrides)
    assert [r.getMessage() for r in caplog.records] == [
        f"{cve} on xiaomiMijiaGateway {needs} but the device has no networks; skipping"
        for cve, needs in skipped.items()
    ]
    (finding,) = result.findings
    found = {r.cve_id for r in finding.records}
    assert found == {"CVE-2019-15913", "CVE-2019-15914"}
    assert {m.cve_id for m in result.models} == found - skipped.keys()
    write_outputs(result, tmp_path)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["exploit_models"] == len(found - skipped.keys())


def with_devices(doc, names):
    """The document with one bulb per name added on its first network."""

    network = doc["networks"][0]["name"]
    devices = [{"name": name, "type": "bulb", "network": [network]} for name in names]
    return parse_config({**doc, "devices": doc["devices"] + devices}, source="synth")


def test_scan_searches_each_keyword_tuple_once(store, caplog):
    # One store round trip for the whole home: the keywords of every name in
    # one call, served by two statements. Names whose keywords form the same
    # set share one tuple of records; each name with no keywords warns.
    config = with_devices(
        synth_document(320, 5), ("Smart Mini", "White 2 Bulb", "Small White Device", "Router D-Link")
    )
    calls, statements = [], []
    with CveStore.open_existing(store.path) as counting:
        search_names = counting.search_names
        counting.search_names = lambda names: calls.append(list(names)) or search_names(names)
        counting._conn.set_trace_callback(statements.append)
        with caplog.at_level(logging.WARNING):
            findings = scan_devices(config, counting)
    assert findings == reference_scan_devices(config, store)
    assert calls == [[d.name for d in config.devices]]
    assert len(statements) == 2
    assert all(s.startswith("SELECT") for s in statements)

    keys = {d.atom: keyword_set(d.name) for d in config.devices}
    assert len({id(f.records) for f in findings}) == len({keys[f.device] for f in findings})
    assert len({keys[f.device] for f in findings}) < len(findings)
    empty = [d.name for d in config.devices if not keys[d.atom]]
    assert empty == ["Smart Mini", "Small White Device"]
    warned = [r.getMessage() for r in caplog.records if "no searchable keywords" in r.getMessage()]
    assert warned == [f"device name {name!r} has no searchable keywords" for name in empty]


def test_scan_binds_one_parameter_for_any_number_of_keywords(store):
    # More distinct name tokens than SQLite's old limit of 999 bound variables.
    names = [f"Hue Bridge Unit{i} Rev{i % 7}" for i in range(1000)]
    config = with_devices(synth_document(64, 1), names)
    tokens = {t for d in config.devices for t in keyword_set(d.name)}
    assert len(tokens) > 999
    findings = scan_devices(config, store)
    assert findings == reference_scan_devices(config, store)
    assert {f.device for f in findings} == {
        f.device for f in scan_devices(parse_config(synth_document(64, 1), source="synth"), store)
    }


def test_build_models_classifies_each_record_and_protocol_set_once(store, monkeypatch):
    config = parse_config(synth_document(320, 6), source="synth")
    findings = scan_devices(config, store)
    calls = {"precondition": [], "effect": []}
    for module in (pipeline, exploits):
        for kind, fn in (
            ("precondition", exploits.classify_precondition),
            ("effect", exploits.classify_effect),
        ):
            def counted(record, *args, _kind=kind, _fn=fn):
                calls[_kind].append((record, *args))
                return _fn(record, *args)

            monkeypatch.setattr(module, f"classify_{kind}", counted)
    models = build_models(config, findings)
    assert models

    devices = config.device_index()
    networks = config.network_index()
    pairs = {
        (r, tuple(networks[n].protocol for n in devices[f.device].networks))
        for f in findings
        for r in f.records
    }
    records = {r for f in findings for r in f.records}
    assert sorted(map(repr, calls["precondition"])) == sorted(map(repr, pairs))
    assert sorted(map(repr, calls["effect"])) == sorted(repr((r,)) for r in records)
    assert len(records) < len(pairs) < sum(len(f.records) for f in findings)


# The collector contract of ``analyze``: the young generations collected on
# entry, then paused while it runs, its objects handed to the oldest
# generation, the enabled state, thresholds and frozen objects as the caller
# left them.


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


def test_analyze_collects_the_young_generations_once_at_entry(
    monkeypatch, system37_config, store
):
    assert gc.isenabled()
    started, before_scan = [], []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    scan = pipeline.scan_devices

    def scan_devices(*args):
        before_scan.extend(started)
        return scan(*args)

    monkeypatch.setattr(pipeline, "scan_devices", scan_devices)
    gc.callbacks.append(record)
    try:
        analyze(system37_config, store)
    finally:
        gc.callbacks.remove(record)
    assert started == before_scan == [1]


def test_analyze_with_the_collector_disabled_starts_no_collection(system37_config, store):
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.disable()
    gc.callbacks.append(record)
    try:
        analyze(system37_config, store)
    finally:
        gc.callbacks.remove(record)
        gc.enable()
    assert started == []


class Cycle:
    """A weakly referable object that will refer to itself."""


def test_analyze_frees_a_cycle_the_caller_just_dropped(fig2_config, store):
    # The hand-off on the way out would carry a young cycle to the oldest
    # generation, where only a full collection, which nothing starts, frees it.
    gc.collect()
    cycle = Cycle()
    cycle.itself = cycle
    alive = weakref.ref(cycle)
    del cycle
    analyze(fig2_config, store)
    assert alive() is None


def test_analyze_frees_a_cycle_that_outlived_one_young_collection(fig2_config, store):
    # A collection of the youngest generation moves a live cycle to the
    # middle one; dropped there, it must not ride the hand-off either.
    gc.collect()
    cycle = Cycle()
    cycle.itself = cycle
    alive = weakref.ref(cycle)
    gc.collect(0)
    del cycle
    analyze(fig2_config, store)
    assert alive() is None


def test_a_finalizer_run_by_the_entry_collection_may_call_analyze(fig2_config, store_path):
    # The collection on entry runs under the collector lock; a finalizer
    # that calls analyze there must not wait on that lock.
    inner, outer = [], []

    def run():
        with CveStore.open_existing(store_path) as own:

            class Analyzes:
                def __del__(self):
                    inner.append(analyze(fig2_config, own))

            gc.collect()
            cycle = Analyzes()
            cycle.itself = cycle
            del cycle
            outer.append(analyze(fig2_config, own))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(inner) == len(outer) == 1
    assert gc.isenabled()
    assert pipeline._collector_users == 0


def test_repeated_analyze_calls_keep_the_tracked_objects_bounded(fig2_config, store):
    # Each call drops 200 cycles first, as a long-lived caller's work might.
    def calls(n):
        for _ in range(n):
            dropped = [[] for _ in range(200)]
            for item in dropped:
                item.append(item)
            del dropped, item
            analyze(fig2_config, store)

    gc.collect()
    calls(10)
    settled = len(gc.get_objects())
    calls(40)
    assert len(gc.get_objects()) - settled < 2000


def test_analyze_hands_its_result_to_the_oldest_generation(system37_config, store):
    result = analyze(system37_config, store)
    assert any(o is result.graph.nodes for o in gc.get_objects(generation=2))


def test_analyze_leaves_no_cyclic_garbage(system37_config, store):
    # Its objects go to the oldest generation, where a cycle waits for a
    # full collection.
    gc.collect()
    analyze(system37_config, store)
    assert gc.collect() == 0


@pytest.mark.parametrize("case", ["enabled", "disabled", "raises", "frozen"])
def test_analyze_restores_the_collector(case, fig2_config, store):
    try:
        if case == "disabled":
            gc.disable()
        if case == "frozen":
            gc.freeze()
            assert gc.get_freeze_count() > 0
        before = collector_state()
        if case == "raises":
            with pytest.raises(ConfigError, match="overrides must be a JSON object"):
                analyze(fig2_config, store, overrides=["not", "an", "object"])
        else:
            analyze(fig2_config, store)
        assert collector_state() == before
    finally:
        gc.unfreeze()
        gc.enable()


def test_overlapping_analyze_calls_restore_the_collector_once(monkeypatch, fig2_config, store_path):
    # Both calls wait for each other inside; the first to enter then returns
    # while the second is still inside, which must find the collector paused.
    barrier = threading.Barrier(2, timeout=60)
    first_inside, first_returned = threading.Event(), threading.Event()
    compile_system = pipeline.compile_system
    paused, failed = [], []

    def both_inside(*args, **kwargs):
        if threading.current_thread().name == "first":
            first_inside.set()
        barrier.wait()
        if threading.current_thread().name == "second":
            assert first_returned.wait(timeout=60)
            paused.append(not gc.isenabled())
        return compile_system(*args, **kwargs)

    def run():
        try:
            with CveStore.open_existing(store_path) as own:
                analyze(fig2_config, own)
        except BaseException as exc:
            failed.append(exc)
            barrier.abort()
        if threading.current_thread().name == "first":
            first_returned.set()

    monkeypatch.setattr(pipeline, "compile_system", both_inside)
    assert gc.isenabled()
    first = threading.Thread(target=run, name="first")
    second = threading.Thread(target=run, name="second")
    first.start()
    assert first_inside.wait(timeout=60)
    second.start()
    for t in (first, second):
        t.join(timeout=120)
        assert not t.is_alive()
    assert failed == []
    assert paused == [True]
    assert gc.isenabled()


def test_many_overlapping_analyze_calls_leave_the_collector_enabled(
    monkeypatch, listing10_config, store_path
):
    # More threads than cores, switching often: a lost update of the count
    # of running calls would leave the collector paused, or restore it while
    # a call still runs.
    compile_system = pipeline.compile_system
    enabled_inside, failed = [], []

    def record(*args, **kwargs):
        enabled_inside.append(gc.isenabled())
        return compile_system(*args, **kwargs)

    def run():
        try:
            with CveStore.open_existing(store_path) as own:
                for _ in range(5):
                    analyze(listing10_config, own)
        except BaseException as exc:
            failed.append(exc)

    monkeypatch.setattr(pipeline, "compile_system", record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failed == []
    assert enabled_inside == [False] * 30
    assert gc.isenabled()
    assert pipeline._collector_users == 0
