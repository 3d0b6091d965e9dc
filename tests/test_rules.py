from __future__ import annotations

import json
from itertools import product

import pytest

from iotgraph.apps import (
    ActionMatch, AppSemantics, TriggerMatch, bind_app, parse_app_description
)
from iotgraph import logic
from iotgraph.logic import Atom, HornRule, LogicError
from iotgraph.model import (
    DEVICE_TYPES,
    OPENER_TYPES,
    PROTOCOLS,
    SCALAR_CHANNELS,
    AppSpec,
    AttackerProfile,
    DeviceSpec,
    NetworkSpec,
    SystemConfig,
    parse_config,
)
from iotgraph.rules import (
    build_capability_rules,
    build_dependency_rules,
    build_exploit_schemas,
    build_propagation_rules,
    compile_system,
    render_program,
    static_library,
)

import oracles
from iotgraph.pipeline import analyze, bind_apps, render_summary, scan_devices, write_outputs
from iotgraph.reasoner import FACT, GIVEN, RULE, SaturationResult
from iotgraph.synth import synth_document, synthesize

from conftest import FIXTURE_NAMES, config_facts_text, load_fixture_config
from tables import classify, compile_config, fact_blocks, ground


def ground_instances(*args):
    """The library instances ``ground(*args)`` builds, as ``HornRule``s."""

    grounding = ground(*args)
    return [grounding.saturation.rule(row) for row in grounding.instance_rows]


def facts_and_domains(cfg):
    blocks, attacker = fact_blocks(cfg)
    return [a for block in blocks for a in block] + attacker, {"commands": []}

TWO_DEVICE_FACTS = """router(dLinkRouter).
inNetwork(dLinkRouter, wifi1).

gateway(smartthingsHub).
inNetwork(smartthingsHub, wifi1).
inNetwork(smartthingsHub, zigbee1).

wifi(wifi1).
zigbee(zigbee1).
"""


def test_system_facts_for_two_device_home_byte_exact():
    cfg = load_fixture_config("listing10")
    assert config_facts_text(cfg) == TWO_DEVICE_FACTS


def test_device_block_includes_wiring_facts():
    cfg = parse_config(
        {
            "devices": [
                {"name": "Wall Outlet", "type": "outlet", "network": ["wifi1"],
                 "physically_exposed": True},
                {"name": "Desk Lamp", "type": "bulb", "network": ["wifi1"],
                 "plugs_into": "Wall Outlet"},
                {"name": "Front Door Opener", "type": "door-opener", "network": ["wifi1"],
                 "locked_by": "Front Lock"},
                {"name": "Front Lock", "type": "lock", "network": ["wifi1"]},
                {"name": "Garage Opener", "type": "door-opener", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
        },
        source="test",
    )
    text = config_facts_text(cfg)
    assert "physicallyExposed(wallOutlet)." in text
    assert "plugInto(deskLamp, wallOutlet)." in text
    assert "lockedBy(frontDoorOpener, frontLock)." in text
    assert "lockFree(garageOpener)." in text
    assert "lockFree(frontDoorOpener)." not in text


def checked_fact_blocks(cfg):
    """Configuration and attacker facts built with the checking ``Atom(...)``."""

    blocks = []
    for d in cfg.devices:
        block = [Atom(d.info.predicate, [d.atom])]
        block += [Atom("inNetwork", [d.atom, net]) for net in d.networks]
        if d.physically_exposed:
            block.append(Atom("physicallyExposed", [d.atom]))
        if d.plugs_into:
            block.append(Atom("plugInto", [d.atom, d.plugs_into]))
        if d.locked_by:
            block.append(Atom("lockedBy", [d.atom, d.locked_by]))
        elif d.device_type in OPENER_TYPES:
            block.append(Atom("lockFree", [d.atom]))
        if d.supplied_by:
            block.append(Atom("suppliedBy", [d.atom, d.supplied_by]))
        blocks.append(block)
    if cfg.networks:
        blocks.append([Atom(n.protocol, [n.atom]) for n in cfg.networks])
    attacker = [Atom("attackerOnInternet")] if cfg.attacker.has_internet else []
    attacker += [Atom("attackerRadioAdjacent", [n]) for n in cfg.attacker.radio_adjacent]
    attacker += [Atom("attackerPhysicalAccess", [d]) for d in cfg.attacker.physical_access]
    return blocks, attacker


def every_config_fact_kind() -> SystemConfig:
    """Each device type, once locked and wired and once bare, on each protocol."""

    devices = []
    for i, dtype in enumerate(DEVICE_TYPES):
        devices.append(DeviceSpec(f"w{i}", f"w{i}", dtype, ("n0",), True, "p", "l", "s"))
        devices.append(DeviceSpec(f"b{i}", f"b{i}", dtype))
    networks = tuple(NetworkSpec(p, f"n{i}", p) for i, p in enumerate(PROTOCOLS))
    return SystemConfig(tuple(devices), networks, attacker=AttackerProfile(True, ("n0",), ("w0",)))


def test_config_fact_predicates_are_identifiers():
    cfg = every_config_fact_kind()
    blocks, attacker = fact_blocks(cfg)
    preds = {a.pred for block in blocks for a in block} | {a.pred for a in attacker}
    assert preds >= {t.predicate for t in DEVICE_TYPES.values()} | set(PROTOCOLS)
    assert {"lockFree", "lockedBy", "attackerOnInternet", "attackerPhysicalAccess"} <= preds
    assert all(logic._IDENTIFIER.match(p) for p in preds)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "every kind"])
def test_config_facts_equal_checked_atoms(name):
    cfg = every_config_fact_kind() if name == "every kind" else load_fixture_config(name)
    blocks, attacker = fact_blocks(cfg)
    expected_blocks, expected_attacker = checked_fact_blocks(cfg)
    assert (blocks, attacker) == (expected_blocks, expected_attacker)
    atoms = [a for block in blocks for a in block] + attacker
    expected = [a for block in expected_blocks for a in block] + expected_attacker
    assert all(type(a.args) is tuple for a in atoms)
    assert [(hash(a), a.render()) for a in atoms] == [(hash(a), a.render()) for a in expected]


def test_propagation_rules_cover_privilege_chain():
    rules = build_propagation_rules()
    assert len(rules) == 9
    heads = {r.head.pred for r in rules}
    assert {
        "attackerDeviceControl",
        "attackerInNetwork",
        "attackerCommandInjection",
        "attackerEventAccess",
        "attackerLocal",
        "attackerAdjacentPhysically",
        "attackerAdjacentLogically",
        "off",
    } <= heads


def test_exploit_schemas_enumerate_all_combinations():
    schemas = build_exploit_schemas()
    assert len(schemas) == 30
    labels = {s.label for s in schemas}
    assert len(labels) == 30
    # Built once per process, like the static library.
    assert isinstance(schemas, tuple)
    assert build_exploit_schemas() is schemas


def test_ground_static_rules_joins_config_facts():
    cfg = load_fixture_config("listing10")
    facts, domains = facts_and_domains(cfg)
    rule = HornRule(
        Atom("probe", ("D", "N")),
        (Atom("inNetwork", ("D", "N")), Atom("wifi", ("N",))),
        label="wifi members",
    )
    grounded = ground_instances([rule], facts, domains)
    rendered = {g.head.render() for g in grounded}
    assert rendered == {"probe(dLinkRouter, wifi1)", "probe(smartthingsHub, wifi1)"}


def test_ground_static_rules_uses_domain_fallback():
    cfg = load_fixture_config("listing10")
    facts, _ = facts_and_domains(cfg)
    rule = HornRule(
        Atom("voiceCommand", ("Cmd",)),
        (Atom("attackerOnInternet"),),
        label="every command is played",
        var_domains=(("Cmd", "commands"),),
    )
    grounded = ground_instances([rule], facts, {"commands": ["openUp", "lightsOff"]})
    assert [g.head.render() for g in grounded] == ["voiceCommand(openUp)", "voiceCommand(lightsOff)"]
    assert not ground([rule], facts, {"commands": []})


def test_ground_static_rules_builds_only_instances_that_fire():
    cfg = load_fixture_config("listing10")
    facts, domains = facts_and_domains(cfg)
    # The router's exploit, in the exploit rules' place, roots it; nothing
    # roots the hub.
    exploit = HornRule(
        Atom("attackerRoot", ("dLinkRouter",)), (Atom("attackerOnInternet"),), label="exploit"
    )
    fired = ground_instances(build_propagation_rules(), facts, domains, [exploit])
    rendered = {(g.label, g.head.render()) for g in fired}
    assert ("root grants device control", "attackerDeviceControl(dLinkRouter)") in rendered
    assert ("rooted device joins its networks", "attackerInNetwork(wifi1)") in rendered
    assert (
        "network membership grants logical adjacency", "attackerAdjacentLogically(wifi1)"
    ) in rendered
    assert not any("smartthingsHub" in head for _, head in rendered)
    unexploited = ground_instances(build_propagation_rules(), facts, domains)
    assert {g.label for g in unexploited} == {"radio range grants physical adjacency"}


def test_ground_static_rules_rejects_unbound_variable():
    cfg = load_fixture_config("listing10")
    facts, domains = facts_and_domains(cfg)
    rule = HornRule(
        Atom("mystery", ("X",)),
        (Atom("attackerOnInternet"), Atom("probe", ("f(X)",))),
        label="unbindable",
    )
    with pytest.raises(LogicError, match="variable X has neither"):
        ground([rule], facts, domains)


def test_capability_rules_split_locked_and_lock_free_openers():
    cfg = parse_config(
        {
            "devices": [
                {"name": "Garage Opener", "type": "door-opener", "network": ["wifi1"]},
                {"name": "Front Door Opener", "type": "door-opener", "network": ["wifi1"],
                 "locked_by": "Front Lock"},
                {"name": "Front Lock", "type": "lock", "network": ["wifi1"]},
            ],
            "networks": [{"name": "wifi1", "type": "Wifi"}],
        },
        source="test",
    )
    facts, domains = facts_and_domains(cfg)
    # Exploits, in the exploit rules' place, give command injection on all three.
    exploits = [
        HornRule(
            Atom("attackerCommandInjection", (d.atom,)), (Atom("attackerOnInternet"),), label="exploit"
        )
        for d in cfg.devices
    ]
    rules = build_capability_rules()
    grounded = ground_instances(rules, facts, domains, exploits)
    free = [g for g in grounded if g.head.render() == "open(garageOpener)"]
    locked = [g for g in grounded if g.head.render() == "open(frontDoorOpener)"]
    free_bodies = {tuple(a.render() for a in g.body) for g in free}
    locked_bodies = {tuple(a.render() for a in g.body) for g in locked}
    assert any("lockFree(garageOpener)" in b for b in free_bodies)
    assert any(
        "lockedBy(frontDoorOpener, frontLock)" in b and "unlock(frontLock)" in b
        for b in locked_bodies
    )
    assert not any("lockFree(frontDoorOpener)" in b for b in locked_bodies)


def test_dependency_rules_bridge_actuator_to_sensor():
    rules = build_dependency_rules()
    heads = {r.head.pred for r in rules}
    assert "smoke" in heads
    assert "reportsSmoke" in heads
    assert "off" in heads


def test_dependency_heads_are_what_app_triggers_need():
    """A driven channel reaches an app exactly when the sensor's report is
    the atom that app's trigger on that event binds to."""

    reports = {r.label: r for r in build_dependency_rules()}
    sensing = [info for info in DEVICE_TYPES.values() if info.senses]
    assert sensing
    for info in sensing:
        config = parse_config(
            {
                "devices": [
                    {"name": "Sensor", "type": info.name, "network": ["wifi1"]},
                    {"name": "Bulb", "type": "bulb", "network": ["wifi1"]},
                ],
                "networks": [{"name": "wifi1", "type": "Wifi"}],
            },
            source="test",
        )
        app = AppSpec("t", "", (("sensor", "Sensor"), ("bulb", "Bulb")))
        for channel in sorted(info.senses):
            levels = ("high ", "low ") if channel in SCALAR_CHANNELS else ("",)
            for event in (level + channel for level in levels):
                semantics = AppSemantics(
                    "NONE", (), (), (TriggerMatch("sensor", info.name, event),),
                    "NONE", (), (), (ActionMatch("bulb", "bulb", "on"),),
                )
                [rule] = bind_app(app, semantics, config).rules
                report = reports[f"{info.name} reports {event}"]
                sensor = report.head.args[0]
                assert report.head.substitute({sensor: "sensor"}) == rule.body[1], event


def compile_fig2(store_like=None):
    cfg = load_fixture_config("fig2")
    bound = []
    for app in cfg.apps:
        bound.append(bind_app(app, parse_app_description(app.description), cfg))
    return cfg, compile_config(cfg, bound=bound)


def test_compile_system_collects_goals_and_alphabet(store):
    cfg, _ = compile_fig2()
    bound = [bind_app(app, parse_app_description(app.description), cfg) for app in cfg.apps]
    compiled = compile_config(cfg, scan_devices(cfg, store), bound)
    assert [g.render() for g in compiled.goals] == ["unlock(yaleDoorlock)"]
    # A controlled emitter plays every command the apps listen for.
    for pred in ("voiceCommand", "speakerHears"):
        commands = {r.head.args[0] for r in compiled.program.rules if r.head.pred == pred}
        assert commands == {"preheatTheOven", "unlockTheFrontDoor"}, pred


def test_compile_and_render_program_look_up_no_device(monkeypatch):
    cfg = load_fixture_config("fig2")
    bound = [bind_app(app, parse_app_description(app.description), cfg) for app in cfg.apps]

    def device(self, key):
        raise AssertionError(f"device({key!r}) looked up")

    monkeypatch.setattr(SystemConfig, "device", device)
    assert "% ==== attack goals ====" in render_program(compile_config(cfg, bound=bound))


def test_render_program_sections_are_labelled():
    _, compiled = compile_fig2()
    text = render_program(compiled)
    for title in (
        "exploit rule schemas (reference)",
        "attack rules instantiated from CVEs",
        "propagation, dependency, voice, and capability rules",
        "app rules",
        "facts: system configuration",
        "facts: attacker",
        "facts: vulnerabilities",
        "attack goals",
    ):
        assert f"% ==== {title} ====" in text, title
    assert "attackGoal(unlock(yaleDoorlock))." in text


def test_render_program_prints_the_library_once_with_variables():
    _, compiled = compile_fig2()
    text = render_program(compiled)
    assert text.count("% root grants device control\n") == 1
    assert "attackerDeviceControl(D) :-\n    attackerRoot(D)." in text
    assert (
        "% controlled speaker plays voice commands; Cmd ranges over the commands\n"
        "voiceCommand(Cmd) :-\n    attackerDeviceControl(Speaker),\n    speaker(Speaker)."
    ) in text
    # The instances that fired are in the program, not in the file.
    assert "attackerDeviceControl(" + "yale" not in text
    assert static_library() and all(rule.variables() for rule in static_library())


def test_compile_system_dedupes_exploit_rules(store):
    cfg = load_fixture_config("listing10")
    table, blocks, models = classify(cfg, scan_devices(cfg, store))
    doubled = models + models
    compiled = compile_system(cfg, table, blocks, doubled, [])
    labels = [label for label, _, _ in compiled.exploit_rows]
    assert labels and all(label.startswith("exploit ") for label in labels)
    assert len(labels) == len(set(labels))
    vul_facts = compiled.program.facts[sum(blocks) :]
    assert vul_facts and all(f.pred in ("vulExists", "vulProperty") for f in vul_facts)
    assert len(vul_facts) == len(set(vul_facts))


@pytest.mark.parametrize("name", ["fig2", "system37"])
def test_outputs_count_the_library_instances_without_building_them(name, store, tmp_path):
    result = analyze(load_fixture_config(name), store)
    compiled = result.compiled
    write_outputs(result, tmp_path)
    summary = render_summary(result)
    # The program, and with it the instances, was not built on the way.
    assert "program" not in vars(compiled)
    # Nor a fact's ``Atom`` to count or print it: only the graph's facts
    # whose atoms are read have one, the vulnerabilities the evidence reads.
    sat = compiled.grounding.saturation
    built = {sat.objects[i] for i in compiled.fact_ids} - {None}
    read = {n.atom for n in result.graph.nodes if n.kind == FACT and n.pred == "vulExists"}
    assert built <= read
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    program = compiled.program
    assert len(compiled.grounding) > 0
    assert manifest["rules"] == compiled.rule_count == len(program.rules)
    assert manifest["facts"] == len(program.facts)
    assert f"program: {len(program.facts)} facts, {len(program.rules)} rules;" in summary
    grounding = compiled.grounding
    rows = (*compiled.exploit_rows, *grounding.instance_rows, *compiled.app_rows)
    assert program.rules == tuple(map(sat.rule, rows))


def _home_config(home):
    if home == 64:
        return parse_config(synth_document(64, 1), source="synth")
    return load_fixture_config(home)


@pytest.mark.parametrize("home", ["fig2", "system37", 64])
def test_rule_nodes_are_views_of_program_rules(home, store):
    result = analyze(_home_config(home), store)
    graph = result.graph
    program_rules = set(result.compiled.program.rules)
    node_of = {n.atom: n.node_id for n in graph.nodes if n.kind != RULE}
    rule_nodes = [n for n in graph.nodes if n.kind == RULE]
    assert rule_nodes
    for n in rule_nodes:
        rule = n.rule
        assert rule in program_rules
        assert n.text == (rule.label or rule.head.render())
        assert graph.parents[n.node_id] == tuple(dict.fromkeys(node_of[a] for a in rule.body))
        # Built on the first read, then kept.
        assert n.rule is rule


@pytest.mark.parametrize("name", ["fig2", "system37"])
def test_outputs_build_no_rule_for_a_graph_node(name, store, tmp_path, monkeypatch):
    built = []
    real = SaturationResult.rule
    monkeypatch.setattr(SaturationResult, "rule", lambda self, row: built.append(row) or real(self, row))
    result = analyze(load_fixture_config(name), store)
    write_outputs(result, tmp_path)
    render_summary(result)
    assert built == []
    rule_nodes = [n for n in result.graph.nodes if n.kind == RULE]
    assert rule_nodes and all(n.rule is not None for n in rule_nodes)
    assert len(built) == len(rule_nodes)


@pytest.mark.parametrize("home", ["fig2", 64])
def test_exploit_rules_share_the_vulnerability_fact_objects(home, store):
    cfg = _home_config(home)
    compiled = compile_config(cfg, scan_devices(cfg, store))
    program = compiled.program
    facts = program.facts[sum(compiled.block_sizes) :]
    by_value = {fact: fact for fact in facts}
    rules = program.rules[: len(compiled.exploit_rows)]
    assert rules
    for rule in rules:
        vul_atoms = [a for a in rule.body if a.pred in ("vulExists", "vulProperty")]
        assert len(vul_atoms) == 2
        assert all(a is by_value[a] for a in vul_atoms)


@pytest.mark.parametrize("home", ["fig2", 200])
def test_program_rules_are_the_models_and_apps_own(home, store):
    cfg = load_fixture_config("fig2") if home == "fig2" else synthesize(home, seed=3)
    result = analyze(cfg, store)
    compiled = result.compiled
    # Equal rules (one CVE on one device, bound the same way) are kept once,
    # as the first model's.
    want = list(dict.fromkeys(model.row for model in result.models))
    assert want and len(compiled.exploit_rows) == len(want)
    assert all(got is row for got, row in zip(compiled.exploit_rows, want))
    want = [rule for bound in result.bound_apps for rule in bound.rules]
    assert want and len(compiled.app_rows) == len(want)
    assert list(map(compiled.grounding.saturation.rule, compiled.app_rows)) == want
    # The models share one atom table: one object per distinct atom.
    objects = {}
    for model in result.models:
        for atom in (model.rule.head, *model.rule.body):
            assert objects.setdefault(atom, atom) is atom, atom.render()


# The program file as it was assembled before each rule became one f-string
# and each fact block one join: every atom through ``render_arg`` (here the
# oracle's), every rule through a helper that joins its pools generator, and
# every fact through its own helper (here ``_kept_fact``).


def _kept_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({', '.join(map(oracles.render_arg, atom.args))})"


def _kept_fact(atom: Atom) -> str:
    return _kept_atom(atom) + "."


def _kept_rule_text(rule: HornRule, tag: str) -> str:
    pools = "".join(f"; {var} ranges over the {domain}" for var, domain in rule.var_domains)
    body = ",\n    ".join([_kept_atom(atom) for atom in rule.body])
    return f"% {tag}{rule.label}{pools}\n{_kept_atom(rule.head)} :-\n    {body}."


def _kept_render_blocks(blocks) -> str:
    return "\n\n".join("\n".join(_kept_fact(a) for a in block) for block in blocks)


def _kept_render_program(compiled) -> str:
    facts, rules = compiled.program.facts, compiled.program.rules
    exploit_rules = rules[: len(compiled.exploit_rows)]
    app_rules = rules[len(rules) - len(compiled.app_rows) :]
    vul_start = sum(compiled.block_sizes)
    blocks, start = [], 0
    # The last block holds the attacker facts.
    for size in compiled.block_sizes[:-1]:
        blocks.append(facts[start : start + size])
        start += size
    rule_sections = (
        ("exploit rule schemas (reference)", "", build_exploit_schemas()),
        ("attack rules instantiated from CVEs", "", exploit_rules),
        ("propagation, dependency, voice, and capability rules", "", static_library()),
        ("app rules", "app: ", app_rules),
    )
    fact_sections = (
        ("facts: attacker", facts[start:vul_start]),
        ("facts: vulnerabilities", facts[vul_start:]),
        ("attack goals", [Atom("attackGoal", (goal.render(),)) for goal in compiled.goals]),
    )
    parts = []
    for title, tag, group in rule_sections:
        texts = (_kept_rule_text(rule, tag) for rule in group)
        parts.append("\n".join([f"% ==== {title} ====", *texts]))
    parts.append(f"% ==== facts: system configuration ====\n{_kept_render_blocks(blocks)}")
    for title, group in fact_sections:
        parts.append("\n".join([f"% ==== {title} ====", *map(_kept_fact, group)]))
    return "\n\n".join(parts) + "\n"


@pytest.mark.parametrize("feed", ["bundled", "dense4"])
@pytest.mark.parametrize("devices, seed", list(product((3, 17, 90), (1, 5))) + [(300, 2)])
def test_render_program_matches_the_kept_assembly(feed, devices, seed, request):
    store = request.getfixturevalue("store" if feed == "bundled" else "dense4_store")
    cfg = synthesize(devices, seed)
    bound, _ = bind_apps(cfg)
    compiled = compile_config(cfg, scan_devices(cfg, store), bound)
    assert render_program(compiled) == _kept_render_program(compiled)


@pytest.mark.parametrize("home", [*FIXTURE_NAMES, "synth80"])
def test_exploit_atoms_that_are_facts_take_the_fact_ids(home, store):
    if home == "synth80":
        cfg = parse_config(synth_document(80, 3), source="synth")
    else:
        cfg = load_fixture_config(home)
    bound, _ = bind_apps(cfg)
    compiled = compile_config(cfg, scan_devices(cfg, store), bound)
    sat, program = compiled.grounding.saturation, compiled.program
    blocks, attacker = checked_fact_blocks(cfg)
    given = [a for block in blocks for a in block] + attacker
    # The facts in program.pl order: configuration blocks, attacker facts,
    # then the vulnerability facts the exploit rules start from.
    vul = list(dict.fromkeys(i for _, _, body in compiled.exploit_rows for i in body[:2]))
    assert list(program.facts) == given + [sat.atom(i) for i in vul]
    text = render_program(compiled)
    printed = []
    for title in ("system configuration", "attacker", "vulnerabilities"):
        section = text.split(f"% ==== facts: {title} ====\n")[1].split("\n\n% ==== ")[0]
        printed += [line for line in section.split("\n") if line]
    assert printed == [f"{a.render()}." for a in program.facts]
    # An exploit rule's atom equal to a configuration or attacker fact is that fact.
    fact_id = {sat.atom(i): i for i in compiled.fact_ids}
    config_facts = set(given)
    shared = 0
    for _, head, body in compiled.exploit_rows:
        for i in (head, *body):
            if sat.atom(i) in config_facts:
                assert i == fact_id[sat.atom(i)] and sat.state[i] == GIVEN
                shared += 1
    assert shared
