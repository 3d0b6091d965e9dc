"""Compile a deployment into a Horn program, and print the program.

Three ingredients meet here: facts translated from the system configuration,
exploit rules instantiated from classified CVEs and app rules, both ground,
and the static rule libraries (attacker privilege propagation, physical
dependencies, attacker capabilities over actuators/sensors/voice), which are
written with variables. ``compile_system`` evaluates the library over the
facts and the ground rules (``reasoner.ground_static_rules``); the compiled
program is the ground rules plus the library instances that fire, which
``CompiledSystem.program`` builds as ``HornRule``s on first read, and
nothing in ``analyze`` or the writers reads it. The voice rules' ``Cmd``,
which no body atom binds, ranges over the commands the apps listen for.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

from .apps import BoundApp
from .exploits import EFFECTS, PRECONDITIONS, ExploitModel
from .logic import Atom, HornRule, LogicProgram, parse_atom
from .model import (
    DEVICE_TYPES, EVENT_ATOMS, OPENER_TYPES, SCALAR_CHANNELS, DeviceSpec, SystemConfig
)
# Called by this module's name, which perfbench/tracer.py wraps.
from .reasoner import Grounding, ground_static_rules

def _var(name: str) -> str:
    return name[0].upper() + name[1:]


# ---------------------------------------------------------------------------
# Configuration facts


def device_fact_block(d: DeviceSpec) -> list[Atom]:
    # Every predicate is a fixed name or a DEVICE_TYPES predicate, so the
    # facts are built without checking the name again.
    block = [Atom.instance(d.info.predicate, (d.atom,))]
    for net in d.networks:
        block.append(Atom.instance("inNetwork", (d.atom, net)))
    if d.physically_exposed:
        block.append(Atom.instance("physicallyExposed", (d.atom,)))
    if d.plugs_into:
        block.append(Atom.instance("plugInto", (d.atom, d.plugs_into)))
    if d.locked_by:
        block.append(Atom.instance("lockedBy", (d.atom, d.locked_by)))
    elif d.device_type in OPENER_TYPES:
        block.append(Atom.instance("lockFree", (d.atom,)))
    if d.supplied_by:
        block.append(Atom.instance("suppliedBy", (d.atom, d.supplied_by)))
    return block


def network_fact_block(config: SystemConfig) -> list[Atom]:
    # ``parse_config`` admits only PROTOCOLS names.
    return [Atom.instance(n.protocol, (n.atom,)) for n in config.networks]


def config_fact_blocks(config: SystemConfig) -> list[list[Atom]]:
    blocks = [device_fact_block(d) for d in config.devices]
    net_block = network_fact_block(config)
    if net_block:
        blocks.append(net_block)
    return blocks


def attacker_facts(config: SystemConfig) -> list[Atom]:
    out = []
    if config.attacker.has_internet:
        out.append(Atom.instance("attackerOnInternet", ()))
    for net in config.attacker.radio_adjacent:
        out.append(Atom.instance("attackerRadioAdjacent", (net,)))
    for dev in config.attacker.physical_access:
        out.append(Atom.instance("attackerPhysicalAccess", (dev,)))
    return out


def _render_blocks(blocks: Sequence[Sequence[Atom]]) -> str:
    return "\n\n".join(["\n".join([f"{a.render()}." for a in block]) for block in blocks])


# ---------------------------------------------------------------------------
# Static rule libraries


def _clauses(*rows: tuple[str, ...]) -> list[HornRule]:
    """Rules written as ``(label, head, *body)`` rows of atom text."""

    return [HornRule(parse_atom(h), tuple(map(parse_atom, b)), label) for label, h, *b in rows]


def build_propagation_rules() -> list[HornRule]:
    """How attacker privileges imply one another."""

    return _clauses(
        ("root grants device control", "attackerDeviceControl(D)", "attackerRoot(D)"),
        ("rooted device joins its networks",
         "attackerInNetwork(N)", "attackerRoot(D)", "inNetwork(D, N)"),
        ("device control grants command injection",
         "attackerCommandInjection(D)", "attackerDeviceControl(D)"),
        ("device control grants event access",
         "attackerEventAccess(D)", "attackerDeviceControl(D)"),
        ("root grants local access", "attackerLocal(D)", "attackerRoot(D)"),
        ("radio range grants physical adjacency",
         "attackerAdjacentPhysically(N)", "attackerRadioAdjacent(N)"),
        ("network membership grants logical adjacency",
         "attackerAdjacentLogically(N)", "attackerInNetwork(N)"),
        ("logical adjacency implies physical adjacency",
         "attackerAdjacentPhysically(N)", "attackerAdjacentLogically(N)"),
        ("denial of service turns the device off", "off(D)", "dos(D)"),
    )


def build_dependency_rules() -> list[HornRule]:
    """Physical couplings between devices, direct and via shared channels."""

    # Direct: electrical and utility supply lines.
    rules = _clauses(
        ("power cut through outlet",
         "off(Device)", "plugInto(Device, Outlet)", "outlet(Outlet)", "off(Outlet)"),
        ("supply cut through valve",
         "off(Device)", "suppliedBy(Device, Valve)", "valve(Valve)", "off(Valve)"),
    )
    # Indirect, actuator side: switching a device on drives its channel.
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        for channel, level in info.affect_states:
            head = Atom(level, (channel,)) if channel in SCALAR_CHANNELS else Atom(channel)
            body = (Atom("on", (v,)), Atom(info.predicate, (v,)))
            rules.append(HornRule(head, body, label=f"{info.name} drives {channel}"))
    # Indirect, sensor side: a driven channel is what sensors report, as the
    # event atom an app trigger on it needs.
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        for channel in sorted(info.senses):
            if channel in SCALAR_CHANNELS:
                driven = [(Atom(level, (channel,)), f"{level} {channel}") for level in ("high", "low")]
            else:
                driven = [(Atom(channel), channel)]
            for cause, event in driven:
                pred, extra = EVENT_ATOMS[event]
                body = (cause, Atom(info.predicate, (v,)))
                label = f"{info.name} reports {event}"
                rules.append(HornRule(Atom(pred, (v, *extra)), body, label=label))
    return rules


def build_voice_rules() -> list[HornRule]:
    """Voice is a channel: controlled emitters speak, speakers listen."""

    rules = []
    for info in DEVICE_TYPES.values():
        if not info.voice_emitter:
            continue
        v = _var(info.predicate)
        rules.append(
            HornRule(
                Atom("voiceCommand", ("Cmd",)),
                (Atom("attackerDeviceControl", (v,)), Atom(info.predicate, (v,))),
                label=f"controlled {info.name} plays voice commands",
                var_domains=(("Cmd", "commands"),),
            )
        )
    return rules + _clauses(
        ("a speaker hears played commands", "speakerHears(Cmd)", "voiceCommand(Cmd)", "speaker(S)")
    )


def build_capability_rules() -> list[HornRule]:
    """What injected commands and spoofed events let the attacker set."""

    rules = []
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        typed = Atom(info.predicate, (v,))
        injected = (Atom("attackerCommandInjection", (v,)), typed)
        for state in info.settable:
            if state == "open" and info.name in OPENER_TYPES:
                locked = (Atom("lockedBy", (v, "L")), Atom("lock", ("L",)), Atom("unlock", ("L",)))
                for latch, extra in (("unlatched", (Atom("lockFree", (v,)),)), ("unlocked", locked)):
                    label = f"injected open command on {latch} {info.name}"
                    rules.append(HornRule(Atom("open", (v,)), (*injected, *extra), label=label))
            else:
                label = f"injected {state} command on {info.name}"
                rules.append(HornRule(Atom(state, (v,)), injected, label=label))
        for event in info.events:
            pred, extra = EVENT_ATOMS[event]
            body = (Atom("attackerEventAccess", (v,)), typed)
            label = f"spoofed {event} event on {info.name}"
            rules.append(HornRule(Atom(pred, (v, *extra)), body, label=label))
    return rules


@functools.cache
def build_exploit_schemas() -> tuple[HornRule, ...]:
    """The thirty generic exploit rules, one per (precondition, effect).

    These document the semantics and are rendered at the head of
    ``program.pl``; the reasoner works on the ground rules that
    ``exploits.models_for`` fills in per classified CVE and device from the
    templates ``exploits.exploit_shape`` builds out of the same tables, once
    per (precondition, effect, network protocols) and process.
    Their vulProperty terms also name the adjacent network's protocol and
    whether a granted network is wifi. Built once per process, like
    ``static_library``.
    """

    out = []
    for pre_kind, (pre_term, pre_atoms) in PRECONDITIONS.items():
        for effect, (functor, head) in EFFECTS.items():
            effect_term = f"{functor}({head.args[0]})"
            body = (
                Atom("vulExists", ("D", "V")),
                Atom("vulProperty", ("V", pre_term, effect_term)),
                *pre_atoms,
            )
            out.append(HornRule(head, body, label=f"exploit schema: {effect} via {pre_kind}"))
    return tuple(out)


@functools.cache
def static_library() -> tuple[HornRule, ...]:
    """Every static library rule, in the order that decides a shared instance's label.

    Built once per process, so its compiled form (``reasoner._compile``) is
    found again on every later evaluation with the same derivable predicates.
    """

    return (
        *build_propagation_rules(),
        *build_dependency_rules(),
        *build_voice_rules(),
        *build_capability_rules(),
    )


# ---------------------------------------------------------------------------
# Whole-system compilation


@dataclass
class CompiledSystem:
    """The compiled program and goals, in the parts ``program.pl`` prints.

    ``facts`` holds the configuration facts in blocks of ``block_sizes``
    facts, then the attacker facts, then the vulnerability facts from
    ``vul_start``. ``grounding`` evaluates the library, ``static_library()``,
    over the facts, ``exploit_rules`` (the exploit models' own rules) and
    ``app_rules`` (the bound apps' own). The program's rules are
    ``exploit_rules``, the library instances that fire, and ``app_rules``:
    ``program`` builds the instances on first read, and ``rule_count``
    counts without them. ``render_program`` prints the library itself, with
    its variables, from ``static_library()``.
    """

    facts: tuple[Atom, ...]
    exploit_rules: tuple[HornRule, ...]
    app_rules: tuple[HornRule, ...]
    grounding: Grounding
    goals: tuple[Atom, ...]
    block_sizes: tuple[int, ...]
    vul_start: int

    @property
    def rule_count(self) -> int:
        return len(self.exploit_rules) + len(self.grounding) + len(self.app_rules)

    @functools.cached_property
    def program(self) -> LogicProgram:
        grounding = self.grounding
        instances = map(grounding.saturation.rule, grounding.instance_rows)
        rules = (*self.exploit_rules, *instances, *self.app_rules)
        return LogicProgram(facts=self.facts, rules=rules)


def compile_system(
    config: SystemConfig,
    models: list[ExploitModel],
    bound_apps: list[BoundApp],
    extra_goals: tuple[Atom, ...] = (),
) -> CompiledSystem:
    """Compile the deployment and evaluate its library (``reasoner.ground_static_rules``)."""

    blocks = config_fact_blocks(config)
    config_facts = [a for block in blocks for a in block]
    atk_facts = attacker_facts(config)
    vul_facts = list(dict.fromkeys(fact for model in models for fact in model.facts))
    facts = (*config_facts, *atk_facts, *vul_facts)
    # Rules with one head and body are equal: the body's vulExists names the
    # CVE and the device that make up the label.
    exploit_rules = tuple(dict.fromkeys(model.rule for model in models))
    app_rules = tuple(rule for bound in bound_apps for rule in bound.rules)

    alphabet = list(dict.fromkeys(cmd for bound in bound_apps for cmd in bound.voice_commands))
    grounding = ground_static_rules(
        static_library(), facts, {"commands": alphabet}, exploit_rules + app_rules
    )

    return CompiledSystem(
        facts=facts,
        exploit_rules=exploit_rules,
        app_rules=app_rules,
        grounding=grounding,
        goals=tuple(dict.fromkeys((*config.goals, *extra_goals))),
        block_sizes=tuple(map(len, blocks)),
        vul_start=len(config_facts) + len(atk_facts),
    )


def _pools(rule: HornRule) -> str:
    return "".join([f"; {var} ranges over the {domain}" for var, domain in rule.var_domains])


def render_program(compiled: CompiledSystem) -> str:
    """Readable clause file: schemas, exploit rules, the library, app rules, facts, goals."""

    facts = compiled.facts
    blocks, start = [], 0
    for size in compiled.block_sizes:
        blocks.append(facts[start : start + size])
        start += size
    rule_sections = (
        ("exploit rule schemas (reference)", "", build_exploit_schemas()),
        ("attack rules instantiated from CVEs", "", compiled.exploit_rules),
        ("propagation, dependency, voice, and capability rules", "", static_library()),
        ("app rules", "app: ", compiled.app_rules),
    )
    fact_sections = (
        ("facts: attacker", facts[start : compiled.vul_start]),
        ("facts: vulnerabilities", facts[compiled.vul_start :]),
        ("attack goals", [Atom("attackGoal", (goal.render(),)) for goal in compiled.goals]),
    )
    parts = []
    for title, tag, group in rule_sections:
        texts = [
            f"% {tag}{r.label}{_pools(r) if r.var_domains else ''}\n{r.render()}" for r in group
        ]
        parts.append("\n".join([f"% ==== {title} ====", *texts]))
    parts.append(f"% ==== facts: system configuration ====\n{_render_blocks(blocks)}")
    for title, group in fact_sections:
        parts.append("\n".join([f"% ==== {title} ====", *[f"{a.render()}." for a in group]]))
    return "\n\n".join(parts) + "\n"
