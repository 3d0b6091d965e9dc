"""Compile a deployment into a Horn program, and print the program.

Three ingredients meet here: facts translated from the system configuration,
exploit rules instantiated from classified CVEs and app rules, both ground,
and the static rule libraries (attacker privilege propagation, physical
dependencies, attacker capabilities over actuators/sensors/voice), which are
written with variables. ``config_facts`` opens the atom table with the
facts, ``exploits.models_for`` adds the exploit rules and ``compile_system``
the app rules (``reasoner.SaturationResult`` gives the order), then
evaluates the library over them (``reasoner.ground_static_rules``). The
compiled program, the ground rules plus the library instances that fire, is
held as ids; ``CompiledSystem.program`` builds it as ``Atom``s and
``HornRule``s on first read, and nothing in ``analyze`` or the writers reads
it. The voice rules' ``Cmd``, which no body atom binds, ranges over the
commands the apps listen for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, chain

from .apps import BoundApp
from .exploits import EFFECTS, PRECONDITIONS, ExploitModel
from .logic import Atom, HornRule, LogicProgram, clause_text, parse_atom, render_atom
from .model import DEVICE_TYPES, EVENT_ATOMS, OPENER_TYPES, SCALAR_CHANNELS, SystemConfig
from .reasoner import GIVEN, Row, SaturationResult
# Called by this module's name, which perfbench/tracer.py wraps.
from .reasoner import Grounding, ground_static_rules


def _var(name: str) -> str:
    return name[0].upper() + name[1:]


# ---------------------------------------------------------------------------
# Configuration facts


def config_facts(config: SystemConfig) -> tuple[SaturationResult, tuple[int, ...]]:
    """A new atom table holding the configuration and attacker facts as
    ``GIVEN`` ids, in ``program.pl`` order, and the sizes of its fact blocks:
    one per device, one for the networks if there are any, then the
    attacker facts. No ``Atom`` is built.
    """

    # Every predicate is a fixed name, a DEVICE_TYPES predicate or (as
    # ``parse_config`` admits) a PROTOCOLS name.
    table = SaturationResult()
    intern, preds, sizes = table.intern, table.preds, []
    for d in config.devices:
        start, atom = len(preds), d.atom
        intern(d.info.predicate, (atom,), None, GIVEN)
        for net in d.networks:
            intern("inNetwork", (atom, net), None, GIVEN)
        if d.physically_exposed:
            intern("physicallyExposed", (atom,), None, GIVEN)
        if d.plugs_into:
            intern("plugInto", (atom, d.plugs_into), None, GIVEN)
        if d.locked_by:
            intern("lockedBy", (atom, d.locked_by), None, GIVEN)
        elif d.device_type in OPENER_TYPES:
            intern("lockFree", (atom,), None, GIVEN)
        if d.supplied_by:
            intern("suppliedBy", (atom, d.supplied_by), None, GIVEN)
        sizes.append(len(preds) - start)
    if config.networks:
        start = len(preds)
        for n in config.networks:
            intern(n.protocol, (n.atom,), None, GIVEN)
        sizes.append(len(preds) - start)
    start, attacker = len(preds), config.attacker
    if attacker.has_internet:
        intern("attackerOnInternet", (), None, GIVEN)
    for net in attacker.radio_adjacent:
        intern("attackerRadioAdjacent", (net,), None, GIVEN)
    for dev in attacker.physical_access:
        intern("attackerPhysicalAccess", (dev,), None, GIVEN)
    sizes.append(len(preds) - start)
    return table, tuple(sizes)


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
    """The compiled program and goals, as ids in the grounding's table.

    ``fact_ids`` lists the facts in ``program.pl`` order: the configuration
    and attacker facts in blocks of ``block_sizes`` facts (the attacker
    facts last), then the vulnerability facts. ``grounding`` evaluates the
    library, ``static_library()``, over the facts, ``exploit_rows`` (the
    exploit models' own rows) and ``app_rows`` (the bound apps' rules). The
    program's rules are those rows and the library instances that fire:
    ``program`` builds them as ``HornRule``s, and the facts as ``Atom``s, on
    first read, and ``rule_count`` counts without them. ``render_program``
    prints the library itself, with its variables, from ``static_library()``.
    """

    fact_ids: list[int]
    exploit_rows: tuple[Row, ...]
    app_rows: tuple[Row, ...]
    grounding: Grounding
    goals: tuple[Atom, ...]
    block_sizes: tuple[int, ...]

    @property
    def rule_count(self) -> int:
        return len(self.exploit_rows) + len(self.grounding) + len(self.app_rows)

    @functools.cached_property
    def program(self) -> LogicProgram:
        grounding = self.grounding
        table = grounding.saturation
        rows = (*self.exploit_rows, *grounding.instance_rows, *self.app_rows)
        return LogicProgram(tuple(map(table.atom, self.fact_ids)), tuple(map(table.rule, rows)))


def compile_system(
    config: SystemConfig,
    table: SaturationResult,
    block_sizes: tuple[int, ...],
    models: list[ExploitModel],
    bound_apps: list[BoundApp],
    extra_goals: tuple[Atom, ...] = (),
) -> CompiledSystem:
    """Compile the deployment and evaluate its library (``reasoner.ground_static_rules``).

    ``table`` holds the configuration and attacker facts (``config_facts``,
    which gave ``block_sizes``) and the models' atoms; the bound apps'
    rules are interned into it here, and the evaluation extends it.
    """

    # Every atom known before the evaluation is a fact, in the order entered.
    facts = [i for i, known in enumerate(table.state) if known == GIVEN]
    # Rows with one head and body are equal: the body's vulExists names the
    # CVE and the device that make up the label.
    exploit_rows = tuple(dict.fromkeys([model.row for model in models]))
    app_rows = tuple([table.row(rule) for bound in bound_apps for rule in bound.rules])
    alphabet = list(dict.fromkeys(cmd for bound in bound_apps for cmd in bound.voice_commands))
    grounding = ground_static_rules(
        static_library(), table, facts, {"commands": alphabet}, exploit_rows + app_rows
    )
    return CompiledSystem(
        fact_ids=facts,
        exploit_rows=exploit_rows,
        app_rows=app_rows,
        grounding=grounding,
        goals=tuple(dict.fromkeys((*config.goals, *extra_goals))),
        block_sizes=block_sizes,
    )


def _pools(rule: HornRule) -> str:
    return "".join([f"; {var} ranges over the {domain}" for var, domain in rule.var_domains])


@functools.cache
def _library_texts() -> tuple[str, str]:
    """The bodies of ``program.pl``'s schema and library sections, the same
    for every program: rendered once per process, like the rules they print."""

    def library(rules: tuple[HornRule, ...]) -> str:
        return "\n".join([f"% {r.label}{_pools(r)}\n{r.render()}" for r in rules])

    return library(build_exploit_schemas()), library(static_library())


def render_program(compiled: CompiledSystem) -> str:
    """Readable clause file: schemas, exploit rules, the library, app rules, facts, goals.

    Facts and ground rules are printed from their ids, each atom's text
    rendered once (``SaturationResult.texts``); the schema and library
    sections once per process (``_library_texts``).
    """

    ids, ground = compiled.fact_ids, (*compiled.exploit_rows, *compiled.app_rows)
    text = compiled.grounding.saturation.texts(chain(ids, *[(h, *b) for _, h, b in ground]))
    facts = [f"{text[i]}." for i in ids]
    starts = list(accumulate(compiled.block_sizes, initial=0))
    *config, attacker = [facts[a:b] for a, b in zip(starts, starts[1:])]
    schemas, library = _library_texts()

    def rows(tag: str, group: tuple[Row, ...]) -> list[str]:
        return [
            f"% {tag}{label}\n{clause_text(text[head], [text[b] for b in body])}"
            for label, head, body in group
        ]

    sections = (
        ("exploit rule schemas (reference)", [schemas]),
        ("attack rules instantiated from CVEs", rows("", compiled.exploit_rows)),
        ("propagation, dependency, voice, and capability rules", [library]),
        ("app rules", rows("app: ", compiled.app_rows)),
        ("facts: system configuration", ["\n\n".join(["\n".join(block) for block in config])]),
        ("facts: attacker", attacker),
        ("facts: vulnerabilities", facts[starts[-1] :]),
        ("attack goals", [f"{render_atom('attackGoal', (g.render(),))}." for g in compiled.goals]),
    )
    return "\n\n".join(["\n".join([f"% ==== {t} ====", *texts]) for t, texts in sections]) + "\n"
