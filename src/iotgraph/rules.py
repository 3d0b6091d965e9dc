"""Compile a deployment into a ground Horn program.

Three ingredients meet here: facts translated from the system configuration,
exploit rules instantiated from classified CVEs, and the static rule
libraries (attacker privilege propagation, physical dependencies, attacker
capabilities over actuators/sensors/voice). Static libraries are written
with variables for readability; grounding joins their body atoms against
the fact base and falls back on named constant pools (devices, networks,
voice commands) for variables the facts cannot bind.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .apps import BoundApp
from .exploits import EFFECTS, PRECONDITIONS, ExploitModel
from .logic import (
    Atom,
    HornRule,
    LogicError,
    LogicProgram,
    args_template,
    is_variable,
    render_fact,
)
from .model import (
    DEVICE_TYPES, EVENT_ATOMS, OPENER_TYPES, PROTOCOLS, SCALAR_CHANNELS, DeviceSpec, SystemConfig
)

# Predicates that appear in the fact base (as opposed to derived conditions).
STATIC_FACT_PREDS = frozenset(
    {info.predicate for info in DEVICE_TYPES.values()}
    | set(PROTOCOLS)
    | {"inNetwork", "plugInto", "lockedBy", "suppliedBy", "physicallyExposed", "lockFree"}
    | {"vulExists", "vulProperty"}
    | {"attackerOnInternet", "attackerRadioAdjacent", "attackerPhysicalAccess"}
)


def _var(name: str) -> str:
    return name[0].upper() + name[1:]


# ---------------------------------------------------------------------------
# Configuration facts


def device_fact_block(d: DeviceSpec) -> list[Atom]:
    block = [Atom(d.info.predicate, (d.atom,))]
    for net in d.networks:
        block.append(Atom("inNetwork", (d.atom, net)))
    if d.physically_exposed:
        block.append(Atom("physicallyExposed", (d.atom,)))
    if d.plugs_into:
        block.append(Atom("plugInto", (d.atom, d.plugs_into)))
    if d.locked_by:
        block.append(Atom("lockedBy", (d.atom, d.locked_by)))
    elif d.device_type in OPENER_TYPES:
        block.append(Atom("lockFree", (d.atom,)))
    if d.supplied_by:
        block.append(Atom("suppliedBy", (d.atom, d.supplied_by)))
    return block


def network_fact_block(config: SystemConfig) -> list[Atom]:
    return [Atom(n.protocol, (n.atom,)) for n in config.networks]


def config_fact_blocks(config: SystemConfig) -> list[list[Atom]]:
    blocks = [device_fact_block(d) for d in config.devices]
    net_block = network_fact_block(config)
    if net_block:
        blocks.append(net_block)
    return blocks


def attacker_facts(config: SystemConfig) -> list[Atom]:
    out = []
    if config.attacker.has_internet:
        out.append(Atom("attackerOnInternet"))
    for net in config.attacker.radio_adjacent:
        out.append(Atom("attackerRadioAdjacent", (net,)))
    for dev in config.attacker.physical_access:
        out.append(Atom("attackerPhysicalAccess", (dev,)))
    return out


def _render_blocks(blocks: Sequence[Sequence[Atom]]) -> str:
    return "\n\n".join("\n".join(render_fact(a) for a in block) for block in blocks)


def render_system_facts(config: SystemConfig) -> str:
    """Device and network facts as clause text, one blank line per block."""

    return _render_blocks(config_fact_blocks(config)) + "\n"


# ---------------------------------------------------------------------------
# Static rule libraries


def build_propagation_rules() -> list[HornRule]:
    """How attacker privileges imply one another."""

    d, n = "D", "N"
    rules = [
        HornRule(
            Atom("attackerDeviceControl", (d,)),
            (Atom("attackerRoot", (d,)),),
            label="root grants device control",
            var_domains=(("D", "devices"),),
        ),
        HornRule(
            Atom("attackerInNetwork", (n,)),
            (Atom("attackerRoot", (d,)), Atom("inNetwork", (d, n))),
            label="rooted device joins its networks",
        ),
        HornRule(
            Atom("attackerCommandInjection", (d,)),
            (Atom("attackerDeviceControl", (d,)),),
            label="device control grants command injection",
            var_domains=(("D", "devices"),),
        ),
        HornRule(
            Atom("attackerEventAccess", (d,)),
            (Atom("attackerDeviceControl", (d,)),),
            label="device control grants event access",
            var_domains=(("D", "devices"),),
        ),
        HornRule(
            Atom("attackerLocal", (d,)),
            (Atom("attackerRoot", (d,)),),
            label="root grants local access",
            var_domains=(("D", "devices"),),
        ),
        HornRule(
            Atom("attackerAdjacentPhysically", (n,)),
            (Atom("attackerRadioAdjacent", (n,)),),
            label="radio range grants physical adjacency",
        ),
        HornRule(
            Atom("attackerAdjacentLogically", (n,)),
            (Atom("attackerInNetwork", (n,)),),
            label="network membership grants logical adjacency",
            var_domains=(("N", "networks"),),
        ),
        HornRule(
            Atom("attackerAdjacentPhysically", (n,)),
            (Atom("attackerAdjacentLogically", (n,)),),
            label="logical adjacency implies physical adjacency",
            var_domains=(("N", "networks"),),
        ),
        HornRule(
            Atom("off", (d,)),
            (Atom("dos", (d,)),),
            label="denial of service turns the device off",
            var_domains=(("D", "devices"),),
        ),
    ]
    return rules


def build_dependency_rules() -> list[HornRule]:
    """Physical couplings between devices, direct and via shared channels."""

    rules = []
    # Direct: electrical and utility supply lines.
    rules.append(
        HornRule(
            Atom("off", ("Device",)),
            (
                Atom("plugInto", ("Device", "Outlet")),
                Atom("outlet", ("Outlet",)),
                Atom("off", ("Outlet",)),
            ),
            label="power cut through outlet",
        )
    )
    rules.append(
        HornRule(
            Atom("off", ("Device",)),
            (
                Atom("suppliedBy", ("Device", "Valve")),
                Atom("valve", ("Valve",)),
                Atom("off", ("Valve",)),
            ),
            label="supply cut through valve",
        )
    )
    # Indirect, actuator side: switching a device on drives its channel.
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        for channel, level in info.affect_states:
            if channel in SCALAR_CHANNELS:
                head = Atom(level, (channel,))
            else:
                head = Atom(channel)
            rules.append(
                HornRule(
                    head,
                    (Atom("on", (v,)), Atom(info.predicate, (v,))),
                    label=f"{info.name} drives {channel}",
                )
            )
    # Indirect, sensor side: a driven channel is what sensors report.
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        for channel in sorted(info.senses):
            if channel in SCALAR_CHANNELS:
                for level, pred in (("high", "reportsHigh"), ("low", "reportsLow")):
                    rules.append(
                        HornRule(
                            Atom(pred, (v, channel)),
                            (Atom(level, (channel,)), Atom(info.predicate, (v,))),
                            label=f"{info.name} reports {level} {channel}",
                        )
                    )
            else:
                event_pred = {"smoke": "reportsSmoke", "water": "reportsWater"}[channel]
                rules.append(
                    HornRule(
                        Atom(event_pred, (v,)),
                        (Atom(channel), Atom(info.predicate, (v,))),
                        label=f"{info.name} reports {channel}",
                    )
                )
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
    rules.append(
        HornRule(
            Atom("speakerHears", ("Cmd",)),
            (Atom("voiceCommand", ("Cmd",)), Atom("speaker", ("S",))),
            label="a speaker hears played commands",
            var_domains=(("Cmd", "commands"),),
        )
    )
    return rules


def build_capability_rules() -> list[HornRule]:
    """What injected commands and spoofed events let the attacker set."""

    rules = []
    for info in DEVICE_TYPES.values():
        v = _var(info.predicate)
        for state in info.settable:
            if state == "open" and info.name in OPENER_TYPES:
                rules.append(
                    HornRule(
                        Atom("open", (v,)),
                        (
                            Atom("attackerCommandInjection", (v,)),
                            Atom(info.predicate, (v,)),
                            Atom("lockFree", (v,)),
                        ),
                        label=f"injected open command on unlatched {info.name}",
                    )
                )
                rules.append(
                    HornRule(
                        Atom("open", (v,)),
                        (
                            Atom("attackerCommandInjection", (v,)),
                            Atom(info.predicate, (v,)),
                            Atom("lockedBy", (v, "L")),
                            Atom("lock", ("L",)),
                            Atom("unlock", ("L",)),
                        ),
                        label=f"injected open command on unlocked {info.name}",
                    )
                )
            else:
                rules.append(
                    HornRule(
                        Atom(state, (v,)),
                        (Atom("attackerCommandInjection", (v,)), Atom(info.predicate, (v,))),
                        label=f"injected {state} command on {info.name}",
                    )
                )
        for event in info.events:
            pred, extra = EVENT_ATOMS[event]
            rules.append(
                HornRule(
                    Atom(pred, (v, *extra)),
                    (Atom("attackerEventAccess", (v,)), Atom(info.predicate, (v,))),
                    label=f"spoofed {event} event on {info.name}",
                )
            )
    return rules


def build_exploit_schemas() -> list[HornRule]:
    """The thirty generic exploit rules, one per (precondition, effect).

    These document the semantics; the reasoner works on rules instantiated
    per classified CVE (``ExploitModel.rule``), whose vulProperty terms carry
    concrete protocol prefixes and network scopes.
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
    return out


# ---------------------------------------------------------------------------
# Grounding


def _join_plan(atom: Atom, slots: dict[str, int]) -> tuple:
    """How a body atom joins against facts, giving its new variables slots.

    A fact of the right arity matches when each checked position holds the
    constant or the slot value its check names; the slots of the atom's new
    variables take the fact's values at their first positions. The lookup key
    is the first check whose value is known before the atom is joined.
    """

    bound_before = len(slots)
    new, checks = [], []
    for pos, arg in enumerate(atom.args):
        if not is_variable(arg):
            checks.append((pos, arg))
        elif arg in slots:
            checks.append((pos, slots[arg]))
        else:
            slots[arg] = len(slots)
            new.append(pos)
    lookup = next(((pos, c) for pos, c in checks if c.__class__ is str or c < bound_before), None)
    return atom.pred, len(atom.args), new, checks, lookup


def ground_static_rules(
    rules: list[HornRule], facts: list[Atom], domains: dict[str, list[str]]
) -> list[HornRule]:
    """Instantiate variable rules against the fact base.

    Body atoms whose predicate lives in the fact base bind variables by
    joining; variables left over take values from the rule's declared
    fallback domains. Each rule is compiled once: its variables get slots
    (join variables in the order the join binds them, then the leftover
    ones sorted), a binding is the tuple of slot values, and each atom of the
    rule becomes a template that a binding fills. A join atom takes its
    candidate facts from an index on its first known argument, kept in fact
    order, so bindings come out in the order a scan of all facts gives.
    Ground atoms are interned by predicate and arguments, starting from the
    facts, so each distinct one is built once per call.
    """

    by_pred, by_position, interned = {}, {}, {}
    for f in facts:
        by_pred.setdefault(f.pred, []).append(f)
        for pos, arg in enumerate(f.args):
            by_position.setdefault((f.pred, pos, arg), []).append(f)
        interned.setdefault(f.pred, {}).setdefault(f.args, f)

    out: list[HornRule] = []
    seen: set[tuple] = set()
    for rule in rules:
        slots: dict[str, int] = {}
        joins = [
            _join_plan(atom, slots)
            for atom in rule.body
            if atom.pred in STATIC_FACT_PREDS and atom.variables()
        ]
        bindings = [()]
        for pred, arity, new, checks, lookup in joins:
            extended = []
            for b in bindings:
                if lookup is None:
                    pool = by_pred.get(pred, [])
                else:
                    pos, want = lookup
                    value = want if want.__class__ is str else b[want]
                    pool = by_position.get((pred, pos, value), [])
                for f in pool:
                    fa = f.args
                    if len(fa) != arity:
                        continue
                    nb = b + tuple([fa[pos] for pos in new])
                    if all(fa[pos] == (c if c.__class__ is str else nb[c]) for pos, c in checks):
                        extended.append(nb)
            bindings = extended
            if not bindings:
                break
        if not bindings:
            continue
        free = sorted(rule.variables() - slots.keys())
        fallback = dict(rule.var_domains)
        for var in free:
            if var not in fallback:
                raise LogicError(
                    f"rule {rule.label!r}: variable {var} has neither a fact "
                    f"binding nor a fallback domain"
                )
            slots[var] = len(slots)
        pools = [domains.get(fallback[var], []) for var in free]
        templates = [
            (interned.setdefault(a.pred, {}), a.pred, args_template(a.args, slots))
            for a in (rule.head, *rule.body)
        ]
        for binding, combo in product(bindings, product(*pools)):
            values = binding + combo
            atoms = []
            for table, pred, fill in templates:
                args = fill(values)
                atom = table.get(args)
                if atom is None:
                    atom = table[args] = Atom.instance(pred, args)
                atoms.append(atom)
            key = tuple(atoms)
            if key not in seen:
                seen.add(key)
                out.append(HornRule.instance(key[0], key[1:], rule.label))
    return out


# ---------------------------------------------------------------------------
# Whole-system compilation


@dataclass
class CompiledSystem:
    """The ground program and goals, with where each part of the program starts.

    ``program.rules`` holds the exploit rules, then the ground static rules
    from ``static_start``, then the app rules from ``app_start``.
    ``program.facts`` holds the configuration facts in blocks of
    ``block_sizes`` facts, then the attacker facts, then the vulnerability
    facts from ``vul_start``.
    """

    program: LogicProgram
    goals: tuple[Atom, ...]
    static_start: int
    app_start: int
    block_sizes: tuple[int, ...]
    vul_start: int


def compile_system(
    config: SystemConfig,
    models: list[ExploitModel],
    bound_apps: list[BoundApp],
    extra_goals: tuple[Atom, ...] = (),
) -> CompiledSystem:
    blocks = config_fact_blocks(config)
    config_facts = [a for block in blocks for a in block]
    atk_facts = attacker_facts(config)

    vul_facts = list(dict.fromkeys(fact for model in models for fact in model.facts()))
    alphabet = list(dict.fromkeys(cmd for bound in bound_apps for cmd in bound.voice_commands))

    facts = config_facts + atk_facts + vul_facts
    domains = {
        "devices": [d.atom for d in config.devices],
        "networks": [n.atom for n in config.networks],
        "commands": alphabet,
    }

    static_library = (
        build_propagation_rules()
        + build_dependency_rules()
        + build_voice_rules()
        + build_capability_rules()
    )
    static_ground = ground_static_rules(static_library, facts, domains)

    # Exploit rule bodies use the fact objects, not the copies that
    # ``ExploitModel.rule`` builds.
    shared = {fact: fact for fact in vul_facts}
    first_rules: dict[tuple, HornRule] = {}
    for model in models:
        rule = model.rule()
        if (rule.head, rule.body) not in first_rules:
            body = tuple(shared.get(atom, atom) for atom in rule.body)
            first_rules[rule.head, rule.body] = HornRule.instance(rule.head, body, rule.label)
    exploit_rules = list(first_rules.values())

    app_rules = [rule for bound in bound_apps for rule in bound.rules]

    goals = list(config.goals)
    for atom in extra_goals:
        if atom not in goals:
            goals.append(atom)

    program = LogicProgram(
        facts=tuple(facts),
        rules=tuple(exploit_rules) + tuple(static_ground) + tuple(app_rules),
    )
    return CompiledSystem(
        program=program,
        goals=tuple(goals),
        static_start=len(exploit_rules),
        app_start=len(exploit_rules) + len(static_ground),
        block_sizes=tuple(map(len, blocks)),
        vul_start=len(config_facts) + len(atk_facts),
    )


def render_program(compiled: CompiledSystem) -> str:
    """Readable clause file: schemas, ground rules, facts, goals."""

    rules, facts = compiled.program.rules, compiled.program.facts
    blocks, start = [], 0
    for size in compiled.block_sizes:
        blocks.append(facts[start : start + size])
        start += size
    rule_sections = (
        ("exploit rule schemas (reference)", "", build_exploit_schemas()),
        ("attack rules instantiated from CVEs", "", rules[: compiled.static_start]),
        (
            "propagation, dependency, and capability rules (ground)",
            "",
            rules[compiled.static_start : compiled.app_start],
        ),
        ("app rules", "app: ", rules[compiled.app_start :]),
    )
    fact_sections = (
        ("facts: attacker", facts[start : compiled.vul_start]),
        ("facts: vulnerabilities", facts[compiled.vul_start :]),
        ("attack goals", [Atom("attackGoal", (goal.render(),)) for goal in compiled.goals]),
    )
    parts = []
    for title, tag, group in rule_sections:
        texts = (f"% {tag}{rule.label}\n{rule.render()}" for rule in group)
        parts.append("\n".join([f"% ==== {title} ====", *texts]))
    parts.append(f"% ==== facts: system configuration ====\n{_render_blocks(blocks)}")
    for title, group in fact_sections:
        parts.append("\n".join([f"% ==== {title} ====", *map(render_fact, group)]))
    return "\n\n".join(parts) + "\n"
