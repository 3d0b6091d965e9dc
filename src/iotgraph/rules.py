"""Compile a deployment into a Horn program and evaluate its library rules.

Three ingredients meet here: facts translated from the system configuration,
exploit rules instantiated from classified CVEs and app rules, both ground,
and the static rule libraries (attacker privilege propagation, physical
dependencies, attacker capabilities over actuators/sensors/voice), which are
written with variables. ``ground_static_rules`` evaluates the library
semi-naively over the facts and the ground rules and builds only the library
instances whose bodies hold; the compiled program is the ground rules plus
those instances. The same loop is the program's one saturation: it records
every firing, ground rule and library instance alike, and the atoms it
derives, so ``compile_system`` hands the analysis the least model the
attack graph is sliced from without evaluating the program again. The one
variable no body atom binds, the voice rules' ``Cmd``, ranges over the
commands the apps listen for.

The evaluator is the package's only least-model engine. ``saturate`` is the
evaluator run with no library: it takes the least model of any ground
program, for callers that hold only a program, such as a what-if
re-analysis without some facts.
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
    DEVICE_TYPES, EVENT_ATOMS, OPENER_TYPES, SCALAR_CHANNELS, DeviceSpec, SystemConfig
)
from .reasoner import SaturationResult

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
        ),
        HornRule(
            Atom("attackerEventAccess", (d,)),
            (Atom("attackerDeviceControl", (d,)),),
            label="device control grants event access",
        ),
        HornRule(
            Atom("attackerLocal", (d,)),
            (Atom("attackerRoot", (d,)),),
            label="root grants local access",
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
        ),
        HornRule(
            Atom("attackerAdjacentPhysically", (n,)),
            (Atom("attackerAdjacentLogically", (n,)),),
            label="logical adjacency implies physical adjacency",
        ),
        HornRule(
            Atom("off", (d,)),
            (Atom("dos", (d,)),),
            label="denial of service turns the device off",
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
                rules.append(
                    HornRule(
                        Atom(pred, (v, *extra)),
                        (cause, Atom(info.predicate, (v,))),
                        label=f"{info.name} reports {event}",
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
# Semi-naive evaluation of the library


def static_library() -> list[HornRule]:
    """Every static library rule, in the order that decides a shared instance's label."""

    return (
        build_propagation_rules()
        + build_dependency_rules()
        + build_voice_rules()
        + build_capability_rules()
    )


AtomTable = dict[str, dict[tuple[str, ...], Atom]]


def intern(atoms: AtomTable, atom: Atom) -> Atom:
    """The atom of ``atoms`` equal to ``atom``, entering ``atom`` if there is none."""

    return atoms.setdefault(atom.pred, {}).setdefault(atom.args, atom)


def _join_plan(atom: Atom, slots: dict[str, int]) -> tuple:
    """How a body atom joins against known atoms, giving its new variables slots.

    A known atom of the right arity matches when each checked position holds
    the constant or the slot value its check names; the slots of the atom's
    new variables take the atom's values at their first positions. The
    lookup key is the first check whose value is known before the atom is
    joined.
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


def _rule_plan(rule: HornRule, domains: dict[str, list[str]]) -> tuple:
    """How one library rule joins its body, in body order, and fills its pools.

    Every body variable gets a slot in the order the join binds it; the
    variables no body atom binds follow, sorted, and take every value of
    their pool.
    """

    slots: dict[str, int] = {}
    joins = [_join_plan(atom, slots) for atom in rule.body]
    fallback = dict(rule.var_domains)
    pools = []
    for var in sorted(rule.variables() - slots.keys()):
        if var not in fallback:
            raise LogicError(
                f"rule {rule.label!r}: variable {var} has neither a fact "
                f"binding nor a fallback domain"
            )
        slots[var] = len(slots)
        pools.append(domains.get(fallback[var], []))
    return joins, slots, pools


def _seed_plan(rule: HornRule, seed: int, slots: dict[str, int]) -> tuple:
    """How ``rule`` joins when body atom ``seed`` is matched first.

    The seed binds its variables first and the rest of the body joins in
    body order; ``guard`` is the index key of the first lookup after the
    seed, and ``order`` puts the bound values back in the order of the
    rule's own ``slots`` (None where they already are).
    """

    seeded: dict[str, int] = {}
    _, arity, new, checks, _ = _join_plan(rule.body[seed], seeded)
    rest = [_join_plan(atom, seeded) for i, atom in enumerate(rule.body) if i != seed]
    # The index key the next body atom looks up, if any: most seeds of a
    # library rule fail there, on the device type of the seed's device.
    guard = (rest[0][0], *rest[0][4]) if rest and rest[0][4] is not None else None
    order = [seeded[var] for var in slots if var in seeded]
    return arity, new, checks, guard, rest, None if order == sorted(order) else order


def _extend(
    bindings: list[tuple], joins: list[tuple], by_pred: dict, by_position: dict
) -> list[tuple]:
    """The bindings that also match each of ``joins`` against the known atoms."""

    for pred, arity, new, checks, lookup in joins:
        extended = []
        for b in bindings:
            if lookup is None:
                pool = by_pred.get(pred, ())
            else:
                pos, want = lookup
                pool = by_position.get((pred, pos, want if want.__class__ is str else b[want]), ())
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
    return bindings


def ground_static_rules(
    rules: list[HornRule],
    facts: list[Atom],
    domains: dict[str, list[str]],
    ground: Sequence[HornRule] = (),
    atoms: AtomTable | None = None,
    saturation: SaturationResult | None = None,
) -> list[HornRule]:
    """The instances of the library ``rules`` that fire, by semi-naive evaluation.

    Known atoms, the facts first, are indexed by predicate and by
    ``(pred, position, value)``, but only those whose predicate occurs in
    some body of ``rules``: no other atom is ever joined against, so with
    no library nothing is indexed. Each rule's body is joined once over the
    facts. After that, each atom that becomes known is the seed of every
    body atom with its predicate: the rest of that body joins against the
    known atoms, and each binding fills the rule's templates into an
    instance whose body holds, so its head becomes known in turn. The
    already-ground rules of ``ground`` (exploit and app rules) keep a count
    of body atoms not yet known and make their head known when it reaches
    zero. Each ``(head, body)`` is built once, by the first rule in
    ``rules`` order that gives it: rules that give the same instance find it
    when the same atom becomes known, and seeds are tried in rule order.

    Every atom is interned in ``atoms`` (predicate, then arguments), which
    starts from the facts unless the caller passes a table already holding
    them and the atoms of ``ground``. Plans are compiled per call: each
    rule's join plan up front, which checks that every variable is bound by
    a body atom or has a pool in ``domains``; its templates when it first
    fires; its seed plans when an atom of the seed's predicate first becomes
    known.

    The evaluation is the saturation of the facts, ``ground`` and the
    returned instances. When ``saturation`` is given, an empty
    ``SaturationResult``, it is filled with that least model: each ground
    rule fires when its count starts at or reaches zero, each instance when
    it is first built, and every atom queued is derived.
    """

    if atoms is None:
        atoms = {}
    if saturation is None:
        saturation = SaturationResult()
    known, queued, fire = saturation.known, saturation.derived, saturation.fire
    joined = {atom.pred for rule in rules for atom in rule.body}
    by_pred: dict[str, list[Atom]] = {}
    by_position: dict[tuple, list[Atom]] = {}

    def learn(atom: Atom) -> None:
        known.add(atom)
        if atom.pred in joined:
            by_pred.setdefault(atom.pred, []).append(atom)
            for pos, arg in enumerate(atom.args):
                by_position.setdefault((atom.pred, pos, arg), []).append(atom)

    for fact in facts:
        fact = intern(atoms, fact)
        if fact not in known:
            learn(fact)

    queue: list[Atom] = []

    def derive(head: Atom) -> None:
        if head not in known and head not in queued:
            queued.add(head)
            queue.append(head)

    counts: list[int] = []
    watchers: dict[Atom, list[int]] = {}
    for i, rule in enumerate(ground):
        missing = {a for a in rule.body if a not in known}
        counts.append(len(missing))
        for a in missing:
            watchers.setdefault(a, []).append(i)
        if not missing:
            fire(rule)
            derive(rule.head)

    plans = [_rule_plan(rule, domains) for rule in rules]
    templates: list[list | None] = [None] * len(rules)
    # Instance atoms, head first, -> the instance.
    instances: dict[tuple[Atom, ...], HornRule] = {}

    def emit(index: int, bindings: list[tuple], order: list[int] | None = None) -> None:
        _, slots, pools = plans[index]
        label = rules[index].label
        fills = templates[index]
        if fills is None:
            fills = templates[index] = [
                (atoms.setdefault(a.pred, {}), a.pred, args_template(a.args, slots))
                for a in (rules[index].head, *rules[index].body)
            ]
        for b in bindings:
            if order is not None:
                b = tuple([b[i] for i in order])
            for combo in product(*pools):
                values = b + combo
                key = []
                for table, pred, fill in fills:
                    args = fill(values)
                    atom = table.get(args)
                    if atom is None:
                        atom = table[args] = Atom.instance(pred, args)
                    key.append(atom)
                key = tuple(key)
                if key not in instances:
                    rule = instances[key] = HornRule.instance(key[0], key[1:], label)
                    fire(rule)
                    derive(key[0])

    seats: dict[str, list[tuple[int, int]]] = {}
    for index, rule in enumerate(rules):
        for pos, atom in enumerate(rule.body):
            seats.setdefault(atom.pred, []).append((index, pos))
        bindings = _extend([()], plans[index][0], by_pred, by_position)
        if bindings:
            emit(index, bindings)

    seeded: dict[str, list[tuple]] = {}
    while queue:
        atom = queue.pop()
        learn(atom)
        for i in watchers.pop(atom, ()):
            counts[i] -= 1
            if not counts[i]:
                fire(ground[i])
                derive(ground[i].head)
        seeds = seeded.get(atom.pred)
        if seeds is None:
            seeds = seeded[atom.pred] = [
                (index, *_seed_plan(rules[index], pos, plans[index][1]))
                for index, pos in seats.get(atom.pred, ())
            ]
        fa = atom.args
        for index, arity, new, checks, guard, rest, order in seeds:
            if len(fa) != arity:
                continue
            b = tuple([fa[pos] for pos in new])
            if checks and not all(fa[pos] == (c if c.__class__ is str else b[c]) for pos, c in checks):
                continue
            if guard is not None:
                pred, pos, want = guard
                if (pred, pos, want if want.__class__ is str else b[want]) not in by_position:
                    continue
            bindings = _extend([b], rest, by_pred, by_position) if rest else [b]
            if bindings:
                emit(index, bindings, order)

    return list(instances.values())


def saturate(program: LogicProgram) -> SaturationResult:
    """The least model of a ground program: the evaluator run with no library."""

    result = SaturationResult()
    ground_static_rules([], list(program.facts), {}, program.rules, saturation=result)
    return result


# ---------------------------------------------------------------------------
# Whole-system compilation


@dataclass
class CompiledSystem:
    """The compiled program and goals, with where each part of the program starts.

    ``program.rules`` holds the exploit rules, then the instances of
    ``library`` that fire from ``static_start``, then the app rules from
    ``app_start``; every atom in it is one object per distinct atom.
    ``program.facts`` holds the configuration facts in blocks of
    ``block_sizes`` facts, then the attacker facts, then the vulnerability
    facts from ``vul_start``.
    """

    program: LogicProgram
    goals: tuple[Atom, ...]
    library: tuple[HornRule, ...]
    static_start: int
    app_start: int
    block_sizes: tuple[int, ...]
    vul_start: int


def compile_system(
    config: SystemConfig,
    models: list[ExploitModel],
    bound_apps: list[BoundApp],
    extra_goals: tuple[Atom, ...] = (),
    saturation: SaturationResult | None = None,
) -> CompiledSystem:
    """Compile the deployment; ``saturation``, if given, receives its least model.

    ``saturation`` is an empty ``SaturationResult`` that the library
    evaluation fills (see ``ground_static_rules``).
    """

    blocks = config_fact_blocks(config)
    config_facts = [a for block in blocks for a in block]
    atk_facts = attacker_facts(config)
    model_rules = [model.rule() for model in models]
    # Each exploit rule's body starts with its model's two vulnerability facts.
    vul_facts = list(dict.fromkeys(fact for rule in model_rules for fact in rule.body[:2]))
    facts = config_facts + atk_facts + vul_facts

    # One table for every atom of the program, starting from the facts.
    atoms: AtomTable = {}
    for fact in facts:
        intern(atoms, fact)

    def interned(rule: HornRule) -> HornRule:
        body = tuple([intern(atoms, a) for a in rule.body])
        return HornRule.instance(intern(atoms, rule.head), body, rule.label)

    first_rules: dict[tuple, HornRule] = {}
    for rule in model_rules:
        if (rule.head, rule.body) not in first_rules:
            first_rules[rule.head, rule.body] = interned(rule)
    exploit_rules = list(first_rules.values())
    app_rules = [interned(rule) for bound in bound_apps for rule in bound.rules]

    alphabet = list(dict.fromkeys(cmd for bound in bound_apps for cmd in bound.voice_commands))
    library = static_library()
    fired = ground_static_rules(
        library, facts, {"commands": alphabet}, exploit_rules + app_rules, atoms, saturation
    )

    goals = list(config.goals)
    for atom in extra_goals:
        if atom not in goals:
            goals.append(atom)

    program = LogicProgram(facts=tuple(facts), rules=(*exploit_rules, *fired, *app_rules))
    return CompiledSystem(
        program=program,
        goals=tuple(goals),
        library=tuple(library),
        static_start=len(exploit_rules),
        app_start=len(exploit_rules) + len(fired),
        block_sizes=tuple(map(len, blocks)),
        vul_start=len(config_facts) + len(atk_facts),
    )


def _rule_text(rule: HornRule, tag: str) -> str:
    pools = "".join(f"; {var} ranges over the {domain}" for var, domain in rule.var_domains)
    return f"% {tag}{rule.label}{pools}\n{rule.render()}"


def render_program(compiled: CompiledSystem) -> str:
    """Readable clause file: schemas, exploit rules, the library, app rules, facts, goals."""

    rules, facts = compiled.program.rules, compiled.program.facts
    blocks, start = [], 0
    for size in compiled.block_sizes:
        blocks.append(facts[start : start + size])
        start += size
    rule_sections = (
        ("exploit rule schemas (reference)", "", build_exploit_schemas()),
        ("attack rules instantiated from CVEs", "", rules[: compiled.static_start]),
        ("propagation, dependency, voice, and capability rules", "", compiled.library),
        ("app rules", "app: ", rules[compiled.app_start :]),
    )
    fact_sections = (
        ("facts: attacker", facts[start : compiled.vul_start]),
        ("facts: vulnerabilities", facts[compiled.vul_start :]),
        ("attack goals", [Atom("attackGoal", (goal.render(),)) for goal in compiled.goals]),
    )
    parts = []
    for title, tag, group in rule_sections:
        texts = (_rule_text(rule, tag) for rule in group)
        parts.append("\n".join([f"% ==== {title} ====", *texts]))
    parts.append(f"% ==== facts: system configuration ====\n{_render_blocks(blocks)}")
    for title, group in fact_sections:
        parts.append("\n".join([f"% ==== {title} ====", *map(render_fact, group)]))
    return "\n\n".join(parts) + "\n"
