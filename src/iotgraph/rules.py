"""Compile a deployment into a Horn program and evaluate its library rules.

Three ingredients meet here: facts translated from the system configuration,
exploit rules instantiated from classified CVEs and app rules, both ground,
and the static rule libraries (attacker privilege propagation, physical
dependencies, attacker capabilities over actuators/sensors/voice), which are
written with variables. ``ground_static_rules`` evaluates the library
semi-naively over the facts and the ground rules, on integer atom ids: it
interns each ground atom once, in one table of predicate and arguments, and
records each firing as a row of label, head id and body ids. The facts are
interned first, marked given, and indexed before any seed runs, and a rule
is seeded only from its body atoms of predicates that some library or
ground rule heads, or from its first body atom when its body holds none;
facts and derived atoms run one seed table. Each seed joins the rest of its
body bound-first, so the work grows with the home, and the join hands over
the ids of the atoms it matched: an instance's body is never filled or
looked up again, and only its head is interned. The same loop is the
program's one saturation: its rows are the least model the attack graph is
sliced from. The compiled program is the ground rules plus the
library instances that fire, which ``CompiledSystem.program`` builds as
``HornRule``s on first read; nothing in ``analyze`` or the writers reads
it. The library is built once per process and compiled once per set of
derivable predicates; no evaluation changes its compiled form. The voice
rules' ``Cmd``, which no body atom binds, ranges over the commands the apps
listen for.

``saturate`` is the evaluator run with no library, the package's only
least-model engine, for callers that hold only a program, such as a what-if
re-analysis without some facts.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import count, islice, product

from .apps import BoundApp
from .exploits import EFFECTS, PRECONDITIONS, ExploitModel
from .logic import (
    Atom,
    HornRule,
    LogicError,
    LogicProgram,
    args_template,
    is_variable,
    parse_atom,
    picker,
)
from .model import (
    DEVICE_TYPES, EVENT_ATOMS, OPENER_TYPES, SCALAR_CHANNELS, DeviceSpec, SystemConfig
)
from .reasoner import DERIVED, GIVEN, Row, SaturationResult

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


def render_system_facts(config: SystemConfig) -> str:
    """Device and network facts as clause text, one blank line per block."""

    return _render_blocks(config_fact_blocks(config)) + "\n"


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


# ---------------------------------------------------------------------------
# Semi-naive evaluation of the library


@functools.cache
def static_library() -> tuple[HornRule, ...]:
    """Every static library rule, in the order that decides a shared instance's label.

    Built once per process, so its compiled form (``_compile``) is found
    again on every later evaluation with the same derivable predicates.
    """

    return (
        *build_propagation_rules(),
        *build_dependency_rules(),
        *build_voice_rules(),
        *build_capability_rules(),
    )


def _join_plan(atom: Atom, slots: dict, key: int) -> tuple:
    """How a body atom joins against known atoms, giving its new variables slots.

    ``slots`` already holds the atom's constants. A known atom of the right
    arity matches when each checked position holds the slot value its check
    names; the slots of the atom's new variables take the atom's values at
    their first positions, and one more slot, entered under ``key``, takes
    the atom's id. The lookup key is the first check whose slot is bound
    before the atom is joined.
    """

    bound_before = len(slots)
    new, checks = [], []
    for pos, arg in enumerate(atom.args):
        if arg in slots:
            checks.append((pos, slots[arg]))
        else:
            slots[arg] = len(slots)
            new.append(pos)
    slots[key] = len(slots)
    lookup = next((ch for ch in checks if ch[1] < bound_before), None)
    return atom.pred, len(atom.args), tuple(new), tuple(checks), lookup


class _Library:
    """A rule list compiled for evaluation with the predicates that can be derived.

    ``derivable`` holds every predicate some rule of the evaluation heads. A
    rule is seeded from each body atom of a derivable predicate, and from
    its first body atom when its body holds none: atoms of the other
    predicates are all facts, indexed before any seed runs, so a join
    started later finds them. ``seeds`` gives each seeded predicate its
    seeds, each the rule joined from one body atom (``_seed``): grouped by
    pattern, so an atom is bound once per pattern, then by guard, so a
    binding tests each guard once; their places in rule order order the
    seeds that pass. Facts and derived atoms both run ``seeds``. ``pools``
    holds the seeds' distinct pool names and ``filled`` the predicates of
    their heads, the only atoms an instance fills. ``index`` gives each
    predicate that a seed's join looks up whether the join scans it whole
    and the positions it is looked up at; no other predicate is indexed.
    Nothing here changes after construction.
    """

    def __init__(self, rules: tuple[HornRule, ...], derivable: frozenset[str]) -> None:
        self.index: dict[str, tuple[bool, tuple[int, ...]]] = {}
        patterns: dict[str, dict[tuple, dict]] = {}
        pools: dict[tuple[str, ...], None] = {}
        places = count()
        for rule in rules:
            starts = [pos for pos, a in enumerate(rule.body) if a.pred in derivable] or [0]
            for pos in starts:
                pattern, guard, seed = self._seed(rule, pos, next(places))
                pools[seed[2]] = None
                by_guard = patterns.setdefault(rule.body[pos].pred, {}).setdefault(pattern, {})
                by_guard.setdefault(guard, []).append(seed)
        self.seeds = {
            pred: [(*p, [*guards.items()]) for p, guards in by_pattern.items()]
            for pred, by_pattern in patterns.items()
        }
        self.pools = tuple(pools)
        self.filled = tuple(dict.fromkeys(r.head.pred for r in rules))

    def _seed(self, rule: HornRule, seed: int, place: int) -> tuple:
        """``rule`` joined from body atom ``seed``, then the rest bound-first.

        The distinct constants of the body take the first slots, so every
        value a check, lookup or guard reads is a slot value. Next in the
        join comes the first remaining body atom with an argument in a slot,
        else the first remaining one, so the join looks atoms up by a known
        value wherever the body allows. The seed's slots are the constants,
        then for each atom of its join the variables it binds and its id,
        then the pooled variables, sorted. Gives the seed's pattern (arity,
        the constants that start each binding, new slots, checks); its
        guard, the key of the first lookup after it, where most library
        seeds fail (on the device's type); and the seed: its place, the rest
        of its join, the rule's pools, the head's predicate and fill
        template over the seed's slots, the pick of the body's ids in body
        order, and the label. Enters the join's lookups in ``index``.
        """

        consts = tuple(dict.fromkeys(x for a in rule.body for x in a.args if not is_variable(x)))
        slots: dict = {x: i for i, x in enumerate(consts)}
        _, arity, new, checks, _ = _join_plan(rule.body[seed], slots, seed)
        rest = [k for k in range(len(rule.body)) if k != seed]
        joins = []
        while rest:
            k = next((k for k in rest if any(x in slots for x in rule.body[k].args)), rest[0])
            rest.remove(k)
            *plan, tests, lookup = _join_plan(rule.body[k], slots, k)
            # Every atom the lookup finds passes its check.
            joins.append((*plan, tuple(ch for ch in tests if ch != lookup), lookup))
        for pred, _, _, _, lookup in joins:
            scan, positions = self.index.get(pred, (False, ()))
            if lookup is None:
                scan = True
            elif lookup[0] not in positions:
                positions = (*positions, lookup[0])
            self.index[pred] = (scan, positions)
        body = picker([slots[k] for k in range(len(rule.body))])
        fallback, pools = dict(rule.var_domains), []
        for var in sorted(rule.variables() - slots.keys()):
            if var not in fallback:
                raise LogicError(
                    f"rule {rule.label!r}: variable {var} has neither a fact "
                    f"binding nor a fallback domain"
                )
            slots[var] = len(slots)
            pools.append(fallback[var])
        head = (rule.head.pred, args_template(rule.head.args, slots))
        guard = (joins[0][0], *joins[0][4]) if joins and joins[0][4] is not None else None
        pattern = (arity, consts, new, checks)
        return pattern, guard, (place, tuple(joins), tuple(pools), head, body, rule.label)


_compile = functools.lru_cache(maxsize=8)(_Library)


def _extend(
    bindings: list[tuple], joins: tuple, by_pred: dict, by_position: dict, arglist: list
) -> list[tuple]:
    """The bindings that also match each of ``joins`` against the known atoms.

    The index holds atom ids and ``arglist`` their arguments; each match
    extends its binding with the values of the join's new variables and the
    matched atom's id.
    """

    for pred, arity, new, checks, lookup in joins:
        extended = []
        for b in bindings:
            if lookup is None:
                pool = by_pred.get(pred, ())
            else:
                pool = by_position.get((pred, lookup[0], b[lookup[1]]), ())
            for i in pool:
                fa = arglist[i]
                if len(fa) != arity:
                    continue
                nb = (*b, *[fa[pos] for pos in new], i)
                if not checks or all(fa[pos] == nb[c] for pos, c in checks):
                    extended.append(nb)
        bindings = extended
        if not bindings:
            break
    return bindings


@dataclass
class Grounding:
    """One evaluation: its saturation, and the library instances among its rows.

    ``instance_rows`` holds the instances' rows in the order built. ``len()``
    counts them; iterating gives them as ``HornRule``s, built on first read.
    """

    saturation: SaturationResult
    instance_rows: list[Row]

    def __len__(self) -> int:
        return len(self.instance_rows)

    def __iter__(self) -> Iterator[HornRule]:
        return iter(self.instances)

    @functools.cached_property
    def instances(self) -> tuple[HornRule, ...]:
        return tuple(map(self.saturation.rule, self.instance_rows))


def ground_static_rules(
    rules: Sequence[HornRule],
    facts: Sequence[Atom],
    domains: dict[str, list[str]],
    ground: Sequence[HornRule] = (),
) -> Grounding:
    """The instances of the library ``rules`` that fire, by semi-naive evaluation.

    Atoms are interned to ids in the saturation's table, the facts first,
    so a fact keeps its object and is known from the start, and the facts
    are indexed before any seed runs. Then the facts, in order, and each
    atom that becomes known are processed once. Processing an atom counts
    down the rules of ``ground`` (exploit and app rules) that wait for it,
    and runs its predicate's seeds: a rule of ``rules`` is seeded from each
    body atom whose predicate a rule of ``rules`` or ``ground`` heads, and
    from its first body atom when its body holds none. The rest of the body
    joins against the indexed atoms' ids, and each binding carries the ids
    of the body atoms it matched, the instance's body, and fills only the
    rule's head, which becomes known in turn. Each ground rule counts its
    distinct body atoms and fires when the count reaches zero. An instance
    is built when the last of its seeded body atoms is processed, and the
    seeds that pass run in ``rules`` order, so each ``(head, body)`` is
    built once, by the first rule that gives it.

    ``rules`` is compiled once per distinct list and set of derivable
    predicates (``_Library``) and no call changes it; pools are read from
    ``domains`` on each call. The evaluation is the saturation of the
    facts, ``ground`` and the instances: each ground rule fires when its
    count reaches zero, each instance when it is first built, and every
    atom that becomes known and is not a fact is derived.
    """

    rules = tuple(rules)
    library = _compile(rules, frozenset([r.head.pred for r in (*rules, *ground)]))
    sat = SaturationResult()
    ids, preds, arglist, state, rows = sat.ids, sat.preds, sat.args, sat.state, sat.rows
    dispatch, plans = library.seeds, library.index

    # Known atoms' ids, where a seed's join looks them up.
    by_pred: dict[str, list[int]] = {}
    by_position: dict[tuple, list[int]] = {}

    def index(i: int, pred: str, fa: tuple[str, ...]) -> None:
        scan, positions = plans[pred]
        if scan:
            by_pred.setdefault(pred, []).append(i)
        for pos in positions:
            if pos < len(fa):
                by_position.setdefault((pred, pos, fa[pos]), []).append(i)

    # The distinct facts take the first ids, in order, marked given, and
    # are indexed before any seed runs.
    sat.intern(facts, GIVEN)
    fact_ids = range(len(preds))
    for i in fact_ids:
        if preds[i] in plans:
            index(i, preds[i], arglist[i])
    flat = iter(sat.intern([a for rule in ground for a in (rule.head, *rule.body)]))
    ground_rows = [(rule.label, next(flat), tuple(islice(flat, len(rule.body)))) for rule in ground]
    for pred in library.filled:
        ids.setdefault(pred, {})
    queue: list[int] = []

    def fire(row: Row) -> None:
        head = row[1]
        rows.append(row)
        if not state[head]:
            state[head] = DERIVED
            queue.append(head)

    counts: list[int] = []
    watchers: dict[int, list[int]] = {}
    for k, (_, _, body) in enumerate(ground_rows):
        distinct = set(body)
        counts.append(len(distinct))
        for a in distinct:
            watchers.setdefault(a, []).append(k)

    def count_down(i: int) -> None:
        for k in watchers.pop(i):
            counts[k] -= 1
            if not counts[k]:
                fire(ground_rows[k])

    def intern_head(pred: str, args: tuple[str, ...]) -> int:
        i = ids[pred].get(args)
        return sat.add(pred, args) if i is None else i

    # Each seed's pooled values, every combination of them; [()] for most.
    combos = {p: list(product(*[domains.get(name, []) for name in p])) for p in library.pools}
    # Each instance's row by its head and body ids, in the order built.
    instances: dict[tuple[int, tuple[int, ...]], Row] = {}

    def emit(seed: tuple, b: tuple) -> None:
        """Join the rest of ``seed`` from its binding ``b`` and record each new instance.

        The body's ids come from the join; only the head is filled.
        """

        _, rest, pools, (hpred, hfill), body_of, label = seed
        bindings = _extend([b], rest, by_pred, by_position, arglist) if rest else (b,)
        for nb in bindings:
            body = body_of(nb)
            for combo in combos[pools]:
                key = (intern_head(hpred, hfill(nb + combo)), body)
                if key not in instances:
                    row = instances[key] = (label, *key)
                    fire(row)

    def run_seeds(i: int, fa: tuple[str, ...], patterns: list[tuple]) -> None:
        """Run the seeds of ``patterns`` that atom ``i``, with arguments ``fa``, binds."""

        passed = []
        for arity, consts, new, checks, guards in patterns:
            if len(fa) != arity:
                continue
            b = (*consts, *[fa[pos] for pos in new], i)
            if checks and not all(fa[pos] == b[c] for pos, c in checks):
                continue
            for guard, seeds in guards:
                if guard is not None:
                    gpred, pos, slot = guard
                    if (gpred, pos, b[slot]) not in by_position:
                        continue
                passed += [(s, b) for s in seeds]
        # Seeds lead with their places, which are distinct: only places compare.
        passed.sort()
        for s, b in passed:
            emit(s, b)

    for i in fact_ids:
        if i in watchers:
            count_down(i)
        # Most facts (types, wiring, vulnerabilities) start no seed: skip the call.
        patterns = dispatch.get(preds[i])
        if patterns:
            run_seeds(i, arglist[i], patterns)
    while queue:
        i = queue.pop()
        pred, fa = preds[i], arglist[i]
        if pred in plans:
            index(i, pred, fa)
        if i in watchers:
            count_down(i)
        patterns = dispatch.get(pred)
        if patterns:
            run_seeds(i, fa, patterns)

    return Grounding(sat, list(instances.values()))


def saturate(program: LogicProgram) -> SaturationResult:
    """The least model of a ground program: the evaluator run with no library.

    The one entry point for a program built elsewhere, so the one place its
    facts are checked ground.
    """

    for fact in program.facts:
        if not fact.is_ground():
            raise LogicError(f"fact is not ground: {fact.render()}")
    return ground_static_rules([], program.facts, {}, program.rules).saturation


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
        rules = (*self.exploit_rules, *self.grounding, *self.app_rules)
        return LogicProgram(facts=self.facts, rules=rules)


def compile_system(
    config: SystemConfig,
    models: list[ExploitModel],
    bound_apps: list[BoundApp],
    extra_goals: tuple[Atom, ...] = (),
) -> CompiledSystem:
    """Compile the deployment and evaluate its library (see ``ground_static_rules``)."""

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
