"""The least model of a ground Horn program, and the attack graph sliced from it.

``ground_static_rules`` evaluates facts, ground rules and a library of rules
written with variables to their least model, semi-naively on integer atom
ids, and keeps the library instances that fire (``Grounding``); ``saturate``
runs it with no library. The model and the firings that reach it are a
``SaturationResult``, which ``build_attack_graph`` slices.

The graph is tripartite. Primitive facts are boxes with no incoming edges,
rule firings are AND nodes (every body atom must hold), and derived atoms
are OR nodes (any one firing suffices). Node ids are assigned in a pinned
order so identical inputs always serialize identically: facts sorted by
clause text, then rule firings, then derived atoms. A goal is reachable
exactly when it has a node: the slice starts from every goal the saturation
reached, so ``goal_nodes`` holds those goals and no others. Edges are given
as ``parents``; the graph inverts them once, in node order, into
``children`` for the metrics that walk forward, and condenses them once
into ``schedule``, the evaluation order of the graph metrics.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import count, product
from json.encoder import encode_basestring_ascii as _json_str

from .logic import Atom, HornRule, LogicError, LogicProgram, args_template, atom_text, is_variable
from .logic import picker, render_arg

FACT = "fact"
RULE = "rule"
DERIVATION = "derivation"


Row = tuple[str, int, tuple[int, ...]]


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second level of an ``indent=2`` document."""

    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


class Node:
    """One graph node: its id, kind and text, the atom a fact or derivation
    node stands for, and the rule a rule node stands for.

    A node of ``build_attack_graph`` keeps the saturation and its place in
    it, the atom's id or the firing's row, and builds ``atom`` or ``rule``
    from them on first read. Nothing in ``analyze`` or the writers reads a
    rule, and they read the atoms of few nodes: ``pred`` gives the
    predicate without building the atom. A node made with ``atom`` keeps it.
    """

    __slots__ = ("node_id", "kind", "text", "_atom", "_rule", "_source", "_ref")

    def __init__(
        self,
        node_id: int,
        kind: str,
        text: str,
        atom: Atom | None = None,
        source: "SaturationResult | None" = None,
        ref: int | Row | None = None,
    ) -> None:
        self.node_id, self.kind, self.text = node_id, kind, text
        self._atom, self._rule, self._source, self._ref = atom, None, source, ref

    @property
    def atom(self) -> Atom | None:
        if self._atom is None and self._source is not None and self.kind != RULE:
            self._atom = self._source.atom(self._ref)
        return self._atom

    @property
    def pred(self) -> str | None:
        """The predicate of ``atom``, read without building it."""

        if self._atom is None and self._source is not None and self.kind != RULE:
            return self._source.preds[self._ref]
        return None if self._atom is None else self._atom.pred

    @property
    def rule(self) -> HornRule | None:
        if self._rule is None and self._source is not None and self.kind == RULE:
            self._rule = self._source.rule(self._ref)
        return self._rule

    def __repr__(self) -> str:
        return f"Node({self.node_id!r}, {self.kind!r}, {self.text!r}, atom={self.atom!r})"


@dataclass(frozen=True, slots=True)
class CyclicComponent:
    """A strongly connected component whose nodes lie on a cycle.

    ``members`` holds ``(node, parents, inner_children)`` in node-id order,
    where ``inner_children`` are the node's children inside the component.
    """

    members: tuple[tuple[Node, tuple[int, ...], tuple[int, ...]], ...]


# One step of ``AttackGraph.schedule``: a node on no cycle with its parents,
# or a cyclic component.
Step = tuple[Node, tuple[int, ...]] | CyclicComponent


@dataclass
class AttackGraph:
    nodes: list[Node]
    parents: dict[int, tuple[int, ...]]
    goals: tuple[Atom, ...]
    goal_nodes: dict[Atom, int]
    children: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    schedule: tuple[Step, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        children: dict[int, list[int]] = {}
        for n in self.nodes:
            for p in self.parents.get(n.node_id, ()):
                children.setdefault(p, []).append(n.node_id)
        # Tuples, like ``parents``: the graph keeps them through output writing.
        self.children = {p: tuple(cs) for p, cs in children.items()}
        self.schedule = self._condense()

    def _condense(self) -> tuple[Step, ...]:
        """The strongly connected components of the non-fact nodes with parents.

        Kosaraju and Sharir's two passes, each with an explicit stack (one
        component can hold thousands of nodes): a depth-first search over
        ``children`` lists the nodes in the order they finish, then each
        node not yet placed, taken in reverse finish order, collects its
        component: the unplaced nodes it reaches over ``parents``.
        Components come in topological order, every node after its parents'
        components. Facts and nodes without parents never change, so they
        are left out.
        """

        parents, children = self.parents, self.children
        work = {n.node_id: n for n in self.nodes if n.kind != FACT and parents.get(n.node_id)}
        # The first pass enters each node it reaches in ``unplaced``, the
        # second takes each out as it places it.
        finished: list[int] = []
        unplaced: set[int] = set()
        for root in work:
            if root in unplaced:
                continue
            unplaced.add(root)
            calls = [(root, iter(children.get(root, ())))]
            while calls:
                v, outputs = calls[-1]
                for w in outputs:
                    if w not in unplaced and w in work:
                        unplaced.add(w)
                        calls.append((w, iter(children.get(w, ()))))
                        break
                else:
                    calls.pop()
                    finished.append(v)
        schedule: list[Step] = []
        for root in reversed(finished):
            if root not in unplaced:
                continue
            unplaced.remove(root)
            members, stack = [root], [root]
            while stack:
                for p in parents[stack.pop()]:
                    if p in unplaced:
                        unplaced.remove(p)
                        members.append(p)
                        stack.append(p)
            if len(members) == 1 and root not in parents[root]:
                schedule.append((work[root], parents[root]))
                continue
            members.sort()
            inside = set(members)
            schedule.append(
                CyclicComponent(
                    tuple(
                        (work[m], parents[m], tuple(c for c in children[m] if c in inside))
                        for m in members
                    )
                )
            )
        return tuple(schedule)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id - 1]

    def to_json(self) -> str:
        """The graph document as ``json.dumps(doc, indent=2)`` prints it, plus a newline.

        The document is ``{"nodes": [{"id", "kind", "text", "parents"}, ...],
        "goals": [{"atom", "node", "reachable"}, ...]}``. Its layout is fixed,
        so each node and goal is one f-string, and every string goes through
        the C escaper that ``json.dumps`` uses by default (``ensure_ascii``).
        """

        parents, goal_nodes = self.parents, self.goal_nodes
        nodes = []
        for n in self.nodes:
            ps = parents.get(n.node_id)
            ps_text = "[\n        " + ",\n        ".join(map(str, ps)) + "\n      ]" if ps else "[]"
            nodes.append(
                f'    {{\n      "id": {n.node_id},\n      "kind": {_json_str(n.kind)},\n'
                f'      "text": {_json_str(n.text)},\n      "parents": {ps_text}\n    }}'
            )
        goals = []
        for g in self.goals:
            nid = goal_nodes.get(g)
            goals.append(
                f'    {{\n      "atom": {_json_str(g.render())},\n'
                f'      "node": {"null" if nid is None else nid},\n'
                f'      "reachable": {"true" if g in goal_nodes else "false"}\n    }}'
            )
        return f'{{\n  "nodes": {_json_list(nodes)},\n  "goals": {_json_list(goals)}\n}}\n'

    def to_dot(self) -> str:
        shape = {FACT: "box", RULE: "ellipse", DERIVATION: "diamond"}
        lines = ["digraph attack_graph {", "  rankdir=LR;"]
        goal_ids = set(self.goal_nodes.values())
        for n in self.nodes:
            style = ', style=filled, fillcolor="#ffdddd"' if n.node_id in goal_ids else ""
            label = n.text.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{n.node_id} [shape={shape[n.kind]}, label="{n.node_id}: {label}"{style}];')
        for child, ps in self.parents.items():
            for p in ps:
                lines.append(f"  n{p} -> n{child};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        kind_tag = {FACT: "FACT", RULE: "RULE", DERIVATION: "OR  "}
        lines = []
        for n in self.nodes:
            ps = self.parents.get(n.node_id, ())
            src = f"  <- {', '.join(str(p) for p in ps)}" if ps else ""
            lines.append(f"[{n.node_id:>4}] {kind_tag[n.kind]} {n.text}{src}")
        for g in self.goals:
            status = "reachable" if g in self.goal_nodes else "unreachable"
            lines.append(f"goal {g.render()}: {status}")
        return "\n".join(lines) + "\n"


# An atom's ``SaturationResult.state``: not known (0), a fact, or derived.
GIVEN, DERIVED = 1, 2


class _ArgTexts(dict):
    """Arguments' clause texts by argument, each rendered on its first lookup."""

    def __missing__(self, arg: str) -> str:
        text = self[arg] = render_arg(arg)
        return text


class SaturationResult:
    """A program's least model and the firings that derive it, over interned atoms.

    Each distinct atom is interned once, to an integer id: ``ids[pred][args]``
    is its id, and ``preds``, ``args``, ``objects`` and ``state`` hold, by
    id, its predicate, its arguments, its ``Atom`` once there is one, and
    whether it is known: a fact (``GIVEN``) or derived (``DERIVED``); no
    fact is derived. ``intern`` is the table's one way in, and the only
    writer of these columns; ``row`` interns a rule's atoms through it.

    ``pipeline.analyze`` fills one table in this order: the configuration
    and attacker facts (``rules.config_facts``), the exploit rules' atoms
    and vulnerability facts (``exploits.models_for``), the app rules' atoms
    (``rules.compile_system``), then each atom the evaluation derives. An
    atom met again keeps its first id: an exploit atom that is a fact is
    that fact. ``saturate`` interns a program given as ``Atom``s.

    ``rows`` holds each firing as ``(label, head id, body ids)``, once per
    rule of the program whose body holds. A firing is recorded even when
    its head was already known, because each firing is a separate AND node
    (another way in for the OR above it). ``texts`` joins an atom's text on
    the first call that asks for it from its arguments' texts, each
    distinct argument rendered once per table, and keeps it for ``atom``.

    ``derived`` and ``fired`` give the derived atoms and the firings as
    ``Atom``s and ``HornRule``s, built on first read. ``atom(id)`` gives one
    object per id: the object the evaluation was given, where it was given
    one.
    """

    def __init__(self) -> None:
        self.ids: dict[str, dict[tuple[str, ...], int]] = {}
        self.preds: list[str] = []
        self.args: list[tuple[str, ...]] = []
        self.objects: list[Atom | None] = []
        self.state = bytearray()
        self.rows: list[Row] = []
        self._texts: dict[int, str] = {}
        self._arg_texts = _ArgTexts()

    def intern(
        self, pred: str, args: tuple[str, ...], atom: Atom | None = None, state: int = 0
    ) -> int:
        """The id of ``pred(args)``. A known atom keeps its id, object and
        state; a new one takes the next id, ``atom`` as its object and ``state``."""

        table = self.ids.get(pred)
        if table is None:
            table = self.ids[pred] = {}
        i = table.get(args)
        if i is None:
            i = table[args] = len(self.preds)
            self.preds.append(pred)
            self.args.append(args)
            self.objects.append(atom)
            self.state.append(state)
        return i

    def row(self, rule: HornRule) -> Row:
        """``rule`` as a row, its atoms interned head first with their objects."""

        head, *body = [self.intern(a.pred, a.args, a) for a in (rule.head, *rule.body)]
        return rule.label, head, tuple(body)

    def texts(self, ids: Iterable[int]) -> dict[int, str]:
        """The atoms' texts by id, each of ``ids`` rendered.

        Each text equals ``logic.render_atom``'s, joined (``atom_text``)
        from the texts of the atom's arguments, which are rendered once
        each per table.
        """

        texts, preds, args = self._texts, self.preds, self.args
        arg_text = self._arg_texts.__getitem__
        for i in ids:
            if i not in texts:
                texts[i] = atom_text(preds[i], list(map(arg_text, args[i])))
        return texts

    def atom(self, i: int) -> Atom:
        atom = self.objects[i]
        if atom is None:
            atom = Atom.instance(self.preds[i], self.args[i], self._texts.get(i))
            self.objects[i] = atom
        return atom

    def derived_ids(self) -> list[int]:
        return [i for i, state in enumerate(self.state) if state == DERIVED]

    def rule(self, row: Row) -> HornRule:
        label, head, body = row
        return HornRule.instance(self.atom(head), tuple([self.atom(b) for b in body]), label)

    @cached_property
    def derived(self) -> set[Atom]:
        return set(map(self.atom, self.derived_ids()))

    @cached_property
    def fired(self) -> list[HornRule]:
        return [self.rule(row) for row in self.rows]


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
    holds the seeds' distinct pool names. ``index`` gives each
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


_compile = lru_cache(maxsize=8)(_Library)


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
    """One evaluation: its saturation, and the rows of the library instances
    among its firings, in the order built. ``len()`` counts them;
    ``saturation.rule`` builds one as a ``HornRule``.
    """

    saturation: SaturationResult
    instance_rows: list[Row]

    def __len__(self) -> int:
        return len(self.instance_rows)


def ground_static_rules(
    rules: Sequence[HornRule],
    table: SaturationResult,
    facts: Sequence[int],
    domains: dict[str, list[str]],
    ground: Sequence[Row] = (),
) -> Grounding:
    """The instances of the library ``rules`` that fire, by semi-naive evaluation.

    ``table`` already holds the atoms of ``facts`` (distinct ids, ``GIVEN``)
    and of the ``ground`` rows; it becomes the saturation, and each atom
    the evaluation derives is interned into it. The facts are indexed
    before any seed runs. Then the facts, in order, and each atom that
    becomes known are processed once. Processing an atom counts
    down the rules of ``ground`` that wait for it, each firing when its
    count of distinct body atoms reaches zero, and runs its predicate's
    seeds (``_Library``). A seed joins the rest of its rule's body against
    the indexed atoms' ids, each binding carrying the ids of the atoms it
    matched, and fills only the rule's head, which becomes known in turn.
    An instance is built when the last of its seeded body atoms is
    processed, and the seeds that pass run in ``rules`` order, so each
    ``(head, body)`` is built once, by the first rule that gives it. Every
    atom that becomes known and is not a fact is derived.

    ``rules`` is compiled once per distinct list and set of derivable
    predicates (``_compile``); pools are read from ``domains`` on each call.
    """

    rules = tuple(rules)
    intern, preds, arglist, state = table.intern, table.preds, table.args, table.state
    rows = table.rows
    heads = [r.head.pred for r in rules] + [preds[row[1]] for row in ground]
    library = _compile(rules, frozenset(heads))
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

    for i in facts:
        if preds[i] in plans:
            index(i, preds[i], arglist[i])
    queue: list[int] = []

    def fire(row: Row) -> None:
        head = row[1]
        rows.append(row)
        if not state[head]:
            state[head] = DERIVED
            queue.append(head)

    counts: list[int] = []
    watchers: dict[int, list[int]] = {}
    for k, (_, _, body) in enumerate(ground):
        distinct = set(body)
        counts.append(len(distinct))
        for a in distinct:
            watchers.setdefault(a, []).append(k)

    def count_down(i: int) -> None:
        for k in watchers.pop(i):
            counts[k] -= 1
            if not counts[k]:
                fire(ground[k])

    # Each seed's pooled values, every combination of them; [()] for most.
    combos = {p: list(product(*[domains.get(name, []) for name in p])) for p in library.pools}
    # Each instance's row by its head and body ids, in the order built.
    instances: dict[tuple[int, tuple[int, ...]], Row] = {}

    def emit(seed: tuple, b: tuple) -> None:
        """Join the rest of ``seed`` from its binding ``b`` and record each new instance."""

        _, rest, pools, (hpred, hfill), body_of, label = seed
        bindings = _extend([b], rest, by_pred, by_position, arglist) if rest else (b,)
        for nb in bindings:
            body = body_of(nb)
            for combo in combos[pools]:
                key = (intern(hpred, hfill(nb + combo)), body)
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

    for i in facts:
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

    return Grounding(table, list(instances.values()))


def saturate(program: LogicProgram) -> SaturationResult:
    """The least model of a ground program: the evaluator run with no library.

    The one entry point for a program of ``Atom``s and ``HornRule``s, so the
    one place such a program is interned and its facts are checked ground.
    """

    table = SaturationResult()
    facts = {}
    for fact in program.facts:
        if not fact.is_ground():
            raise LogicError(f"fact is not ground: {fact.render()}")
        facts[table.intern(fact.pred, fact.args, fact, GIVEN)] = None
    rows = [table.row(rule) for rule in program.rules]
    return ground_static_rules([], table, list(facts), {}, rows).saturation


def build_attack_graph(result: SaturationResult, goals: tuple[Atom, ...]) -> AttackGraph:
    """Backward-slice the saturation's rows from the reachable goals.

    Only facts and firings that feed some goal make it into the graph.
    Every atom the slice meets is in the model, so an atom is a fact
    exactly when it is not derived. The slice works on ids: the nodes sort
    by the needed atoms' texts (``SaturationResult.texts``), and each node
    keeps the table and its atom's id or its row, so no atom or rule is
    built here (``Node``).
    """

    rows, state = result.rows, result.state
    by_head: dict[int, list[int]] = {}
    for k, (_, head, _) in enumerate(rows):
        by_head.setdefault(head, []).append(k)

    goal_ids = {}
    for g in goals:
        i = result.ids.get(g.pred, {}).get(g.args)
        if i is not None and state[i]:
            goal_ids[g] = i
    needed = set(goal_ids.values())
    needed_rows: list[int] = []
    stack = list(needed)
    while stack:
        i = stack.pop()
        if state[i] != DERIVED:
            continue
        # Each firing has one head and each head is expanded once, so no
        # firing is met twice.
        for k in by_head[i]:
            needed_rows.append(k)
            for b in rows[k][2]:
                if b not in needed:
                    needed.add(b)
                    stack.append(b)

    text = result.texts(needed)
    by_text = text.__getitem__
    derived_atoms = sorted([i for i in needed if state[i] == DERIVED], key=by_text)
    primitive_atoms = sorted([i for i in needed if state[i] != DERIVED], key=by_text)
    keyed = []
    for k in needed_rows:
        label, head, body = rows[k]
        keyed.append((label, text[head], tuple([text[b] for b in body]), k))
    keyed.sort()

    first_rule = len(primitive_atoms) + 1
    first_derived = first_rule + len(keyed)
    nodes = [
        Node(n, FACT, text[i] + ".", None, result, i) for n, i in enumerate(primitive_atoms, 1)
    ]
    node_of = {i: n for n, i in enumerate(primitive_atoms, 1)}
    node_of.update((i, n) for n, i in enumerate(derived_atoms, first_derived))
    parents: dict[int, tuple[int, ...]] = {}
    derivation_parents: dict[int, list[int]] = {}
    for node_id, (label, head_text, _, k) in enumerate(keyed, first_rule):
        _, head, body = row = rows[k]
        nodes.append(Node(node_id, RULE, label or head_text, None, result, row))
        parents[node_id] = tuple(dict.fromkeys([node_of[b] for b in body]))
        derivation_parents.setdefault(node_of[head], []).append(node_id)
    nodes += [
        Node(n, DERIVATION, text[i], None, result, i)
        for n, i in enumerate(derived_atoms, first_derived)
    ]
    # Firing nodes are numbered in sorted order, so each list ascends.
    for nid, ps in derivation_parents.items():
        parents[nid] = tuple(ps)

    return AttackGraph(
        nodes=nodes,
        parents=parents,
        goals=tuple(goals),
        goal_nodes={g: node_of[i] for g, i in goal_ids.items()},
    )
