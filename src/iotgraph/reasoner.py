"""The least model of a ground Horn program, and the attack graph sliced from it.

A ``SaturationResult`` is the least model with the rule firings that reach
it, over integer atom ids: one table interns each ground atom, and each
firing is a row of label, head id and body ids. Its ``Atom`` and
``HornRule`` views are built on first read. This module computes no
saturation: the evaluator in ``rules`` fills it, for ``analyze`` as it
grounds the library (``rules.ground_static_rules``) and for a bare program
through ``rules.saturate``. ``build_attack_graph`` only slices the rows it
is handed, and builds atoms for the slice's nodes only; a rule node keeps
its row and builds its ``HornRule`` (``Node.rule``) on first read.

The graph is tripartite. Primitive facts are boxes with no incoming edges,
rule firings are AND nodes (every body atom must hold), and derived atoms
are OR nodes (any one firing suffices). Node ids are assigned in a pinned
order so identical inputs always serialize identically: facts sorted by
clause text, then rule firings, then derived atoms.

Where no goal is configured, ``default_goals`` takes every derived attacker
privilege: the head of each effect in ``exploits.EFFECTS`` but denial of
service. A goal is reachable exactly when it has a node: the slice starts
from every goal the saturation reached, so ``goal_nodes`` holds those goals
and no others. Edges are given as ``parents``; the graph inverts them once, in node
order, into ``children`` for the metrics that walk forward, and condenses
them once into ``schedule``, the evaluation order of the graph metrics.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str

from .exploits import EFFECTS
from .logic import Atom, HornRule

FACT = "fact"
RULE = "rule"
DERIVATION = "derivation"


Row = tuple[str, int, tuple[int, ...]]


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second level of an ``indent=2`` document."""

    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


class Node:
    """One graph node: its id, kind and text, and the atom a fact or
    derivation node stands for.

    A rule node of ``build_attack_graph`` keeps the saturation and its row,
    and builds ``rule`` from them on first read; nothing in ``analyze`` or
    the writers reads it.
    """

    __slots__ = ("node_id", "kind", "text", "atom", "_rule", "_row", "_source")

    def __init__(self, node_id: int, kind: str, text: str, atom: Atom | None = None) -> None:
        self.node_id, self.kind, self.text, self.atom = node_id, kind, text, atom
        self._rule = self._row = self._source = None

    @classmethod
    def firing(cls, node_id: int, text: str, source: "SaturationResult", row: Row) -> "Node":
        """The rule node of a firing, its rule left to build on first read."""

        node = cls(node_id, RULE, text)
        node._row, node._source = row, source
        return node

    @property
    def rule(self) -> HornRule | None:
        if self._rule is None and self._source is not None:
            self._rule = self._source.rule(self._row)
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


class SaturationResult:
    """A program's least model and the firings that derive it, over interned atoms.

    Each distinct atom the evaluation meets is interned once, to an integer
    id: ``ids[pred][args]`` is its id, and ``preds``, ``args``, ``objects``
    and ``state`` hold, by id, its predicate, its arguments, its ``Atom``
    once there is one, and whether it is known: a fact (``GIVEN``) or
    derived (``DERIVED``); no fact is derived. ``add`` alone writes a new
    id into these columns. ``rows`` holds each firing as ``(label, head id,
    body ids)``, once per rule of the program whose body holds, and
    ``rows_by_head()`` indexes it by head. A firing is recorded even when
    its head was already known, because each firing is a separate AND node
    (another way in for the OR above it).

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

    def add(
        self, pred: str, args: tuple[str, ...], atom: Atom | None = None, state: int = 0
    ) -> int:
        """The next id, given to an atom that ``ids[pred]`` does not hold yet."""

        i = self.ids[pred][args] = len(self.preds)
        self.preds.append(pred)
        self.args.append(args)
        self.objects.append(atom)
        self.state.append(state)
        return i

    def intern(self, atoms: Iterable[Atom], state: int = 0) -> list[int]:
        """The ids of ``atoms``; a new atom takes the next id, keeps its
        object and starts in ``state``."""

        ids, add = self.ids, self.add
        out = []
        for atom in atoms:
            pred, args = atom.pred, atom.args
            table = ids.get(pred)
            if table is None:
                table = ids[pred] = {}
            i = table.get(args)
            if i is None:
                i = add(pred, args, atom, state)
            out.append(i)
        return out

    def atom(self, i: int) -> Atom:
        atom = self.objects[i]
        if atom is None:
            atom = self.objects[i] = Atom.instance(self.preds[i], self.args[i])
        return atom

    def derived_ids(self) -> list[int]:
        return [i for i, state in enumerate(self.state) if state == DERIVED]

    def rows_by_head(self) -> dict[int, list[int]]:
        """The row numbers of each head's firings, built anew on each call."""

        by_head: dict[int, list[int]] = {}
        for k, (_, head, _) in enumerate(self.rows):
            by_head.setdefault(head, []).append(k)
        return by_head

    def rule(self, row: Row) -> HornRule:
        label, head, body = row
        return HornRule.instance(self.atom(head), tuple([self.atom(b) for b in body]), label)

    @cached_property
    def derived(self) -> set[Atom]:
        return set(map(self.atom, self.derived_ids()))

    @cached_property
    def fired(self) -> list[HornRule]:
        return [self.rule(row) for row in self.rows]


def build_attack_graph(result: SaturationResult, goals: tuple[Atom, ...]) -> AttackGraph:
    """Backward-slice the saturation's rows from the reachable goals.

    Only facts and firings that feed some goal make it into the graph.
    Every atom the slice meets is in the model, so an atom is a fact
    exactly when it is not derived. The slice works on ids: each needed
    atom's text is rendered once, the nodes sort by those texts, and atoms
    are built only for the slice's nodes. A rule node builds its rule from
    its row on first read.
    """

    rows, by_head, state = result.rows, result.rows_by_head(), result.state

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

    atom = result.atom
    text = {i: atom(i).render() for i in needed}
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
    nodes = [Node(n, FACT, text[i] + ".", atom(i)) for n, i in enumerate(primitive_atoms, 1)]
    node_of = {i: n for n, i in enumerate(primitive_atoms, 1)}
    node_of.update((i, n) for n, i in enumerate(derived_atoms, first_derived))
    parents: dict[int, tuple[int, ...]] = {}
    derivation_parents: dict[int, list[int]] = {}
    for node_id, (label, head_text, _, k) in enumerate(keyed, first_rule):
        _, head, body = row = rows[k]
        nodes.append(Node.firing(node_id, label or head_text, result, row))
        parents[node_id] = tuple(dict.fromkeys([node_of[b] for b in body]))
        derivation_parents.setdefault(node_of[head], []).append(node_id)
    nodes += [
        Node(n, DERIVATION, text[i], atom(i)) for n, i in enumerate(derived_atoms, first_derived)
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


# The attacker privileges: the head of every exploit effect but denial of service.
PRIVILEGES = frozenset(head.pred for kind, (_, head) in EFFECTS.items() if kind != "dos")


def default_goals(result: SaturationResult) -> tuple[Atom, ...]:
    """When no goals are configured: every derived attacker privilege."""

    preds = result.preds
    picked = [result.atom(i) for i in result.derived_ids() if preds[i] in PRIVILEGES]
    picked.sort(key=Atom.render)
    return tuple(picked)
