"""The least model of a ground Horn program, and the attack graph sliced from it.

A ``SaturationResult`` is the least model with the rule firings that reach
it. This module computes none: the evaluator in ``rules`` fills it, for
``analyze`` as it grounds the library (``rules.ground_static_rules``) and
for a bare program through ``rules.saturate``. ``build_attack_graph`` only
slices the saturation it is handed.

The graph is tripartite. Primitive facts are boxes with no incoming edges,
rule firings are AND nodes (every body atom must hold), and derived atoms
are OR nodes (any one firing suffices). Node ids are assigned in a pinned
order so identical inputs always serialize identically: facts sorted by
clause text, then rule firings, then derived atoms.

A goal is reachable exactly when it has a node: the slice starts from every
goal the saturation reached, so ``goal_nodes`` holds those goals and no
others. Edges are given as ``parents``; the graph inverts them once, in node
order, into ``children`` for the metrics that walk forward, and condenses
them once into ``schedule``, the evaluation order of the graph metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .logic import Atom, HornRule, render_fact

FACT = "fact"
RULE = "rule"
DERIVATION = "derivation"


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second level of an ``indent=2`` document."""

    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


class Node(NamedTuple):
    node_id: int
    kind: str
    text: str
    atom: Atom | None = None
    rule: HornRule | None = None


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


@dataclass
class SaturationResult:
    """A program's least model and the firings that derive it.

    ``known`` is the whole model, the facts and ``derived``; no fact is in
    ``derived``. ``fired`` holds each rule whose body holds, once per rule
    of the program, and ``fired_by_head`` indexes it by head. A firing is
    recorded even when its head was already known, because each firing is
    a separate AND node (another way in for the OR above it).
    """

    known: set[Atom] = field(default_factory=set)
    derived: set[Atom] = field(default_factory=set)
    fired: list[HornRule] = field(default_factory=list)
    fired_by_head: dict[Atom, list[int]] = field(default_factory=dict)

    def fire(self, rule: HornRule) -> None:
        """Record a firing of ``rule``; its head's derivation is the caller's."""

        self.fired_by_head.setdefault(rule.head, []).append(len(self.fired))
        self.fired.append(rule)


def _atom_key(atom: Atom) -> str:
    return atom.render()


def build_attack_graph(result: SaturationResult, goals: tuple[Atom, ...]) -> AttackGraph:
    """Backward-slice the saturation trace from the reachable goals.

    Only facts and firings that feed some goal make it into the graph.
    Every atom the slice meets is in the model, so an atom is a fact
    exactly when it is not derived.
    """

    derived = result.derived

    reachable_goals = [g for g in goals if g in result.known]
    needed_atoms: set[Atom] = set()
    needed_firings: list[int] = []
    stack: list[Atom] = []
    for g in reachable_goals:
        if g not in needed_atoms:
            needed_atoms.add(g)
            stack.append(g)
    while stack:
        atom = stack.pop()
        if atom not in derived:
            continue
        # Each firing has one head and each head is expanded once, so no
        # firing is met twice.
        for firing_id in result.fired_by_head.get(atom, []):
            needed_firings.append(firing_id)
            rule = result.fired[firing_id]
            for body_atom in rule.body:
                if body_atom not in needed_atoms:
                    needed_atoms.add(body_atom)
                    stack.append(body_atom)

    derived_atoms = sorted((a for a in needed_atoms if a in derived), key=_atom_key)
    primitive_atoms = sorted((a for a in needed_atoms if a not in derived), key=_atom_key)

    keyed = []
    for fid in needed_firings:
        rule = result.fired[fid]
        keyed.append((rule.label, rule.head.render(), tuple([a.render() for a in rule.body]), fid))
    keyed.sort()
    fired = [result.fired[key[-1]] for key in keyed]

    first_rule = len(primitive_atoms) + 1
    first_derived = first_rule + len(fired)
    nodes = [Node(i, FACT, render_fact(a), a) for i, a in enumerate(primitive_atoms, 1)]
    nodes += [
        Node(i, RULE, r.label or r.head.render(), None, r) for i, r in enumerate(fired, first_rule)
    ]
    nodes += [
        Node(i, DERIVATION, a.render(), a) for i, a in enumerate(derived_atoms, first_derived)
    ]
    atom_node = {n.atom: n.node_id for n in nodes if n.kind != RULE}

    parents: dict[int, tuple[int, ...]] = {}
    derivation_parents: dict[int, list[int]] = {}
    for node_id, rule in enumerate(fired, first_rule):
        parents[node_id] = tuple(dict.fromkeys([atom_node[a] for a in rule.body]))
        derivation_parents.setdefault(atom_node[rule.head], []).append(node_id)
    # Firing nodes are numbered in sorted order, so each list ascends.
    for nid, ps in derivation_parents.items():
        parents[nid] = tuple(ps)

    return AttackGraph(
        nodes=nodes,
        parents=parents,
        goals=tuple(goals),
        goal_nodes={g: atom_node[g] for g in reachable_goals},
    )


def default_goals(result: SaturationResult) -> tuple[Atom, ...]:
    """When no goals are configured: every derived attacker privilege."""

    privilege_preds = {
        "attackerRoot",
        "attackerDeviceControl",
        "attackerCommandInjection",
        "attackerEventAccess",
        "attackerInNetwork",
    }
    picked = [a for a in result.derived if a.pred in privilege_preds]
    picked.sort(key=_atom_key)
    return tuple(picked)
