"""Saturate a ground Horn program and build the attack graph.

The graph is tripartite. Primitive facts are boxes with no incoming edges,
rule firings are AND nodes (every body atom must hold), and derived atoms
are OR nodes (any one firing suffices). Node ids are assigned in a pinned
order so identical inputs always serialize identically: facts sorted by
clause text, then rule firings, then derived atoms.

A goal is reachable exactly when it has a node: the slice starts from every
goal the saturation reached, so ``goal_nodes`` holds those goals and no
others. Edges are given as ``parents``; the graph inverts them once, in node
order, into ``children`` for the metrics that walk forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

from .logic import Atom, HornRule, LogicProgram, render_fact

FACT = "fact"
RULE = "rule"
DERIVATION = "derivation"


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second level of an ``indent=2`` document."""

    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


@dataclass(frozen=True, slots=True)
class Node:
    node_id: int
    kind: str
    text: str
    atom: Atom | None = None
    rule: HornRule | None = None


@dataclass
class AttackGraph:
    nodes: list[Node]
    parents: dict[int, tuple[int, ...]]
    goals: tuple[Atom, ...]
    goal_nodes: dict[Atom, int]
    children: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        children: dict[int, list[int]] = {}
        for n in self.nodes:
            for p in self.parents.get(n.node_id, ()):
                children.setdefault(p, []).append(n.node_id)
        # Tuples, like ``parents``: the graph keeps them through output writing.
        self.children = {p: tuple(cs) for p, cs in children.items()}

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id - 1]

    def fact_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == FACT]

    def rule_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == RULE]

    def derivation_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == DERIVATION]

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
    derived: set[Atom]
    fired: list[HornRule]
    fired_by_head: dict[Atom, list[int]]


def saturate(program: LogicProgram) -> SaturationResult:
    """Forward-chain to fixpoint with watched body atoms.

    Each rule keeps a count of body atoms not yet known true; a rule fires
    exactly once, when its count hits zero. Firings are recorded even when
    the head atom was already derived, because each firing is a separate
    AND node (another way in for the OR above it).
    """

    known: set[Atom] = set(program.facts)
    rules = list(program.rules)
    counts: list[int] = []
    watchers: dict[Atom, list[int]] = {}
    fired: list[HornRule] = []
    fired_by_head: dict[Atom, list[int]] = {}
    queue: list[Atom] = []
    derived: set[Atom] = set()

    def fire(rule: HornRule) -> None:
        firing_id = len(fired)
        fired.append(rule)
        fired_by_head.setdefault(rule.head, []).append(firing_id)
        if rule.head not in known and rule.head not in derived:
            derived.add(rule.head)
            queue.append(rule.head)

    for i, rule in enumerate(rules):
        distinct = set(rule.body)
        missing = {a for a in distinct if a not in known}
        counts.append(len(missing))
        for atom in missing:
            watchers.setdefault(atom, []).append(i)
        if not missing:
            fire(rule)

    while queue:
        atom = queue.pop()
        known.add(atom)
        for i in watchers.pop(atom, []):
            counts[i] -= 1
            if counts[i] == 0:
                fire(rules[i])

    return SaturationResult(derived=derived, fired=fired, fired_by_head=fired_by_head)


def _atom_key(atom: Atom) -> str:
    return atom.render()


def build_attack_graph(
    program: LogicProgram,
    goals: tuple[Atom, ...],
    result: SaturationResult | None = None,
) -> AttackGraph:
    """Backward-slice the saturation trace from the reachable goals.

    Only facts and firings that feed some goal make it into the graph.
    """

    if result is None:
        result = saturate(program)
    known = set(program.facts) | result.derived
    fact_set = set(program.facts)

    reachable_goals = [g for g in goals if g in known]
    needed_atoms: set[Atom] = set()
    needed_firings: set[int] = set()
    stack: list[Atom] = []
    for g in reachable_goals:
        if g not in needed_atoms:
            needed_atoms.add(g)
            stack.append(g)
    while stack:
        atom = stack.pop()
        if atom in fact_set:
            continue
        for firing_id in result.fired_by_head.get(atom, []):
            if firing_id in needed_firings:
                continue
            needed_firings.add(firing_id)
            rule = result.fired[firing_id]
            for body_atom in rule.body:
                if body_atom not in needed_atoms:
                    needed_atoms.add(body_atom)
                    stack.append(body_atom)

    derived_atoms = sorted((a for a in needed_atoms if a not in fact_set), key=_atom_key)
    primitive_atoms = sorted((a for a in needed_atoms if a in fact_set), key=_atom_key)

    firing_order = sorted(
        needed_firings,
        key=lambda fid: (
            result.fired[fid].label,
            result.fired[fid].head.render(),
            tuple(a.render() for a in result.fired[fid].body),
            fid,
        ),
    )

    nodes: list[Node] = []
    parents: dict[int, tuple[int, ...]] = {}
    atom_node: dict[Atom, int] = {}

    def add(kind: str, text: str, atom: Atom | None = None, rule: HornRule | None = None) -> int:
        node_id = len(nodes) + 1
        nodes.append(Node(node_id, kind, text, atom=atom, rule=rule))
        return node_id

    for atom in primitive_atoms:
        atom_node[atom] = add(FACT, render_fact(atom), atom=atom)
    firing_node: dict[int, int] = {}
    for fid in firing_order:
        rule = result.fired[fid]
        text = rule.label or rule.head.render()
        firing_node[fid] = add(RULE, text, rule=rule)
    for atom in derived_atoms:
        atom_node[atom] = add(DERIVATION, atom.render(), atom=atom)

    for fid in firing_order:
        rule = result.fired[fid]
        body_parents = []
        for body_atom in rule.body:
            pid = atom_node[body_atom]
            if pid not in body_parents:
                body_parents.append(pid)
        parents[firing_node[fid]] = tuple(body_parents)
    derivation_parents: dict[int, list[int]] = {}
    for fid in firing_order:
        rule = result.fired[fid]
        derivation_parents.setdefault(atom_node[rule.head], []).append(firing_node[fid])
    # Firing nodes are numbered in ``firing_order``, so each list ascends.
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
