"""Quantitative questions over an attack graph.

Four queries, all driven by the AND/OR structure:

* ``shortest_trace``: the minimum-height proof tree for a goal, found by
  value iteration (facts cost 0, an AND step costs one more than its
  deepest input, an OR picks its cheapest option) and read back as an
  executable step list.
* ``attack_evidence``: for every node, the set of CVE combinations that
  suffice to reach it. Combinations are bitmasks over the graph's CVE
  universe; AND merges by pairwise union, OR by set union.
* ``blast_radius``: everything an attacker can reach using one single CVE.
* ``patch_set``: a small set of CVEs whose removal disconnects a goal,
  chosen greedily over the goal's evidence.

Depths and evidence are fixpoints, found by sweeping ``graph.nodes`` in
order until a pass changes nothing. A sweep re-evaluates only the nodes one
of whose inputs changed since their last evaluation; any other node would
compute the value it already holds. The order itself stays pinned: the
graph can have cycles, capped evidence nodes lie on them, and truncation is
not monotone, so evaluating in another order (by strongly connected
component, say) could settle on different tags.

``pipeline.analyze`` runs the depth, evidence, trace and patch queries once
and keeps their results; ``render_report`` only formats them, computing
nothing but the blast radii, which no other output needs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .logic import Atom
from .reasoner import DERIVATION, FACT, RULE, AttackGraph, Node

CatSet = frozenset[int]

EVIDENCE_CAP = 4096

# The evidence of a node that needs no CVE; the identity of the AND merge.
NO_CVE: CatSet = frozenset({0})


def merge_ae_or(a: CatSet, b: CatSet) -> CatSet:
    """Alternative routes: either side's combinations work."""

    return a | b


def merge_ae_and(a: CatSet, b: CatSet) -> CatSet:
    """Joint requirements: one combination from each side, unioned."""

    if a == NO_CVE:
        return b
    if b == NO_CVE:
        return a
    return frozenset(x | y for x in a for y in b)


def _truncate(tags: CatSet) -> CatSet:
    """The ``EVIDENCE_CAP`` smallest masks by (CVE count, value).

    Masks are grouped by CVE count; only the group that crosses the cap is
    sorted.
    """

    cap = EVIDENCE_CAP
    if len(tags) <= cap:
        return tags
    by_count: list[list[int]] = [[] for _ in range(max(tags).bit_length() + 1)]
    for t in tags:
        by_count[t.bit_count()].append(t)
    kept: list[int] = []
    for group in by_count:
        room = cap - len(kept)
        if len(group) > room:
            group = sorted(group)[:room]
        kept += group
        if len(kept) == cap:
            break
    return frozenset(kept)


def _sweep(
    graph: AttackGraph, vals: dict, evaluate: Callable[[Node, tuple[int, ...]], object]
) -> None:
    """Update ``vals`` to the fixpoint of ``evaluate`` over the graph.

    Each pass walks ``graph.nodes`` in order and stops after a pass that
    changes nothing. Facts and nodes without inputs keep their start value.
    A node is evaluated on the first pass and afterwards only when one of
    its inputs changed since: a change marks the node's children dirty, so a
    later child is evaluated in the same pass and an earlier one in the next.
    Skipped nodes would have computed the value they hold, so the result is
    that of evaluating every node on every pass.
    """

    work = [
        (n, graph.parents[n.node_id])
        for n in graph.nodes
        if n.kind != FACT and graph.parents.get(n.node_id)
    ]
    children: dict[int, list[int]] = {}
    for n, ps in work:
        for p in ps:
            children.setdefault(p, []).append(n.node_id)
    dirty = {n.node_id for n, _ in work}
    changed = True
    while changed:
        changed = False
        for n, ps in work:
            nid = n.node_id
            if nid not in dirty:
                continue
            dirty.discard(nid)
            new = evaluate(n, ps)
            if new != vals[nid]:
                vals[nid] = new
                dirty.update(children.get(nid, ()))
                changed = True


# ---------------------------------------------------------------------------
# Depth and traces


def node_depths(graph: AttackGraph) -> dict[int, float]:
    """Minimum proof-tree height per node; ``inf`` if underivable.

    Facts have height 0; a rule is one higher than its deepest input, a
    derivation one higher than its shallowest, and a node keeps its height
    unless that is lower. The fixpoint comes from ``_sweep``, which
    re-evaluates only the nodes whose inputs changed, in the pinned node
    order.
    """

    vals: dict[int, float] = {}
    for n in graph.nodes:
        vals[n.node_id] = 0.0 if n.kind == FACT else math.inf

    def evaluate(n: Node, ps: tuple[int, ...]) -> float:
        if n.kind == RULE:
            best = max(vals[p] for p in ps)
        else:
            best = min(vals[p] for p in ps)
        return min(best + 1.0, vals[n.node_id])

    _sweep(graph, vals, evaluate)
    return vals


@dataclass(frozen=True)
class TraceStep:
    node_id: int
    kind: str
    text: str
    depth: int


@dataclass(frozen=True)
class Trace:
    goal: Atom
    depth: int
    steps: tuple[TraceStep, ...]

    def render(self) -> str:
        lines = [f"goal {self.goal.render()} (depth {self.depth})"]
        tag = {FACT: "have", RULE: "apply", DERIVATION: "reach"}
        for step in self.steps:
            lines.append(f"  {tag[step.kind]:<5} {step.text}")
        return "\n".join(lines)


def shortest_trace(
    graph: AttackGraph, goal: Atom, depths: dict[int, float] | None = None
) -> Trace | None:
    """One minimum-height proof of the goal, primitives first.

    OR nodes take their cheapest incoming rule (lowest node id on ties),
    AND nodes take every input. Steps come out ordered by (depth, id),
    which is a valid execution order because a step's inputs are always
    strictly shallower.
    """

    node_id = graph.goal_nodes.get(goal)
    if node_id is None:
        return None
    if depths is None:
        depths = node_depths(graph)
    if math.isinf(depths[node_id]):
        return None

    picked: set[int] = set()
    stack = [node_id]
    while stack:
        nid = stack.pop()
        if nid in picked:
            continue
        picked.add(nid)
        node = graph.node(nid)
        if node.kind == FACT:
            continue
        ps = graph.parents.get(nid, ())
        if node.kind == DERIVATION:
            chosen = min(ps, key=lambda p: (depths[p], p))
            stack.append(chosen)
        else:
            stack.extend(ps)

    order = sorted(picked, key=lambda nid: (depths[nid], nid))
    steps = tuple(
        TraceStep(nid, graph.node(nid).kind, graph.node(nid).text, int(depths[nid]))
        for nid in order
    )
    return Trace(goal=goal, depth=int(depths[node_id]), steps=steps)


# ---------------------------------------------------------------------------
# Evidence


@dataclass
class Evidence:
    universe: tuple[str, ...]
    tags: dict[int, CatSet]

    def bit(self, cve_id: str) -> int | None:
        try:
            return 1 << self.universe.index(cve_id)
        except ValueError:
            return None

    def cves_in(self, tag: int) -> tuple[str, ...]:
        """The CVEs of a combination, in universe order; visits set bits only."""

        names = []
        while tag:
            low = tag & -tag
            names.append(self.universe[low.bit_length() - 1])
            tag ^= low
        return tuple(names)

    def render_tags(self, node_id: int) -> str:
        tags = sorted(self.tags.get(node_id, frozenset()))
        parts = []
        for t in tags:
            names = self.cves_in(t)
            parts.append("{" + ", ".join(names) + "}" if names else "{}")
        return "[" + ", ".join(parts) + "]"


def attack_evidence(graph: AttackGraph) -> Evidence:
    """Fixpoint of the evidence lattice over the graph.

    Facts carry ``{their CVE bit}`` if they assert a vulnerability and
    ``{0}`` otherwise; rule nodes fold their inputs with the AND merge,
    derivations with the OR merge. Oversized tag sets are truncated to the
    smallest combinations to keep cyclic graphs bounded.

    ``_sweep`` re-evaluates only the nodes whose inputs changed and keeps
    the pinned node order: truncation is not monotone and capped nodes lie
    on cycles, so another order could reach other tags.
    """

    universe: list[str] = []
    for n in graph.fact_nodes():
        if n.atom is not None and n.atom.pred == "vulExists":
            cve = n.atom.args[1]
            if cve not in universe:
                universe.append(cve)
    bit = {cve: 1 << i for i, cve in enumerate(universe)}

    tags: dict[int, CatSet] = {}
    for n in graph.nodes:
        if n.kind == FACT:
            if n.atom is not None and n.atom.pred == "vulExists":
                tags[n.node_id] = frozenset({bit[n.atom.args[1]]})
            else:
                tags[n.node_id] = NO_CVE
        else:
            tags[n.node_id] = frozenset()

    def evaluate(n: Node, ps: tuple[int, ...]) -> CatSet:
        if n.kind == RULE:
            acc = NO_CVE
            for p in ps:
                acc = merge_ae_and(acc, tags[p])
        else:
            acc = frozenset()
            for p in ps:
                acc = merge_ae_or(acc, tags[p])
        return _truncate(acc)

    _sweep(graph, tags, evaluate)
    return Evidence(universe=tuple(universe), tags=tags)


def blast_radius(graph: AttackGraph, evidence: Evidence, cve_id: str) -> tuple[Atom, ...]:
    """Derived conditions reachable with this CVE and nothing else."""

    b = evidence.bit(cve_id)
    if b is None:
        return ()
    out = []
    for n in graph.derivation_nodes():
        if b in evidence.tags.get(n.node_id, frozenset()):
            out.append(n.atom)
    return tuple(out)


# ---------------------------------------------------------------------------
# Patch planning


@dataclass(frozen=True)
class PatchPlan:
    goal: Atom
    verdict: str  # "unreachable" | "unpatchable" | "blocked"
    cves: tuple[str, ...]

    def render(self) -> str:
        if self.verdict == "unreachable":
            return f"goal {self.goal.render()}: already unreachable"
        if self.verdict == "unpatchable":
            return f"goal {self.goal.render()}: reachable without any CVE, patching cannot block it"
        return f"goal {self.goal.render()}: blocked by patching " + ", ".join(self.cves)


def patch_set(graph: AttackGraph, evidence: Evidence, goal: Atom) -> PatchPlan:
    """Greedy minimum hitting set over the goal's evidence tags.

    Every tag is one way in; a patch breaks a tag when it removes at least
    one CVE the tag needs. Ties go to the lexicographically first CVE id.
    """

    node_id = graph.goal_nodes.get(goal)
    if node_id is None:
        return PatchPlan(goal=goal, verdict="unreachable", cves=())
    remaining = set(evidence.tags.get(node_id, frozenset()))
    if not remaining:
        return PatchPlan(goal=goal, verdict="unreachable", cves=())
    if 0 in remaining:
        return PatchPlan(goal=goal, verdict="unpatchable", cves=())

    bits = [(cve, evidence.bit(cve)) for cve in sorted(evidence.universe)]
    picked: list[str] = []
    while remaining:
        best_cve, best_bit, best_cover = None, 0, -1
        for cve, b in bits:
            cover = sum(1 for t in remaining if t & b)
            if cover > best_cover:
                best_cve, best_bit, best_cover = cve, b, cover
        if best_cve is None or best_cover <= 0:
            return PatchPlan(goal=goal, verdict="unpatchable", cves=())
        picked.append(best_cve)
        remaining = {t for t in remaining if not t & best_bit}
    return PatchPlan(goal=goal, verdict="blocked", cves=tuple(picked))


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class GoalResult:
    goal: Atom
    reachable: bool
    depth: int | None
    trace: Trace | None
    patch: PatchPlan


def render_report(
    graph: AttackGraph, evidence: Evidence, goal_results: Sequence[GoalResult]
) -> str:
    """Human-readable report of the per-goal metrics ``analyze`` computed.

    Only the blast radius of each CVE in the universe is computed here.
    """

    lines = [
        f"nodes: {len(graph.nodes)} "
        f"({len(graph.fact_nodes())} facts, {len(graph.rule_nodes())} rules, "
        f"{len(graph.derivation_nodes())} derived)",
        f"cve universe: {', '.join(evidence.universe) or '(none)'}",
    ]
    for r in goal_results:
        lines.append("")
        if r.trace is None:
            lines.append(f"goal {r.goal.render()}: unreachable")
            continue
        lines.append(r.trace.render())
        lines.append(f"  evidence: {evidence.render_tags(graph.goal_nodes[r.goal])}")
        lines.append("  " + r.patch.render())
    for cve in evidence.universe:
        lines.append("")
        atoms = blast_radius(graph, evidence, cve)
        lines.append(f"blast radius of {cve} alone: {len(atoms)} conditions")
        for atom in atoms:
            lines.append(f"  {atom.render()}")
    return "\n".join(lines) + "\n"
