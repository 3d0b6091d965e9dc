"""Quantitative questions over an attack graph.

Four queries, all driven by the AND/OR structure:

* ``shortest_trace``: the minimum-height proof tree for a goal, found by
  value iteration (facts cost 0, an AND step costs one more than its
  deepest input, an OR picks its cheapest option) and read back as an
  executable step list.
* ``attack_evidence``: for every node, its minimal CVE combinations: the
  sets of CVEs that suffice to reach it and have no sufficient proper
  subset. Combinations are bitmasks over the graph's CVE universe, and a
  node's tags form an antichain (no mask contains another), the
  minimal-cut-set view of AND/OR attack graphs. AND merges by pairwise
  union, OR by set union, each followed by dropping every mask that
  contains another.
* ``blast_radii``: for every CVE, the derived conditions for which it alone
  is a minimal way in; ``blast_radius`` looks one CVE up in it.
* ``patch_set``: a minimum set of CVEs whose removal disconnects a goal,
  i.e. a minimum hitting set of the goal's combinations, found by branch
  and bound. A search that exceeds ``PATCH_SEARCH_BUDGET`` falls back to
  a greedy cover, and the plan says so (``kind == "greedy"``).

Depths and evidence are fixpoints, found by walking ``graph.schedule``, the
strongly connected components of the graph in topological order. A node on
no cycle is evaluated once, after all its inputs are final. Only a cyclic
component is iterated, re-evaluating the members one of whose inputs
inside the component changed, until none changes. Both merges are monotone
on a finite lattice (the up-sets of CVE combinations), so this reaches the
least fixpoint whatever order it visits the members in.

One safety valve bounds the work: a node whose antichain would exceed
``EVIDENCE_CAP`` masks keeps its ``EVIDENCE_CAP - 1`` smallest masks plus
the intersection of the rest, joined with its previous value. That replaces
masks by subsets, so every real combination still contains a stored mask
and a blocking patch plan stays blocking; each node's up-set only grows, so
the sweep still terminates. The nodes it touched, and everything derived
from them, are listed in ``Evidence.approximate`` and their goals are
reported as approximate.

``pipeline.analyze`` runs the depth, evidence, trace and patch queries once
and keeps their results; ``render_report`` only formats them, computing
nothing but the blast radii, which no other output needs. It computes them
all in one pass over the derived nodes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .logic import Atom
from .reasoner import DERIVATION, FACT, RULE, AttackGraph, CyclicComponent, Node

CatSet = frozenset[int]

# Largest antichain a node stores before the safety valve over-approximates.
EVIDENCE_CAP = 4096

# Masks the exact patch planner may examine before it falls back to greedy.
PATCH_SEARCH_BUDGET = 100_000

# The evidence of a node that needs no CVE; the identity of the AND merge.
NO_CVE: CatSet = frozenset({0})


def _set_bits(mask: int) -> Iterator[int]:
    """The single-bit masks of the bits set in ``mask``, lowest first."""

    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def minimal_masks(masks: Iterable[int]) -> CatSet:
    """The masks that contain no other mask of the collection."""

    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        # Only a mask with fewer CVEs can be a proper subset.
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def merge_ae_or(a: CatSet, b: CatSet) -> CatSet:
    """Alternative routes: the minimal combinations of either side."""

    if not a or a == b:
        return b
    if not b:
        return a
    return minimal_masks(a | b)


def merge_ae_and(a: CatSet, b: CatSet) -> CatSet:
    """Joint requirements: one combination from each side, unioned, minimal."""

    if a == NO_CVE:
        return b
    if b == NO_CVE:
        return a
    return minimal_masks(x | y for x in a for y in b)


def _valve(tags: CatSet) -> CatSet:
    """At most ``EVIDENCE_CAP`` masks whose up-set contains that of ``tags``.

    Keeps the ``EVIDENCE_CAP - 1`` smallest masks by (CVE count, value) and
    replaces the rest by their intersection, a subset of each of them.
    """

    ordered = sorted(tags, key=lambda t: (t.bit_count(), t))
    keep = EVIDENCE_CAP - 1
    rest = -1
    for t in ordered[keep:]:
        rest &= t
    return minimal_masks(ordered[:keep] + [rest])


def _sweep(
    graph: AttackGraph, vals: dict, evaluate: Callable[[Node, tuple[int, ...]], object]
) -> None:
    """Update ``vals`` to the fixpoint of ``evaluate`` over the graph.

    Walks ``graph.schedule`` once. Facts and nodes without inputs keep their
    start value. A node on no cycle comes after every node it reads, so it
    is evaluated exactly once. A cyclic component is swept in node-id order
    until a sweep changes nothing: every member is evaluated on the first
    sweep and afterwards only when an input inside the component changed
    since, which marks the member dirty. Skipped members would compute the
    value they hold. When ``evaluate`` is monotone and every value can only
    grow finitely often, as for depths and evidence, the result is the
    least fixpoint and does not depend on the order of ``graph.nodes``.
    """

    for step in graph.schedule:
        if not isinstance(step, CyclicComponent):
            n, ps = step
            vals[n.node_id] = evaluate(n, ps)
            continue
        members = step.members
        dirty = {n.node_id for n, _, _ in members}
        while dirty:
            for n, ps, inner in members:
                nid = n.node_id
                if nid not in dirty:
                    continue
                dirty.discard(nid)
                new = evaluate(n, ps)
                if new != vals[nid]:
                    vals[nid] = new
                    dirty.update(inner)


# ---------------------------------------------------------------------------
# Depth and traces


def node_depths(graph: AttackGraph) -> dict[int, float]:
    """Minimum proof-tree height per node; ``inf`` if underivable.

    Facts have height 0; a rule is one higher than its deepest input, a
    derivation one higher than its shallowest, and a node keeps its height
    unless that is lower. The fixpoint comes from ``_sweep``, which
    evaluates each node on no cycle once and iterates only cyclic
    components.
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


def shortest_trace(graph: AttackGraph, goal: Atom, depths: dict[int, float]) -> Trace | None:
    """One minimum-height proof of the goal, primitives first.

    OR nodes take their cheapest incoming rule (lowest node id on ties),
    AND nodes take every input. Steps come out ordered by (depth, id),
    which is a valid execution order because a step's inputs are always
    strictly shallower.
    """

    node_id = graph.goal_nodes.get(goal)
    if node_id is None:
        return None
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
    """Minimal CVE combinations per node, as masks over ``universe``.

    ``approximate`` holds the nodes whose tags the safety valve
    over-approximated, directly or through an input. ``bits`` maps each CVE
    of the universe to its single-bit mask.
    """

    universe: tuple[str, ...]
    tags: dict[int, CatSet]
    approximate: frozenset[int] = frozenset()
    bits: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.bits = {cve: 1 << i for i, cve in enumerate(self.universe)}

    def cves_in(self, tag: int) -> tuple[str, ...]:
        """The CVEs of a combination, in universe order; visits set bits only."""

        return tuple(self.universe[b.bit_length() - 1] for b in _set_bits(tag))

    def render_tags(self, node_id: int) -> str:
        tags = sorted(self.tags.get(node_id, frozenset()))
        parts = []
        for t in tags:
            names = self.cves_in(t)
            parts.append("{" + ", ".join(names) + "}" if names else "{}")
        return "[" + ", ".join(parts) + "]"


def attack_evidence(graph: AttackGraph) -> Evidence:
    """Least fixpoint of the minimal-combination lattice over the graph.

    Facts carry ``{their CVE bit}`` if they assert a vulnerability and
    ``{0}`` otherwise; rule nodes fold their inputs with the AND merge.
    A derivation with one input takes its tags; otherwise it minimises the
    union of all its inputs' masks once, which equals folding them with the
    OR merge. Every node's tags are an antichain, and the result does not
    depend on the order ``_sweep`` visits nodes in.

    A node whose antichain would exceed ``EVIDENCE_CAP`` goes through the
    safety valve (``_valve``) after joining its previous value, so its
    up-set only grows and the sweep terminates. The valve's nodes and all
    nodes derived from them make up ``Evidence.approximate``; no valve
    firing means every tag set is exact.
    """

    # A CVE's bit is its place among the facts' CVEs, in node order.
    bit: dict[str, int] = {}
    tags: dict[int, CatSet] = {}
    for n in graph.nodes:
        if n.kind != FACT:
            tags[n.node_id] = frozenset()
        elif n.atom is not None and n.atom.pred == "vulExists":
            tags[n.node_id] = frozenset({bit.setdefault(n.atom.args[1], 1 << len(bit))})
        else:
            tags[n.node_id] = NO_CVE

    valved: set[int] = set()

    def evaluate(n: Node, ps: tuple[int, ...]) -> CatSet:
        if n.kind == RULE:
            acc = NO_CVE
            for p in ps:
                acc = merge_ae_and(acc, tags[p])
        elif len(ps) == 1:
            acc = tags[ps[0]]
        else:
            acc = minimal_masks([t for p in ps for t in tags[p]])
        nid = n.node_id
        if nid in valved or len(acc) > EVIDENCE_CAP:
            # The valve is not monotone; joining the previous value keeps
            # this node's up-set growing.
            acc = merge_ae_or(acc, tags[nid])
            if len(acc) > EVIDENCE_CAP:
                valved.add(nid)
                acc = _valve(acc)
        return acc

    _sweep(graph, tags, evaluate)
    return Evidence(universe=tuple(bit), tags=tags, approximate=_downstream(graph, valved))


def _downstream(graph: AttackGraph, start: set[int]) -> frozenset[int]:
    """``start`` and every node with an input in it, transitively."""

    seen = set(start)
    stack = list(start)
    while stack:
        for c in graph.children.get(stack.pop(), ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def blast_radii(graph: AttackGraph, evidence: Evidence) -> dict[str, tuple[Atom, ...]]:
    """Every CVE's blast radius, in universe order, from one pass over the derived nodes.

    A CVE is in a node's radius when its single-bit mask is one of the
    node's tags; a condition that needs no CVE at all is in no radius.
    """

    radii: dict[int, list[Atom]] = {b: [] for b in evidence.bits.values()}
    tags = evidence.tags
    for n in graph.nodes:
        if n.kind == DERIVATION:
            for t in tags.get(n.node_id, ()):
                if t and not t & (t - 1):
                    radii[t].append(n.atom)
    return {cve: tuple(radii[b]) for cve, b in evidence.bits.items()}


def blast_radius(graph: AttackGraph, evidence: Evidence, cve_id: str) -> tuple[Atom, ...]:
    """Derived conditions for which this CVE alone is a minimal way in."""

    return blast_radii(graph, evidence).get(cve_id, ())


# ---------------------------------------------------------------------------
# Patch planning


@dataclass(frozen=True)
class PatchPlan:
    goal: Atom
    verdict: str  # "unreachable" | "unpatchable" | "blocked"
    cves: tuple[str, ...]
    kind: str = "minimum"  # "minimum" | "greedy": whether ``cves`` is a proven minimum

    def render(self) -> str:
        if self.verdict == "unreachable":
            return f"goal {self.goal.render()}: already unreachable"
        if self.verdict == "unpatchable":
            return f"goal {self.goal.render()}: reachable without any CVE, patching cannot block it"
        text = f"goal {self.goal.render()}: blocked by patching " + ", ".join(self.cves)
        return text + " (greedy)" if self.kind == "greedy" else text


class _OverBudget(Exception):
    pass


def _greedy_cover(masks: list[int], bits: list[int]) -> list[int]:
    """An irredundant hitting set: greedy by cover, then redundant picks dropped.

    Each round picks the bit hitting the most masks not yet hit, the first
    in ``bits`` on ties. Covers are counted once and decremented as masks
    get hit. Afterwards picks are dropped, latest first, while every mask
    stays hit.
    """

    cover = dict.fromkeys(bits, 0)
    for t in masks:
        for b in _set_bits(t):
            cover[b] += 1
    remaining = set(masks)
    picked: list[int] = []
    while remaining:
        best = max(bits, key=cover.__getitem__)
        picked.append(best)
        for t in [t for t in remaining if t & best]:
            remaining.discard(t)
            for b in _set_bits(t):
                cover[b] -= 1
    for b in reversed(picked[:]):
        rest = sum(picked) - b
        if all(t & rest for t in masks):
            picked.remove(b)
    return picked


def _minimum_cover(masks: list[int], bits: list[int], upper: list[int]) -> list[int]:
    """A minimum hitting set of ``masks`` by branch and bound.

    Starts from the hitting set ``upper`` and replaces it only by a smaller
    one. Branches on the bits of the unhit mask with the fewest bits and
    prunes with the number of pairwise disjoint unhit masks, a lower bound
    on the bits still needed. Raises ``_OverBudget`` once the search has
    examined more than ``PATCH_SEARCH_BUDGET`` masks.
    """

    best = upper
    examined = 0

    def search(unhit: list[int], chosen: list[int]) -> None:
        nonlocal best, examined
        examined += len(unhit)
        if examined > PATCH_SEARCH_BUDGET:
            raise _OverBudget
        if not unhit:
            best = chosen
            return
        disjoint, used = 0, 0
        for t in unhit:
            if not t & used:
                used |= t
                disjoint += 1
        if len(chosen) + disjoint >= len(best):
            return
        pivot = unhit[0]
        for b in bits:
            if pivot & b:
                search([t for t in unhit if not t & b], chosen + [b])

    try:
        search(sorted(masks, key=lambda t: (t.bit_count(), t)), [])
    finally:
        # ``search`` reaches itself through its closure; emptying that cell
        # lets reference counting free it, with no collector pass.
        del search
    return best


def patch_set(graph: AttackGraph, evidence: Evidence, goal: Atom) -> PatchPlan:
    """A minimum set of CVEs whose patching breaks every way to the goal.

    Each of the goal's minimal combinations is one way in; patching breaks
    it when it removes at least one CVE the combination needs, so a plan is
    a hitting set of the combinations. The greedy cover is the first upper
    bound of an exact branch-and-bound search; a search past
    ``PATCH_SEARCH_BUDGET`` keeps the greedy cover and marks the plan
    ``greedy``. Either way the plan is irredundant, and its CVEs are listed
    in id order.
    """

    node_id = graph.goal_nodes.get(goal)
    if node_id is None:
        return PatchPlan(goal=goal, verdict="unreachable", cves=())
    masks = list(evidence.tags.get(node_id, frozenset()))
    if not masks:
        return PatchPlan(goal=goal, verdict="unreachable", cves=())
    if 0 in masks:
        return PatchPlan(goal=goal, verdict="unpatchable", cves=())

    name = {evidence.bits[cve]: cve for cve in sorted(evidence.universe)}
    bits = list(name)
    greedy = _greedy_cover(masks, bits)
    try:
        picked, kind = _minimum_cover(masks, bits, greedy), "minimum"
    except _OverBudget:
        picked, kind = greedy, "greedy"
    cves = tuple(sorted(name[b] for b in picked))
    return PatchPlan(goal=goal, verdict="blocked", cves=cves, kind=kind)


# ---------------------------------------------------------------------------
# Report


@dataclass(frozen=True)
class GoalResult:
    goal: Atom
    reachable: bool
    depth: int | None
    trace: Trace | None
    patch: PatchPlan
    exact: bool  # False when the evidence safety valve touched the goal's tags


def render_report(
    graph: AttackGraph, evidence: Evidence, goal_results: Sequence[GoalResult]
) -> str:
    """Human-readable report of the per-goal metrics ``analyze`` computed.

    Only the blast radii are computed here, all in one pass (``blast_radii``).
    """

    kinds = Counter([n.kind for n in graph.nodes])
    lines = [
        f"nodes: {len(graph.nodes)} "
        f"({kinds[FACT]} facts, {kinds[RULE]} rules, {kinds[DERIVATION]} derived)",
        f"cve universe: {', '.join(evidence.universe) or '(none)'}",
    ]
    for r in goal_results:
        lines.append("")
        if r.trace is None:
            lines.append(f"goal {r.goal.render()}: unreachable")
            continue
        lines.append(r.trace.render())
        approximate = "" if r.exact else " (approximate)"
        lines.append(f"  evidence: {evidence.render_tags(graph.goal_nodes[r.goal])}{approximate}")
        lines.append("  " + r.patch.render())
    for cve, atoms in blast_radii(graph, evidence).items():
        lines.append("")
        lines.append(f"blast radius of {cve} alone: {len(atoms)} conditions")
        lines.extend([f"  {atom.render()}" for atom in atoms])
    return "\n".join(lines) + "\n"
