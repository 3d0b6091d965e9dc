"""The SCC schedule of the graph metrics, and the single OR minimisation.

``AttackGraph.schedule`` lists the strongly connected components of the
non-fact nodes with parents in topological order. Here it is checked
against brute-force mutual reachability (``oracles``) on the fixtures, on a
dense home with components of hundreds of nodes, and on random cyclic
graphs in shuffled node orders: each such node appears once, each
component is exactly its node's class, and every edge between components
points forward. A ring and a chain of thousands of nodes, deeper than the
default recursion limit, check that neither the schedule nor the metrics
recurse per node. ``_sweep`` walking it evaluates every node on no cycle
exactly once. An OR node minimises the union of its inputs' masks once,
which must equal folding the inputs with ``merge_ae_or``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotgraph import metrics
from iotgraph.logic import parse_atom
from iotgraph.metrics import attack_evidence, merge_ae_or, minimal_masks, node_depths
from iotgraph.pipeline import analyze
from iotgraph.reasoner import DERIVATION, FACT, RULE, AttackGraph, CyclicComponent, Node
from iotgraph.synth import synthesize

from conftest import FIXTURE_NAMES, load_fixture_config
from oracles import (
    minimal_subset,
    mutual_reachability_classes,
    random_attack_dag,
    random_cyclic_attack_graph,
    strict_ancestors,
)
from test_sweep import shuffled

SEED = 61493


def scheduled(graph: AttackGraph) -> set[int]:
    """The nodes whose value the metrics compute: non-fact nodes with parents."""

    return {n.node_id for n in graph.nodes if n.kind != FACT and graph.parents.get(n.node_id)}


def step_ids(step) -> list[int]:
    if isinstance(step, CyclicComponent):
        return [n.node_id for n, _, _ in step.members]
    return [step[0].node_id]


def assert_schedule_is_the_condensation(graph: AttackGraph) -> None:
    steps = [step_ids(step) for step in graph.schedule]
    flat = [nid for ids in steps for nid in ids]
    assert len(flat) == len(set(flat)) and set(flat) == scheduled(graph)

    classes = mutual_reachability_classes(graph)
    ancestors = strict_ancestors(graph)
    for step, ids in zip(graph.schedule, steps):
        assert set(ids) == classes[ids[0]]
        cyclic = len(ids) > 1 or ids[0] in ancestors[ids[0]]
        assert isinstance(step, CyclicComponent) == cyclic
        if not cyclic:
            node, ps = step
            assert ps == graph.parents[node.node_id]
            continue
        assert ids == sorted(ids)
        for node, ps, inner in step.members:
            assert ps == graph.parents[node.node_id]
            assert inner == tuple(c for c in graph.children[node.node_id] if c in classes[ids[0]])

    position = {nid: i for i, ids in enumerate(steps) for nid in ids}
    for nid in flat:
        for p in graph.parents[nid]:
            if p in position and position[p] != position[nid]:
                assert position[p] < position[nid], f"edge {p} -> {nid} points back"


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "dense160"])
def test_schedule_is_the_condensation_on_fixtures(name, request):
    if name == "dense160":
        # 160 devices at four CVEs per product: components of hundreds of
        # nodes, not only the fixtures' small loops.
        graph = analyze(synthesize(160, 1), request.getfixturevalue("dense4_store")).graph
        assert max(len(s.members) for s in graph.schedule if isinstance(s, CyclicComponent)) > 100
    else:
        graph = analyze(load_fixture_config(name), request.getfixturevalue("store")).graph
    assert_schedule_is_the_condensation(graph)


RING = 5000


def alternating_graph(ring: bool) -> AttackGraph:
    """A fact, then ``RING`` nodes alternating derivation and rule, each the
    parent of the next; with ``ring`` the last is also a parent of the first."""

    goal = parse_atom(f"d({RING})")
    nodes = [Node(1, FACT, "f.", atom=parse_atom("f"))]
    parents = {}
    for nid in range(2, RING + 2):
        if nid % 2:
            nodes.append(Node(nid, RULE, f"r{nid}"))
        else:
            nodes.append(Node(nid, DERIVATION, f"d({nid})", atom=parse_atom(f"d({nid})")))
        parents[nid] = (nid - 1,)
    if ring:
        parents[2] = (1, RING + 1)
    return AttackGraph(nodes=nodes, parents=parents, goals=(goal,), goal_nodes={goal: RING})


def test_a_ring_of_thousands_of_nodes_is_one_component():
    graph = alternating_graph(ring=True)
    (step,) = graph.schedule
    assert isinstance(step, CyclicComponent)
    ids = list(range(2, RING + 2))
    assert [n.node_id for n, _, _ in step.members] == ids
    for node, ps, inner in step.members:
        nid = node.node_id
        assert ps == graph.parents[nid]
        assert inner == ((nid + 1,) if nid <= RING else (2,))
    depths = node_depths(graph)
    assert [depths[nid] for nid in ids] == [float(nid - 1) for nid in ids]
    assert set(attack_evidence(graph).tags.values()) == {frozenset({0})}


def test_a_chain_of_thousands_of_nodes_is_scheduled_in_order():
    graph = alternating_graph(ring=False)
    assert [(node.node_id, ps) for node, ps in graph.schedule] == [
        (nid, (nid - 1,)) for nid in range(2, RING + 2)
    ]
    depths = node_depths(graph)
    assert depths[RING + 1] == float(RING)
    assert set(attack_evidence(graph).tags.values()) == {frozenset({0})}


def test_schedule_is_the_condensation_on_cyclic_graphs():
    rng = random.Random(SEED)
    cyclic = 0
    for _ in range(100):
        graph = random_cyclic_attack_graph(rng)
        assert_schedule_is_the_condensation(graph)
        assert_schedule_is_the_condensation(shuffled(graph, rng))
        cyclic += any(isinstance(step, CyclicComponent) for step in graph.schedule)
    # The check only means something if most graphs have a cycle.
    assert cyclic >= 50


def _count_evaluations(monkeypatch) -> Counter:
    """Count ``evaluate`` calls per node through a wrapped ``metrics._sweep``."""

    counts: Counter = Counter()
    sweep = metrics._sweep

    def counted(graph, vals, evaluate):
        def counting(n, ps):
            counts[n.node_id] += 1
            return evaluate(n, ps)

        sweep(graph, vals, counting)

    monkeypatch.setattr(metrics, "_sweep", counted)
    return counts


def test_each_node_of_a_dag_is_evaluated_once(monkeypatch):
    counts = _count_evaluations(monkeypatch)
    rng = random.Random(SEED)
    for i in range(100):
        graph = random_attack_dag(rng)
        expected = dict.fromkeys(scheduled(graph), 1)
        for metric in (node_depths, attack_evidence):
            counts.clear()
            metric(graph)
            assert counts == expected, f"graph {i} {metric.__name__}"


def test_each_node_on_no_cycle_is_evaluated_once(monkeypatch):
    counts = _count_evaluations(monkeypatch)
    rng = random.Random(SEED)
    for i in range(100):
        graph = random_cyclic_attack_graph(rng)
        ancestors = strict_ancestors(graph)
        for g in (graph, shuffled(graph, rng)):
            for metric in (node_depths, attack_evidence):
                counts.clear()
                metric(g)
                assert set(counts) == scheduled(g), f"graph {i} {metric.__name__}"
                for nid, calls in counts.items():
                    if nid not in ancestors[nid]:
                        assert calls == 1, f"graph {i} {metric.__name__} node {nid}"


# Sparse masks over 40 CVEs, the empty combination among them, and dense ones.
masks = st.one_of(
    st.frozensets(st.integers(0, 39), max_size=4).map(lambda bits: sum(1 << b for b in bits)),
    st.integers(0, (1 << 40) - 1),
)
antichains = st.lists(masks, max_size=10).map(minimal_subset)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(antichains, min_size=1, max_size=6))
def test_one_minimisation_equals_the_or_fold(parts):
    folded: frozenset[int] = frozenset()
    for part in parts:
        folded = merge_ae_or(folded, part)
    assert minimal_masks(m for part in parts for m in part) == folded
