"""The incremental minimal-set sweep against the full-set full sweep.

``metrics.node_depths`` and ``metrics.attack_evidence`` re-evaluate a node
only when one of its inputs changed. The full-sweep copies in ``oracles``
evaluate every node on every pass, and the evidence copy keeps every
combination, not only the minimal ones. On cyclic graphs the engine's tags
must equal the minimal subset of the copy's, whatever order the nodes are
visited in; with a small cap the safety valve must still terminate and only
over-approximate; and the incremental sweep must do less work.
"""

from __future__ import annotations

import random

import pytest

import oracles
from iotgraph import metrics
from iotgraph.metrics import Evidence, attack_evidence, node_depths
from iotgraph.pipeline import analyze
from iotgraph.reasoner import RULE, AttackGraph

from conftest import load_fixture_config
from oracles import (
    full_sweep_attack_evidence,
    full_sweep_node_depths,
    minimal_subset,
    random_attack_dag,
    random_cyclic_attack_graph,
)

N_GRAPHS = 400
SEED = 52117
# Larger than any full combination set over seven CVEs: the copy never truncates.
UNBOUNDED = 1 << 8


def _on_cycle(graph: AttackGraph, node_id: int) -> bool:
    seen: set[int] = set()
    stack = list(graph.parents.get(node_id, ()))
    while stack:
        nid = stack.pop()
        if nid == node_id:
            return True
        if nid not in seen:
            seen.add(nid)
            stack.extend(graph.parents.get(nid, ()))
    return False


def minimal_tags(expected: Evidence) -> dict[int, frozenset[int]]:
    return {nid: minimal_subset(tags) for nid, tags in expected.tags.items()}


def named(evidence: Evidence) -> dict[int, frozenset[frozenset[str]]]:
    """Tags as sets of CVE-id sets, independent of the universe order."""

    return {
        nid: frozenset(frozenset(evidence.cves_in(t)) for t in tags)
        for nid, tags in evidence.tags.items()
    }


def shuffled(graph: AttackGraph, rng: random.Random) -> AttackGraph:
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    return AttackGraph(nodes, graph.parents, graph.goals, graph.goal_nodes)


def assert_children_invert_parents(graph: AttackGraph) -> None:
    """Each node's children are the nodes with it as a parent, in node order."""

    expected = {
        p: tuple(n.node_id for n in graph.nodes if p in graph.parents.get(n.node_id, ()))
        for ps in graph.parents.values()
        for p in ps
    }
    assert graph.children == expected


@pytest.mark.parametrize("name", ["listing10", "hall_light", "fig2", "system28", "system37"])
def test_children_invert_parents_on_fixtures(name, store):
    assert_children_invert_parents(analyze(load_fixture_config(name), store).graph)


def test_children_invert_parents_on_cyclic_graphs():
    rng = random.Random(SEED)
    for _ in range(100):
        graph = random_cyclic_attack_graph(rng)
        assert_children_invert_parents(graph)
        assert_children_invert_parents(shuffled(graph, rng))


def test_incremental_sweep_matches_full_sweep_on_cyclic_graphs():
    rng = random.Random(SEED)
    for i in range(N_GRAPHS):
        graph = random_cyclic_attack_graph(rng)
        evidence = attack_evidence(graph)
        expected = full_sweep_attack_evidence(graph, UNBOUNDED)
        assert evidence.universe == expected.universe, f"graph {i}"
        assert evidence.tags == minimal_tags(expected), f"graph {i}"
        assert evidence.approximate == frozenset(), f"graph {i}"
        assert node_depths(graph) == full_sweep_node_depths(graph), f"graph {i}"
        for _ in range(3):
            other = shuffled(graph, rng)
            assert named(attack_evidence(other)) == named(evidence), f"graph {i}"
            assert node_depths(other) == node_depths(graph), f"graph {i}"


def _up_set_only_grows(monkeypatch) -> None:
    """Make ``_sweep`` check that no node's up-set shrinks: the termination argument."""

    sweep = metrics._sweep

    def checked(graph, vals, evaluate):
        def evaluate_growing(n, ps):
            new = evaluate(n, ps)
            for t in vals[n.node_id]:
                assert any(s & t == s for s in new), f"node {n.node_id} lost {t}"
            return new

        sweep(graph, vals, evaluate_growing)

    monkeypatch.setattr(metrics, "_sweep", checked)


def test_valve_terminates_and_over_approximates_on_cyclic_graphs(monkeypatch):
    _up_set_only_grows(monkeypatch)
    rng = random.Random(SEED)
    fired = {1: 0, 2: 0, 3: 0}
    on_cycle = 0
    for i in range(N_GRAPHS):
        graph = random_cyclic_attack_graph(rng)
        exact = minimal_tags(full_sweep_attack_evidence(graph, UNBOUNDED))
        for cap in fired:
            monkeypatch.setattr(metrics, "EVIDENCE_CAP", cap)
            evidence = attack_evidence(graph)
            for nid, tags in evidence.tags.items():
                assert tags == minimal_subset(tags), f"graph {i} cap {cap} node {nid}"
                assert len(tags) <= cap, f"graph {i} cap {cap} node {nid}"
                if nid not in evidence.approximate:
                    assert tags == exact[nid], f"graph {i} cap {cap} node {nid}"
                    continue
                # Every real combination still contains a stored one.
                for t in exact[nid]:
                    assert any(s & t == s for s in tags), f"graph {i} cap {cap} node {nid}"
            fired[cap] += bool(evidence.approximate)
            on_cycle += any(
                len(exact[nid]) > cap and _on_cycle(graph, nid) for nid in evidence.approximate
            )
    # The check only means something if the valve fires at every cap and
    # changes nodes on cycles.
    assert all(fired.values()) and sum(fired.values()) >= N_GRAPHS // 2
    assert on_cycle >= N_GRAPHS // 10


@pytest.mark.parametrize("name", ["listing10", "hall_light", "fig2", "system28", "system37"])
def test_incremental_sweep_matches_full_sweep_on_fixtures(name, store):
    graph = analyze(load_fixture_config(name), store).graph
    assert node_depths(graph) == full_sweep_node_depths(graph)
    expected = full_sweep_attack_evidence(graph, metrics.EVIDENCE_CAP)
    assert attack_evidence(graph).tags == minimal_tags(expected)


def _check_valve(tags: frozenset[int], cap: int) -> None:
    """The valve keeps the cap - 1 smallest masks and the intersection of the rest.

    ``tags`` is an antichain larger than the cap, so no kept mask lies inside
    the intersection; kept masks that contain it are dropped.
    """

    ordered = sorted(tags, key=lambda t: (t.bit_count(), t))
    rest = -1
    for t in ordered[cap - 1 :]:
        rest &= t
    expected = {rest} | {k for k in ordered[: cap - 1] if k & rest != rest}
    out = metrics._valve(tags)
    assert out == expected
    assert len(out) <= cap


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 64])
def test_valve_over_approximates_within_the_cap(cap, monkeypatch):
    monkeypatch.setattr(metrics, "EVIDENCE_CAP", cap)
    rng = random.Random(SEED + cap)
    # Twelve-bit masks with four to six CVEs: many share a CVE count.
    pool = [m for m in range(1 << 12) if 4 <= m.bit_count() <= 6]
    checked = 0
    while checked < 100:
        tags = minimal_subset(rng.sample(pool, rng.choice((cap + 1, 2 * cap, 4 * cap))))
        if len(tags) > cap:
            _check_valve(tags, cap)
            checked += 1


def test_valve_at_the_default_cap():
    cap = metrics.EVIDENCE_CAP
    rng = random.Random(SEED)
    # Masks with eight of sixteen bits: an antichain larger than the cap.
    pool = [m for m in range(1 << 16) if m.bit_count() == 8]
    for size in (cap + 1, 2 * cap):
        _check_valve(frozenset(rng.sample(pool, size)), cap)


def _count_and_merges(monkeypatch, module) -> dict[str, int]:
    calls = {"n": 0}
    merge = module.merge_ae_and

    def counted(a, b):
        calls["n"] += 1
        return merge(a, b)

    monkeypatch.setattr(module, "merge_ae_and", counted)
    return calls


def test_topological_order_evaluates_each_rule_once(monkeypatch):
    calls = _count_and_merges(monkeypatch, metrics)
    rng = random.Random(SEED + 1)
    for i in range(100):
        graph = random_attack_dag(rng)
        calls["n"] = 0
        attack_evidence(graph)
        one_pass = sum(len(graph.parents.get(n.node_id, ())) for n in graph.nodes if n.kind == RULE)
        assert calls["n"] == one_pass, f"graph {i}"


def test_incremental_sweep_merges_less_than_full_sweep(system28_config, store, monkeypatch):
    graph = analyze(system28_config, store).graph
    incremental = _count_and_merges(monkeypatch, metrics)
    full = _count_and_merges(monkeypatch, oracles)
    attack_evidence(graph)
    full_sweep_attack_evidence(graph, metrics.EVIDENCE_CAP)
    assert 0 < incremental["n"] < full["n"]
