"""The incremental sweep against the full sweep it replaces.

``metrics.node_depths`` and ``metrics.attack_evidence`` re-evaluate a node
only when one of its inputs changed. The full-sweep copies in ``oracles``
evaluate every node on every pass. On cyclic graphs with a cap small enough
that truncation fires inside cycles, the two must agree exactly; and the
incremental sweep must do less work.
"""

from __future__ import annotations

import random

import pytest

import oracles
from iotgraph import metrics
from iotgraph.metrics import attack_evidence, node_depths
from iotgraph.pipeline import analyze
from iotgraph.reasoner import RULE, AttackGraph

from conftest import load_fixture_config
from oracles import (
    full_sweep_attack_evidence,
    full_sweep_node_depths,
    random_attack_dag,
    random_cyclic_attack_graph,
)

N_GRAPHS = 400
SEED = 52117


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


def _truncated_on_cycle(graph: AttackGraph, tags: dict[int, frozenset[int]], cap: int) -> bool:
    """Whether some node on a cycle is truncated at the fixpoint."""

    for n in graph.nodes:
        ps = graph.parents.get(n.node_id, ())
        if not ps or not _on_cycle(graph, n.node_id):
            continue
        if n.kind == RULE:
            acc = frozenset({0})
            for p in ps:
                acc = oracles.merge_ae_and(acc, tags[p])
        else:
            acc = frozenset().union(*(tags[p] for p in ps))
        if len(acc) > cap:
            return True
    return False


def test_incremental_sweep_matches_full_sweep_on_cyclic_graphs(monkeypatch):
    rng = random.Random(SEED)
    truncated_on_cycle = 0
    for i in range(N_GRAPHS):
        graph = random_cyclic_attack_graph(rng)
        cap = 2 + i % 5
        monkeypatch.setattr(metrics, "EVIDENCE_CAP", cap)
        evidence = attack_evidence(graph)
        expected = full_sweep_attack_evidence(graph, cap)
        assert evidence.universe == expected.universe, f"graph {i}"
        assert evidence.tags == expected.tags, f"graph {i}"
        assert node_depths(graph) == full_sweep_node_depths(graph), f"graph {i}"
        truncated_on_cycle += _truncated_on_cycle(graph, expected.tags, cap)
    # The comparison only means something if truncation fires inside cycles.
    assert truncated_on_cycle >= N_GRAPHS // 4


@pytest.mark.parametrize("name", ["listing10", "hall_light", "fig2", "system28", "system37"])
def test_incremental_sweep_matches_full_sweep_on_fixtures(name, store):
    graph = analyze(load_fixture_config(name), store).graph
    assert node_depths(graph) == full_sweep_node_depths(graph)
    expected = full_sweep_attack_evidence(graph, metrics.EVIDENCE_CAP)
    assert attack_evidence(graph).tags == expected.tags


def _reference_truncate(tags: frozenset[int], cap: int) -> frozenset[int]:
    return frozenset(sorted(tags, key=lambda t: (t.bit_count(), t))[:cap])


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 8, 64])
def test_truncate_keeps_the_smallest_masks(cap, monkeypatch):
    monkeypatch.setattr(metrics, "EVIDENCE_CAP", cap)
    rng = random.Random(SEED + cap)
    for _ in range(50):
        for size in (cap - 1, cap, cap + 1, 2 * cap):
            # Eight bits: many masks share a CVE count.
            tags = frozenset(rng.sample(range(256), size))
            assert metrics._truncate(tags) == _reference_truncate(tags, cap)


def test_truncate_at_the_default_cap():
    cap = metrics.EVIDENCE_CAP
    rng = random.Random(SEED)
    for size in (cap - 1, cap, cap + 1, 2 * cap):
        tags = frozenset(rng.sample(range(1 << 14), size))
        assert metrics._truncate(tags) == _reference_truncate(tags, cap)


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
