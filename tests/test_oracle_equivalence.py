"""Engine fixpoints vs brute-force proof enumeration on random DAGs.

The metrics module computes depths, evidence, and blast radii by value
iteration over the whole graph. The oracle recomputes the same quantities by
enumerating every acyclic proof tree; the engine keeps only the minimal CVE
combinations, so its evidence is compared with the minimal subset of the
enumerated ones. On small random graphs the two must agree exactly; any
divergence is a bug in one of them.
"""

from __future__ import annotations

import math
import random

from iotgraph.metrics import (
    attack_evidence,
    blast_radii,
    blast_radius,
    node_depths,
    shortest_trace,
)
from iotgraph.reasoner import DERIVATION, FACT, RULE

from oracles import (
    evidence_universe,
    min_proof_height,
    minimal_subset,
    proof_masks,
    random_attack_dag,
)

N_GRAPHS = 300
SEED = 94601


def test_depths_match_min_proof_height():
    rng = random.Random(SEED)
    for i in range(N_GRAPHS):
        graph = random_attack_dag(rng)
        depths = node_depths(graph)
        for node in (n for n in graph.nodes if n.kind == DERIVATION):
            expected = min_proof_height(graph, node.node_id)
            got = depths[node.node_id]
            if expected is None:
                assert math.isinf(got), f"graph {i} node {node.node_id}"
            else:
                assert got == expected, f"graph {i} node {node.node_id}"


def test_evidence_tags_match_proof_masks():
    rng = random.Random(SEED + 1)
    for i in range(N_GRAPHS):
        graph = random_attack_dag(rng)
        evidence = attack_evidence(graph)
        assert evidence.universe == evidence_universe(graph), f"graph {i}"
        for node in (n for n in graph.nodes if n.kind == DERIVATION):
            expected = minimal_subset(proof_masks(graph, node.node_id))
            got = evidence.tags[node.node_id]
            assert got == expected, f"graph {i} node {node.node_id}"


def test_blast_radius_matches_single_bit_proofs():
    rng = random.Random(SEED + 2)
    for i in range(N_GRAPHS):
        graph = random_attack_dag(rng)
        evidence = attack_evidence(graph)
        radii = blast_radii(graph, evidence)
        assert list(radii) == list(evidence.universe), f"graph {i}"
        for k, cve in enumerate(evidence.universe):
            bit = 1 << k
            expected = [
                n.atom
                for n in graph.nodes
                if n.kind == DERIVATION and bit in minimal_subset(proof_masks(graph, n.node_id))
            ]
            assert list(radii[cve]) == expected, f"graph {i} cve {cve}"
            assert blast_radius(graph, evidence, cve) == radii[cve], f"graph {i} cve {cve}"


def test_shortest_trace_is_a_minimal_valid_proof():
    rng = random.Random(SEED + 3)
    for i in range(N_GRAPHS):
        graph = random_attack_dag(rng)
        goal = graph.goals[0]
        trace = shortest_trace(graph, goal, node_depths(graph))
        expected = min_proof_height(graph, graph.goal_nodes[goal])
        if trace is None:
            assert expected is None, f"graph {i}"
            continue
        assert trace.depth == expected, f"graph {i}"

        position = {s.node_id: j for j, s in enumerate(trace.steps)}
        for step in trace.steps:
            node = graph.node(step.node_id)
            if node.kind == RULE:
                for p in graph.parents.get(step.node_id, ()):
                    assert position[p] < position[step.node_id], f"graph {i}"
            elif node.kind == DERIVATION:
                supports = [
                    p
                    for p in graph.parents.get(step.node_id, ())
                    if p in position and position[p] < position[step.node_id]
                ]
                assert len(supports) >= 1, f"graph {i}"
        kinds = {graph.node(s.node_id).kind for s in trace.steps}
        assert kinds <= {FACT, RULE, DERIVATION}
        assert trace.steps[-1].node_id == graph.goal_nodes[goal]
