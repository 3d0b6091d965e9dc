from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotgraph.logic import HornRule, LogicProgram, parse_atom
from iotgraph import metrics
from iotgraph.metrics import (
    Evidence,
    GoalResult,
    attack_evidence,
    blast_radius,
    merge_ae_and,
    merge_ae_or,
    minimal_masks,
    node_depths,
    patch_set,
    render_report,
    shortest_trace,
)
from iotgraph.reasoner import DERIVATION, FACT, RULE, AttackGraph, Node, build_attack_graph
from iotgraph.rules import saturate

from oracles import minimal_subset

# Node tags are antichains: reduce each drawn set to its minimal masks.
cat_sets = st.frozensets(st.integers(min_value=0, max_value=63), max_size=5).map(minimal_subset)

ZERO = frozenset({0})


def is_antichain(tags: frozenset[int]) -> bool:
    return all(a == b or a & b != a for a in tags for b in tags)


@given(st.frozensets(st.integers(min_value=0, max_value=255), max_size=12))
def test_minimal_masks_keeps_exactly_the_minimal_ones(masks):
    assert minimal_masks(masks) == minimal_subset(masks)


@given(cat_sets, cat_sets)
def test_merges_return_antichains(a, b):
    assert is_antichain(merge_ae_or(a, b))
    assert is_antichain(merge_ae_and(a, b))


@given(cat_sets, cat_sets)
def test_reduced_merges_equal_reduced_full_merges(a, b):
    assert merge_ae_or(a, b) == minimal_subset(a | b)
    assert merge_ae_and(a, b) == minimal_subset(x | y for x in a for y in b)


@given(cat_sets)
def test_or_merge_is_idempotent(a):
    assert merge_ae_or(a, a) == a


@given(cat_sets, cat_sets)
def test_or_merge_is_commutative(a, b):
    assert merge_ae_or(a, b) == merge_ae_or(b, a)


@given(cat_sets, cat_sets, cat_sets)
def test_or_merge_is_associative(a, b, c):
    assert merge_ae_or(merge_ae_or(a, b), c) == merge_ae_or(a, merge_ae_or(b, c))


@given(cat_sets)
def test_or_merge_has_empty_identity(a):
    assert merge_ae_or(a, frozenset()) == a


@given(cat_sets, cat_sets)
def test_and_merge_is_commutative(a, b):
    assert merge_ae_and(a, b) == merge_ae_and(b, a)


@given(cat_sets, cat_sets, cat_sets)
def test_and_merge_is_associative(a, b, c):
    assert merge_ae_and(merge_ae_and(a, b), c) == merge_ae_and(a, merge_ae_and(b, c))


@given(cat_sets)
def test_and_merge_has_zero_identity(a):
    assert merge_ae_and(a, ZERO) == a
    assert merge_ae_and(ZERO, a) == a


@given(cat_sets, cat_sets, cat_sets)
def test_and_merge_distributes_over_or(a, b, c):
    left = merge_ae_and(a, merge_ae_or(b, c))
    right = merge_ae_or(merge_ae_and(a, b), merge_ae_and(a, c))
    assert left == right


# ---------------------------------------------------------------------------
# Depths and traces on a hand-built program


def branching_graph():
    """Two ways to g(x): a two-hop path and a direct one."""

    program = LogicProgram(
        facts=(parse_atom("u(x)"), parse_atom("v(x)")),
        rules=(
            HornRule(parse_atom("h(x)"), (parse_atom("u(x)"),), label="h from u"),
            HornRule(parse_atom("g(x)"), (parse_atom("h(x)"),), label="long way"),
            HornRule(parse_atom("g(x)"), (parse_atom("v(x)"),), label="short way"),
        ),
    )
    return build_attack_graph(saturate(program), (parse_atom("g(x)"),))


def test_node_depths_alternate_and_or_costs():
    graph = branching_graph()
    depths = node_depths(graph)
    by_text = {graph.node(nid).text: d for nid, d in depths.items()}
    assert by_text["u(x)."] == 0.0
    assert by_text["h from u"] == 1.0
    assert by_text["h(x)"] == 2.0
    assert by_text["long way"] == 3.0
    assert by_text["short way"] == 1.0
    assert by_text["g(x)"] == 2.0


def test_node_depths_cyclic_support_still_costed():
    program = LogicProgram(
        facts=(parse_atom("a(x)"),),
        rules=(
            HornRule(parse_atom("g(x)"), (parse_atom("a(x)"),), label="ok"),
            HornRule(parse_atom("g(x)"), (parse_atom("g(x)"),), label="self loop"),
        ),
    )
    graph = build_attack_graph(saturate(program), (parse_atom("g(x)"),))
    depths = node_depths(graph)
    loop_rule = next(n for n in graph.nodes if n.kind == RULE and n.text == "self loop")
    goal_node = graph.goal_nodes[parse_atom("g(x)")]
    assert depths[goal_node] == 2.0
    assert depths[loop_rule.node_id] == 3.0


def test_node_depths_unsupported_node_is_infinite():
    goal = parse_atom("g(x)")
    graph = AttackGraph(
        nodes=[
            Node(1, FACT, "a.", atom=parse_atom("a(y)")),
            Node(2, DERIVATION, "ghost(x)", atom=parse_atom("ghost(x)")),
            Node(3, RULE, "needs the ghost"),
            Node(4, DERIVATION, "g(x)", atom=goal),
        ],
        parents={3: (1, 2), 4: (3,)},
        goals=(goal,),
        goal_nodes={goal: 4},
    )
    depths = node_depths(graph)
    assert depths[1] == 0.0
    assert math.isinf(depths[2])
    assert math.isinf(depths[3])
    assert math.isinf(depths[4])
    assert shortest_trace(graph, goal, depths) is None


def test_shortest_trace_takes_the_cheap_branch():
    graph = branching_graph()
    trace = shortest_trace(graph, parse_atom("g(x)"), node_depths(graph))
    assert trace is not None
    assert trace.depth == 2
    assert [s.text for s in trace.steps] == ["v(x).", "short way", "g(x)"]
    assert [s.depth for s in trace.steps] == [0, 1, 2]
    rendered = trace.render()
    assert "goal g(x) (depth 2)" in rendered
    assert "have  v(x)." in rendered
    assert "apply short way" in rendered
    assert "reach g(x)" in rendered


def test_shortest_trace_breaks_ties_by_node_id():
    program = LogicProgram(
        facts=(parse_atom("u(x)"), parse_atom("v(x)")),
        rules=(
            HornRule(parse_atom("g(x)"), (parse_atom("v(x)"),), label="bbb"),
            HornRule(parse_atom("g(x)"), (parse_atom("u(x)"),), label="aaa"),
        ),
    )
    graph = build_attack_graph(saturate(program), (parse_atom("g(x)"),))
    trace = shortest_trace(graph, parse_atom("g(x)"), node_depths(graph))
    assert [s.text for s in trace.steps] == ["u(x).", "aaa", "g(x)"]


def test_shortest_trace_none_for_unreachable_goal():
    program = LogicProgram(facts=(parse_atom("a(x)"),), rules=())
    graph = build_attack_graph(saturate(program), (parse_atom("g(x)"),))
    assert shortest_trace(graph, parse_atom("g(x)"), node_depths(graph)) is None


# ---------------------------------------------------------------------------
# Evidence on a hand-built diamond


def diamond_graph():
    """p(x) via CVE A and a plain fact, or via CVE B; q(x) needs p and B."""

    program = LogicProgram(
        facts=(
            parse_atom("vulExists(d1, 'CVE-2001-1000')"),
            parse_atom("vulExists(d2, 'CVE-2001-1001')"),
            parse_atom("cfg(x)"),
        ),
        rules=(
            HornRule(
                parse_atom("p(x)"),
                (parse_atom("vulExists(d1, 'CVE-2001-1000')"), parse_atom("cfg(x)")),
                label="p via first",
            ),
            HornRule(
                parse_atom("p(x)"),
                (parse_atom("vulExists(d2, 'CVE-2001-1001')"),),
                label="p via second",
            ),
            HornRule(
                parse_atom("q(x)"),
                (parse_atom("p(x)"), parse_atom("vulExists(d2, 'CVE-2001-1001')")),
                label="q needs both",
            ),
        ),
    )
    return build_attack_graph(saturate(program), (parse_atom("p(x)"), parse_atom("q(x)")))


def test_attack_evidence_universe_in_node_order():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    assert evidence.universe == ("CVE-2001-1000", "CVE-2001-1001")
    assert evidence.bits == {"CVE-2001-1000": 1, "CVE-2001-1001": 2}
    assert evidence.cves_in(3) == ("CVE-2001-1000", "CVE-2001-1001")


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_cves_in_lists_set_bits_in_universe_order(tag):
    evidence = Evidence(universe=tuple(f"CVE-2001-{1000 + i}" for i in range(12)), tags={})
    expected = tuple(cve for i, cve in enumerate(evidence.universe) if tag & (1 << i))
    assert evidence.cves_in(tag) == expected


def test_attack_evidence_merges_and_or():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    p_node = graph.goal_nodes[parse_atom("p(x)")]
    q_node = graph.goal_nodes[parse_atom("q(x)")]
    assert evidence.tags[p_node] == frozenset({1, 2})
    # {A, B} also reaches q, but it contains {B}: only minimal ways are kept.
    assert evidence.tags[q_node] == frozenset({2})
    assert evidence.render_tags(q_node) == "[{CVE-2001-1001}]"
    assert evidence.approximate == frozenset()


def test_blast_radius_single_cve_membership():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    first = {a.render() for a in blast_radius(graph, evidence, "CVE-2001-1000")}
    second = {a.render() for a in blast_radius(graph, evidence, "CVE-2001-1001")}
    assert first == {"p(x)"}
    assert second == {"p(x)", "q(x)"}
    assert blast_radius(graph, evidence, "CVE-1999-0000") == ()


def test_patch_set_blocks_with_single_patch_when_possible():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    plan = patch_set(graph, evidence, parse_atom("q(x)"))
    assert plan.verdict == "blocked"
    assert plan.cves == ("CVE-2001-1001",)
    assert "blocked by patching CVE-2001-1001" in plan.render()


def test_patch_set_greedy_lexicographic_on_ties():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    plan = patch_set(graph, evidence, parse_atom("p(x)"))
    assert plan.verdict == "blocked"
    assert plan.kind == "minimum"
    assert plan.cves == ("CVE-2001-1000", "CVE-2001-1001")
    assert "(greedy)" not in plan.render()


# ---------------------------------------------------------------------------
# Patch plans over given combinations


def plan_for(masks: frozenset[int], n_cves: int):
    """The plan ``patch_set`` makes for a goal whose tags are ``masks``."""

    goal = parse_atom("g(x)")
    graph = AttackGraph(
        nodes=[Node(1, DERIVATION, "g(x)", atom=goal)],
        parents={},
        goals=(goal,),
        goal_nodes={goal: 1},
    )
    universe = tuple(f"CVE-2001-{1000 + i}" for i in range(n_cves))
    evidence = Evidence(universe=universe, tags={1: masks})
    plan = patch_set(graph, evidence, goal)
    return plan, [evidence.bits[cve] for cve in plan.cves]


def blocks(patched, masks) -> bool:
    return all(t & sum(patched) for t in masks)


def brute_force_minimum(masks, n_cves: int) -> int:
    for size in range(n_cves + 1):
        for picked in combinations([1 << i for i in range(n_cves)], size):
            if blocks(picked, masks):
                return size
    raise AssertionError("no hitting set")


def ways_in(max_cves: int):
    """(antichain of nonzero masks, universe size), universe at most ``max_cves``."""

    return st.integers(min_value=1, max_value=max_cves).flatmap(
        lambda n: st.tuples(
            st.frozensets(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=10)
            .map(minimal_subset),
            st.just(n),
        )
    )


@given(ways_in(10))
def test_minimum_plans_match_brute_force(case):
    masks, n = case
    plan, patched = plan_for(masks, n)
    assert plan.verdict == "blocked" and plan.kind == "minimum"
    assert blocks(patched, masks)
    assert len(plan.cves) == brute_force_minimum(masks, n)
    assert list(plan.cves) == sorted(plan.cves)


@pytest.mark.parametrize("budget", [0, metrics.PATCH_SEARCH_BUDGET])
@given(case=ways_in(12))
# Greedy picks the first CVE, then the second and third, which make it redundant.
@example(case=(frozenset({0b00011, 0b00101, 0b01010, 0b10100}), 5))
def test_plans_are_irredundant(budget, case):
    masks, n = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "PATCH_SEARCH_BUDGET", budget)
        plan, patched = plan_for(masks, n)
    assert plan.kind == ("greedy" if budget == 0 else "minimum")
    assert blocks(patched, masks)
    for b in patched:
        assert not blocks([p for p in patched if p != b], masks)


def test_search_past_the_budget_falls_back_to_greedy():
    # Every three of fifteen CVEs: any thirteen CVEs block it, and proving
    # that twelve cannot takes a search far past the budget.
    n = 15
    masks = frozenset(a | b | c for a, b, c in combinations([1 << i for i in range(n)], 3))
    plan, patched = plan_for(masks, n)
    assert plan.verdict == "blocked" and plan.kind == "greedy"
    assert len(plan.cves) == n - 2
    assert blocks(patched, masks)
    assert plan.render().endswith(" (greedy)")


def test_patch_set_looks_each_bit_up_once():
    graph = diamond_graph()
    evidence = attack_evidence(graph)
    calls = []

    class CountedBits(dict):
        def __getitem__(self, cve):
            calls.append(cve)
            return super().__getitem__(cve)

    evidence.bits = CountedBits(evidence.bits)
    plan = patch_set(graph, evidence, parse_atom("p(x)"))
    assert len(plan.cves) == 2
    assert sorted(calls) == sorted(evidence.universe)


def test_patch_set_unpatchable_when_no_cve_needed():
    program = LogicProgram(
        facts=(parse_atom("cfg(x)"), parse_atom("vulExists(d1, 'CVE-2001-1000')")),
        rules=(
            HornRule(parse_atom("g(x)"), (parse_atom("cfg(x)"),), label="free ride"),
            HornRule(
                parse_atom("g(x)"),
                (parse_atom("vulExists(d1, 'CVE-2001-1000')"),),
                label="exploit ride",
            ),
        ),
    )
    graph = build_attack_graph(saturate(program), (parse_atom("g(x)"),))
    evidence = attack_evidence(graph)
    plan = patch_set(graph, evidence, parse_atom("g(x)"))
    assert plan.verdict == "unpatchable"
    assert plan.cves == ()
    assert "patching cannot block it" in plan.render()


def test_patch_set_unreachable_goal():
    program = LogicProgram(facts=(parse_atom("a(x)"),), rules=())
    graph = build_attack_graph(saturate(program), (parse_atom("g(x)"),))
    evidence = attack_evidence(graph)
    plan = patch_set(graph, evidence, parse_atom("g(x)"))
    assert plan.verdict == "unreachable"
    assert "already unreachable" in plan.render()


def test_render_report_covers_goals_and_blast():
    graph = diamond_graph()
    depths = node_depths(graph)
    evidence = attack_evidence(graph)
    results = []
    for goal in graph.goals:
        trace = shortest_trace(graph, goal, depths)
        depth = trace.depth if trace else None
        patch = patch_set(graph, evidence, goal)
        results.append(GoalResult(goal, trace is not None, depth, trace, patch, exact=True))
    text = render_report(graph, evidence, results)
    assert "cve universe: CVE-2001-1000, CVE-2001-1001" in text
    assert "goal p(x) (depth" in text
    assert "blast radius of CVE-2001-1001 alone: 2 conditions" in text
