from __future__ import annotations

import json

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from iotgraph.exploits import EFFECTS
from iotgraph.logic import Atom, HornRule, LogicProgram
from iotgraph.reasoner import (
    DERIVATION,
    FACT,
    PRIVILEGES,
    RULE,
    AttackGraph,
    Node,
    build_attack_graph,
    default_goals,
    saturate,
)


def atom(text: str) -> Atom:
    from iotgraph.logic import parse_atom

    return parse_atom(text)


def test_saturate_chains_to_fixpoint():
    program = LogicProgram(
        facts=(atom("a(x)"),),
        rules=(
            HornRule(atom("b(x)"), (atom("a(x)"),), label="step one"),
            HornRule(atom("c(x)"), (atom("b(x)"),), label="step two"),
        ),
    )
    result = saturate(program)
    assert result.derived == {atom("b(x)"), atom("c(x)")}
    assert len(result.fired) == 2


def test_saturate_requires_every_body_atom():
    program = LogicProgram(
        facts=(atom("a(x)"),),
        rules=(HornRule(atom("d(x)"), (atom("a(x)"), atom("b(x)")), label="and gate"),),
    )
    result = saturate(program)
    assert result.derived == set()
    assert result.fired == []


def test_saturate_counts_duplicate_body_atoms_once():
    program = LogicProgram(
        facts=(atom("a(x)"),),
        rules=(HornRule(atom("b(x)"), (atom("a(x)"), atom("a(x)")), label="dup"),),
    )
    result = saturate(program)
    assert result.derived == {atom("b(x)")}


def test_saturate_records_firing_for_already_derived_head():
    program = LogicProgram(
        facts=(atom("a(x)"), atom("b(x)")),
        rules=(
            HornRule(atom("g(x)"), (atom("a(x)"),), label="via a"),
            HornRule(atom("g(x)"), (atom("b(x)"),), label="via b"),
        ),
    )
    result = saturate(program)
    assert result.derived == {atom("g(x)")}
    assert len(result.fired) == 2
    assert len(result.rows_by_head()[result.ids["g"][("x",)]]) == 2


def test_graph_node_order_is_pinned():
    program = LogicProgram(
        facts=(atom("m(x)"), atom("k(x)")),
        rules=(
            HornRule(atom("g(x)"), (atom("m(x)"),), label="beta"),
            HornRule(atom("g(x)"), (atom("k(x)"),), label="alpha"),
        ),
    )
    graph = build_attack_graph(saturate(program), (atom("g(x)"),))
    texts = [(n.node_id, n.kind, n.text) for n in graph.nodes]
    assert texts == [
        (1, FACT, "k(x)."),
        (2, FACT, "m(x)."),
        (3, RULE, "alpha"),
        (4, RULE, "beta"),
        (5, DERIVATION, "g(x)"),
    ]
    assert graph.parents[3] == (1,)
    assert graph.parents[4] == (2,)
    assert graph.parents[5] == (3, 4)
    assert graph.goal_nodes[atom("g(x)")] == 5
    assert graph.node(5).atom == atom("g(x)")


def test_graph_slice_drops_unrelated_clauses():
    program = LogicProgram(
        facts=(atom("a(x)"), atom("noise(y)")),
        rules=(
            HornRule(atom("g(x)"), (atom("a(x)"),), label="wanted"),
            HornRule(atom("junk(y)"), (atom("noise(y)"),), label="unwanted"),
        ),
    )
    graph = build_attack_graph(saturate(program), (atom("g(x)"),))
    assert [n.text for n in graph.nodes] == ["a(x).", "wanted", "g(x)"]


def test_graph_slice_stops_at_primitive_facts():
    program = LogicProgram(
        facts=(atom("a(x)"), atom("b(x)")),
        rules=(
            HornRule(atom("a(x)"), (atom("b(x)"),), label="redundant derivation"),
            HornRule(atom("g(x)"), (atom("a(x)"),), label="goal step"),
        ),
    )
    graph = build_attack_graph(saturate(program), (atom("g(x)"),))
    kinds = {n.text: n.kind for n in graph.nodes}
    assert kinds["a(x)."] == FACT
    assert "redundant derivation" not in kinds
    assert "b(x)." not in kinds


def test_graph_unreachable_goal_is_reported_not_drawn():
    program = LogicProgram(facts=(atom("a(x)"),), rules=())
    goal = atom("g(x)")
    graph = build_attack_graph(saturate(program), (goal,))
    assert graph.nodes == []
    assert goal not in graph.goal_nodes
    goals = json.loads(graph.to_json())["goals"]
    assert goals == [{"atom": "g(x)", "node": None, "reachable": False}]


def two_path_graph():
    program = LogicProgram(
        facts=(atom("m(x)"), atom("k(x)")),
        rules=(
            HornRule(atom("g(x)"), (atom("m(x)"),), label="beta"),
            HornRule(atom("g(x)"), (atom("k(x)"),), label="alpha"),
        ),
    )
    return build_attack_graph(saturate(program), (atom("g(x)"),))


def test_to_document_round_trips_through_json():
    graph = two_path_graph()
    doc = json.loads(graph.to_json())
    assert doc == oracles.graph_document(graph)
    assert doc["nodes"][0] == {"id": 1, "kind": FACT, "text": "k(x).", "parents": []}
    assert doc["goals"] == [{"atom": "g(x)", "node": 5, "reachable": True}]


# Quotes, backslashes, control characters, non-ASCII and astral characters
# (written as surrogate-pair escapes) all take an escape in the document.
texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600\U0010ffff a('))
identifiers = st.from_regex(r"[a-z][A-Za-z0-9_]{0,6}", fullmatch=True)
atoms = st.builds(Atom, identifiers, st.lists(texts, max_size=3).map(tuple))


@st.composite
def attack_graphs(draw):
    """Graphs of any shape: no nodes, no goals, unreachable goals, 0, 1 or many parents."""

    kinds = st.sampled_from((FACT, RULE, DERIVATION))
    size = draw(st.integers(0, 6))
    nodes = [Node(i, draw(kinds), draw(texts)) for i in range(1, size + 1)]
    parents = {}
    for n in nodes:
        ps = draw(st.lists(st.integers(1, max(size, 1)), max_size=4))
        if ps or draw(st.booleans()):
            parents[n.node_id] = tuple(ps)
    goals = tuple(draw(st.lists(atoms, max_size=3)))
    goal_nodes = {g: draw(st.integers(1, size)) for g in goals if size and draw(st.booleans())}
    return AttackGraph(nodes, parents, goals, goal_nodes)


@given(graph=attack_graphs())
@example(graph=AttackGraph([], {}, (), {}))
@example(graph=AttackGraph([], {}, (Atom("g", ('"\\\n\U0001f600',)),), {}))
def test_to_json_prints_what_json_dumps_prints(graph):
    assert graph.to_json() == json.dumps(oracles.graph_document(graph), indent=2) + "\n"


def test_to_dot_uses_shape_per_kind_and_marks_goals():
    dot = two_path_graph().to_dot()
    assert "rankdir=LR;" in dot
    assert 'n1 [shape=box, label="1: k(x)."];' in dot
    assert 'n3 [shape=ellipse, label="3: alpha"];' in dot
    assert 'fillcolor="#ffdddd"' in dot
    assert 'n5 [shape=diamond, label="5: g(x)", style=filled, fillcolor="#ffdddd"];' in dot
    assert "  n1 -> n3;" in dot


def test_to_text_lists_nodes_and_goal_status():
    text = two_path_graph().to_text()
    assert "[   5] OR   g(x)  <- 3, 4" in text
    assert "goal g(x): reachable" in text


def test_privileges_are_the_exploit_effects_but_denial_of_service():
    assert PRIVILEGES == {head.pred for _, head in EFFECTS.values()} - {"dos"}
    assert PRIVILEGES == {
        "attackerRoot",
        "attackerDeviceControl",
        "attackerCommandInjection",
        "attackerEventAccess",
        "attackerInNetwork",
    }


def test_default_goals_pick_attacker_privileges_sorted():
    program = LogicProgram(
        facts=(atom("seed(x)"),),
        rules=(
            HornRule(atom("attackerRoot(router)"), (atom("seed(x)"),), label="r1"),
            HornRule(atom("attackerInNetwork(wifi1)"), (atom("seed(x)"),), label="r2"),
            HornRule(atom("open(door)"), (atom("seed(x)"),), label="r3"),
        ),
    )
    result = saturate(program)
    goals = default_goals(result)
    assert [g.render() for g in goals] == [
        "attackerInNetwork(wifi1)",
        "attackerRoot(router)",
    ]
