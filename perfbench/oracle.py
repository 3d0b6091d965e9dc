"""Independent checks of one analysis result against its compiled program.

Reachability comes from a naive fixpoint: sweep every rule until a sweep
adds no atom. It shares no code with ``iotgraph.reasoner.saturate``, so a
defect in the watched-literal engine, the graph slice or the metrics shows
up as a disagreement here.
"""

from __future__ import annotations

from collections.abc import Iterable

from iotgraph.logic import Atom, HornRule
from iotgraph.pipeline import AnalysisResult, GoalResult
from iotgraph.reasoner import FACT, RULE, AttackGraph


def closure(facts: Iterable[Atom], rules: Iterable[HornRule]) -> set[Atom]:
    """Every atom the rules derive from the facts."""

    known = set(facts)
    pending = list(rules)
    while True:
        rest = []
        for rule in pending:
            if rule.head in known:
                continue
            if all(atom in known for atom in rule.body):
                known.add(rule.head)
            else:
                rest.append(rule)
        if len(rest) == len(pending):
            return known
        pending = rest


def _trace_problems(
    graph: AttackGraph, facts: set[Atom], rules: set[HornRule], result: GoalResult
) -> list[str]:
    """A trace must be a proof order over program clauses ending at its goal."""

    goal = result.goal.render()
    if result.trace is None or not result.trace.steps:
        return [f"goal {goal}: reachable but has no trace"]
    have: set[Atom] = set()
    fired: set[Atom] = set()
    for step in result.trace.steps:
        node = graph.node(step.node_id)
        if step.kind == FACT:
            if node.atom not in facts:
                return [f"goal {goal}: trace step {node.text!r} is not a program fact"]
            have.add(node.atom)
        elif step.kind == RULE:
            if node.rule not in rules:
                return [f"goal {goal}: trace step {node.text!r} is not a program rule"]
            missing = [a.render() for a in node.rule.body if a not in have]
            if missing:
                return [f"goal {goal}: rule {node.text!r} applied before {', '.join(missing)}"]
            fired.add(node.rule.head)
        else:
            if node.atom not in fired:
                return [f"goal {goal}: {node.text} reached before any rule derived it"]
            have.add(node.atom)
    if graph.node(result.trace.steps[-1].node_id).atom != result.goal:
        return [f"goal {goal}: trace does not end at its goal"]
    return []


def check(result: AnalysisResult) -> list[str]:
    """Problems found in the goal verdicts, traces and patch plans."""

    program = result.compiled.program
    reach = closure(program.facts, program.rules)
    facts, rules = set(program.facts), set(program.rules)
    problems = []
    blocked: dict[tuple[str, ...], list[Atom]] = {}
    for r in result.goal_results:
        if r.reachable != (r.goal in reach):
            problems.append(
                f"goal {r.goal.render()}: reachable={r.reachable}, fixpoint says {r.goal in reach}"
            )
        if r.reachable:
            problems.extend(_trace_problems(result.graph, facts, rules, r))
        if r.patch.verdict == "blocked":
            blocked.setdefault(r.patch.cves, []).append(r.goal)
    # Goals that share a patch set share one re-derivation.
    for cves, goals in blocked.items():
        patched = [f for f in program.facts if not (f.pred == "vulExists" and f.args[1] in cves)]
        still = closure(patched, program.rules)
        for goal in goals:
            if goal in still:
                problems.append(
                    f"goal {goal.render()}: still reachable after patching {', '.join(cves)}"
                )
    return problems
