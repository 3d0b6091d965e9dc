"""The output oracle accepts the analyzer's answers and rejects wrong ones."""

import dataclasses
from importlib import resources

import pytest
from iotgraph.cvestore import CveStore
from iotgraph.model import parse_config
from iotgraph.pipeline import analyze

from perfbench import oracle


@pytest.fixture(scope="module")
def system28():
    """The paper's kill chain, analyzed against the bundled feed."""

    fixtures = resources.files("iotgraph") / "fixtures"
    with CveStore(":memory:") as store:
        store.ingest_feed(str(fixtures / "mini_feed.json"))
        return analyze(parse_config((fixtures / "system28.json").read_text()), store)


def _replace_goal(result, **changes):
    first = dataclasses.replace(result.goal_results[0], **changes)
    return dataclasses.replace(result, goal_results=(first, *result.goal_results[1:]))


def test_analyzer_answers_pass(system28):
    assert any(r.reachable for r in system28.goal_results)
    assert oracle.check(system28) == []


def test_wrong_reachability_is_caught(system28):
    flipped = _replace_goal(system28, reachable=not system28.goal_results[0].reachable)
    assert any("fixpoint says" in p for p in oracle.check(flipped))


def test_out_of_order_trace_is_caught(system28):
    trace = system28.goal_results[0].trace
    backwards = dataclasses.replace(trace, steps=tuple(reversed(trace.steps)))
    assert oracle.check(_replace_goal(system28, trace=backwards))


def test_unsound_patch_is_caught(system28):
    goal = system28.goal_results[0]
    useless = dataclasses.replace(goal.patch, verdict="blocked", cves=("CVE-0000-0000",))
    assert any("still reachable" in p for p in oracle.check(_replace_goal(system28, patch=useless)))


def test_closure_is_the_least_fixpoint():
    from iotgraph.logic import Atom, HornRule

    a, b, c, d = (Atom(x) for x in "abcd")
    rules = [HornRule(c, (a, b)), HornRule(b, (a,)), HornRule(d, (c, d))]
    assert oracle.closure([a], rules) == {a, b, c}
