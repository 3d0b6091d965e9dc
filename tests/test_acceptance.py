"""Acceptance gate: ten end-to-end checks over the whole package.

Each test prints exactly one ``CRITERION k: PASS/FAIL - description`` line
(through the capture so it is visible in normal runs) and then asserts, so a
failing criterion is both announced and red.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import statistics
import time
import tracemalloc

import pytest

from iotgraph.apps import bind_app, parse_app_description
from iotgraph.cvestore import CveRecord
from iotgraph.exploits import classify_effect, classify_precondition
from iotgraph.logic import LogicProgram, parse_atom
from iotgraph.metrics import (
    attack_evidence,
    blast_radius,
    merge_ae_and,
    merge_ae_or,
    node_depths,
    shortest_trace,
)
from iotgraph.pipeline import analyze
from iotgraph.reasoner import DERIVATION, RULE, build_attack_graph, saturate
from iotgraph.synth import synthesize

from conftest import config_facts_text, load_fixture_config
from oracles import (
    count_attack_traces,
    evidence_universe,
    min_proof_height,
    minimal_subset,
    proof_masks,
    random_attack_dag,
)

SEED = 20260816

TWO_DEVICE_FACTS = """router(dLinkRouter).
inNetwork(dLinkRouter, wifi1).

gateway(smartthingsHub).
inNetwork(smartthingsHub, wifi1).
inNetwork(smartthingsHub, zigbee1).

wifi(wifi1).
zigbee(zigbee1).
"""


def report(capsys, k: int, ok: bool, description: str) -> None:
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {description}")


def test_criterion_01_config_to_facts(capsys):
    t0 = time.perf_counter()
    cfg = load_fixture_config("listing10")
    text = config_facts_text(cfg)
    elapsed = time.perf_counter() - t0
    ok = text == TWO_DEVICE_FACTS and elapsed < 1.0
    report(capsys, 1, ok, f"two-device config renders the exact fact block in {elapsed:.3f}s")
    assert text == TWO_DEVICE_FACTS
    assert elapsed < 1.0


def test_criterion_02_cve_to_exploit_model(capsys, listing10_config, store):
    result = analyze(listing10_config, store)
    models = [m for m in result.models if m.cve_id == "CVE-2020-8864"]
    rendered = [f.render() for m in models for f in m.facts]
    expected = [
        "vulExists(dLinkRouter, 'CVE-2020-8864')",
        "vulProperty('CVE-2020-8864', wifiAdjacentLogically(wifi1), rootPrivilege(dLinkRouter))",
    ]
    ok = rendered == expected
    report(capsys, 2, ok, "CVE-2020-8864 classifies to the adjacency/root exploit model")
    assert rendered == expected


def test_criterion_03_app_description_pipeline(capsys, hall_light_config):
    app = hall_light_config.apps[0]
    sem = parse_app_description(app.description)
    split_ok = sem.render_split() == (
        "conditional:  ('AND', ['someone comes home', 'the door opens'])\n"
        "main:  ('NONE', ['Turn on the hall light'])"
    )
    phrases_ok = sem.render_phrases() == (
        "conditional clause: [(['someone'], ['comes']), (['the door'], ['opens'])]\n"
        "main clause: [(['the hall light'], ['Turn on'])]"
    )
    tuple_ok = sem.as_tuple() == (
        "AND",
        ["motion sensor", "door contact sensor"],
        ["motion", "open"],
        "NONE",
        ["bulb"],
        ["on"],
    )
    bound = bind_app(app, sem, hall_light_config)
    rule_ok = len(bound.rules) == 1 and bound.rules[0].render() == (
        "on(hueWifiBulb) :-\n"
        "    bulb(hueWifiBulb),\n"
        "    reportsMotion(mijiaMotionSensor),\n"
        "    motionSensor(mijiaMotionSensor),\n"
        "    open(ringContactSensor),\n"
        "    contactSensor(ringContactSensor)."
    )
    ok = split_ok and phrases_ok and tuple_ok and rule_ok
    report(capsys, 3, ok, "hall-light app yields the expected split, phrases, tuple, and rule")
    assert split_ok
    assert phrases_ok
    assert tuple_ok
    assert rule_ok


def test_criterion_04_cross_device_chain(capsys, system28_config, store):
    t0 = time.perf_counter()
    result = analyze(system28_config, store)
    elapsed = time.perf_counter() - t0
    goal = parse_atom("open(windowOpener)")
    by_goal = {r.goal: r for r in result.goal_results}
    reachable = goal in by_goal and by_goal[goal].reachable
    order_ok = False
    if reachable and by_goal[goal].trace is not None:
        rule_texts = [s.text for s in by_goal[goal].trace.steps if s.kind == RULE]
        wanted = [
            "exploit CVE-2019-17098 @ augustBridge",
            "exploit CVE-2019-3949 @ arloBasestation",
            "Voice Preheat",
            "Smoke Ventilation",
        ]
        pos = 0
        for text in rule_texts:
            if pos < len(wanted) and text == wanted[pos]:
                pos += 1
        order_ok = pos == len(wanted)
    ok = reachable and order_ok and elapsed < 2.0
    report(
        capsys,
        4,
        ok,
        f"window opens via wifi sniff, camera, voice, oven, smoke in {elapsed:.3f}s",
    )
    assert reachable
    assert order_ok
    assert elapsed < 2.0


def test_criterion_05_multiple_distinct_traces(capsys, fig2_config, store):
    result = analyze(fig2_config, store)
    goal = parse_atom("unlock(yaleDoorlock)")
    graph = result.graph
    count = count_attack_traces(graph, goal)
    goal_rules = {graph.node(p).text for p in graph.parents[graph.goal_nodes[goal]]}
    routes_ok = goal_rules == {"Voice Unlock", "Fire Door Release"}
    ok = count == 6 and count >= 2 and routes_ok
    report(
        capsys,
        5,
        ok,
        f"six-device home admits {count} distinct unlock traces over two app routes",
    )
    assert count >= 2
    assert count == 6
    assert routes_ok


def test_criterion_06_randomized_metric_equivalence(capsys):
    rng = random.Random(SEED)
    n_graphs = 1000
    mismatches = 0
    for _ in range(n_graphs):
        graph = random_attack_dag(rng)
        depths = node_depths(graph)
        evidence = attack_evidence(graph)
        if evidence.universe != evidence_universe(graph):
            mismatches += 1
            continue
        goal = graph.goals[0]
        goal_id = graph.goal_nodes[goal]
        trace = shortest_trace(graph, goal, depths)
        expected_height = min_proof_height(graph, goal_id)
        if (trace.depth if trace else None) != expected_height:
            mismatches += 1
            continue
        bad = False
        for node in (n for n in graph.nodes if n.kind == DERIVATION):
            if evidence.tags[node.node_id] != minimal_subset(proof_masks(graph, node.node_id)):
                bad = True
                break
        if not bad:
            for k, cve in enumerate(evidence.universe):
                bit = 1 << k
                expected = {
                    n.atom
                    for n in graph.nodes
                    if n.kind == DERIVATION and bit in minimal_subset(proof_masks(graph, n.node_id))
                }
                if set(blast_radius(graph, evidence, cve)) != expected:
                    bad = True
                    break
        if bad:
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        6,
        ok,
        f"fixpoint metrics match proof enumeration on {n_graphs} random graphs "
        f"({mismatches} mismatches)",
    )
    assert mismatches == 0


def _is_antichain(tags: frozenset[int]) -> bool:
    return all(a == b or a & b != a for a in tags for b in tags)


def test_criterion_07_evidence_algebra(capsys):
    rng = random.Random(SEED + 7)
    zero = frozenset({0})

    def rand_set():
        return minimal_subset(rng.randint(0, 63) for _ in range(rng.randint(0, 4)))

    n_triples = 10000
    failures = 0
    for _ in range(n_triples):
        a, b, c = rand_set(), rand_set(), rand_set()
        either, both = merge_ae_or(a, b), merge_ae_and(a, b)
        checks = (
            merge_ae_or(a, a) == a,
            either == merge_ae_or(b, a),
            merge_ae_or(either, c) == merge_ae_or(a, merge_ae_or(b, c)),
            both == merge_ae_and(b, a),
            merge_ae_and(both, c) == merge_ae_and(a, merge_ae_and(b, c)),
            merge_ae_and(a, zero) == a,
            merge_ae_and(zero, a) == a,
            _is_antichain(either),
            _is_antichain(both),
            either == minimal_subset(a | b),
            both == minimal_subset(x | y for x in a for y in b),
        )
        if not all(checks):
            failures += 1
    ok = failures == 0
    report(
        capsys,
        7,
        ok,
        f"merge operators satisfy their laws on {n_triples} random triples "
        f"({failures} failures)",
    )
    assert failures == 0


def test_criterion_08_patch_soundness(capsys, store):
    configs = [
        (name, load_fixture_config(name))
        for name in ("listing10", "hall_light", "fig2", "system28", "system37")
    ]
    configs += [(f"synth{n}", synthesize(n, seed=SEED + n)) for n in (40, 80, 120)]
    checked = 0
    unsound = []
    for name, cfg in configs:
        result = analyze(cfg, store)
        program = result.compiled.program
        blocked: dict[tuple[str, ...], list] = {}
        for gr in result.goal_results:
            if gr.reachable and gr.patch.verdict == "blocked":
                blocked.setdefault(gr.patch.cves, []).append(gr.goal)
        # Goals that share a plan share one re-saturation.
        for cves, goals in blocked.items():
            kept = tuple(
                f for f in program.facts if not (f.pred == "vulExists" and f.args[1] in cves)
            )
            reached = set(kept) | saturate(LogicProgram(facts=kept, rules=program.rules)).derived
            checked += len(goals)
            unsound += [(name, goal.render()) for goal in goals if goal in reached]
    ok = checked > 0 and not unsound
    report(
        capsys,
        8,
        ok,
        f"every computed patch set disconnects its goal ({checked} goals checked)",
    )
    assert checked > 0
    assert unsound == []


def test_criterion_09_scaling(capsys, store):
    def run_50():
        return analyze(synthesize(50, seed=SEED), store)

    # Time and peak memory in separate passes: tracemalloc slows Python
    # allocation several-fold.
    t0 = time.perf_counter()
    result = run_50()
    wall = time.perf_counter() - t0
    tracemalloc.start()
    run_50()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(result.graph.nodes) > 0 or not result.any_reachable

    sizes = (10, 20, 30, 40, 50)
    costs = []
    for n in sizes:
        cfg_n = synthesize(n, seed=SEED)
        best = math.inf
        for _ in range(3):
            t0 = time.process_time()
            analyze(cfg_n, store)
            best = min(best, time.process_time() - t0)
        costs.append(max(best, 1e-6))
    slope, _ = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(c) for c in costs]
    )
    ok = wall < 5.0 and peak < 500 * 1024 * 1024 and slope < 2.0
    report(
        capsys,
        9,
        ok,
        f"50-device analysis takes {wall:.2f}s and {peak / 1e6:.0f}MB peak; "
        f"cost grows as n^{slope:.2f}",
    )
    assert wall < 5.0
    assert peak < 500 * 1024 * 1024
    assert slope < 2.0


def test_criterion_10_classifier_corpus(capsys):
    corpus = json.loads(
        (pathlib.Path(__file__).resolve().parent / "data" / "classifier_corpus.json").read_text()
    )["items"]
    assert len(corpus) == 25
    wrong = []
    for item in corpus:
        rec = CveRecord(
            cve_id=item["cve_id"],
            description=item["description"],
            attack_vector=item["attack_vector"],
            conf_impact=item["conf_impact"],
            integ_impact=item["integ_impact"],
            avail_impact=item["avail_impact"],
            impact_score=item["impact_score"],
            exploitability_score=item["exploitability_score"],
            year=item["year"],
        )
        protocols = tuple(item["protocols"])
        first = (classify_precondition(rec, protocols), classify_effect(rec))
        second = (classify_precondition(rec, protocols), classify_effect(rec))
        if first != second:
            wrong.append((item["cve_id"], "nondeterministic"))
        elif first != (item["expected_precondition"], item["expected_effect"]):
            wrong.append((item["cve_id"], first))
    ok = not wrong
    report(
        capsys,
        10,
        ok,
        f"classifier agrees with all {len(corpus)} labelled CVEs deterministically",
    )
    assert wrong == []
