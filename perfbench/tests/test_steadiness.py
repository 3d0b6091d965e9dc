"""The benchmark repeats itself: exact counts when traced, bounded drift when not.

These run the benchmark as the command line does, so they take minutes.
"""

import json

import pytest

from perfbench import steadiness

SPEC = json.loads((steadiness.ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced():
    """Two short traced runs per workload."""

    return {w: [steadiness.run_once(w, 1, 1, 1)["metrics"] for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(traced, workload):
    first, second = traced[workload]
    assert {n: first[n]["value"] for n in COUNTS} == {n: second[n]["value"] for n in COUNTS}
    # Two evidence computations per operation: analyze and render_report.
    assert first["metrics.attack_evidence_calls"]["value"] == 2
    capped = first["metrics.evidence_capped_nodes"]["value"]
    assert capped > 0 if workload == "evidence-dense" else capped == 0


def test_layer_shares_follow_workloads(traced):
    def share(workload, layer):
        metrics = traced[workload][0]
        return metrics[layer]["value"] / metrics["trace.run_s"]["value"]

    grounding = "rules.ground_static_rules_s"
    evidence = "metrics.attack_evidence_s"
    assert share("home-large", grounding) > share("evidence-dense", grounding)
    assert share("evidence-dense", evidence) > share("home-large", evidence)


# Five seeds, not the ten of steadiness.py, to keep the suite near fifteen minutes.
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_sets_agree_within_bounds(workload):
    sets = steadiness.untraced_sets(workload, [1, 2, 3, 4, 5], SPEC["run_seconds"], SPEC)
    assert steadiness.check(SPEC, sets) == []
