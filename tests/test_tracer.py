"""The names the benchmark's tracer wraps still reach the calls it measures.

``perfbench/tracer.py`` wraps library functions where callers look them up,
by name: ``compile_system`` must reach the grounder as
``rules.ground_static_rules``. A rename in ``src/`` would otherwise stop only
the traced benchmark. ``conftest`` puts the repository root on ``sys.path``.
"""

from __future__ import annotations

from iotgraph import pipeline
from perfbench.tracer import Tracer


def test_traced_operation_times_and_counts_the_grounder(fig2_config, store, tmp_path):
    into: list[dict[str, float]] = []
    with Tracer().operation(into):
        result = pipeline.analyze(fig2_config, store)
        pipeline.write_outputs(result, tmp_path)
    [layers] = into
    assert layers["rules.ground_static_rules_s"] > 0
    assert layers["rules.ground_rules"] == len(result.compiled.grounding)
