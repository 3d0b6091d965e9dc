"""Spans and counts around the public functions of each iotgraph layer.

Wrappers go where callers look the functions up, not only where they are
defined: ``iotgraph.pipeline`` imports ``compile_system``, ``saturate`` and
others by name, ``compile_system`` finds ``ground_static_rules`` as a global
of ``iotgraph.rules``, and ``render_report`` finds ``attack_evidence`` and
``node_depths`` as globals of ``iotgraph.metrics``. Methods are wrapped on
their class. Library code is left unchanged; ``uninstall`` puts every
original back.

Every span records its name, its parent span, and its start and end. Spans
stay in memory until the run ends; ``operation`` turns the spans and counts
of one operation into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter

from iotgraph import apps, cvestore, logic, metrics, model, pipeline, reasoner, rules

# Layers whose metric is self time: their children are reported on their own.
SELF_TIMED = frozenset({"rules.compile_system", "pipeline.write_outputs"})


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._graphs: dict[int, tuple[reasoner.AttackGraph, metrics.Evidence]] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, fn: Callable, name: str, after: Callable | None, skip: tuple) -> Callable:
        spans, stack, counts = self.spans, self._stack, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except skip:
                counts["apps.skipped"] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._originals.append((owner, attr, raw))

    def install(self) -> None:
        c = self._counts

        def count(key: str, measure: Callable) -> Callable:
            def after(args, result):
                c[key] += measure(result)

            return after

        def searched(args, result):
            c["cvestore.search_calls"] += 1
            c["cvestore.hits"] += len(result)

        def compiled(args, result):
            c["rules.facts"] += len(result.program.facts)

        def saturated(args, result):
            c["reasoner.firings"] += len(result.fired)
            c["reasoner.derived"] += len(result.derived)

        def evidence(args, result):
            c["metrics.attack_evidence_calls"] += 1
            # render_report recomputes the evidence of the graph analyze saw;
            # sizes count each graph once. Holding the graph keeps its id unique.
            self._graphs.setdefault(id(args[0]), (args[0], result))

        def depths(args, result):
            c["metrics.node_depths_calls"] += 1

        def patched(args, result):
            c["metrics.patches_blocked"] += result.verdict == "blocked"

        def wrote(args, result):
            # The manifest's size varies with the timings it records.
            sizes = (p.stat().st_size for p in result if p.name != "run_manifest.json")
            c["pipeline.output_bytes"] += sum(sizes)

        spans = (
            (cvestore.CveStore, "open_existing", "cvestore.open", None),
            (cvestore.CveStore, "search", "cvestore.search", searched),
            (model, "parse_config", "model.parse_config", None),
            (pipeline, "analyze", "pipeline.analyze", None),
            (pipeline, "models_for", "exploits.models_for", count("exploits.models", len)),
            (pipeline, "parse_app_description", "apps.parse", None),
            (pipeline, "bind_app", "apps.bind", count("apps.bound", lambda r: 1)),
            (pipeline, "compile_system", "rules.compile_system", compiled),
            (rules, "ground_static_rules", "rules.ground_static_rules", count("rules.ground_rules", len)),
            (pipeline, "saturate", "reasoner.saturate", saturated),
            (pipeline, "build_attack_graph", "reasoner.build_attack_graph",
             count("reasoner.graph_nodes", lambda g: len(g.nodes))),
            (metrics, "node_depths", "metrics.node_depths", depths),
            (metrics, "attack_evidence", "metrics.attack_evidence", evidence),
            (metrics, "shortest_trace", "metrics.shortest_trace", None),
            (metrics, "patch_set", "metrics.patch_set", patched),
            (metrics, "blast_radius", "metrics.blast_radius", None),
            (metrics, "render_report", "metrics.render_report", None),
            (pipeline, "write_outputs", "pipeline.write_outputs", wrote),
            (pipeline, "render_program", "rules.render_program", None),
            (reasoner.AttackGraph, "to_json", "reasoner.to_json", None),
            (reasoner.AttackGraph, "to_dot", "reasoner.to_dot", None),
            (pipeline, "render_summary", "pipeline.render_summary", None),
        )
        for owner, attr, name, after in spans:
            skip = (apps.AppParseError, apps.AppBindError) if name.startswith("apps.") else ()
            self._patch(owner, attr, lambda fn, n=name, a=after, s=skip: self._span(fn, n, a, s))
        # Called per device and per rule instance: counted, not timed.
        self._patch(model.SystemConfig, "device", lambda fn: self._counter(fn, "model.device_calls"))
        self._patch(
            logic.HornRule, "substitute", lambda fn: self._counter(fn, "logic.rule_substitute_calls")
        )

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # -- operations ---------------------------------------------------------

    @contextmanager
    def operation(self, into: list[dict[str, float]]) -> Iterator[None]:
        """Trace one operation and append its per-layer metrics to ``into``."""

        first = len(self.spans)
        self._counts.clear()
        self._graphs.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
        into.append(self._summarize(first))

    def _summarize(self, first: int) -> dict[str, float]:
        spans = self.spans[first:]
        children = [0.0] * len(spans)
        for span in spans:
            if span[1] >= first:
                children[span[1] - first] += span[3] - span[2]
        out: dict[str, float] = defaultdict(float)
        for span, inner in zip(spans, children):
            took = span[3] - span[2]
            out[span[0] + "_s"] += took - inner if span[0] in SELF_TIMED else took
        out.update(self._counts)

        sizes = [len(tags) for _, ev in self._graphs.values() for tags in ev.tags.values()]
        out["metrics.evidence_universe"] = sum(len(ev.universe) for _, ev in self._graphs.values())
        out["metrics.evidence_max"] = max(sizes, default=0)
        out["metrics.evidence_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
        out["metrics.evidence_capped_nodes"] = sum(1 for s in sizes if s >= metrics.EVIDENCE_CAP)
        considered = out["rules.facts"] + out["reasoner.firings"] + out["reasoner.derived"]
        out["reasoner.slice_ratio"] = out["reasoner.graph_nodes"] / considered if considered else 0.0
        return dict(out)
