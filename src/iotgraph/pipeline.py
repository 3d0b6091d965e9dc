"""End-to-end analysis: configuration in, attack graph and metrics out.

The stages are deliberately separable (each is importable and testable on
its own): scan device names against the CVE store, classify hits into
exploit models, parse and bind app descriptions, compile the Horn program
(evaluating its rule library down to the ground instances that fire, in
the one fixpoint that also saturates the program), slice the attack graph
from that saturation, and evaluate metrics per goal.

``analyze`` computes every result once and holds it in ``AnalysisResult``;
``write_outputs`` and ``render_summary`` only render what it holds.

Nearly every object ``analyze`` allocates lives on in its result, so the
cyclic garbage collector's young-generation passes would scan it over and
over and reclaim next to nothing. ``analyze`` therefore runs its stages with
the collector paused (``gc.disable()``), and on the way out, whether it
returns or raises, hands every tracked object of the process to the oldest
generation (``gc.freeze()`` then ``gc.unfreeze()``), so that the first
collections after it do not scan the result either. It then restores the
collector's enabled state; the thresholds are never touched. A caller that
has frozen objects itself (``gc.get_freeze_count()`` not 0) keeps them
frozen: the hand-off is skipped. Calls that overlap in threads pause the
collector once and restore it once, when the last of them leaves. The
hand-off moves the caller's young objects too, and the objects it moves
never start a full collection, so a reference cycle the caller dropped just
before the call would wait for an explicit ``gc.collect()``. The first call
in therefore collects the two young generations (``gc.collect(1)``) before
the pause, when the collector is enabled: a cycle that outlived one
collection of the youngest sits in the middle one. ``analyze`` itself leaves
no cycle behind.

The entry collection and the hand-off pay for themselves. Against a copy
that only pauses the collector, ``perfbench/run.py --workload home-large
--seed 1 --seconds 10 --trace 0`` (8 alternating pairs, shared 2-core host)
read medians of ``analyze_ref`` 0.700 against 0.740, lower in 8 of 8 pairs;
``run_ref`` 1.179 against 1.226; ``write_ref`` 0.255 for both.
"""

from __future__ import annotations

import gc
import logging
import math
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import metrics as metrics_mod
from .apps import AppBindError, AppParseError, BoundApp, bind_app, parse_app_description
from .cvestore import CveRecord, CveStore
from .exploits import (
    ExploitModel,
    classify_effect,
    classify_precondition,
    models_for,
    parse_overrides,
)
from .logic import Atom
from .metrics import GoalResult
from .model import SystemConfig
from .reasoner import AttackGraph, build_attack_graph, default_goals
# Not called here: ``analyze`` takes its saturation from ``compile_system``,
# whose evaluator ``saturate`` runs with no library. It stays a name of this
# module, which perfbench/tracer.py wraps.
from .reasoner import saturate  # noqa: F401
from .rules import CompiledSystem, compile_system, render_program

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DeviceFinding:
    device: str  # atom
    records: tuple[CveRecord, ...]


@dataclass
class AnalysisResult:
    config: SystemConfig
    findings: tuple[DeviceFinding, ...]
    models: tuple[ExploitModel, ...]
    bound_apps: tuple[BoundApp, ...]
    skipped_apps: tuple[tuple[str, str], ...]
    compiled: CompiledSystem
    graph: AttackGraph
    evidence: metrics_mod.Evidence
    goal_results: tuple[GoalResult, ...]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def any_reachable(self) -> bool:
        return any(r.reachable for r in self.goal_results)


def scan_devices(config: SystemConfig, store: CveStore) -> list[DeviceFinding]:
    """Look every device name up in the CVE store, in one round trip.

    A search depends only on the set of the name's keywords, so the store
    searches each distinct set once per call, and devices with the same
    keywords share its records (``CveStore.search_names``). A name with no
    keywords finds nothing and warns once per such device.
    """

    found = store.search_names([d.name for d in config.devices])
    return [
        DeviceFinding(device=d.atom, records=records)
        for d, records in zip(config.devices, found)
        if records
    ]


def build_models(
    config: SystemConfig,
    findings: list[DeviceFinding],
    overrides: dict[str, dict[str, str]] | None = None,
) -> list[ExploitModel]:
    """Exploit models for every CVE found on a device, in finding order.

    ``overrides`` is an overrides document (see ``parse_overrides``); a
    malformed one raises ``ConfigError``. A CVE's precondition depends only
    on its record, the protocols of the device's networks and its override,
    and its effect only on the record and the override, so each (record,
    protocols) pair is classified for its precondition once per call, each
    record for its effect once, and a classifier runs only for a kind the
    override leaves open. Every model's atoms come from one table.
    """

    networks = config.network_index()
    devices = config.device_index()
    chosen = parse_overrides(overrides) if overrides is not None else {}
    # Keyed by CVE id, as overrides are: the store holds one record per id.
    preconditions: dict[tuple[str, tuple[str, ...]], str] = {}
    effects: dict[str, str] = {}
    atoms: dict[tuple[str, tuple[str, ...]], Atom] = {}
    out: list[ExploitModel] = []
    for finding in findings:
        device = devices[finding.device]
        protocols = tuple(networks[n].protocol for n in device.networks)
        for record in finding.records:
            cve_id = record.cve_id
            pre, effect = chosen.get(cve_id, (None, None))
            if pre is None:
                key = (cve_id, protocols)
                if key not in preconditions:
                    preconditions[key] = classify_precondition(record, protocols)
                pre = preconditions[key]
            if effect is None:
                if cve_id not in effects:
                    effects[cve_id] = classify_effect(record)
                effect = effects[cve_id]
            out.extend(models_for(device, record, protocols, (pre, effect), atoms))
    found = {record.cve_id for finding in findings for record in finding.records}
    for cve_id in sorted(chosen.keys() - found):
        log.warning("override for %s matches no CVE found on a device; ignored", cve_id)
    return out


def bind_apps(config: SystemConfig) -> tuple[list[BoundApp], list[tuple[str, str]]]:
    """Parse and bind every configured app; failures skip with a reason."""

    bound, skipped = [], []
    for app in config.apps:
        try:
            semantics = parse_app_description(app.description)
            bound.append(bind_app(app, semantics, config))
        except (AppParseError, AppBindError) as exc:
            log.warning("skipping app %r: %s", app.name, exc)
            skipped.append((app.name, str(exc)))
    return bound, skipped


# The ``analyze`` calls running now, and whether the collector was enabled
# when the first of them started; both under the lock. The collector is one
# per process, so this state is too. The lock is reentrant because the
# collection on entry may run a finalizer that calls ``analyze``.
_collector_lock = threading.RLock()
_collector_users = 0
_collector_was_enabled = False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body under the collector contract of the module docstring."""

    global _collector_users, _collector_was_enabled
    with _collector_lock:
        if _collector_users == 0:
            _collector_was_enabled = gc.isenabled()
            if _collector_was_enabled:
                gc.collect(1)
            gc.disable()
        _collector_users += 1
    try:
        yield
    finally:
        with _collector_lock:
            _collector_users -= 1
            if _collector_users == 0:
                if gc.get_freeze_count() == 0:
                    gc.freeze()
                    gc.unfreeze()
                if _collector_was_enabled:
                    gc.enable()


def analyze(
    config: SystemConfig,
    store: CveStore,
    extra_goals: tuple[Atom, ...] = (),
    overrides: dict[str, dict[str, str]] | None = None,
) -> AnalysisResult:
    """Run every stage on ``config`` and hold each result once.

    The stages run with the garbage collector paused and hand their objects
    to the oldest generation on the way out: the module docstring states
    the contract and why it holds.
    """

    with _collector_paused():
        timings: dict[str, float] = {}

        @contextmanager
        def stage(name: str) -> Iterator[None]:
            t0 = time.perf_counter()
            yield
            timings[name] = time.perf_counter() - t0

        with stage("scan"):
            findings = scan_devices(config, store)
        with stage("classify"):
            models = build_models(config, findings, overrides)
        with stage("apps"):
            bound, skipped = bind_apps(config)
        with stage("compile"):
            compiled = compile_system(config, models, bound, extra_goals=extra_goals)
        with stage("reason"):
            sat = compiled.grounding.saturation
            goals = compiled.goals or default_goals(sat)
            graph = build_attack_graph(sat, goals)
        with stage("metrics"):
            depths = metrics_mod.node_depths(graph)
            evidence = metrics_mod.attack_evidence(graph)
            goal_results = []
            for goal in goals:
                reachable = goal in graph.goal_nodes
                trace = metrics_mod.shortest_trace(graph, goal, depths) if reachable else None
                patch = metrics_mod.patch_set(graph, evidence, goal)
                goal_results.append(
                    GoalResult(
                        goal=goal,
                        reachable=reachable,
                        depth=trace.depth if trace else None,
                        trace=trace,
                        patch=patch,
                        exact=graph.goal_nodes.get(goal) not in evidence.approximate,
                    )
                )

        return AnalysisResult(
            config=config,
            findings=tuple(findings),
            models=tuple(models),
            bound_apps=tuple(bound),
            skipped_apps=tuple(skipped),
            compiled=compiled,
            graph=graph,
            evidence=evidence,
            goal_results=tuple(goal_results),
            timings=timings,
        )


def _json_text(value: object, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, dict keys being strings.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    writes the same bytes directly, each string through the C escaper that
    encoder uses. ``indent`` is the newline and indentation of ``value``'s
    own level.
    """

    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_outputs(result: AnalysisResult, out_dir: str | Path, graph_format: str = "dot") -> list[Path]:
    """Write program, graph, metrics report, and run manifest files, in UTF-8.

    ``graph_format`` is ``"dot"`` (``attack_graph.dot``) or ``"text"``
    (``attack_graph.txt``).
    """

    if graph_format not in ("dot", "text"):
        raise ValueError(f"graph_format must be 'dot' or 'text', not {graph_format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    write("program.pl", render_program(result.compiled))
    write("attack_graph.json", result.graph.to_json())
    if graph_format == "dot":
        write("attack_graph.dot", result.graph.to_dot())
    else:
        write("attack_graph.txt", result.graph.to_text())
    write(
        "metrics_report.txt",
        metrics_mod.render_report(result.graph, result.evidence, result.goal_results),
    )

    manifest = {
        "devices": len(result.config.devices),
        "networks": len(result.config.networks),
        "devices_with_cves": len(result.findings),
        "cve_hits": sorted({r.cve_id for f in result.findings for r in f.records}),
        "exploit_models": len(result.models),
        "apps_bound": [b.app.name for b in result.bound_apps],
        "apps_skipped": [{"app": name, "reason": reason} for name, reason in result.skipped_apps],
        "facts": len(result.compiled.facts),
        "rules": result.compiled.rule_count,
        "graph_nodes": len(result.graph.nodes),
        "goals": [
            {
                "goal": r.goal.render(),
                "reachable": r.reachable,
                "depth": r.depth,
                "patch_verdict": r.patch.verdict,
                "patch_cves": list(r.patch.cves),
            }
            for r in result.goal_results
        ],
        "timings": {k: round(v, 6) for k, v in result.timings.items()},
    }
    write("run_manifest.json", _json_text(manifest) + "\n")
    return written


def render_summary(result: AnalysisResult) -> str:
    """Terminal summary: one line per goal plus headline counts."""

    lines = [
        f"devices: {len(result.config.devices)}, "
        f"cves: {sum(len(f.records) for f in result.findings)} on {len(result.findings)} devices, "
        f"apps bound: {len(result.bound_apps)}"
        + (f" (skipped {len(result.skipped_apps)})" if result.skipped_apps else ""),
        f"program: {len(result.compiled.facts)} facts, "
        f"{result.compiled.rule_count} rules; graph: {len(result.graph.nodes)} nodes",
    ]
    for r in result.goal_results:
        if r.reachable:
            approximate = "" if r.exact else " (approximate)"
            lines.append(
                f"goal {r.goal.render()}: REACHABLE depth {r.depth}; {r.patch.render()}{approximate}"
            )
        else:
            lines.append(f"goal {r.goal.render()}: unreachable")
    return "\n".join(lines)
