"""End-to-end analysis: configuration in, attack graph and metrics out.

The stages are deliberately separable (each is importable and testable on
its own): scan device names against the CVE store, classify hits into
exploit models, parse and bind app descriptions, compile the Horn program
(evaluating its rule library down to the ground instances that fire, in
the one fixpoint that also saturates the program), slice the attack graph
from that saturation, and evaluate metrics per goal.

``analyze`` computes every result once and holds it in ``AnalysisResult``;
``write_outputs`` and ``render_summary`` only render what it holds.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics as metrics_mod
from .apps import AppBindError, AppParseError, BoundApp, bind_app, parse_app_description
from .cvestore import CveRecord, CveStore, query_tokens
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
from .reasoner import AttackGraph, SaturationResult, build_attack_graph, default_goals
from .rules import CompiledSystem, compile_system, render_program
# Not called here: ``analyze`` takes its saturation from ``compile_system``,
# whose evaluator ``saturate`` runs with no library. It stays a name of this
# module, which perfbench/tracer.py wraps.
from .rules import saturate  # noqa: F401

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
    """Look every device name up in the CVE store.

    A search depends only on the name's keywords, so each distinct keyword
    tuple is searched once per call and its devices share the records. A
    name with no keywords is passed to the store on its own, which warns
    once per such device.
    """

    searched: dict[tuple[str, ...], tuple[CveRecord, ...]] = {}
    findings = []
    for d in config.devices:
        keywords = tuple(query_tokens(d.name))
        if not keywords or keywords not in searched:
            searched[keywords] = tuple(store.search(d.name))
        if searched[keywords]:
            findings.append(DeviceFinding(device=d.atom, records=searched[keywords]))
    return findings


def build_models(
    config: SystemConfig,
    findings: list[DeviceFinding],
    overrides: dict[str, dict[str, str]] | None = None,
) -> list[ExploitModel]:
    """Exploit models for every CVE found on a device, in finding order.

    ``overrides`` is an overrides document (see ``parse_overrides``); a
    malformed one raises ``ConfigError``. A CVE's kinds depend only on its
    record, the protocols of the device's networks and its override, so
    each (record, protocols) pair is classified once per call, and a
    classifier runs only for a kind the override leaves open.
    """

    networks = config.network_index()
    devices = config.device_index()
    chosen = parse_overrides(overrides) if overrides is not None else {}
    kinds: dict[tuple[CveRecord, tuple[str, ...]], tuple[str, str]] = {}
    out: list[ExploitModel] = []
    for finding in findings:
        device = devices[finding.device]
        protocols = tuple(networks[n].protocol for n in device.networks)
        for record in finding.records:
            key = (record, protocols)
            if key not in kinds:
                pre, effect = chosen.get(record.cve_id, (None, None))
                kinds[key] = (
                    pre or classify_precondition(record, protocols),
                    effect or classify_effect(record),
                )
            out.extend(models_for(device, record, networks, kinds[key]))
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


def analyze(
    config: SystemConfig,
    store: CveStore,
    extra_goals: tuple[Atom, ...] = (),
    overrides: dict[str, dict[str, str]] | None = None,
) -> AnalysisResult:
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
        sat = SaturationResult()
        compiled = compile_system(config, models, bound, extra_goals=extra_goals, saturation=sat)
    with stage("reason"):
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


def write_outputs(result: AnalysisResult, out_dir: str | Path, graph_format: str = "dot") -> list[Path]:
    """Write program, graph, metrics report, and run manifest files."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    program_path = out / "program.pl"
    program_path.write_text(render_program(result.compiled))
    written.append(program_path)

    json_path = out / "attack_graph.json"
    json_path.write_text(result.graph.to_json())
    written.append(json_path)

    if graph_format == "dot":
        graph_path = out / "attack_graph.dot"
        graph_path.write_text(result.graph.to_dot())
    else:
        graph_path = out / "attack_graph.txt"
        graph_path.write_text(result.graph.to_text())
    written.append(graph_path)

    report_path = out / "metrics_report.txt"
    report_path.write_text(
        metrics_mod.render_report(result.graph, result.evidence, result.goal_results)
    )
    written.append(report_path)

    manifest = {
        "devices": len(result.config.devices),
        "networks": len(result.config.networks),
        "devices_with_cves": len(result.findings),
        "cve_hits": sorted({r.cve_id for f in result.findings for r in f.records}),
        "exploit_models": len(result.models),
        "apps_bound": [b.app.name for b in result.bound_apps],
        "apps_skipped": [{"app": name, "reason": reason} for name, reason in result.skipped_apps],
        "facts": len(result.compiled.program.facts),
        "rules": len(result.compiled.program.rules),
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
    manifest_path = out / "run_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    written.append(manifest_path)
    return written


def render_summary(result: AnalysisResult) -> str:
    """Terminal summary: one line per goal plus headline counts."""

    lines = [
        f"devices: {len(result.config.devices)}, "
        f"cves: {sum(len(f.records) for f in result.findings)} on {len(result.findings)} devices, "
        f"apps bound: {len(result.bound_apps)}"
        + (f" (skipped {len(result.skipped_apps)})" if result.skipped_apps else ""),
        f"program: {len(result.compiled.program.facts)} facts, "
        f"{len(result.compiled.program.rules)} rules; graph: {len(result.graph.nodes)} nodes",
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
