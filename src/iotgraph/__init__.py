"""System-level security analysis for smart-home deployments.

Feed the analyzer a deployment description (devices, networks, installed
automation apps) and a CVE corpus; it compiles the whole system into a
Horn program, evaluates it against an attacker model, and answers
quantitative questions over the resulting AND/OR attack graph: shortest
attack traces, which CVE combinations evidence each condition, single-CVE
blast radius, and minimal patch sets.
"""

from .apps import (
    AppBindError,
    AppParseError,
    AppSemantics,
    BoundApp,
    bind_app,
    parse_app_description,
)
from .cvestore import CveRecord, CveStore, StoreError
from .exploits import (
    EFFECT_KINDS,
    PRECONDITION_KINDS,
    ExploitModel,
    classify_effect,
    classify_precondition,
    models_for,
)
from .logic import Atom, HornRule, LogicError, LogicProgram, parse_atom, render_fact
from .metrics import (
    Evidence,
    PatchPlan,
    Trace,
    attack_evidence,
    blast_radius,
    merge_ae_and,
    merge_ae_or,
    node_depths,
    patch_set,
    shortest_trace,
)
from .model import ConfigError, SystemConfig, normalize_name, parse_config
from .pipeline import AnalysisResult, analyze, write_outputs
from .reasoner import AttackGraph, build_attack_graph, saturate
from .rules import CompiledSystem, compile_system, render_program, render_system_facts
from .synth import synth_document, synthesize

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "AppBindError",
    "AppParseError",
    "AppSemantics",
    "Atom",
    "AttackGraph",
    "BoundApp",
    "CompiledSystem",
    "ConfigError",
    "CveRecord",
    "CveStore",
    "EFFECT_KINDS",
    "Evidence",
    "ExploitModel",
    "HornRule",
    "LogicError",
    "LogicProgram",
    "PRECONDITION_KINDS",
    "PatchPlan",
    "StoreError",
    "SystemConfig",
    "Trace",
    "analyze",
    "attack_evidence",
    "bind_app",
    "blast_radius",
    "build_attack_graph",
    "classify_effect",
    "classify_precondition",
    "compile_system",
    "merge_ae_and",
    "merge_ae_or",
    "models_for",
    "node_depths",
    "normalize_name",
    "parse_app_description",
    "parse_atom",
    "parse_config",
    "patch_set",
    "render_fact",
    "render_program",
    "render_system_facts",
    "saturate",
    "shortest_trace",
    "synth_document",
    "synthesize",
    "write_outputs",
]
