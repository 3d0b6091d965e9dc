"""Command-line interface.

Exit codes: 0 success, 1 reachable goal under --fail-on-reachable, 2 bad
configuration or arguments, 3 missing CVE store, 4 ingest or analysis
stage failure, or an output file that cannot be written. Output files are
UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .apps import AppBindError, AppParseError, bind_app, parse_app_description
from .cvestore import CveStore, StoreError
from .exploits import parse_overrides
from .logic import Atom, LogicError
from .model import ConfigError, SystemConfig, parse_config, parse_goal
from .pipeline import analyze, bind_apps, build_models, render_summary, scan_devices, write_outputs
from .rules import compile_system, config_facts, render_program
from .synth import render_synth

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_REACHABLE = 1
EXIT_CONFIG = 2
EXIT_NO_STORE = 3
EXIT_STAGE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _store_path(args: argparse.Namespace) -> str:
    path = args.store or os.environ.get("IOTGRAPH_STORE")
    if not path:
        raise CliError("no CVE store given: pass --store or set IOTGRAPH_STORE", EXIT_CONFIG)
    return path


def _open_store(args: argparse.Namespace, opener=CveStore.open_existing) -> CveStore:
    try:
        return opener(_store_path(args))
    except StoreError as exc:
        raise CliError(str(exc), EXIT_NO_STORE) from exc


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_CONFIG) from exc
    try:
        return parse_config(text, source=path)
    except ConfigError as exc:
        raise CliError(f"invalid config {path}: {exc}", EXIT_CONFIG) from exc


def _load_overrides(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read overrides {path}: {exc}", EXIT_CONFIG) from exc
    try:
        parse_overrides(data)
    except ConfigError as exc:
        raise CliError(f"{exc} (in {path})", EXIT_CONFIG) from exc
    return data


def _inputs(
    args: argparse.Namespace,
) -> tuple[SystemConfig, tuple[Atom, ...], dict | None, CveStore]:
    """The config, ``--goals``, overrides and open store of a command, checked
    in that order."""

    config = _load_config(args.config)
    try:
        # ``model`` takes no --goals.
        goals = tuple(map(parse_goal, getattr(args, "goals", ())))
    except ConfigError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    overrides = _load_overrides(args.overrides)
    return config, goals, overrides, _open_store(args)


def cmd_ingest(args: argparse.Namespace) -> int:
    with _open_store(args, CveStore) as store:
        total_added = total_skipped = 0
        for feed in args.feeds:
            try:
                added, skipped = store.ingest_feed(feed)
            except StoreError as exc:
                raise CliError(f"ingest failed for {feed}: {exc}", EXIT_STAGE) from exc
            print(f"{feed}: {added} records added, {skipped} skipped")
            total_added += added
            total_skipped += skipped
        print(f"store {store.path}: {store.count()} records ({total_added} new, {total_skipped} skipped)")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        for name, records in zip(args.names, store.search_names(args.names)):
            print(f"{name}: {len(records)} match(es)")
            for r in records:
                print(f"  {r.cve_id} [{r.attack_vector}] {r.description[:90]}")
    return EXIT_OK


def _models(args: argparse.Namespace) -> tuple:
    """A command's config, ``--goals``, atom table, fact block sizes
    (``rules.config_facts``) and the exploit models of the CVEs found on it."""

    config, goals, overrides, store = _inputs(args)
    table, blocks = config_facts(config)
    with store:
        findings = scan_devices(config, store)
    return config, goals, table, blocks, build_models(config, findings, table, overrides)


def cmd_model(args: argparse.Namespace) -> int:
    *_, models = _models(args)
    for m in models:
        print(
            f"{m.cve_id} @ {m.device}: precondition={m.precondition} effect={m.effect} "
            + m.facts[1].render()
        )
    if not models:
        print("no exploit models (no CVE matches)")
    return EXIT_OK


def cmd_extract_apps(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    failures = 0
    for app in config.apps:
        print(f"== {app.name}")
        try:
            semantics = parse_app_description(app.description)
        except AppParseError as exc:
            print(f"  parse error: {exc}")
            failures += 1
            continue
        print("  " + semantics.render_split().replace("\n", "\n  "))
        print("  " + semantics.render_phrases().replace("\n", "\n  "))
        print(f"  tuple: {semantics.as_tuple()!r}")
        try:
            bound = bind_app(app, semantics, config)
        except AppBindError as exc:
            print(f"  bind error: {exc}")
            failures += 1
            continue
        for rule in bound.rules:
            print("  " + rule.render().replace("\n", "\n  "))
    return EXIT_STAGE if failures and args.strict else EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    out = _out_path(args.out) if args.out else None
    config, goals, table, blocks, models = _models(args)
    bound, _skipped = bind_apps(config)
    try:
        compiled = compile_system(config, table, blocks, models, bound, goals)
    except (LogicError, ConfigError) as exc:
        raise CliError(f"compile failed: {exc}", EXIT_STAGE) from exc
    _emit(render_program(compiled), out)
    return EXIT_OK


def _run_analysis(args: argparse.Namespace):
    config, goals, overrides, store = _inputs(args)
    with store:
        try:
            return analyze(config, store, extra_goals=goals, overrides=overrides)
        except (LogicError, ConfigError) as exc:
            raise CliError(f"analysis failed: {exc}", EXIT_STAGE) from exc


def _out_path(out: str, directory: bool = False) -> Path:
    """``--out`` as a path, refused before any work if the output cannot go there."""

    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), path)
    # Only the output itself may exist as a file, and only if it is one.
    must_be_dir = directory or existing != path
    if existing.is_dir() != must_be_dir:
        what = "not a directory" if must_be_dir else "a directory"
        raise CliError(f"cannot write outputs to {path}: {existing} is {what}", EXIT_CONFIG)
    return path


def _emit(text: str, out: Path | None) -> None:
    """Print ``text``, or write it to ``out``, making missing parent directories."""

    if out is None:
        print(text, end="")
        return
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}", EXIT_STAGE) from exc
    print(f"wrote {out}")


def cmd_analyze(args: argparse.Namespace) -> int:
    out = _out_path(args.out, directory=True)
    result = _run_analysis(args)
    try:
        written = write_outputs(result, out, graph_format=args.format)
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}", EXIT_STAGE) from exc
    print(render_summary(result))
    for path in written:
        print(f"wrote {path}")
    if args.fail_on_reachable and result.any_reachable:
        return EXIT_REACHABLE
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import render_report

    result = _run_analysis(args)
    print(render_report(result.graph, result.evidence, result.goal_results), end="")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    out = _out_path(args.out) if args.out else None
    try:
        text = render_synth(args.devices, args.seed)
    except (ValueError, ConfigError) as exc:
        raise CliError(f"synthesis failed: {exc}", EXIT_CONFIG) from exc
    _emit(text, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotgraph",
        description="System-level security analysis for smart-home deployments",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", help="CVE store path (default: $IOTGRAPH_STORE)")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="deployment configuration (JSON)")
    # What ``_inputs`` reads.
    inputs = argparse.ArgumentParser(add_help=False, parents=[store, config])
    inputs.add_argument("--overrides", help="JSON file overriding classifications per CVE")
    goals = argparse.ArgumentParser(add_help=False)
    goals.add_argument("--goals", nargs="*", default=[], help="extra goal atoms")

    p = sub.add_parser("ingest", parents=[store], help="load NVD-style JSON feeds into the CVE store")
    p.add_argument("feeds", nargs="+", help="feed files (.json or .json.gz)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("scan", parents=[store], help="search the store for device names")
    p.add_argument("names", nargs="+", help="device display names")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("model", parents=[inputs], help="show exploit models for a configuration")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("extract-apps", parents=[config], help="parse and bind app descriptions")
    p.add_argument("--strict", action="store_true", help="exit 4 if any app fails")
    p.set_defaults(func=cmd_extract_apps)

    p = sub.add_parser("compile", parents=[inputs, goals], help="compile the Horn program")
    p.add_argument("--out", help="write the program here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "analyze", parents=[inputs, goals], help="full analysis: graph, metrics, manifest"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.add_argument(
        "--fail-on-reachable",
        action="store_true",
        help="exit 1 if any goal is reachable",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metrics", parents=[inputs, goals], help="print the metrics report")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic deployment")
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
