#!/usr/bin/env python3
"""Run the bundled example deployments end to end and print the findings.

For every packaged fixture configuration this ingests the bundled CVE feed,
runs the full analysis, and prints the goal verdicts, the shortest attack
trace for each reachable goal, and the recommended patch set.

Refuses, with exit code 2 and before any work, a ``--fixtures`` that lists
no fixture, names one that is not a packaged configuration (``mini_feed``
is the CVE feed, not a deployment) or lists one twice. A reader that closes
early (``... | head -1``) ends the run quietly, with exit code 1.

Usage:
    python3 scripts/run_case_studies.py [--fixtures fig2,system28] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

# Import the package from this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iotgraph.cvestore import CveStore
from iotgraph.model import parse_config
from iotgraph.pipeline import analyze, render_summary, write_outputs

FIXTURES = ("listing10", "hall_light", "fig2", "system28", "system37")


def fixtures_arg(text: str) -> list[str]:
    """``--fixtures``: comma-separated distinct names from ``FIXTURES``."""

    names = [n for n in text.split(",") if n]
    if not names:
        raise argparse.ArgumentTypeError("fixtures must list at least one fixture")
    for name in names:
        if name not in FIXTURES:
            raise argparse.ArgumentTypeError(
                f"unknown fixture {name!r}: choose from {', '.join(FIXTURES)}"
            )
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError("each fixture may be listed once")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", type=fixtures_arg, default=",".join(FIXTURES))
    parser.add_argument("--out", help="also write full outputs under this directory")
    args = parser.parse_args(argv)
    names = args.fixtures

    fixtures = resources.files("iotgraph") / "fixtures"
    with tempfile.TemporaryDirectory() as tmp:
        with CveStore(Path(tmp) / "store.db") as store:
            store.ingest_feed(str(fixtures / "mini_feed.json"))
            for name in names:
                doc = json.loads((fixtures / f"{name}.json").read_text())
                config = parse_config(doc, source=name)
                result = analyze(config, store)

                print(f"==== {name} " + "=" * max(0, 60 - len(name)))
                print(render_summary(result))
                for gr in result.goal_results:
                    if gr.trace is not None:
                        print()
                        print(gr.trace.render())
                if args.out:
                    out_dir = Path(args.out) / name
                    for path in write_outputs(result, out_dir):
                        print(f"wrote {path}")
                print()
    return 0


if __name__ == "__main__":
    try:
        code = main()
        # Flush here, so that a closed reader shows inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout on exit; point it at devnull so
        # that this flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
