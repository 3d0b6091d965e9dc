#!/usr/bin/env python3
"""Benchmark analysis cost against synthetic deployment size.

Builds one CVE store from the bundled feed, then times the full pipeline on
seed-fixed synthetic homes of increasing size and fits a log-log line to the
measured cost. Prints one row per size plus the fitted growth exponent.
Times are the best of ``--repeats`` plain runs; peak traced memory comes
from one further run under ``tracemalloc``, which is not timed.

Usage:
    python3 scripts/run_scaling.py [--sizes 10,20,30,40,50] [--seed 20260816]
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path

from iotgraph.cvestore import CveStore
from iotgraph.pipeline import analyze
from iotgraph.synth import synthesize


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10,20,30,40,50")
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]

    feed = resources.files("iotgraph") / "fixtures" / "mini_feed.json"
    with tempfile.TemporaryDirectory() as tmp:
        store = CveStore(Path(tmp) / "store.db")
        store.ingest_feed(str(feed))

        print(f"{'devices':>8} {'best wall (s)':>14} {'peak MB':>8} {'graph nodes':>12} {'reachable goals':>16}")
        costs = []
        for n in sizes:
            cfg = synthesize(n, seed=args.seed)
            best = math.inf
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                analyze(cfg, store)
                best = min(best, time.perf_counter() - t0)
            # Peak memory in a pass of its own: tracemalloc slows allocation
            # several-fold, so the timed passes run without it.
            tracemalloc.start()
            result = analyze(cfg, store)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            nodes = len(result.graph.nodes)
            reachable = sum(1 for r in result.goal_results if r.reachable)
            costs.append(max(best, 1e-6))
            print(f"{n:>8} {best:>14.4f} {peak / 1e6:>8.1f} {nodes:>12} {reachable:>16}")

        if len(sizes) >= 2:
            slope, intercept = statistics.linear_regression(
                [math.log(n) for n in sizes], [math.log(c) for c in costs]
            )
            print(f"\nfitted growth: cost ~ n^{slope:.2f} (intercept {intercept:.2f})")
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
