#!/usr/bin/env python3
"""Benchmark analysis cost against synthetic deployment size.

Builds one CVE store from the bundled feed, or with ``--cves-per-product K``
from the synthetic feed of ``perfbench.feed.synth_feed(K, seed)``, which
gives every catalog product K CVEs, then times the full pipeline on
seed-fixed synthetic homes of increasing size and fits a log-log line to the
measured cost. Prints one row per size, with the seconds ``write_outputs``
took to write the fastest run's result into a temporary directory and the
seconds each stage of ``analyze`` took in that run
(``AnalysisResult.timings``), then the fitted growth exponent of ``analyze``,
then all of it as one JSON line. Each JSON row also holds the garbage
collector's seconds during the fastest run (``gc_s``, from
``gc.callbacks``; ``analyze`` pauses the collector, so about 0) and the
objects the collector tracks for that run's result (``tracked_objects``:
``gc.get_objects()`` after the run, less the count before it, each counted
once further collections leave it unchanged), and ``best_ref`` and
``write_ref``, the best ``analyze`` and write seconds over the mean of
``perfbench.run.reference()`` timed just before and just after the size's
timed ``analyze`` runs, so sizes timed minutes apart on a drifting host
compare in the benchmark's units. A collection untracks a tuple
only once the tuples inside it are untracked, one level per collection, and
the paused collector leaves that work to the collections after the run; a
single collection would count the tuples it has yet to untrack.
Times are the best of ``--repeats`` plain runs, each from a collected heap;
peak traced memory comes from one further run under ``tracemalloc``, which
is not timed.

Refuses, with exit code 2 and before any work, a ``--sizes`` that lists no
size, a size that is not an integer, is below 2 or is listed twice (the
fit needs distinct sizes), and a ``--repeats`` or ``--cves-per-product``
below 1. A reader that closes early (``... | head -1``) ends the run
quietly, with exit code 1.

Usage:
    python3 scripts/run_scaling.py [--sizes 10,20,30,40,50] [--seed 20260816]
        [--repeats 3] [--cves-per-product K]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib import resources
from pathlib import Path

# Import the package from this checkout's src/, and the synthetic feed from
# perfbench/ at its root.
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from iotgraph.cvestore import CveStore
from iotgraph.pipeline import analyze, write_outputs
from iotgraph.synth import synthesize
from perfbench.feed import synth_feed
from perfbench.run import reference

STAGES = ("scan", "classify", "apps", "compile", "reason", "metrics")


class CollectorClock:
    """Seconds the garbage collector runs while ``running`` is set."""

    def __init__(self) -> None:
        self.running = False
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if not self.running:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def settled_object_count() -> int:
    """``len(gc.get_objects())`` once a further collection leaves it unchanged."""

    last = None
    while True:
        gc.collect()
        count = len(gc.get_objects())
        if count == last:
            return count
        last = count


def sizes_arg(text: str) -> list[int]:
    """``--sizes``: comma-separated distinct integers, each at least 2."""

    try:
        sizes = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be integers, not {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("sizes must list at least one size")
    if any(n < 2 for n in sizes):
        raise argparse.ArgumentTypeError(
            "every size must be at least 2: a synthetic home needs a router and a hub"
        )
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError("each size may be listed once: the fit needs distinct sizes")
    return sizes


def positive_arg(text: str) -> int:
    """An integer of at least 1."""

    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=sizes_arg, default="10,20,30,40,50")
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--repeats", type=positive_arg, default=3)
    parser.add_argument(
        "--cves-per-product",
        type=positive_arg,
        metavar="K",
        help="ingest a synthetic feed with K CVEs per catalog product, not the bundled feed",
    )
    args = parser.parse_args(argv)
    sizes = args.sizes

    rows = []
    with tempfile.TemporaryDirectory() as tmp, CveStore(Path(tmp) / "store.db") as store:
        feed = resources.files("iotgraph") / "fixtures" / "mini_feed.json"
        if args.cves_per_product is not None:
            feed = Path(tmp) / "feed.json"
            feed.write_text(synth_feed(args.cves_per_product, args.seed))
        store.ingest_feed(str(feed))

        stage_heads = " ".join(f"{name:>9}" for name in STAGES)
        print(
            f"{'devices':>8} {'best wall (s)':>14} {'write':>9} {'peak MB':>8} "
            f"{'graph nodes':>12} {'reachable goals':>16} {stage_heads}"
        )
        clock = CollectorClock()
        gc.callbacks.append(clock)
        try:
            for n in sizes:
                cfg = synthesize(n, seed=args.seed)
                best, fastest, gc_s, tracked = math.inf, None, 0.0, 0
                ref_before = reference()
                for _ in range(args.repeats):
                    result = None
                    before = settled_object_count()
                    clock.seconds, clock.running = 0.0, True
                    t0 = time.perf_counter()
                    result = analyze(cfg, store)
                    took = time.perf_counter() - t0
                    clock.running = False
                    if took < best:
                        # Counted before the previous fastest result, which
                        # ``before`` includes, is dropped.
                        gc_s, tracked = clock.seconds, settled_object_count() - before
                        best, fastest = took, result
                ref_s = (ref_before + reference()) / 2
                result = None
                timings = fastest.timings
                write = math.inf
                for _ in range(args.repeats):
                    with tempfile.TemporaryDirectory(dir=tmp) as out:
                        t0 = time.perf_counter()
                        write_outputs(fastest, out)
                        write = min(write, time.perf_counter() - t0)
                # Peak memory in a pass of its own: tracemalloc slows allocation
                # several-fold, so the timed passes run without it.
                tracemalloc.start()
                result = analyze(cfg, store)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                row = {
                    "devices": n,
                    "best_s": best,
                    "best_ref": best / ref_s,
                    "write_s": write,
                    "write_ref": write / ref_s,
                    "peak_mb": peak / 1e6,
                    "graph_nodes": len(result.graph.nodes),
                    "reachable_goals": sum(1 for r in result.goal_results if r.reachable),
                    "stages_s": {name: timings[name] for name in STAGES},
                    "gc_s": gc_s,
                    "tracked_objects": tracked,
                }
                rows.append(row)
                stage_cells = " ".join(f"{timings[name]:>9.4f}" for name in STAGES)
                print(
                    f"{n:>8} {best:>14.4f} {write:>9.4f} {row['peak_mb']:>8.1f} "
                    f"{row['graph_nodes']:>12} {row['reachable_goals']:>16} {stage_cells}"
                )
        finally:
            gc.callbacks.remove(clock)

        slope = None
        if len(sizes) >= 2:
            slope, intercept = statistics.linear_regression(
                [math.log(n) for n in sizes], [math.log(max(r["best_s"], 1e-6)) for r in rows]
            )
            print(f"\nfitted growth: cost ~ n^{slope:.2f} (intercept {intercept:.2f})")
    summary = {
        "seed": args.seed,
        "repeats": args.repeats,
        "cves_per_product": args.cves_per_product,
        "rows": rows,
        "growth_exponent": slope,
    }
    print(json.dumps(summary))
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
