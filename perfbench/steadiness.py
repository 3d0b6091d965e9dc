#!/usr/bin/env python3
"""Run the benchmark over ten seeds, twice, and check that its figures are steady.

For each workload in BENCHMARK.json this runs ``run.py`` untraced once per
seed 1 to 10, one run at a time, in two sets, and then once traced. Per set
and end-to-end metric it reports the median and the spread, the distance
between the first and third quartile as a share of the median. It fails if
a spread exceeds the metric's bound, or if the second set's median is worse
than the first's by more than the bound. Every value measured, with the
machine's core count, goes to ``perfbench/baseline.json``.

Usage:
    python3 perfbench/steadiness.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect:\n{proc.stdout}")
    return result


def untraced_sets(workload: str, seeds: list[int], seconds: int, spec: dict) -> list[dict[str, list[float]]]:
    """``SETS`` sets of untraced runs, one per seed: metric name to values."""

    sets = []
    for _ in range(SETS):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        sets.append(values)
    return sets


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""

    change = (later - first) / first
    return change if better == "lower" else -change


def check(spec: dict, sets: list[dict[str, list[float]]]) -> list[str]:
    """Spread and drift problems of one workload's sets of runs."""

    problems = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for i, values in enumerate(sets):
            if spread(values[name]) > bound:
                problems.append(f"{name}: set {i + 1} spread {spread(values[name]):.3f} > {bound}")
            if i:
                first, later = statistics.median(sets[0][name]), statistics.median(values[name])
                if worsening(first, later, metric["better"]) > bound:
                    problems.append(f"{name}: set {i + 1} median {later:.6g} vs {first:.6g}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets = untraced_sets(workload, SEEDS, spec["run_seconds"], spec)
        print(f"{workload}: {len(SEEDS)} seeds x {SETS} sets")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = "  ".join(
                f"median {statistics.median(s[name]):.6g} spread {spread(s[name]):.3f}" for s in sets
            )
            print(f"  {name:<12} bound {metric['bound']:<5} {row}")
        failures.extend(f"{workload}: {p}" for p in check(spec, sets))
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "sets": sets,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    for line in failures:
        print(f"NOT STEADY: {line}")
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
