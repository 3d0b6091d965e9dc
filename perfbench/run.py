#!/usr/bin/env python3
"""iotgraph benchmark: the work of one ``iotgraph analyze`` call, in a closed loop.

One operation reads the configuration file and runs ``parse_config``, opens
the on-disk store with ``CveStore.open_existing``, runs ``analyze``, runs
``write_outputs`` into a fresh directory and runs ``render_summary``.
Operations run one at a time in this one process, the next starting when the
previous one ends, for ``--seconds``.

Every operation's outputs are compared byte for byte with those of a warm-up
operation, and the outputs of a last operation are checked against an
independent fixpoint (``perfbench/oracle.py``), both outside the timed
region. The last line of standard output is one JSON object: with
``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics, taken from traced operations that
alternate with untraced ones.

The operation times are given in reference units: each operation's wall
time divided by the wall time of ``reference()``, a fixed computation timed
just before and just after it. On a shared host the speed of the processor
drifts by a third or more within minutes, which moves wall seconds from one
run to the next; the ratio cancels that drift. Wall seconds are printed too.
Set-up time is scaled the same way and given in seconds at the speed at
which ``reference()`` takes ``REFERENCE_S``.

Usage:
    python3 perfbench/run.py --workload home-large --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Set-ups after each timed operation of an untraced run, so that the
# set-ups sample the whole run; the median is reported.
SETUPS_PER_OP = 3

# Seconds that reference() takes on the host setup_s is scaled to.
REFERENCE_S = 0.025


def _use_checkout() -> None:
    """Import iotgraph from this checkout's sources and nowhere else."""

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import iotgraph
    except ImportError as exc:
        raise SystemExit(f"cannot import iotgraph from {src}: {exc}") from None
    if not Path(iotgraph.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"iotgraph imported from {iotgraph.__file__}, not from {src}")


def reference() -> float:
    """Wall seconds of a fixed pure-Python computation.

    One part hashes small frozensets into a dict, the other builds
    frozensets of 4096 pairwise unions of bitmasks, the size and shape of
    the evidence merges. Host slow-downs of the processor and of memory
    stretch it as they stretch an operation.
    """

    rng = random.Random(0)
    left = [rng.getrandbits(30) for _ in range(64)]
    right = [rng.getrandbits(30) for _ in range(64)]
    start = perf_counter()
    table = {}
    for i in range(60000):
        table[(i * 7919) % 10007] = frozenset((i, i + 1))
    unions = [frozenset(x | y | k for x in left for y in right) for k in range(48)]
    del table, unions
    return perf_counter() - start


@dataclass
class Op:
    run_s: float
    analyze_s: float
    write_s: float
    digest: str
    result: object = None
    # Mean wall seconds of reference() just before and just after.
    ref_s: float = 0.0


def _digest(written: list[Path], summary: str) -> str:
    """Hash of every written file and the summary; manifest timings excluded."""

    h = hashlib.sha256()
    for path in written:
        h.update(path.name.encode())
        if path.name == "run_manifest.json":
            manifest = json.loads(path.read_text())
            manifest.pop("timings")
            h.update(json.dumps(manifest, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    h.update(summary.encode())
    return h.hexdigest()


def operate(workload, out_dir: Path, keep: bool = False) -> Op:
    from iotgraph import cvestore, model, pipeline

    start = perf_counter()
    config = model.parse_config(workload.config.read_text(), source=str(workload.config))
    with cvestore.CveStore.open_existing(workload.store) as store:
        t0 = perf_counter()
        result = pipeline.analyze(config, store)
        analyze_s = perf_counter() - t0
    t0 = perf_counter()
    written = pipeline.write_outputs(result, out_dir)
    write_s = perf_counter() - t0
    summary = pipeline.render_summary(result)
    run_s = perf_counter() - start
    op = Op(run_s, analyze_s, write_s, _digest(written, summary), result if keep else None)
    shutil.rmtree(out_dir)
    return op


def _peak_rss_child(argv: list[str]) -> None:
    """Run one operation, then print this process's peak resident megabytes.

    VmHWM starts afresh at exec; ru_maxrss would keep the resident size the
    forked parent had before the exec.
    """

    from perfbench.workloads import Workload

    out_dir, store, config = map(Path, argv)
    operate(Workload(store, config), out_dir)
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            print(int(line.split()[1]) / 1024)
            return
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_rss_mb(workload, out_dir: Path) -> float:
    """Peak RSS of a fresh process that runs one operation, as the CLI would.

    The measuring process itself holds the reference computation's sets,
    which would hide the program's own peak on small workloads.
    """

    code = "import sys; sys.path[:0] = sys.argv[1:3]; import perfbench.run as r; r._peak_rss_child(sys.argv[3:])"
    paths = [ROOT / "src", ROOT, out_dir, workload.store, workload.config]
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, paths)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.split()[-1])


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the samples."""

    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Runner:
    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.count = 0
        self.failures: list[str] = []
        self.expected: str | None = None
        self.ref_s = reference()

    def op(self, keep: bool = False) -> Op | None:
        """One operation; None if it raised or its outputs differ from the warm-up's."""

        self.count += 1
        # Each operation starts from a collected heap, as a fresh process would.
        gc.collect()
        try:
            op = operate(self.workload, self.work / f"op{self.count}", keep)
        except Exception:
            self.failures.append(traceback.format_exc())
            return None
        before, self.ref_s = self.ref_s, reference()
        op.ref_s = (before + self.ref_s) / 2
        if self.expected is None:
            self.expected = op.digest
        elif op.digest != self.expected:
            self.failures.append(f"operation {self.count}: outputs differ from the warm-up's")
            return None
        return op

    def loop(self, seconds: float, body) -> None:
        deadline = perf_counter() + seconds
        while True:
            body()
            if perf_counter() >= deadline:
                return

    def setup(self, name: str, seed: int, directory: Path) -> float:
        """Reference-scaled seconds of one set-up of a workload into ``directory``."""

        from perfbench import workloads

        gc.collect()
        t0 = perf_counter()
        workloads.build(name, seed, directory)
        wall = perf_counter() - t0
        before, self.ref_s = self.ref_s, reference()
        shutil.rmtree(directory)
        return wall * REFERENCE_S / ((before + self.ref_s) / 2)

    def verify(self) -> list[str]:
        """Oracle problems in the outputs that every timed operation repeated."""

        from perfbench import oracle

        last = self.op(keep=True)
        if last is None:
            return ["the checked operation failed"]
        return oracle.check(last.result)


def untraced(args, work: Path, log) -> tuple[dict, int, int, bool]:
    from perfbench import workloads

    wl = workloads.build(args.workload, args.seed, work / "setup")
    runner = Runner(wl, work)
    if runner.op() is None:
        raise RuntimeError("warm-up operation failed:\n" + "".join(runner.failures))
    ops: list[Op] = []
    setups: list[float] = []
    attempted = 0

    def body():
        nonlocal attempted
        attempted += 1
        op = runner.op()
        if op is not None:
            ops.append(op)
        for _ in range(SETUPS_PER_OP):
            setups.append(runner.setup(args.workload, args.seed, work / f"setup{len(setups)}"))

    runner.loop(args.seconds, body)
    peak_mb = peak_rss_mb(wl, work / "rss")
    problems = runner.verify()
    failed = attempted if problems else attempted - len(ops)
    for line in runner.failures + problems:
        log(f"FAILED: {line}")
    if not ops:
        raise RuntimeError("every timed operation failed")

    run = [op.run_s for op in ops]
    values = {
        "run_ref": statistics.median(op.run_s / op.ref_s for op in ops),
        "analyze_ref": statistics.median(op.analyze_s / op.ref_s for op in ops),
        "write_ref": statistics.median(op.write_s / op.ref_s for op in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "ok_ops": (attempted - failed) / attempted,
    }
    log(f"{args.workload} seed {args.seed}: {attempted} operations in a closed loop, one at a time")
    log(f"  run_s        {statistics.median(run):.4f} s median, p90 {p90(run):.4f} s, "
        f"max {max(run):.4f} s (n={len(run)})")
    log(f"  analyze_s    {statistics.median(op.analyze_s for op in ops):.4f} s median")
    log(f"  write_s      {statistics.median(op.write_s for op in ops):.4f} s median")
    log(f"  reference    {statistics.median(op.ref_s for op in ops):.5f} s median")
    for name in ("run_ref", "analyze_ref", "write_ref"):
        log(f"  {name:<12} {values[name]:.3f} ref median")
    log(f"  setup_s      {values['setup_s']:.4f} s median of {len(setups)} set-ups, "
        f"scaled to a {REFERENCE_S} s reference")
    log(f"  peak_rss_mb  {peak_mb:.1f} MB")
    log(f"  failed_ops   {failed / attempted:.4f} share ({failed} of {attempted})")
    return values, attempted, failed, not problems and failed == 0


def traced(args, per_layer: list[dict], work: Path, log) -> tuple[dict, int, int, bool]:
    from perfbench import tracer, workloads

    wl = workloads.build(args.workload, args.seed, work / "setup")
    runner = Runner(wl, work)
    if runner.op() is None:
        raise RuntimeError("warm-up operation failed:\n" + "".join(runner.failures))
    t = tracer.Tracer()
    plain, timed, layers = [], [], []
    attempted = 0

    def body():
        nonlocal attempted
        attempted += 2
        op = runner.op()
        if op is not None:
            plain.append(op.run_s)
        with t.operation(layers):
            op = runner.op()
        if op is not None:
            timed.append(op.run_s)

    runner.loop(args.seconds, body)
    problems = runner.verify()
    failed = attempted if problems else attempted - len(plain) - len(timed)
    for line in runner.failures + problems:
        log(f"FAILED: {line}")
    if not timed or not plain:
        raise RuntimeError("every traced or untraced operation failed")

    values = {}
    for metric in per_layer:
        name = metric["name"]
        values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
    values["trace.run_s"] = statistics.median(timed)
    values["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    log(f"{args.workload} seed {args.seed}: {len(timed)} traced and {len(plain)} untraced operations")
    for name, value in values.items():
        log(f"  {name:<34} {value:.6g}")
    return values, attempted, failed, not problems and failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _use_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            wanted = spec["per_layer"]
            values, attempted, failed, correct = traced(args, wanted, work, print)
        else:
            wanted = spec["end_to_end"]
            values, attempted, failed, correct = untraced(args, work, print)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
