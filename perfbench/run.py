#!/usr/bin/env python3
"""kmatch benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload {sweep,solve,scale} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src. One
client issues one op at a time, each starting when the previous one has
finished, with no worker pool. Every run starts cold, the way a `kmatch`
invocation does.

--trace 0 is the timed run: whole passes over the workload's ops run
until S seconds of op time have been measured; then the end-to-end
metrics are printed. --trace 1 is the traced run: one pass runs twice
from cold, once plain and once with spans on, so its effort counters
repeat exactly for a seed; it prints the per-layer metrics and the
tracing overhead. Both runs check every answer outside the timed region
and print a digest of the first pass's results.
The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one client, one thread: numpy's BLAS must not start a pool of its own.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is timed in this process and in this many fresh child processes;
# the reported set-up time is the median of all of them.
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60
SHOW_ERRORS = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "solve", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int):
    """Import the library (with scipy.optimize, which it loads lazily on
    the first solver call) and generate the corpus and the inputs.
    Returns (seconds, workload object, ops)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401  (the oracle imports it on first escalation)
    import scipy.sparse  # noqa: F401

    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    ops = wl.generate(random.Random(seed))
    return time.perf_counter() - start, wl, ops


def child_setup_seconds(args) -> list[float]:
    out = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        out.append(float(done.stdout.split()[-1]))
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def drive(wl, ops, seconds: float, tracer=None) -> dict:
    """Closed loop over whole passes of `ops` until `seconds` of op time.

    Each op is timed alone; its answer is checked afterwards, outside the
    timed region. An op that raises is counted as failed with its
    exception type and instance, and the loop goes on. Between passes the
    library's memos are emptied, so every pass starts cold. The digest
    covers the first pass.
    """
    from tracing import clear_caches
    from workloads import Gate

    gate = Gate()
    digest = hashlib.sha256()
    samples: list[float] = []
    failures: list[str] = []
    measured = 0.0
    i = 0
    while i == 0 or i % len(ops) or measured < seconds:
        if i and i % len(ops) == 0:
            clear_caches()
        op = ops[i % len(ops)]
        start = time.perf_counter()
        try:
            result = tracer.run_op(i, wl.run, op) if tracer else wl.run(op)
        except Exception as exc:  # an op failure is data; the run continues
            result = exc
        elapsed = time.perf_counter() - start
        measured += elapsed
        samples.append(elapsed)
        if isinstance(result, Exception):
            failures.append(f"{type(result).__name__}: {wl.describe(op)}: {str(result)[:120]}")
            item = [wl.describe(op), "raised", type(result).__name__]
        else:
            wl.check(op, result, gate)
            item = wl.digest_item(op, result)
        if i < len(ops):
            digest.update(json.dumps(item, sort_keys=True).encode() + b"\n")
        i += 1
    return {
        "samples": samples,
        "measured": measured,
        "failures": failures,
        "gate": gate,
        "digest": digest.hexdigest()[:16],
    }


def report_failures(run: dict) -> None:
    by_type: dict[str, int] = {}
    for line in run["failures"]:
        kind = line.split(":", 1)[0]
        by_type[kind] = by_type.get(kind, 0) + 1
    if by_type:
        print("failed ops: " + ", ".join(f"{n} {kind}" for kind, n in sorted(by_type.items())))
        for line in run["failures"][:SHOW_ERRORS]:
            print(f"  {line}")
    for line in run["errors"][:SHOW_ERRORS]:
        print(f"WRONG: {line}")
    if run["gate"].skipped:
        print(f"note: {run['gate'].skipped}")


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def timed(args, wl, ops, setup_s: float) -> tuple[dict, dict]:
    run = drive(wl, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = wl.probe(run["gate"]) if hasattr(wl, "probe") else None
    run["gate"].finish()
    run["errors"] = run["gate"].errors
    setups = [setup_s] + child_setup_seconds(args)
    samples = run["samples"]
    attempted = len(samples)
    tail = percentile(samples, wl.tail_pct)
    beyond = sum(1 for s in samples if s > tail)
    metrics = {
        "ops_per_s": {"value": attempted / run["measured"], "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    print(f"workload {wl.name} seed {args.seed}: {attempted} ops ({attempted // len(ops)} passes of {len(ops)}) "
          f"in {run['measured']:.3f} s of op time, {len(run['failures'])} failed")
    print(f"op_tail_ms is p{wl.tail_pct} of {attempted} samples ({beyond} beyond it); "
          f"setup_s is the median of {len(setups)} set-ups")
    print_metrics(metrics)
    print(f"digest of the first pass: {run['digest']}")
    if probe:
        print(probe)
    return run, metrics


def traced(args, wl, ops) -> tuple[dict, dict]:
    from tracing import Tracer, clear_caches

    plain = drive(wl, ops, 0)
    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        run = drive(wl, ops, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    layer, bases = tracer.metrics()
    layer["trace.untraced_s"] = (plain["measured"], "s")
    layer["trace.traced_s"] = (run["measured"], "s")
    layer["trace.overhead_s"] = (run["measured"] - plain["measured"], "s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"workload {wl.name} seed {args.seed}: traced pass of {len(ops)} ops, "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print_metrics(metrics)
    for name, base in bases.items():
        print(f"  base of {name}: {base}")
    if tracer.absent:
        print("absent entry points (their metrics read 0): " + ", ".join(tracer.absent))
    print(f"digest of the first pass: {run['digest']}")
    plain["gate"].finish()
    run["gate"].finish()
    run["errors"] = plain["gate"].errors + run["gate"].errors
    if plain["digest"] != run["digest"]:
        run["errors"].append(f"traced and untraced passes disagree: {plain['digest']} vs {run['digest']}")
    return run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kmatch" / "__init__.py").is_file():
        print(f"error: the kmatch sources are missing (expected {SRC / 'kmatch'}); "
              "run from the repository root", file=sys.stderr)
        return 2
    setup_s, wl, ops = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    run, metrics = traced(args, wl, ops) if args.trace else timed(args, wl, ops, setup_s)
    report_failures(run)
    correct = not run["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": len(run["samples"]),
        "failed": len(run["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
