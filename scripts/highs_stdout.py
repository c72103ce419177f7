#!/usr/bin/env python3
"""Check that `kmatch solve` keeps the solver's own output off stdout.

Runs `kmatch solve --k 1 --budget 60000` in a child process on
cycle(45) strong cycle(45), whose root integer program makes the bundled
HiGHS write lines straight to the process's stdout, and reads the
child's stdout whole once it has exited. Exits 0 when that stdout is one
valid JSON report, 1 when it is not (its first line is printed), 2 when
the child fails. The query takes about 20 s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import kmatch
from kmatch.graphs import build_named, graph_to_json_obj
from kmatch.products import product

ARGS = ("--k", "1", "--budget", "60000")


def main() -> int:
    cycle = build_named("cycle", 45)
    p = product(cycle, cycle, "strong")
    src = os.path.dirname(os.path.dirname(kmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "product.json"
        path.write_text(json.dumps(graph_to_json_obj(p.graph)))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kmatch.cli", "solve", "--graph", str(path), *ARGS],
            capture_output=True, text=True, env=env,
        )
        elapsed = time.perf_counter() - started
    name = f"cycle(45) strong cycle(45) ({p.graph.m} edges), solve {' '.join(ARGS)}"
    if proc.returncode != 0:
        print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return 2
    try:
        oracle = json.loads(proc.stdout)["oracle"]
    except ValueError:
        first = proc.stdout.splitlines()[0] if proc.stdout else ""
        print(f"{name}: stdout is not one JSON report; it starts {first!r}")
        return 1
    print(f"{name}: stdout is one JSON report (size {oracle['size']}, "
          f"exhaustive {oracle['exhaustive']}, {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
