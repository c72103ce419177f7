"""Span recorder for the traced run.

The recorder swaps wrappers into the module attributes through which the
library looks its layers up (`kmatch.wellbehaved.max_k_matching`,
`scipy.optimize.milp`, ...), so the library itself runs unmodified. Each
span is (name, start, end, parent, op, witness); spans of one benchmark
op share the op number. Spans stay in memory and are written out once
the run ends. An entry point that a later version of the library no
longer has is reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute): one entry per lookup site.
SPAN_SITES = (
    ("wellbehaved.equivalence_suite", "kmatch.wellbehaved", "equivalence_suite"),
    ("matchings.max_k_matching", "kmatch.wellbehaved", "max_k_matching"),
    ("matchings.max_k_matching", "kmatch.matchings", "max_k_matching"),
    ("products.product", "kmatch.wellbehaved", "product"),
    ("products.product", "kmatch.products", "product"),
    ("constructions.boxast", "kmatch.wellbehaved", "boxast"),
    ("matchings.validate_k_matching", "kmatch.wellbehaved", "validate_k_matching"),
    ("matchings.enumerate_k_matchings", "kmatch.wellbehaved", "enumerate_k_matchings"),
    ("matchings.milp", "scipy.optimize", "milp"),
    ("matchings.linprog", "scipy.optimize", "linprog"),
    ("cli.canonical_json", "kmatch.cli", "canonical_json"),
)
# call counts only: these run too often for a span each.
COUNT_SITES = (
    ("matchings.canonical_matching", "kmatch.constructions", "canonical_matching"),
    ("matchings.canonical_matching", "kmatch.matchings", "canonical_matching"),
)
OP = "bench.op"
SOLVERS = ("matchings.milp", "matchings.linprog")
# which module's self time a span counts toward; solver calls are scipy's.
LAYER_OF = {OP: "bench", "matchings.milp": "scipy", "matchings.linprog": "scipy"}
LAYERS = ("bench", "wellbehaved", "matchings", "scipy", "products", "constructions", "cli")
CACHE_MODULE = "kmatch.wellbehaved"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pairs_tested = 0
        self.nodes = 0
        self.op = -1
        self.active = False
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in SPAN_SITES:
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, attr in COUNT_SITES:
            self._patch(module, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(f"{module}.{attr}")
            return
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        eager = name == "matchings.enumerate_k_matchings"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "products.product":
                order = args[0].n * args[1].n
                self.pairs_tested += order * (order - 1) // 2
            sid = self.open(name, kwargs.get("witness", True))
            try:
                result = fn(*args, **kwargs)
                if eager:
                    # consume the generator inside the span; callers only
                    # ever materialize it.
                    result = iter(list(result))
                elif name == "matchings.max_k_matching":
                    self.nodes += result.nodes
                return result
            finally:
                self.close(sid)

        return traced

    # -- spans -------------------------------------------------------------

    def open(self, name: str, witness: bool = True) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, witness])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def run_op(self, op_number: int, fn, arg):
        """Run one benchmark op under a root span."""
        self.op = op_number
        self.active = True
        sid = self.open(OP)
        try:
            return fn(arg)
        finally:
            self.close(sid)
            self.active = False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op, witness in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
        """Per-layer metrics as {name: (value, unit)}, plus notes on bases."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        solver_children: dict[int, int] = defaultdict(int)
        milp_children: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name in SOLVERS:
                    solver_children[parent] += 1
                if name == "matchings.milp":
                    milp_children[parent] += 1
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        escalated = witness_fixes = 0
        for sid, (name, start, end, _, _, witness) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own = end - start - child_time[sid]
            self_s[name] += own
            layer = LAYER_OF.get(name, name.split(".")[0])
            layer_self[layer] += own
            if name == "matchings.max_k_matching":
                escalated += solver_children[sid] > 0
                if witness:
                    witness_fixes += max(0, milp_children[sid] - 1)

        oracle_calls = calls["matchings.max_k_matching"]
        hits, lookups = self.cache_stats()
        out: dict[str, tuple[float, str]] = {
            "matchings.max_k_matching.calls": (oracle_calls, "count"),
            "matchings.max_k_matching.busy_s": (busy["matchings.max_k_matching"], "s"),
            "matchings.max_k_matching.nodes": (self.nodes, "count"),
            "matchings.escalated": (escalated, "count"),
            "matchings.search_settled_ratio": (
                (oracle_calls - escalated) / oracle_calls if oracle_calls else 0.0,
                "ratio",
            ),
            "matchings.search_s": (self_s["matchings.max_k_matching"], "s"),
            "matchings.milp.calls": (calls["matchings.milp"], "count"),
            "matchings.milp.busy_s": (busy["matchings.milp"], "s"),
            "matchings.linprog.calls": (calls["matchings.linprog"], "count"),
            "matchings.linprog.busy_s": (busy["matchings.linprog"], "s"),
            "matchings.witness_fix_solves": (witness_fixes, "count"),
            "products.product.calls": (calls["products.product"], "count"),
            "products.product.busy_s": (busy["products.product"], "s"),
            "products.pairs_tested": (self.pairs_tested, "count"),
            "constructions.boxast.calls": (calls["constructions.boxast"], "count"),
            "constructions.boxast.busy_s": (busy["constructions.boxast"], "s"),
            "matchings.canonical_matching.calls": (self.counts["matchings.canonical_matching"], "count"),
            "matchings.validate_k_matching.calls": (calls["matchings.validate_k_matching"], "count"),
            "matchings.validate_k_matching.busy_s": (busy["matchings.validate_k_matching"], "s"),
            "matchings.enumerate_k_matchings.calls": (calls["matchings.enumerate_k_matchings"], "count"),
            "matchings.enumerate_k_matchings.busy_s": (busy["matchings.enumerate_k_matchings"], "s"),
            "wellbehaved.equivalence_suite.calls": (calls["wellbehaved.equivalence_suite"], "count"),
            "wellbehaved.equivalence_suite.self_s": (self_s["wellbehaved.equivalence_suite"], "s"),
            "wellbehaved.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "wellbehaved.cache_lookups": (lookups, "count"),
            "cli.canonical_json.calls": (calls["cli.canonical_json"], "count"),
            "cli.canonical_json.busy_s": (busy["cli.canonical_json"], "s"),
        }
        for layer in LAYERS:
            out[f"self_s.{layer}"] = (layer_self[layer], "s")
        bases = {
            "matchings.search_settled_ratio": f"oracle calls settled without a solver call, of {oracle_calls} oracle calls",
            "wellbehaved.cache_hit_ratio": f"{hits} hits of {lookups} lookups on the cached_* functions",
        }
        return out, bases

    def cache_stats(self) -> tuple[int, int]:
        """Hits and lookups summed over the memoized cached_* functions."""
        hits = lookups = 0
        found = False
        for fn in cached_functions():
            info = fn.cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
            found = True
        if not found and f"{CACHE_MODULE}.cached_*" not in self.absent:
            self.absent.append(f"{CACHE_MODULE}.cached_*")
        return hits, lookups


def cached_functions() -> list:
    module = importlib.import_module(CACHE_MODULE)
    return [
        fn
        for attr, fn in sorted(vars(module).items())
        if attr.startswith("cached_") and hasattr(fn, "cache_info")
    ]


def clear_caches() -> None:
    """Empty every memo of the library's well-behavedness layer, so the
    next op starts cold the way a fresh `kmatch` process does."""
    module = importlib.import_module(CACHE_MODULE)
    for fn in vars(module).values():
        if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info"):
            fn.cache_clear()
