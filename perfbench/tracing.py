"""Spans recorded from outside the package, around calls into each layer.

A `Tracer` replaces the names the calling modules bind (for example
`posicat.harness.fset_from_paths`) with wrappers that record one span per
call, and puts the originals back on `restore`.  Nothing inside the package
changes: the wrappers sit where a caller looks the name up.

A span is `(name, start_ns, end_ns, parent, n)`; its id is its index in
`Tracer.spans`, `parent` is the id of the span open when it started (-1 for
a root) and `n` is the period of the permutation argument where the layer
metric is broken down by n (-1 elsewhere).  Calls are single-threaded, so a
span's children are disjoint and lie inside it, and its self time is its
duration minus the sum of its children's durations.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("affine", "polynomial", "paths", "invsets", "dyck", "engine", "harness")

# Engine methods wrapped on each instance the factory builds.
ENGINE_METHODS = (
    "compute_C",
    "compute_Rtilde",
    "compute_C_decoupled",
    "double_crossing_recurrence_check",
)

# (module, attribute, span name, record n): functions the suites call,
# wrapped where the calling module binds them.  `posicat.invsets` covers the
# harness's call-time import and `invsets.is_convex`; `posicat.dyck` covers
# the convexity check inside profile synthesis.
MODULE_TARGETS = (
    ("harness", "fset_from_paths", "paths.fset_from_paths", True),
    ("harness", "inversion_multiset", "invsets.inversion_multiset", True),
    ("harness", "is_convex", "invsets.is_convex", False),
    ("harness", "count_avoiding_paths", "dyck.count_avoiding_paths", False),
    ("harness", "synthesize_profile", "dyck.synthesize_profile", False),
    ("harness", "profile_to_perm", "dyck.profile_to_perm", False),
    ("harness", "cs_convex_subsets", "harness.cs_convex_subsets", False),
    ("invsets", "is_convex_points", "invsets.is_convex_points", False),
    ("dyck", "is_convex_points", "invsets.is_convex_points", False),
)

# (class, method, span name): methods called on objects, wrapped on the class.
CLASS_TARGETS = (
    ("BoundedAffinePerm", "require_theta", "affine.require_theta"),
    ("BoundedAffinePerm", "resolve_crossing", "affine.resolve_crossing"),
    ("IntPoly", "exact_div", "polynomial.exact_div"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name, _ in MODULE_TARGETS]
    + [name for _, _, name in CLASS_TARGETS]
    + [f"engine.{method}" for method in ENGINE_METHODS]
))
PER_N_NAMES = tuple(name for _, _, name, record_n in MODULE_TARGETS if record_n)


class Tracer:
    """Records spans and engine instances while installed."""

    def __init__(self, posicat):
        self.posicat = posicat
        self.spans: list = []
        self.engines: list = []
        self.perms_constructed = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, record_n: bool = False) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, args[0].n if record_n else -1)

        return traced

    def engine_factory(self) -> Callable:
        """A stand-in for the `Engine` class that records every instance and
        wraps its public methods in spans."""
        engine_cls = self.posicat.Engine

        def make_engine(*args, **kwargs):
            engine = engine_cls(*args, **kwargs)
            for method in ENGINE_METHODS:
                setattr(engine, method, self.wrap(f"engine.{method}", getattr(engine, method)))
            self.engines.append(engine)
            return engine

        return make_engine

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pc = self.posicat
        for module, attr, name, record_n in MODULE_TARGETS:
            mod = getattr(pc, module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), record_n))
        for cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(pc, cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        self._patch(pc.harness, "Engine", self.engine_factory())

        init = pc.BoundedAffinePerm.__init__

        def counted_init(perm, *args, **kwargs):
            self.perms_constructed += 1
            init(perm, *args, **kwargs)

        self._patch(pc.BoundedAffinePerm, "__init__", counted_init)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of each span in ns: its duration minus the durations of
        its direct children."""
        spans = self.spans
        out = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one
        `[id, name, start_ns, end_ns, parent, n]` row per span."""
        names: dict[str, int] = {}
        rows = []
        for sid, (name, start, end, parent, n) in enumerate(self.spans):
            rows.append([sid, names.setdefault(name, len(names)), start, end, parent, n])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, n_range: range) -> dict[str, float]:
    """Per-layer metrics from one traced pass: calls and self seconds per
    span name, microseconds per call including children (also per n where
    recorded), self seconds per layer, and the merged engine counters."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    by_n_calls: dict[tuple[str, int], int] = defaultdict(int)
    by_n_ns: dict[tuple[str, int], int] = defaultdict(int)
    root_harness_ns = 0
    for (name, start, end, parent, n), own in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        self_ns[name] += own
        if n >= 0:
            by_n_calls[name, n] += 1
            by_n_ns[name, n] += end - start
        if parent < 0 and name.startswith("harness."):
            root_harness_ns += own

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in PER_N_NAMES:
        total_ns = sum(v for (nm, _), v in by_n_ns.items() if nm == name)
        out[f"{name}.us_per_call"] = total_ns / 1e3 / calls[name] if calls[name] else 0.0
        for n in n_range:
            c = by_n_calls[name, n]
            out[f"{name}.us_per_call.n{n}"] = by_n_ns[name, n] / 1e3 / c if c else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for name, v in self_ns.items() if name.split(".", 1)[0] == layer
        ) / 1e9
    out["harness.self_s"] = root_harness_ns / 1e9
    out["affine.perm_constructed.calls"] = tracer.perms_constructed
    out.update(engine_metrics(tracer.engines))
    out["trace.spans"] = len(tracer.spans)
    return out


def engine_metrics(engines: list) -> dict[str, float]:
    """Merge the public `Engine.stats` of every recorded instance."""
    total: dict[str, int] = defaultdict(int)
    for engine in engines:
        for key, value in engine.stats.items():
            total[key] += value

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "engine.instances": len(engines),
        "engine.nodes": total["r_misses"] + total["c_misses"],
        "engine.r_hit_ratio": ratio(total["r_hits"], total["r_misses"]),
        "engine.c_hit_ratio": ratio(total["c_hits"], total["c_misses"]),
        "engine.cache_entries": total["r_entries"] + total["c_entries"],
    }
