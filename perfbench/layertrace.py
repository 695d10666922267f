"""Outside-in tracing of the proximesh layers.

`Tracer.install` wraps every public module-level function of the nine
library modules, under every module name that holds it (a function that
`mesh` imported from `geometry` is wrapped in both). A function wrapped
by a decorator such as `functools.lru_cache` is wrapped too, outside the
decorator, so its calls are counted whether or not they hit the cache.
It also wraps the methods
`Mesh.__init__`, `Mesh.is_hull_site` and `SubComplex.describe` on their
classes. Nothing is wrapped unless `install` runs, so an untraced run
imports and calls the library unmodified.

Every wrapped call updates its name's call count, total time and self
time (total minus the time of wrapped calls made inside it), and its
layer's busy time (time with at least one call of the layer open) and
self time. Calls outside the hot predicate layers also record a span:
name, start, end, span id, parent span id and operation id. Spans stay
in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

LAYERS = (
    "rational",
    "geometry",
    "mesh",
    "io",
    "render",
    "complexes",
    "visibility",
    "regions",
    "harness",
)

# (module, class, method, traced name)
METHODS = (
    ("mesh", "Mesh", "__init__", "mesh.Mesh"),
    ("mesh", "Mesh", "is_hull_site", "mesh.Mesh.is_hull_site"),
    ("complexes", "SubComplex", "describe", "complexes.SubComplex.describe"),
)

# Called per coordinate or per predicate: counted and timed, no spans.
NO_SPAN_LAYERS = ("rational", "geometry")
NO_SPAN_NAMES = (
    "mesh.make_triangle",
    "mesh.Mesh.is_hull_site",
    "mesh.is_delaunay_triangle",
    "io.mesh_payload",
)

MAX_SPANS = 400_000

_RAISED = object()


class Tracer:
    """Per-name and per-layer call statistics, spans, and a few counters."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open calls: [child seconds, span id, name]
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.layer_busy = Counter()
        self.layer_self = Counter()
        self.depth = Counter()
        self.counters = Counter()
        self.trial_meshes: set = set()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = 0
        self.op_seconds = 0.0
        self._next_span = 1
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "proximesh" or name.startswith("proximesh.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"proximesh.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn)
                        or inspect.isclass(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, held, wrapper)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"proximesh.{layer}"), cls_name)
            self._patch(cls, method, self._wrap(name, layer, vars(cls)[method]))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth = self.stack, self.depth
        layer_busy, layer_self = self.layer_busy, self.layer_self
        observe = OBSERVERS.get(name)
        spans = layer not in NO_SPAN_LAYERS and name not in NO_SPAN_NAMES
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, tracer._span_id() if spans else 0, name]
            stack.append(frame)
            depth[layer] += 1
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                seconds = end - start
                stack.pop()
                depth[layer] -= 1
                own = seconds - frame[0]
                stats[0] += 1
                stats[1] += seconds
                stats[2] += own
                layer_self[layer] += own
                if not depth[layer]:
                    layer_busy[layer] += seconds
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += seconds
                if observe is not None:
                    observe(tracer, args, result, parent)
                if spans:
                    tracer._record(name, start, end, frame[1])

        functools.update_wrapper(wrapper, fn)
        # Keep the cache controls of an lru_cache, for callers that use them.
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _span_id(self) -> int:
        self._next_span += 1
        return self._next_span - 1

    def _record(self, name: str, start: float, end: float, span: int) -> None:
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        parent = next((f[1] for f in reversed(self.stack) if f[1]), 0)
        self.spans.append((name, start, end, span, parent, self.op_id))

    # -- operations -----------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """One timed operation: the root span `bench.<kind>`."""
        self.op_id += 1
        frame = [0.0, self._span_id(), f"bench.{kind}"]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.op_seconds += end - start
            self.layer_self["bench"] += (end - start) - frame[0]
            self._record(frame[2], start, end, frame[1])

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-name and per-layer figure, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, seconds, own) in sorted(self.stats.items()):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (seconds, "s")
            out[f"{name}.self_s"] = (own, "s")
        wall = self.op_seconds
        for layer in LAYERS:
            out[f"layer.{layer}.busy_s"] = (self.layer_busy[layer], "s")
            out[f"layer.{layer}.self_s"] = (self.layer_self[layer], "s")
            out[f"layer.{layer}.self_share"] = (
                100 * self.layer_self[layer] / wall if wall else 0.0, "%")
        out["layer.bench.self_s"] = (self.layer_self["bench"], "s")
        out["trace.op_s"] = (wall, "s")
        out["trace.ops"] = (self.op_id, "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.dropped_spans"] = (self.dropped_spans, "count")

        c = self.counters
        calls = Counter({name: s[0] for name, s in self.stats.items()})
        out["geometry.incircle.zero_share"] = (
            _ratio(c["incircle.zero"], calls["geometry.incircle"]), "ratio")
        out["mesh.triangulate.retries"] = (
            c["triangulate.meshes"] - calls["mesh.triangulate"], "count")
        out["mesh.triangulate.incircle_hit_ratio"] = (
            _ratio(c["triangulate.incircle.hit"],
                   c["triangulate.incircle"]), "ratio")
        out["regions.region_union_polygon.ok_ratio"] = (
            _ratio(c["region_union_polygon.ok"],
                   calls["regions.region_union_polygon"]), "ratio")
        out["harness.mesh_for_trial.distinct_ratio"] = (
            _ratio(len(self.trial_meshes), calls["harness.mesh_for_trial"]),
            "ratio")
        out["harness.sample_strongly_far_config.hit_ratio"] = (
            _ratio(c["sample_strongly_far_config.hit"],
                   calls["harness.sample_strongly_far_config"]), "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, id, parent id, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- per-name observers: counters that need a call's arguments or result --


def _parent_is(parent, name: str) -> bool:
    return parent is not None and parent[2] == name


def _incircle(t: Tracer, args, result, parent) -> None:
    if result is _RAISED:
        return
    t.counters["incircle.zero"] += result == 0
    # Calls made by triangulate itself, not by validation inside Mesh:
    # Bowyer-Watson cavity tests and cocircular normalization.
    if _parent_is(parent, "mesh.triangulate"):
        t.counters["triangulate.incircle"] += 1
        t.counters["triangulate.incircle.hit"] += result > 0


def _mesh_init(t: Tracer, args, result, parent) -> None:
    if _parent_is(parent, "mesh.triangulate"):
        t.counters["triangulate.meshes"] += 1


def _union_polygon(t: Tracer, args, result, parent) -> None:
    t.counters["region_union_polygon.ok"] += result is not _RAISED


def _mesh_for_trial(t: Tracer, args, result, parent) -> None:
    t.trial_meshes.add(tuple(args))


def _strongly_far_config(t: Tracer, args, result, parent) -> None:
    t.counters["sample_strongly_far_config.hit"] += (
        result is not _RAISED and result is not None)


OBSERVERS = {
    "geometry.incircle": _incircle,
    "mesh.Mesh": _mesh_init,
    "regions.region_union_polygon": _union_polygon,
    "harness.mesh_for_trial": _mesh_for_trial,
    "harness.sample_strongly_far_config": _strongly_far_config,
}


class NullProbe:
    """The untraced stand-in for `Tracer.op`."""

    def op(self, kind: str):
        return nullcontext()
