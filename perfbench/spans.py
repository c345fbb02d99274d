"""In-memory span tracing for the benchmark's traced runs.

A traced run replaces public functions of the program, at the module
names their callers look them up under, with wrappers that record one
span per call: ``[id, parent, layer, start, end]``.  The parent is the
innermost span open in the same thread or asyncio task (a context
variable), so spans nest the way the calls do.  Spans stay in a list
until the run ends; nothing is written while the run measures.

Self time is a span's duration minus the part of it that its child spans
cover.  A span may also be *linked* to spans it did work for in another
thread (the service's engine batches are linked to the requests whose
functions they allocated); links count as children for coverage.

Untraced runs install no wrappers, so end-to-end numbers carry no
tracing cost.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

clock = time.perf_counter

#: Where each layer of the allocation path is looked up by its callers:
#: ``(module path, attribute, layer)``.  ``Class.method`` attributes are
#: patched on the class.  The allocator's caller is
#: ``repro.core.allocator`` (``HierarchicalAllocator.allocate``); the
#: pipeline's are ``repro.pipeline.compile_function`` and
#: ``repro.batch.worker.compute_record`` (which imports ``prepare`` from
#: ``repro.pipeline`` at call time); the engine's are
#: ``repro.batch.engine`` and ``repro.batch.worker``.
ENGINE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.allocator", "build_tile_tree_detailed", "allocator.tile_tree"),
    ("repro.core.allocator", "build_context", "allocator.context"),
    ("repro.core.allocator", "run_phase1", "allocator.phase1"),
    ("repro.core.allocator", "run_phase2", "allocator.phase2"),
    ("repro.core.allocator", "rewrite_program", "allocator.rewrite"),
    ("repro.core.allocator", "check_physical", "allocator.rewrite"),
    ("repro.core.allocator", "run_phase1_incremental", "incremental.phase1"),
    ("repro.core.allocator", "run_phase2_incremental", "incremental.phase2"),
    ("repro.pipeline", "prepare", "pipeline.prepare"),
    ("repro.pipeline", "simulate", "simulator.run"),
    ("repro.batch.engine", "format_function", "engine.canonicalize"),
    ("repro.batch.engine", "parse_function", "engine.canonicalize"),
    ("repro.batch.engine", "text_fingerprint", "engine.fingerprint"),
    ("repro.batch.engine", "inputs_digest", "engine.fingerprint"),
    ("repro.batch.engine", "cache_key", "engine.fingerprint"),
    ("repro.batch.engine", "record_from_dict", "engine.serialize"),
    ("repro.batch.worker", "format_function", "engine.serialize"),
    ("repro.batch.cache", "AllocationCache.source_of", "cache.lookup"),
    ("repro.batch.cache", "AllocationCache.get", "cache.lookup"),
)

#: Layers that exist only inside the service process and need nothing
#: but a span (``serve_child`` wraps ``read_request``, ``_admit`` and
#: ``BatchEngine.allocate_module`` itself).  A request span's self time
#: is the time its functions waited in the queue: everything else it
#: does is a child span or an engine batch linked to it.
SERVER_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "response_bytes", "http.encode"),
    ("repro.service.server", "_json_bytes", "http.encode"),
    ("repro.service.server", "AllocationService._parse_allocate_body",
     "server.decode"),
    ("repro.service.server", "AllocationService._dispatch_request",
     "server.queue_wait"),
)

#: Every timed layer, in report order.
TIMED_LAYERS: Tuple[str, ...] = (
    "allocator.tile_tree", "allocator.context", "allocator.phase1",
    "allocator.phase2", "allocator.rewrite",
    "pipeline.prepare", "simulator.run",
    "engine.canonicalize", "engine.fingerprint", "engine.serialize",
    "cache.lookup",
    "incremental.phase1", "incremental.phase2",
    "http.read", "http.encode",
    "server.decode", "server.admit", "server.engine", "server.queue_wait",
)

ALLOCATOR_LAYERS = tuple(l for l in TIMED_LAYERS if l.startswith("allocator."))


def _resolve(module_path: str, attr: str):
    module = __import__(module_path, fromlist=["_"])
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """Records spans of wrapped calls; :meth:`restore` undoes the wraps."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: span id -> ids of spans in other threads it did work for.
        self.links: Dict[int, List[int]] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[Tuple[object, str, object]] = []

    def open(self, layer: str) -> Tuple[list, contextvars.Token]:
        span = [next(self._ids), self._current.get(), layer, clock(), 0.0]
        self.spans.append(span)
        return span, self._current.set(span[0])

    def close(self, span: list, token: contextvars.Token) -> None:
        span[4] = clock()
        self._current.reset(token)

    def wrap(self, module_path: str, attr: str, layer: str, wrapper=None):
        """Replace ``module_path.attr`` by a span-recording wrapper.

        *wrapper*, when given, is ``wrapper(recorder, original, layer)``
        returning the replacement (for calls that need more than a span).
        """
        owner, name = _resolve(module_path, attr)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        if wrapper is not None:
            replacement = wrapper(self, original, layer)
        elif inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def replacement(*args, **kwargs):
                span, token = self.open(layer)
                try:
                    return await original(*args, **kwargs)
                finally:
                    self.close(span, token)
        else:
            @functools.wraps(original)
            def replacement(*args, **kwargs):
                span, token = self.open(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(span, token)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def wrap_all(self, table: Iterable[Tuple[str, str, str]]) -> None:
        for module_path, attr, layer in table:
            self.wrap(module_path, attr, layer)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def calibrate_span_cost(samples: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain call (median of 5)."""
    recorder = SpanRecorder()

    def plain():
        return None

    def wrapped():
        span, token = recorder.open("calibrate")
        try:
            return plain()
        finally:
            recorder.close(span, token)

    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(samples):
            plain()
        bare = clock() - start
        start = clock()
        for _ in range(samples):
            wrapped()
        costs.append((clock() - start - bare) / samples)
        recorder.spans.clear()
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)


def _covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]
             ) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Sequence], links: Dict[int, List[int]]
               ) -> Dict[int, float]:
    """Span id -> duration minus the time its children (and linked
    spans) cover inside it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _layer, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    intervals = {span[0]: (span[3], span[4]) for span in spans}
    for sid, targets in links.items():
        for target in targets:
            children[target].append(intervals[sid])
    out: Dict[int, float] = {}
    for sid, _parent, _layer, start, end in spans:
        out[sid] = (end - start) - _covered(start, end, children.get(sid, ()))
    return out


def layer_totals(spans: Sequence[Sequence], links: Dict[int, List[int]]
                 ) -> Dict[str, Dict[str, float]]:
    """Layer -> ``{"self_s", "wall_s", "calls"}`` summed over its spans."""
    selfs = self_times(spans, links)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "wall_s": 0.0, "calls": 0}
    )
    for sid, _parent, layer, start, end in spans:
        entry = out[layer]
        entry["self_s"] += selfs[sid]
        entry["wall_s"] += end - start
        entry["calls"] += 1
    return dict(out)
