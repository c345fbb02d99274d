"""Event sinks: in-memory, JSON Lines, and Chrome trace-event format.

A sink is anything with ``handle(event)`` and ``close()``.  The three
shipped here cover the common consumers:

* :class:`MemorySink` -- a list, for tests, the CLI report, and the
  walkthrough generator.
* :class:`JSONLSink` -- one JSON object per line, ``{"type": ..., **fields}``,
  the shape log pipelines ingest.
* :class:`ChromeTraceSink` -- converts :class:`~repro.trace.events.StageTiming`
  events into the Chrome trace-event JSON format, so an allocation can be
  opened in ``chrome://tracing`` / Perfetto as a timeline of pipeline
  stages with the per-tile work of both phases nested inside them.

Sinks are called with the tracer's lock held (see
:class:`~repro.trace.tracer.AllocationTracer.emit`), so they need no
locking of their own.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, is_dataclass
from typing import Dict, IO, Iterator, List, Optional, Type, Union

from repro.trace.events import BatchTask, StageTiming


def event_to_dict(event: object) -> Dict[str, object]:
    """JSON-friendly dict for one event, with its type name included."""
    payload = asdict(event) if is_dataclass(event) else dict(vars(event))
    return {"type": type(event).__name__, **payload}


class MemorySink:
    """Accumulates events in a list (``.events``)."""

    def __init__(self) -> None:
        self.events: List[object] = []

    def handle(self, event: object) -> None:
        self.events.append(event)

    def of_type(self, *types: Type) -> List[object]:
        """Events that are instances of any of *types*, in emit order."""
        return [e for e in self.events if isinstance(e, types)]

    def close(self) -> None:
        pass


class JSONLSink:
    """Writes one JSON object per event to a path or file-like object."""

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def handle(self, event: object) -> None:
        json.dump(event_to_dict(event), self._fh, sort_keys=True)
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class ChromeTraceSink:
    """Collects :class:`StageTiming` events; ``close()`` writes the Chrome
    trace-event JSON (``{"traceEvents": [...]}``).

    Complete events (``"ph": "X"``) are laid out with one trace ``tid``
    per emitting thread name (plus thread-name metadata events), so the
    per-tile intervals nest under the pipeline stage that ran them.
    :class:`~repro.trace.events.BatchTask` events get
    the same treatment with one row per batch *worker process* (their
    ``start`` values are already relative to the batch run, a different
    clock than ``StageTiming``'s ``perf_counter``, so the two families
    are normalized independently).  Other events are ignored -- pair this
    sink with a :class:`MemorySink` or :class:`JSONLSink` for the rest.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        self._target = target
        self._timings: List[StageTiming] = []
        self._tasks: List[BatchTask] = []

    def handle(self, event: object) -> None:
        if isinstance(event, StageTiming):
            self._timings.append(event)
        elif isinstance(event, BatchTask):
            self._tasks.append(event)

    def trace_events(self) -> List[Dict[str, object]]:
        """The Chrome trace-event records for everything collected so far."""
        tids: Dict[str, int] = {}
        records: List[Dict[str, object]] = []

        def row(thread: str) -> int:
            if thread not in tids:
                tids[thread] = len(tids)
                records.append({
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tids[thread],
                    "args": {"name": thread},
                })
            return tids[thread]

        if self._timings:
            origin = min(t.start for t in self._timings)
            for timing in self._timings:
                records.append({
                    "name": timing.name,
                    "cat": timing.category,
                    "ph": "X",
                    "pid": 0,
                    "tid": row(timing.thread or "main"),
                    "ts": (timing.start - origin) * 1e6,   # microseconds
                    "dur": timing.duration * 1e6,
                    "args": (
                        {"tile": timing.tile_id}
                        if timing.tile_id is not None
                        else {}
                    ),
                })
        if self._tasks:
            origin = min(t.start for t in self._tasks)
            for task in self._tasks:
                records.append({
                    "name": task.function,
                    "cat": "batch",
                    "ph": "X",
                    "pid": 0,
                    "tid": row(task.worker),
                    "ts": (task.start - origin) * 1e6,
                    "dur": task.duration * 1e6,
                    "args": {
                        "fingerprint": task.fingerprint[:12],
                        "cached": task.cached,
                    },
                })
        return records

    def close(self) -> None:
        payload = {"traceEvents": self.trace_events()}
        if isinstance(self._target, str):
            with open(self._target, "w") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, self._target)
