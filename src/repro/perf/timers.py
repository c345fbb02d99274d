"""Per-stage wall-clock timing for the allocation pipeline.

The allocator wraps each pipeline stage (tile construction, liveness,
phase 1, phase 2, rewrite) in :meth:`StageTimers.stage` and publishes the
accumulated times in ``AllocStats.extra["stage_times"]`` so benches can
report where time goes without profiling.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional


class StageTimers:
    """Accumulates wall time and a call count per named stage (re-entrant
    per stage name)."""

    def __init__(self) -> None:
        self._times: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    @contextmanager
    def stage(self, name: str, tracer=None) -> Iterator[None]:
        """Time one stage; with an enabled *tracer*, also emit the interval
        as a :class:`~repro.trace.events.StageTiming` event."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._times[name] = self._times.get(name, 0.0) + elapsed
                self._counts[name] = self._counts.get(name, 0) + 1
            if tracer is not None and tracer.enabled:
                from repro.trace.events import StageTiming

                tracer.emit(StageTiming(
                    name=name,
                    category="pipeline",
                    start=start,
                    duration=elapsed,
                    thread=threading.current_thread().name,
                ))

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self._times[name] = self._times.get(name, 0.0) + seconds
            self._counts[name] = self._counts.get(name, 0) + 1

    def merge(self, times: "Mapping[str, float]") -> None:
        """Fold another stage -> seconds mapping into this one.

        The batch engine (:mod:`repro.batch.engine`) aggregates the
        per-stage times its worker processes report, so one
        :class:`StageTimers` summarizes where a whole module's allocation
        time went.  Each merged stage counts as one call (one function's
        worth of that stage)."""
        with self._lock:
            for name, seconds in times.items():
                self._times[name] = self._times.get(name, 0.0) + seconds
                self._counts[name] = self._counts.get(name, 0) + 1

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of stage -> accumulated seconds."""
        with self._lock:
            return dict(self._times)

    def counts(self) -> Dict[str, int]:
        """Snapshot of stage -> accumulated call count."""
        with self._lock:
            return dict(self._counts)

    @classmethod
    def from_snapshot(
        cls,
        times: "Mapping[str, float]",
        counts: "Optional[Mapping[str, int]]" = None,
    ) -> "StageTimers":
        """Rehydrate from published ``stage_times``/``stage_counts``
        snapshots (``AllocStats.extra``, batch stats) for reporting."""
        out = cls()
        out._times.update(times)
        out._counts.update(counts or {name: 1 for name in times})
        return out

    def report(self, total: Optional[float] = None) -> str:
        """Human-readable attribution table: one line per stage, sorted by
        descending time, with share of *total* (defaults to the stage
        sum) -- the ``--profile`` CLI flag prints this."""
        with self._lock:
            times = dict(self._times)
            counts = dict(self._counts)
        base = total if total is not None else sum(times.values())
        lines = []
        for name in sorted(times, key=lambda n: -times[n]):
            seconds = times[name]
            share = (100.0 * seconds / base) if base > 0 else 0.0
            lines.append(
                f"{name:<12} {seconds * 1e3:9.2f} ms  {share:5.1f}%  "
                f"x{counts.get(name, 0)}"
            )
        return "\n".join(lines)

    def total(self) -> float:
        with self._lock:
            return sum(self._times.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={v * 1e3:.1f}ms" for k, v in sorted(self.as_dict().items())
        )
        return f"<StageTimers {parts}>"
