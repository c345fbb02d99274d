"""The batch allocation engine (multi-function driver).

One :class:`BatchEngine` owns a persistent ``ProcessPoolExecutor`` and an
:class:`~repro.batch.cache.AllocationCache` and pushes whole *modules*
(lists of :class:`~repro.pipeline.Workload`) through allocation:

1. every function is fingerprinted (canonical-program sha256) and looked
   up in the cache under ``cache_key(fingerprint, invalidation, inputs)``
   -- the inputs digest keeps records with simulated (input-dependent)
   ``costs``/``returned`` from answering for different inputs.  An
   in-memory function is validated before it is printed: an invalid one
   gets no key.  The engine's text memo, keyed weakly by function object,
   keeps each in-memory function's text and fingerprint with a
   :func:`~repro.ir.printer.text_stamp` of every value the printer
   reads, so a function the engine has seen, unchanged, is keyed
   without being validated or printed again;
2. misses are **deduplicated by cache key** (identical functions *with
   identical simulator inputs* are computed once): each distinct key is
   one task, which holds the key's submissions, its tries and its
   outcome.  Tasks are fanned out over the pool, or computed inline
   when ``batch_workers == 0``.  Pool workers receive and parse the
   canonical text; the inline path allocates a
   :class:`~repro.pipeline.Workload`'s own function and parses only a
   :class:`SourceWorkload`'s text.  Either way a record is a pure
   function of its content address, because ``pipeline.prepare``
   allocates a :meth:`~repro.ir.function.Function.canonical_copy`, which
   fixes the block order and instruction uids from the printed text;
3. results are merged by **submission index**, never completion order,
   inserted into the cache in submission order, and counted into
   :class:`BatchStats` once, from the results -- so the result list,
   the cache's LRU state, the counters and the trace stream are all
   deterministic functions of the input module (completion order only
   shifts wall times).

The parallelism axis is deliberately *across functions and processes*:
each worker allocates sequentially (one function at a time, GIL-free
relative to its siblings), which is where the real multi-core win lives
-- the allocator colors the tiles of one function sequentially, and
``benchmarks/bench_parallelism.py`` bounds what intra-function
parallelism could buy.

Determinism: workers inherit ``PYTHONHASHSEED`` (set in ``os.environ``
before the pool starts, so both fork and spawn children see it), and the
allocation itself is bit-deterministic across hash seeds and processes
(PR-2 guarantee, enforced by ``repro.determinism check`` -- which covers
this engine via its ``--batch`` mode), so cached and freshly-computed
records are interchangeable bit-for-bit.

Fault tolerance (see :mod:`repro.errors` for the taxonomy).  Every try
of a miss -- inline, in a pool worker, or a ladder rung -- is one
:func:`~repro.batch.worker.attempt`, which returns a record or a
classified :class:`~repro.errors.TaskError`; the engine builds a
``TaskError`` itself only for a try that timed out or lost its worker,
and settles every primary try in one method (``_settle``):

* **Error isolation** -- one function failing never kills the module: it
  becomes a :class:`BatchResult` with ``record=None`` and a structured
  ``error`` (collected in :attr:`ModuleAllocation.failures`), unless
  ``on_error="fail"`` (strict mode), which re-raises as
  :class:`~repro.errors.BatchFunctionError`.
* **Deterministic retries** -- transient failures (crashed worker, hung
  task, memory pressure) are retried up to ``max_retries`` times with
  exponential backoff ``retry_backoff_s * 2**attempt``.  Records are pure
  functions of their content address, so a faulted-then-retried run is
  bit-identical to a fault-free run; retries only shift wall times and
  counters.
* **Pool recovery** -- a ``BrokenProcessPool`` (worker died) or a
  per-task timeout (worker hung) tears the pool down -- force-terminating
  stuck workers -- restarts it, and resubmits only the still-unfinished
  misses.  Cache state and submission-order merge semantics are
  unaffected because results are keyed by submission index throughout.
* **Degradation ladder** -- with ``on_error="degrade"`` (the default), a
  function whose hierarchical allocation fails permanently is retried
  with the Chaitin comparison allocator, then the naive spill-everywhere
  baseline (``worker.DEGRADATION_LADDER``); the result is marked
  ``degraded`` with its ``fallback_allocator`` and is **never** written
  to the cache, whose keys promise hierarchical results.

All of it is driven in tests and CI by the deterministic fault-injection
harness (:mod:`repro.batch.faultinject`, ``REPRO_FAULT_PLAN``).
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.batch.cache import AllocationCache
from repro.batch.serialize import (
    AllocationRecord,
    UncacheableConfigError,
    cache_key,
    inputs_digest,
    invalidation_key,
    record_from_dict,
    text_fingerprint,
)
from repro.batch.worker import (
    DEGRADATION_LADDER,
    AttemptSettings,
    attempt,
    run_task,
    worker_init,
)
from repro.core import HierarchicalConfig
from repro.core.budget import BudgetLimits, estimate_cost
from repro.core.config import BatchConfig
from repro.core.incremental import TileCacheStore
from repro.errors import (
    PERMANENT,
    TRANSIENT,
    BatchFunctionError,
    TaskError,
    task_error_from_exception,
)
from repro.ir.parser import parse_function
from repro.ir.printer import (
    format_function,
    same_stamp,
    text_stamp,
)
from repro.ir.validate import validate_function
from repro.machine.target import Machine
from repro.perf.timers import StageTimers
from repro.trace.events import (
    Admitted,
    BatchTask,
    BudgetExceeded,
    CacheHit,
    CacheMiss,
    Degraded,
    PoolRestarted,
    Rejected,
    TaskFailed,
    TaskRetried,
)
from repro.trace.tracer import NULL_TRACER, NullTracer


@dataclass
class BatchResult:
    """One function's outcome in submission order.

    ``record`` is ``None`` exactly when the function finally failed
    (``error`` then holds the structured failure).  ``degraded`` marks a
    degradation-ladder result: ``record`` was produced by
    ``fallback_allocator`` instead of the hierarchical allocator, and
    ``error`` still describes the primary failure that forced the
    fallback.  ``attempts`` counts tries of the primary allocator.
    """

    name: str
    fingerprint: str
    record: Optional[AllocationRecord]
    cached: bool
    source: str  # "memory" | "disk" | "computed" | "failed"
    worker: str  # "worker-<i>" | "inline" | "cache"
    duration: float
    error: Optional[TaskError] = None
    degraded: bool = False
    fallback_allocator: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class BatchStats:
    """Aggregate accounting for one engine (cumulative across modules)."""

    functions: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    failures: int = 0
    retries: int = 0
    degraded: int = 0
    pool_restarts: int = 0
    quarantined: int = 0
    #: resource-governance counters: functions refused by admission
    #: control (``BatchConfig.admission_limit``) and results that landed
    #: on the degradation ladder because of a resource limit (error
    #: class ``admission``/``budget``/``deadline``) rather than an
    #: allocator defect.
    rejected: int = 0
    degraded_by_budget: int = 0
    #: per-tile memoization counters (``BatchConfig.tile_cache``),
    #: summed across functions and worker processes: phase-1 summaries
    #: reused / recomputed, and maximal clean subtrees reused verbatim.
    tile_hits: int = 0
    tile_misses: int = 0
    subtrees_reused: int = 0
    #: in-memory functions keyed from the text memo, without printing.
    keys_reused: int = 0
    wall_s: float = 0.0

    @property
    def functions_per_sec(self) -> float:
        return self.functions / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "functions": self.functions,
            "computed": self.computed,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "failures": self.failures,
            "retries": self.retries,
            "degraded": self.degraded,
            "pool_restarts": self.pool_restarts,
            "quarantined": self.quarantined,
            "rejected": self.rejected,
            "degraded_by_budget": self.degraded_by_budget,
            "tile_hits": self.tile_hits,
            "tile_misses": self.tile_misses,
            "subtrees_reused": self.subtrees_reused,
            "keys_reused": self.keys_reused,
            "wall_s": round(self.wall_s, 4),
            "functions_per_sec": round(self.functions_per_sec, 2),
        }


@dataclass
class ModuleAllocation:
    """What :func:`repro.pipeline.allocate_module` returns: per-function
    results in submission order plus the engine's aggregate stats."""

    results: List[BatchResult]
    stats: BatchStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index) -> BatchResult:
        return self.results[index]

    @property
    def failures(self) -> List[BatchResult]:
        """Results that finally failed (``record is None``), in order."""
        return [r for r in self.results if r.record is None]

    @property
    def degraded_results(self) -> List[BatchResult]:
        """Results produced by the degradation ladder, in order."""
        return [r for r in self.results if r.degraded]

    @property
    def ok(self) -> bool:
        """True when every function produced a record (possibly degraded)."""
        return not self.failures


@dataclass(frozen=True)
class CanonicalSource:
    """A parsed, validated function reduced to what the engine keys and
    admits it by: its name, its canonical printed ``text``, that text's
    ``fingerprint`` and the function's admission estimate ``cost``
    (:func:`~repro.core.budget.estimate_cost`).

    It holds no :class:`~repro.ir.function.Function`, to keep the
    service's source memo small: a cache miss parses ``text``.
    """

    name: str
    text: str
    fingerprint: str
    cost: int


def canonical_source(fn) -> CanonicalSource:
    """Format *fn* once and keep what keying and admission read."""
    text = format_function(fn)
    return CanonicalSource(
        fn.name, text, text_fingerprint(text), estimate_cost(fn)
    )


@dataclass
class SourceWorkload:
    """A workload known by its :class:`CanonicalSource` instead of a
    function object -- what the allocation service submits.  ``args``,
    ``arrays`` and ``name`` mean what they mean on
    :class:`~repro.pipeline.Workload`."""

    source: CanonicalSource
    args: Dict[str, int] = field(default_factory=dict)
    arrays: Dict[str, List[int]] = field(default_factory=dict)
    name: Optional[str] = None

    def label(self) -> str:
        return self.name or self.source.name


@dataclass
class _Task:
    """One distinct key of a module pass: its submissions, its tries and
    its outcome.

    ``indices`` are the submissions that share the key, in order; the
    first names the task.  ``index`` is the task's position in the pass
    -- the coordinate the fault-injection plan targets -- and ``attempt``
    the 0-based try counter the retry machinery advances.  ``error``
    starts set for a key that never reaches the allocator (admission
    control, a function that could not be keyed); the other outcome
    fields are written when a try settles or a ladder rung succeeds.
    """

    index: int
    key: str
    name: str
    fingerprint: str
    text: str
    workload: object
    indices: List[int] = field(default_factory=list)
    attempt: int = 0
    record: Optional[AllocationRecord] = None
    error: Optional[TaskError] = None
    timing: Dict[str, object] = field(default_factory=dict)
    degraded: bool = False
    fallback_allocator: Optional[str] = None
    attempts: int = 0


def _src_path() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _task_tuple(task: _Task) -> Tuple:
    workload = task.workload
    return (
        task.index, task.name, task.text, dict(workload.args),
        {k: list(v) for k, v in workload.arrays.items()},
        task.attempt,
    )


class BatchEngine:
    """Process-parallel multi-function allocator with a content-addressed
    cache.  Use as a context manager (the pool is a held resource)::

        with BatchEngine(batch=BatchConfig(batch_workers=4)) as engine:
            module = engine.allocate_module(workloads)
    """

    def __init__(
        self,
        config: Optional[HierarchicalConfig] = None,
        machine: Optional[Machine] = None,
        batch: Optional[BatchConfig] = None,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.batch = batch or BatchConfig()
        self.config = config or HierarchicalConfig()
        self.machine = machine or Machine.simple(self.batch.registers)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = BatchStats()
        self.timers = StageTimers()
        #: Failures swallowed while tearing down the pool, newest last.
        #: Teardown must never raise (close() runs on the error path and
        #: from __exit__), but the failures are not silent either -- each
        #: one is classified into the structured taxonomy and kept here
        #: for inspection.
        self.teardown_errors: List[TaskError] = []

        if self.batch.cache_policy == "off":
            self.cache: Optional[AllocationCache] = None
        else:
            self.cache = AllocationCache(
                cache_dir=(
                    self.batch.cache_dir
                    if self.batch.cache_policy == "disk"
                    else None
                ),
            )
        try:
            self._invalidation = invalidation_key(self.config, self.machine)
        except UncacheableConfigError:
            # Profile-guided configs can't be content-addressed; run with
            # the cache disabled rather than risk stale hits.
            self.cache = None
            self._invalidation = ""
        #: what every try reads (see :func:`~repro.batch.worker.attempt`);
        #: each pool worker gets a copy with its own tile store.  The
        #: budget limits are ``None`` when both are off, preserving the
        #: allocator's zero-cost unbudgeted fast path, and the tile store
        #: is off alongside the result cache for uncacheable configs:
        #: tile fingerprints reuse the same invalidation key.
        budgeted = (
            self.batch.max_fuel is not None
            or self.batch.deadline_s is not None
        )
        self._settings = AttemptSettings(
            self.config, self.machine, self.batch.simulate,
            budget_limits=BudgetLimits(
                max_fuel=self.batch.max_fuel,
                deadline_s=self.batch.deadline_s,
            ) if budgeted else None,
            tile_store=TileCacheStore()
            if self.batch.tile_cache and self._invalidation else None,
        )
        #: function -> (text stamp, canonical text, fingerprint)
        #: for in-memory workloads; an entry lives as long as its
        #: function (see :meth:`entry_for`).
        self._texts = weakref.WeakKeyDictionary()
        self._pool: Optional[ProcessPoolExecutor] = None
        # Deliberately wall-clock: trace rows subtract it from worker
        # ``start`` stamps, which cross process boundaries.  All *interval*
        # math (durations, BatchStats.wall_s) uses time.monotonic() so a
        # clock step (NTP, DST, manual set) can never skew or negate it.
        self._epoch = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "BatchEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        # Runs on exceptions too -- the executor must never outlive the
        # engine, even when allocate_module raised mid-flight.
        self.close()

    def start(self) -> None:
        """Spin up the persistent worker pool (no-op when workers == 0 or
        the pool already exists)."""
        if self.batch.batch_workers > 0 and self._pool is None:
            # Propagated into children regardless of start method; the
            # fingerprints they produce are hash-seed-independent anyway
            # (the determinism gate proves it), this keeps the whole
            # environment reproducible for grandchildren too.
            hash_seed = os.environ.get("PYTHONHASHSEED")
            self._pool = ProcessPoolExecutor(
                max_workers=self.batch.batch_workers,
                initializer=worker_init,
                initargs=(_src_path(), hash_seed, self._settings),
            )

    def close(self) -> None:
        """Release the pool.  Idempotent, and safe on a broken pool or
        one with hung workers: the shutdown never waits on a worker that
        will not come back -- leftover processes are terminated."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        # Teardown never raises, but nothing is swallowed silently: the
        # failure modes of shutdown/terminate/join are OS- and executor-
        # level (dead process, broken pipe, shut-down executor), so the
        # catches are narrowed to exactly those and each failure is
        # classified and recorded in ``teardown_errors``.
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError) as exc:
            self._record_teardown_error(exc)
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except (OSError, ValueError, AttributeError) as exc:
                self._record_teardown_error(exc)
        for process in processes:
            try:
                process.join(timeout=5)
            except (OSError, RuntimeError, ValueError, AssertionError) as exc:
                self._record_teardown_error(exc)

    def _record_teardown_error(self, exc: BaseException) -> None:
        self.teardown_errors.append(task_error_from_exception(exc))

    def _merge_tile_counters(self, counters) -> None:
        """Fold one allocation's per-tile reuse counters (inline result
        or a pool worker's ``timing["tile_cache"]``) into the stats."""
        if not counters:
            return
        self.stats.tile_hits += int(counters.get("tile_hits", 0))
        self.stats.tile_misses += int(counters.get("tile_misses", 0))
        self.stats.subtrees_reused += int(
            counters.get("subtrees_reused", 0)
        )

    def _restart_pool(self, resubmitted: int) -> None:
        """Tear down a broken/hung pool, start a fresh one, and account
        for it; *resubmitted* is how many in-flight misses will be
        re-queued onto the new pool."""
        self.close()
        self.start()
        self.stats.pool_restarts += 1
        if self.tracer.enabled:
            self.tracer.emit(PoolRestarted(
                restarts=self.stats.pool_restarts,
                resubmitted=resubmitted,
            ))

    # ------------------------------------------------------------------
    # observation hooks (used by the service layer)
    # ------------------------------------------------------------------
    def entry_for(self, workload) -> Tuple[str, str, str, str]:
        """``(name, canonical_text, fingerprint, cache_key)`` for one
        workload -- exactly what :meth:`allocate_module` computes before
        its cache lookup.

        This is the hook the allocation service builds its cross-request
        coalescing on: two workloads share an in-flight computation if
        and only if their cache keys are equal, and key parity with the
        engine is guaranteed because both call this one method.

        A :class:`SourceWorkload` carries its canonical text and
        fingerprint, so keying it formats nothing.  Any other workload's
        function may have been edited in place since the last call, so
        its text comes from the engine's text memo only while the
        function's :func:`~repro.ir.printer.text_stamp` still holds the
        very objects it held when the text was printed; otherwise the
        function is validated, printed and stamped again.  An entry lives
        as long as its function object, and a new engine starts with none.
        """
        name = workload.label()
        if isinstance(workload, SourceWorkload):
            text = workload.source.text
            fingerprint = workload.source.fingerprint
        else:
            text, fingerprint = self._canonical_text(workload.fn)
        inputs = (
            inputs_digest(workload.args, workload.arrays)
            if self.batch.simulate
            else ""
        )
        return name, text, fingerprint, cache_key(
            fingerprint, self._invalidation, inputs
        )

    def _canonical_text(self, fn) -> Tuple[str, str]:
        """*fn*'s canonical text and fingerprint, from the text memo
        while its stamp holds; otherwise validated, then printed."""
        try:
            stamp = text_stamp(fn)
        except KeyError:  # a dangling label, which validation names
            validate_function(fn)
            raise
        kept = self._texts.get(fn)
        if kept is not None and same_stamp(kept[0], stamp):
            self.stats.keys_reused += 1
            return kept[1], kept[2]
        validate_function(fn)
        text = format_function(fn)
        fingerprint = text_fingerprint(text)
        self._texts[fn] = (stamp, text, fingerprint)
        return text, fingerprint

    def pool_health(self) -> Dict[str, object]:
        """Liveness view of the worker pool (for ``/healthz``).

        ``configured`` is ``batch_workers``; ``running`` says whether a
        pool currently exists (it is started lazily, so ``False`` is
        healthy before the first pooled miss); ``alive`` counts worker
        processes still running; ``broken`` reflects the executor's own
        broken flag.  ``restarts`` mirrors ``stats.pool_restarts``.
        """
        pool = self._pool
        health: Dict[str, object] = {
            "configured": self.batch.batch_workers,
            "running": pool is not None,
            "alive": 0,
            "broken": False,
            "restarts": self.stats.pool_restarts,
        }
        if pool is not None:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            health["alive"] = sum(1 for p in processes if p.is_alive())
            health["broken"] = bool(getattr(pool, "_broken", False))
        return health

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate_module(self, workloads: Sequence) -> ModuleAllocation:
        """Allocate every workload, returning results in submission order.

        Failures are isolated per function according to
        ``batch.on_error`` (see :class:`~repro.core.config.BatchConfig`);
        only strict mode (``"fail"``) lets an exception escape.  That
        includes an in-memory function that cannot be keyed: an invalid
        one fails alone, with class ``validate`` and ``attempts`` 0,
        before any cache lookup or try, inline and pooled alike.
        """
        tracer = self.tracer
        t0 = time.time()  # wall: trace rows only (offset from _epoch)
        t0_mono = time.monotonic()

        # 1. key, admit and look up every submission, in order; a miss
        # or a refusal joins the task of its key.
        results: List[Optional[BatchResult]] = [None] * len(workloads)
        tasks: Dict[str, _Task] = {}

        def join(index, key, name, fingerprint, text, workload) -> _Task:
            """The task of *key*, with submission *index* added to it."""
            task = tasks.get(key)
            if task is None:
                task = tasks[key] = _Task(
                    len(tasks), key, name, fingerprint, text, workload
                )
            task.indices.append(index)
            return task

        admission_limit = self.batch.admission_limit
        for index, workload in enumerate(workloads):
            # Records carry simulated costs/returned when inputs are
            # present, so the key must distinguish inputs -- for the
            # cache lookup *and* for the task a miss joins, which
            # assumes one key == one (function, inputs) computation.
            try:
                name, text, fingerprint, key = self.entry_for(workload)
            except Exception as exc:  # noqa: BLE001 -- isolated below
                # Invalid or unprintable: no key, so it fails alone.
                task = join(index, f"unkeyed:{index}", workload.label(),
                            "", "", workload)
                task.error = task_error_from_exception(exc, attempts=0)
                continue
            if admission_limit is not None:
                # Admission is decided *before* the cache is consulted,
                # so the admit/reject stream is a pure function of the
                # input module, never of cache state.
                cost = (
                    workload.source.cost
                    if isinstance(workload, SourceWorkload)
                    else estimate_cost(workload.fn)
                )
                if cost > admission_limit:
                    task = join(index, key, name, fingerprint, text, workload)
                    task.error = TaskError(
                        error_class="admission",
                        message=(
                            f"estimated cost {cost} exceeds admission "
                            f"limit {admission_limit}"
                        ),
                        permanence=PERMANENT,
                        attempts=0,
                    )
                    if tracer.enabled:
                        tracer.emit(Rejected(
                            function=name, fingerprint=fingerprint,
                            cost=cost, limit=admission_limit,
                        ))
                    continue
                if tracer.enabled:
                    tracer.emit(Admitted(
                        function=name, fingerprint=fingerprint,
                        cost=cost, limit=admission_limit,
                    ))
            record = None
            cached_source = None
            if self.cache is not None:
                # get() counts the probe; a torn disk entry is a miss.
                cached_source = self.cache.source_of(key)
                record = self.cache.get(key)
            if record is not None:
                if tracer.enabled:
                    tracer.emit(CacheHit(
                        function=name, fingerprint=fingerprint,
                        source=cached_source,
                    ))
                results[index] = BatchResult(
                    name=name, fingerprint=fingerprint, record=record,
                    cached=True, source=cached_source, worker="cache",
                    duration=0.0,
                )
            else:
                if tracer.enabled:
                    tracer.emit(CacheMiss(
                        function=name, fingerprint=fingerprint,
                    ))
                join(index, key, name, fingerprint, text, workload)

        # 2. compute the tasks nothing refused, in submission order;
        # faults are isolated, retried, and degraded per task.
        runnable = [task for task in tasks.values() if task.error is None]
        if runnable:
            if self._pool is None and self.batch.batch_workers > 0:
                self.start()
            if self._pool is not None:
                self._run_pooled(runnable)
            else:
                self._run_inline(runnable)
        self._apply_degradation(tasks.values())
        if self.batch.on_error == "fail":
            for task in tasks.values():
                if task.record is None:
                    raise BatchFunctionError(task.name, task.error)

        # 3. merge + cache insert, in submission order.
        pids: Dict[int, int] = {}
        own_pid = os.getpid()
        for task in tasks.values():
            timing = task.timing
            pid = int(timing.get("pid", own_pid))
            if self._pool is not None and pid != own_pid:
                worker = f"worker-{pids.setdefault(pid, len(pids))}"
            else:
                worker = "inline"
            duration = float(timing.get("duration", 0.0))
            # Degraded records never enter the cache: the key promises a
            # *hierarchical* allocation of this content address, and a
            # fallback result must not answer for one.
            if (
                self.cache is not None
                and task.record is not None
                and not task.degraded
            ):
                self.cache.put(task.key, task.record)
            for index in task.indices:
                results[index] = BatchResult(
                    name=workloads[index].label(),
                    fingerprint=task.fingerprint,
                    record=task.record,
                    cached=False,
                    source="computed" if task.record is not None
                    else "failed",
                    worker=worker, duration=duration,
                    error=task.error,
                    degraded=task.degraded,
                    fallback_allocator=task.fallback_allocator,
                    attempts=task.attempts,
                )
            if tracer.enabled:
                tracer.emit(BatchTask(
                    function=task.name, fingerprint=task.fingerprint,
                    worker=worker,
                    start=float(timing.get("start", t0)) - self._epoch,
                    duration=duration, cached=False,
                ))
        if tracer.enabled:
            for result in results:
                if result.cached:
                    tracer.emit(BatchTask(
                        function=result.name, fingerprint=result.fingerprint,
                        worker="cache", start=t0 - self._epoch,
                        duration=0.0, cached=True,
                    ))

        # 4. count the pass, once, from its results.
        stats = self.stats
        stats.functions += len(results)
        stats.computed += len(tasks)
        for result in results:
            error_class = result.error.error_class if result.error else None
            stats.cache_hits += result.cached
            stats.cache_misses += not result.cached
            stats.failures += not result.ok
            stats.degraded += result.degraded
            stats.degraded_by_budget += result.degraded and error_class in (
                "admission", "budget", "deadline"
            )
            stats.rejected += error_class == "admission"
        if self.cache is not None:
            stats.evictions = self.cache.stats.evictions
            stats.disk_hits = self.cache.stats.disk_hits
            stats.quarantined = self.cache.stats.quarantined
        stats.wall_s += time.monotonic() - t0_mono
        return ModuleAllocation(results=results, stats=stats)

    # ------------------------------------------------------------------
    # fault-handling compute paths
    # ------------------------------------------------------------------
    def _attempt(self, task: _Task, allocator: str = "hierarchical"):
        """One in-process try of *task*: :func:`~repro.batch.worker.attempt`
        on the workload's own function, or its parsed text for a
        :class:`SourceWorkload` (``prepare`` canonicalizes either way, so
        the record is the one a pool worker computes from the text)."""
        workload = task.workload
        if isinstance(workload, SourceWorkload):
            def load():
                return parse_function(task.text)
        else:
            def load():
                return workload.fn
        return attempt(
            self._settings, task.name, load,
            args=workload.args, arrays=workload.arrays,
            index=task.index, tries=task.attempt, allocator=allocator,
        )

    def _settle(
        self,
        task: _Task,
        record: Optional[AllocationRecord],
        error: Optional[TaskError],
        timing: Dict[str, object],
    ) -> bool:
        """Settle one try of *task*, wherever it ran.

        A record or a final failure becomes the task's outcome.  A
        transient failure with retries left is backed off and returns
        ``True``: the caller tries the task again, at ``task.attempt``
        plus one."""
        if record is not None:
            task.record, task.timing = record, timing
            task.attempts = task.attempt + 1
            self.timers.merge(timing.get("stage_times", {}))
            self._merge_tile_counters(timing.get("tile_cache"))
            return False
        if self.tracer.enabled:
            self._emit_failed(task, error, error.message)
            budget = timing.get("budget")
            if budget:
                self.tracer.emit(BudgetExceeded(
                    function=task.name, fingerprint=task.fingerprint,
                    resource=str(budget["resource"]),
                    spent=float(budget["spent"]),
                    limit=float(budget["limit"]),
                ))
        if error.transient and task.attempt < self.batch.max_retries:
            backoff = self.batch.retry_backoff_s * (2 ** task.attempt)
            self.stats.retries += 1
            if self.tracer.enabled:
                self.tracer.emit(TaskRetried(
                    function=task.name, fingerprint=task.fingerprint,
                    attempt=task.attempt + 1, backoff_s=backoff,
                ))
            if backoff > 0:
                time.sleep(backoff)
            task.attempt += 1
            return True
        task.error, task.timing = error, timing
        task.attempts = task.attempt + 1
        return False

    def _emit_failed(self, task: _Task, error: TaskError, message: str):
        self.tracer.emit(TaskFailed(
            function=task.name, fingerprint=task.fingerprint,
            error_class=error.error_class, permanence=error.permanence,
            attempt=task.attempt, message=message,
        ))

    def _run_pooled(self, tasks: List[_Task]) -> None:
        """Fan tasks out over the pool, surviving worker loss.

        Futures are collected in submission order (never completion
        order).  A ``BrokenProcessPool`` or per-task timeout fails the
        try transiently and marks the round for a pool restart; only
        still-unfinished tasks are resubmitted, so the cache/merge
        semantics downstream see exactly one terminal outcome per key
        regardless of faults.
        """
        pending = list(tasks)
        while pending:
            try:
                submitted = [
                    (task, self._pool.submit(run_task, _task_tuple(task)))
                    for task in pending
                ]
            except BrokenExecutor:
                # The pool broke between rounds (e.g. an idle worker
                # died); rebuild it and submit again.  A second failure
                # propagates: the pool cannot even start.
                self._restart_pool(resubmitted=len(pending))
                submitted = [
                    (task, self._pool.submit(run_task, _task_tuple(task)))
                    for task in pending
                ]
            retry_queue: List[_Task] = []
            restart_needed = False
            for task, future in submitted:
                timing: Dict[str, object] = {}
                try:
                    record, error, timing = future.result(
                        timeout=self.batch.task_timeout_s
                    )
                except FuturesTimeout:
                    # The worker is stuck; it can only be reclaimed by
                    # restarting the pool.
                    future.cancel()
                    restart_needed = True
                    record, error = None, TaskError(
                        "timeout",
                        f"task exceeded {self.batch.task_timeout_s}s",
                        TRANSIENT, attempts=task.attempt + 1,
                    )
                except BrokenExecutor as exc:
                    restart_needed = True
                    record, error = None, TaskError(
                        "pool", str(exc) or "worker process died",
                        TRANSIENT, attempts=task.attempt + 1,
                    )
                else:
                    if record is not None:
                        record = record_from_dict(record)
                if self._settle(task, record, error, timing):
                    retry_queue.append(task)
            if restart_needed:
                self._restart_pool(resubmitted=len(retry_queue))
            pending = retry_queue

    def _run_inline(self, tasks: List[_Task]) -> None:
        """Compute misses in-process with the same retry semantics as the
        pooled path (timeouts cannot preempt an inline task and are
        ignored; injected kill/hang faults downgrade to transient
        raises -- see :mod:`repro.batch.faultinject`)."""
        for task in tasks:
            while self._settle(task, *self._attempt(task)):
                pass

    def _apply_degradation(self, tasks: Iterable[_Task]) -> None:
        """Walk failed tasks down the degradation ladder (coordinator-
        side, in submission order; no-op unless ``on_error="degrade"``).

        The ladder is deliberately fault-free territory: the injection
        plan targets primary attempts only, mirroring reality -- the
        fallback is a *different computation*, not a retry of the same
        one.
        """
        if self.batch.on_error != "degrade":
            return
        for task in tasks:
            if task.record is not None:
                continue
            for rung in DEGRADATION_LADDER:
                record, error, timing = self._attempt(task, allocator=rung)
                if record is None:
                    # A rung may legitimately fail (chaitin can still run
                    # out of colors); the ladder moves on to the next
                    # one, but the failure is surfaced as a TaskFailed
                    # trace row tagged with the rung.
                    if self.tracer.enabled:
                        self._emit_failed(
                            task, error, f"fallback {rung!r}: {error.message}"
                        )
                    continue
                task.record, task.timing = record, timing
                task.degraded, task.fallback_allocator = True, rung
                if self.tracer.enabled:
                    self.tracer.emit(Degraded(
                        function=task.name, fingerprint=task.fingerprint,
                        fallback_allocator=rung,
                        error_class=task.error.error_class,
                    ))
                break
