"""One try of one batch miss, and the process-pool worker that runs it.

:func:`attempt` is the single implementation of "try one miss once": the
fault-plan hook (hierarchical tries only), load the function, then
:func:`compute_record`.  It classifies any exception once, where its
type is still known (:func:`repro.errors.task_error_from_exception`),
into a :class:`~repro.errors.TaskError`, and returns ``(record, error,
timing)`` with exactly one of ``record`` and ``error`` set.  The engine
calls it inline when running without a pool and for degradation-ladder
rungs (``allocator="chaitin"`` / ``"naive"``); a pool worker calls it
through :func:`run_task`.

A pool worker is initialized once per process with the engine's
:class:`AttemptSettings` (:func:`worker_init`), then receives
``(index, name, text, args, arrays, attempt)`` tasks -- the
function travels as its canonical IR text (lossless round-trip through
``format_function``/``parse_function``, call clobbers included), never
as a pickled object graph, so the wire format is as stable as the cache
format.  A failure crosses back as its :class:`~repro.errors.TaskError`,
plain data: an exception would have to be pickled, which silently breaks
for exception types with non-trivial constructors
(``NoColorForRequiredNode`` takes a ``node`` argument).

:func:`compute_record` is the single implementation of "allocate one
function and condense the result into an :class:`AllocationRecord`", so
pooled, inline and cached results are constructed identically
(bit-identical, per the determinism gate).  A record is a pure function
of its cache key: attaching a tile store changes how the allocation is
computed, and the submission's label names the result, never the record.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.batch.faultinject import active_plan
from repro.batch.serialize import (
    FORMAT_VERSION,
    AllocationRecord,
    normalize_returned,
    record_to_dict,
)
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.budget import BudgetExceededError, BudgetLimits
from repro.core.incremental import TileCacheStore
from repro.errors import TaskError, task_error_from_exception
from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.target import Machine


#: Fallback allocators the engine tries, in order, when the hierarchical
#: allocation of a function fails permanently (the degradation ladder).
#: Chaitin is the paper's own comparison allocator; naive spill-everywhere
#: always succeeds on any machine with >= 2 registers.
DEGRADATION_LADDER = ("chaitin", "naive")


def _make_allocator(
    name: str, config: HierarchicalConfig, tile_store=None, budget_limits=None
):
    if name == "hierarchical":
        return HierarchicalAllocator(
            config, tile_store=tile_store, budget_limits=budget_limits
        )
    if name == "chaitin":
        from repro.allocators import ChaitinAllocator

        return ChaitinAllocator()
    if name == "naive":
        from repro.allocators import NaiveMemoryAllocator

        return NaiveMemoryAllocator()
    raise ValueError(f"unknown allocator {name!r}")


def compute_record(
    name: str,
    fn: Function,
    config: HierarchicalConfig,
    machine: Machine,
    args: Optional[Mapping[str, Any]] = None,
    arrays: Optional[Mapping[str, Sequence[Any]]] = None,
    simulate: bool = True,
    allocator: str = "hierarchical",
    tile_store=None,
    budget_limits=None,
) -> Tuple[AllocationRecord, Dict[str, float], Optional[Dict[str, int]]]:
    """Allocate *fn* and condense the outcome into a cacheable record.

    With *simulate* and inputs present, the full pipeline runs (reference
    run, allocation, allocated run, differential verification) and the
    record carries the dynamic cost counters; otherwise the function is
    allocated and validated statically and ``costs`` is ``None``.
    Returns the record, the allocator's per-stage wall times (which the
    engine aggregates across workers; never part of the record), and --
    when a *tile_store* was attached -- the per-tile reuse counters
    (``tile_hits`` / ``tile_misses`` / ``subtrees_reused``; ``None``
    otherwise).

    The record does not hold *name*.  *allocator* selects the algorithm:
    ``"hierarchical"`` (default), or the degradation-ladder fallbacks
    ``"chaitin"`` / ``"naive"``.  *tile_store* is a
    :class:`repro.core.incremental.TileCacheStore` for incremental
    re-allocation and *budget_limits* a
    :class:`repro.core.budget.BudgetLimits` resource governor; only the
    hierarchical allocator uses either, so degradation-ladder rungs run
    unbudgeted and a fuel-exhausted function can still complete there.
    A tile store changes only the third return value -- the record is
    equal with or without one.
    """
    from repro.pipeline import (
        Workload, allocate_checked, compile_function, prepare,
    )

    args = dict(args or {})
    arrays = {k: list(v) for k, v in (arrays or {}).items()}
    alloc = _make_allocator(allocator, config, tile_store, budget_limits)

    if simulate and (args or arrays):
        result = compile_function(
            Workload(fn, args, arrays, name=name), alloc, machine
        )
        outcome, costs = result.outcome, result.overhead_summary
        returned = normalize_returned(result.allocated_run.returned)
    else:
        outcome = allocate_checked(alloc, prepare(fn), machine)
        costs = returned = None

    extra = outcome.stats.extra
    text = format_function(outcome.fn)
    record = AllocationRecord(
        version=FORMAT_VERSION,
        blocks=len(outcome.fn.blocks),
        allocated_sha256=hashlib.sha256(text.encode()).hexdigest(),
        allocated_text=text,
        spilled=tuple(sorted(outcome.stats.spilled_vars)),
        static_costs={
            "spill_loads": outcome.stats.static_spill_loads,
            "spill_stores": outcome.stats.static_spill_stores,
            "moves": outcome.stats.static_moves,
        },
        costs=costs,
        returned=returned,
        allocator=allocator,
    )
    return (
        record, dict(extra.get("stage_times", {})), extra.get("tile_cache")
    )


# ----------------------------------------------------------------------
# one try
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptSettings:
    """Everything a try reads besides its function and inputs.

    The engine holds one and hands a copy to each pool worker
    (:func:`worker_init`).  *tile_store* is a per-process
    :class:`~repro.core.incremental.TileCacheStore` (``None``: no
    incremental re-allocation); a worker's copy starts empty and persists
    across its tasks, so re-submissions of edited functions hit it as
    long as they land on the same worker.
    """

    config: HierarchicalConfig
    machine: Machine
    simulate: bool = True
    budget_limits: Optional[BudgetLimits] = None
    tile_store: Optional[TileCacheStore] = None


def attempt(
    settings: AttemptSettings,
    name: str,
    load: Callable[[], Function],
    *,
    args: Mapping[str, Any],
    arrays: Mapping[str, Sequence[Any]],
    index: int,
    tries: int,
    in_worker: bool = False,
    allocator: str = "hierarchical",
) -> Tuple[Optional[AllocationRecord], Optional[TaskError], Dict[str, object]]:
    """Try one miss once: ``(record, None, timing)`` or ``(None, error,
    timing)``, where the error's ``attempts`` is ``tries + 1``.

    A hierarchical try first meets the fault plan at (*index*, *tries*);
    *in_worker* says whether a ``kill`` or ``hang`` acts literally (see
    :mod:`repro.batch.faultinject`).  A ladder rung (*allocator*
    ``"chaitin"``/``"naive"``) is a different computation, not a retry:
    it meets no fault and runs unbudgeted (see :func:`compute_record`).

    ``timing`` holds a wall-clock ``start`` (``time.time()``, shared
    across processes on one machine; trace rows offset it against the
    engine's epoch), the ``pid``, and a monotonic ``duration`` of the
    fault hook, ``load()`` and the allocation.  A record comes with the
    allocator's ``stage_times`` and its ``tile_cache`` counters (``None``
    without a tile store); a fuel or deadline failure with its
    ``budget`` (``resource``, ``spent``, ``limit``).
    """
    timing: Dict[str, object] = {"start": time.time(), "pid": os.getpid()}
    start_mono = time.monotonic()
    record = error = None
    try:
        if allocator == "hierarchical":
            active_plan().maybe_fail_task(index, tries, in_worker=in_worker)
        record, stage_times, tile_cache = compute_record(
            name, load(), settings.config, settings.machine,
            args=args, arrays=arrays, simulate=settings.simulate,
            allocator=allocator, tile_store=settings.tile_store,
            budget_limits=settings.budget_limits,
        )
        timing.update(stage_times=stage_times, tile_cache=tile_cache)
    except Exception as exc:
        error = task_error_from_exception(exc, attempts=tries + 1)
        if isinstance(exc, BudgetExceededError):
            timing["budget"] = {
                "resource": exc.resource, "spent": exc.spent,
                "limit": exc.limit,
            }
    timing["duration"] = time.monotonic() - start_mono
    return record, error, timing


# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------
#: This pool worker's settings, set once by :func:`worker_init`.
_SETTINGS: Optional[AttemptSettings] = None


def worker_init(
    src_path: str, hash_seed: Optional[str], settings: AttemptSettings
) -> None:
    """Per-process initializer: make ``import repro`` work regardless of
    start method, pin ``PYTHONHASHSEED`` for any grandchildren, and keep
    the engine's *settings* once instead of per task."""
    global _SETTINGS
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    if hash_seed is not None:
        os.environ["PYTHONHASHSEED"] = hash_seed
    _SETTINGS = settings


def run_task(
    task: Tuple[int, str, str, Dict[str, Any], Dict[str, list], int],
) -> Tuple[Optional[Dict[str, Any]], Optional[TaskError], Dict[str, object]]:
    """:func:`attempt` in a pool process, on the wire.

    *task* is ``(index, name, text, args, arrays, attempt)``; the function
    is parsed from ``text`` inside the try, and the record comes back as
    :func:`~repro.batch.serialize.record_to_dict` data.
    """
    index, name, text, args, arrays, tries = task
    record, error, timing = attempt(
        _SETTINGS, name, lambda: parse_function(text),
        args=args, arrays=arrays, index=index, tries=tries, in_worker=True,
    )
    return (
        None if record is None else record_to_dict(record), error, timing
    )
