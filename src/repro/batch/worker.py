"""Process-pool worker for the batch engine.

Everything here is top-level and picklable.  A worker is initialized once
per process with the allocator/machine configuration
(:func:`worker_init`), then receives
``(index, name, fingerprint, text, args, arrays, attempt)`` tasks and
returns ``(index, payload_dict, timing_dict)`` -- the function travels as
its canonical IR text (lossless round-trip through
``format_function``/``parse_function``, call clobbers included), never
as a pickled object graph, so the wire format is as stable as the cache
format.

Failures travel the same way: a worker never lets an exception escape
``run_task``.  Exceptions would have to be *pickled* back across the
process boundary -- which silently breaks for exception types with
non-trivial constructors (``NoColorForRequiredNode`` takes a ``node``
argument) -- so the payload is either ``{"ok": True, "record": ...}`` or
``{"ok": False, "error_class": ..., "permanence": ..., "message": ...}``
with the classification done where the exception type is still known
(:func:`repro.errors.classify_exception`).

:func:`compute_record` is the single implementation of "allocate one
function and condense the result into an :class:`AllocationRecord`"; the
engine calls it inline when running without a pool and for
degradation-ladder fallbacks (``allocator="chaitin"`` / ``"naive"``), so
pooled, inline and cached results are constructed identically
(bit-identical, per the determinism gate).  A record is a pure function
of its cache key: attaching a tile store changes how the allocation is
computed, never the record.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.batch.serialize import (
    FORMAT_VERSION,
    AllocationRecord,
    function_fingerprint,
    normalize_returned,
    record_to_dict,
)
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.summary import is_summary_var, is_temp_node
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
    fingerprint: Optional[str] = None,
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

    *allocator* selects the algorithm: ``"hierarchical"`` (default), or
    the degradation-ladder fallbacks ``"chaitin"`` / ``"naive"`` (those
    produce no per-tile bindings; everything else in the record is
    constructed identically).  *tile_store* is a
    :class:`repro.core.incremental.TileCacheStore` for incremental
    re-allocation; only the hierarchical allocator uses it, and it
    changes only the third return value -- the record is equal with or
    without one.
    *budget_limits* is a :class:`repro.core.budget.BudgetLimits` resource
    governor, likewise hierarchical-only -- degradation-ladder rungs run
    unbudgeted so a fuel-exhausted function can still complete there.
    """
    from repro.pipeline import Workload, compile_function, prepare

    fingerprint = fingerprint or function_fingerprint(fn)
    args = dict(args or {})
    arrays = {k: list(v) for k, v in (arrays or {}).items()}
    run_simulation = simulate and bool(args or arrays)

    costs: Optional[Dict[str, int]] = None
    returned: Optional[int] = None
    if run_simulation:
        result = compile_function(
            Workload(fn, args, arrays, name=name),
            _make_allocator(allocator, config, tile_store, budget_limits),
            machine,
        )
        outcome = result.outcome
        costs = {
            "spill_loads": result.allocated_run.spill_loads,
            "spill_stores": result.allocated_run.spill_stores,
            "moves": result.allocated_run.register_moves,
            "program_refs": result.allocated_run.program_memory_refs,
        }
        returned = normalize_returned(result.allocated_run.returned)
        allocations = outcome.stats.extra.get("allocations")
        ctx = outcome.stats.extra.get("context")
    else:
        from repro.ir.validate import validate_function
        from repro.machine.rewrite import remove_self_moves

        prepared = prepare(fn)
        alloc = _make_allocator(allocator, config, tile_store, budget_limits)
        outcome = alloc.allocate(prepared, machine)
        remove_self_moves(outcome.fn)
        validate_function(outcome.fn, allow_unreachable=True)
        allocations = getattr(alloc, "last_allocations", None)
        ctx = getattr(alloc, "last_context", None)

    text = format_function(outcome.fn)
    stage_times = dict(outcome.stats.extra.get("stage_times", {}))
    tile_cache = outcome.stats.extra.get("tile_cache")
    record = AllocationRecord(
        version=FORMAT_VERSION,
        function=name,
        fingerprint=fingerprint,
        blocks=len(outcome.fn.blocks),
        allocated_sha256=hashlib.sha256(text.encode()).hexdigest(),
        allocated_text=text,
        spilled=tuple(sorted(outcome.stats.spilled_vars)),
        bindings=_final_bindings(ctx, allocations),
        static_costs={
            "spill_loads": outcome.stats.static_spill_loads,
            "spill_stores": outcome.stats.static_spill_stores,
            "moves": outcome.stats.static_moves,
        },
        costs=costs,
        returned=returned,
        allocator=allocator,
    )
    return record, stage_times, tile_cache


def _final_bindings(ctx, allocations) -> Tuple[Tuple[str, str], ...]:
    """Per-tile final bindings of real variables, as ``("t<i>:<var>",
    location)`` pairs where ``<i>`` is the tile's *postorder index* --
    process-global tile ids differ between worker processes, postorder
    indices do not."""
    if ctx is None or allocations is None:
        return ()
    pairs = []
    for index, tile in enumerate(ctx.tree.postorder()):
        alloc = allocations.get(tile.tid)
        if alloc is None:
            continue
        phys = getattr(alloc, "phys", None) or {}
        for node in sorted(phys):
            if is_summary_var(node) or is_temp_node(node):
                continue
            pairs.append((f"t{index}:{node}", phys[node]))
    return tuple(pairs)


# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}


def worker_init(
    src_path: str,
    hash_seed: Optional[str],
    config: HierarchicalConfig,
    machine: Machine,
    simulate: bool,
    tile_cache: bool = False,
    tile_cache_entries: int = 4096,
    budget_limits=None,
) -> None:
    """Per-process initializer: make ``import repro`` work regardless of
    start method, pin ``PYTHONHASHSEED`` for any grandchildren, and stash
    the shared configuration once instead of per task.  With *tile_cache*
    set, the worker owns a process-local
    :class:`~repro.core.incremental.TileCacheStore` that persists across
    tasks -- re-submissions of edited functions hit it as long as they
    land on the same worker."""
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    if hash_seed is not None:
        os.environ["PYTHONHASHSEED"] = hash_seed
    _WORKER_STATE["config"] = config
    _WORKER_STATE["machine"] = machine
    _WORKER_STATE["simulate"] = simulate
    _WORKER_STATE["budget_limits"] = budget_limits
    if tile_cache:
        from repro.core.incremental import TileCacheStore

        _WORKER_STATE["tile_store"] = TileCacheStore(
            capacity=tile_cache_entries
        )
    else:
        _WORKER_STATE["tile_store"] = None


def run_task(
    task: Tuple[int, str, str, str, Dict[str, Any], Dict[str, list], int],
) -> Tuple[int, Dict[str, object], Dict[str, object]]:
    """Allocate one function in a pool process.

    *task* is ``(index, name, fingerprint, text, args, arrays, attempt)``;
    the return value is ``(index, payload, timing)`` where ``payload`` is
    the success/failure dict described in the module docstring and
    ``timing`` carries a wall-clock ``start`` (``time.time()``, shared
    across processes on one machine -- trace rows offset it against the
    engine's epoch), a monotonic ``duration`` (interval math must not be
    skewed by clock steps), the worker ``pid``, and the allocator's
    per-stage times for aggregation.

    Exceptions are caught and classified here -- never raised across the
    pool boundary (see module docstring).  The fault-injection hook runs
    first so an injected ``kill``/``hang`` behaves like the real worker
    loss it simulates.
    """
    from repro.batch.faultinject import active_plan
    from repro.errors import classify_exception

    index, name, fingerprint, text, args, arrays, attempt = task
    start = time.time()  # wall: trace timestamp only
    start_mono = time.monotonic()
    stage_times: Dict[str, float] = {}
    tile_cache: Optional[Dict[str, int]] = None
    try:
        active_plan().maybe_fail_task(index, attempt, in_worker=True)
        fn = parse_function(text)
        record, stage_times, tile_cache = compute_record(
            name,
            fn,
            _WORKER_STATE["config"],
            _WORKER_STATE["machine"],
            args=args,
            arrays=arrays,
            simulate=_WORKER_STATE["simulate"],
            fingerprint=fingerprint,
            tile_store=_WORKER_STATE.get("tile_store"),
            budget_limits=_WORKER_STATE.get("budget_limits"),
        )
        payload: Dict[str, object] = {
            "ok": True,
            "record": record_to_dict(record),
        }
    except Exception as exc:
        error_class, permanence = classify_exception(exc)
        payload = {
            "ok": False,
            "error_class": error_class,
            "permanence": permanence,
            "message": str(exc),
        }
        # Budget failures carry their accounting across the process
        # boundary as plain data (exceptions are never pickled back).
        from repro.core.budget import BudgetExceededError

        if isinstance(exc, BudgetExceededError):
            payload["budget"] = {
                "resource": exc.resource,
                "spent": exc.spent,
                "limit": exc.limit,
            }
    timing = {
        "start": start,
        "duration": time.monotonic() - start_mono,
        "pid": os.getpid(),
        "stage_times": stage_times,
    }
    if tile_cache is not None:
        timing["tile_cache"] = tile_cache
    return index, payload, timing
