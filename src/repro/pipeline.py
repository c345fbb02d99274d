"""End-to-end compilation pipeline.

``compile_function`` renames a program into webs, runs an allocator,
verifies the result differentially against the original on supplied inputs,
and gathers both static and dynamic statistics -- everything the benchmark
harness consumes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.allocators.base import AllocationOutcome, Allocator
from repro.analysis.renaming import rename_webs
from repro.ir.function import Function
from repro.ir.parser import parse_function
from repro.ir.validate import validate_function
from repro.machine.rewrite import remove_self_moves
from repro.machine.simulator import ExecutionResult, SimulationError, simulate
from repro.machine.target import Machine
from repro.trace.events import StageTiming
from repro.trace.tracer import NULL_TRACER, NullTracer


@contextmanager
def _stage(tracer: NullTracer, name: str):
    """Emit one pipeline-level :class:`StageTiming`; free when disabled."""
    if not tracer.enabled:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        tracer.emit(StageTiming(
            name=name, category="pipeline", start=start,
            duration=time.perf_counter() - start,
            thread=threading.current_thread().name,
        ))


@dataclass
class Workload:
    """A function together with concrete inputs that exercise it."""

    fn: Function
    args: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, Sequence[Any]] = field(default_factory=dict)
    name: Optional[str] = None

    def label(self) -> str:
        return self.name or self.fn.name


@dataclass
class CompileResult:
    """Outcome of compiling and measuring one workload with one allocator."""

    outcome: AllocationOutcome
    reference_run: ExecutionResult
    allocated_run: ExecutionResult

    @property
    def fn(self) -> Function:
        return self.outcome.fn

    @property
    def stats(self):
        return self.outcome.stats

    @property
    def spill_refs(self) -> int:
        """Dynamic spill memory references (the paper's objective)."""
        return self.allocated_run.spill_memory_refs

    @property
    def moves(self) -> int:
        return self.allocated_run.register_moves

    @property
    def overhead_summary(self) -> Dict[str, int]:
        return {
            "spill_loads": self.allocated_run.spill_loads,
            "spill_stores": self.allocated_run.spill_stores,
            "moves": self.allocated_run.register_moves,
            "program_refs": self.allocated_run.program_memory_refs,
        }


def load_function_source(text: str, lang: str = "auto") -> Function:
    """Parse one function (textual IR or MiniLang) and validate it.

    With ``lang="auto"`` the first non-blank line decides: textual IR
    headers carry ``start=<label>``, MiniLang never does.  Raises whatever
    the parser, compiler or validator raises -- callers classify via
    :func:`repro.errors.classify_exception`.
    """
    if lang not in ("auto", "ir", "minilang"):
        raise ValueError(f"unknown lang {lang!r}")
    if lang == "auto":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        lang = "ir" if "start=" in first else "minilang"
    if lang == "minilang":
        from repro.minilang import compile_source

        fn = compile_source(text)
    else:
        fn = parse_function(text)
    validate_function(fn)
    return fn


def prepare(fn: Function, rename: bool = True, optimize: bool = False) -> Function:
    """Validate, optionally optimize, and (by default) rename into webs."""
    validate_function(fn)
    if optimize:
        from repro.opt import optimize as run_passes

        fn = run_passes(fn)
        validate_function(fn)
    if not rename:
        return fn
    renamed, _ = rename_webs(fn)
    validate_function(renamed)
    return renamed


def compile_function(
    workload: Workload,
    allocator: Allocator,
    machine: Machine,
    rename: bool = True,
    verify: bool = True,
    optimize: bool = False,
    max_steps: int = 2_000_000,
    tracer: Optional[NullTracer] = None,
) -> CompileResult:
    """Allocate registers for a workload and verify + measure the result.

    The original program and the allocated program run on identical inputs;
    mismatching observable results raise
    :class:`~repro.machine.simulator.SimulationError`.  With *optimize* the
    standard scalar/CFG cleanups run before allocation (the differential
    check still compares against the unoptimized original).

    *tracer* (see :mod:`repro.trace`) records pipeline stage timings here
    and, when the allocator carries no tracer of its own, is handed to it
    so per-tile allocation events land in the same stream.
    """
    trace = tracer if tracer is not None else NULL_TRACER
    if (
        trace.enabled
        and getattr(allocator, "tracer", None) is not None
        and not allocator.tracer.enabled
    ):
        allocator.tracer = trace
    with _stage(trace, "pipeline:prepare"):
        fn = prepare(workload.fn, rename=rename, optimize=optimize)
    with _stage(trace, "pipeline:reference_run"):
        reference = simulate(
            workload.fn,
            args=workload.args,
            arrays=workload.arrays,
            max_steps=max_steps,
        )

    with _stage(trace, "pipeline:allocate"):
        outcome = allocator.allocate(fn, machine)
        remove_self_moves(outcome.fn)
        validate_function(outcome.fn, allow_unreachable=True)

    allocated_args = _map_args(outcome.fn, fn, workload.args)
    with _stage(trace, "pipeline:allocated_run"):
        allocated = simulate(
            outcome.fn,
            args=allocated_args,
            arrays=workload.arrays,
            max_steps=max_steps,
        )
    if verify:
        if reference.returned != allocated.returned:
            raise SimulationError(
                f"{allocator.name}: return mismatch "
                f"{reference.returned} vs {allocated.returned}"
            )
        if _canonical_arrays(reference.arrays) != _canonical_arrays(allocated.arrays):
            raise SimulationError(
                f"{allocator.name}: memory state mismatch"
            )
    return CompileResult(outcome, reference, allocated)


def _map_args(
    allocated_fn: Function, source_fn: Function, args: Mapping[str, Any]
) -> Dict[str, Any]:
    """Map user argument names onto the allocated function's parameters.

    Parameter order is preserved through renaming and allocation, so the
    i-th parameter of the allocated function receives the value of the
    i-th source parameter.
    """
    out: Dict[str, Any] = {}
    for target, source in zip(allocated_fn.params, source_fn.params):
        base = source.split("%")[0]
        if source in args:
            out[target] = args[source]
        elif base in args:
            out[target] = args[base]
        else:
            raise SimulationError(f"missing argument for parameter {base!r}")
    return out


def _canonical_arrays(arrays):
    return {
        name: {i: v for i, v in contents.items() if v != 0}
        for name, contents in arrays.items()
    }


def allocate_module(
    workloads: Sequence[Workload],
    config=None,
    machine: Optional[Machine] = None,
    batch=None,
    tracer: Optional[NullTracer] = None,
):
    """Allocate a whole module (many functions) through the batch engine.

    The multi-function counterpart of :func:`compile_function`: functions
    are fingerprinted and served from the content-addressed allocation
    cache when possible; misses fan out over a persistent process pool
    (``batch.batch_workers``) and merge back in submission order, so the
    returned :class:`~repro.batch.engine.ModuleAllocation` is a
    deterministic function of the input module.  See :mod:`repro.batch`
    for the engine, cache and serialization layers, and
    :class:`~repro.core.config.BatchConfig` for the knobs.

    For repeated batches against one cache/pool, hold a
    :class:`~repro.batch.engine.BatchEngine` open instead of calling this
    in a loop (each call here builds and tears down its own engine).
    """
    from repro.batch.engine import BatchEngine

    with BatchEngine(
        config=config, machine=machine, batch=batch, tracer=tracer
    ) as engine:
        return engine.allocate_module(workloads)


def compare_allocators(
    workload: Workload,
    allocators: Sequence[Allocator],
    machine: Machine,
    **kwargs,
) -> Dict[str, CompileResult]:
    """Compile one workload with several allocators (bench helper)."""
    return {
        allocator.name: compile_function(workload, allocator, machine, **kwargs)
        for allocator in allocators
    }
