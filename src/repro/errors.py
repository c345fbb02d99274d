"""Structured error taxonomy for the allocation service layers.

Every exception the pipeline can raise is classified along two axes:

* an **error class** -- a short stable string naming *what* failed
  (``"parse"``, ``"no_color"``, ``"timeout"``, ...) that survives process
  boundaries (pool workers return a :class:`TaskError`, plain data, never
  a pickled exception object, so classification must happen where the
  exception type is still known);
* a **permanence** -- :data:`PERMANENT` failures are deterministic
  functions of the input (re-running the identical task re-fails:
  malformed IR, an uncolorable required node, a differential-verification
  mismatch), while :data:`TRANSIENT` failures are environmental (a
  crashed or hung worker process, memory pressure) and are worth bounded
  retries.

The batch engine's fault handling is driven entirely by this module:
transient failures are retried with deterministic backoff, permanent
failures go straight to the degradation ladder (see
:mod:`repro.batch.engine`).  Unknown exception types are classified
``("internal", PERMANENT)`` -- the allocator is deterministic, so an
unexpected ``TypeError`` will recur on retry and retrying it only burns
the retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Re-running the identical task will fail the same way.
PERMANENT = "permanent"
#: Environmental; a retry (possibly on a fresh worker) may succeed.
TRANSIENT = "transient"


@dataclass(frozen=True)
class TaskError:
    """One function's final failure, as structured data.

    ``error_class`` is the taxonomy name from :func:`classify_exception`,
    ``permanence`` is :data:`PERMANENT` or :data:`TRANSIENT` (the
    classification of the *last* failure -- a transient error only becomes
    final once retries are exhausted), and ``attempts`` counts how many
    times the task was tried before giving up.
    """

    error_class: str
    message: str
    permanence: str
    attempts: int = 1

    @property
    def permanent(self) -> bool:
        return self.permanence == PERMANENT

    @property
    def transient(self) -> bool:
        return self.permanence == TRANSIENT

    def describe(self) -> str:
        return f"{self.error_class}: {self.message}"


class BatchFunctionError(RuntimeError):
    """Strict-mode (``on_error="fail"``) wrapper for one function's
    failure: carries the function name and the structured
    :class:`TaskError` so callers need not parse the message."""

    def __init__(self, function: str, error: TaskError) -> None:
        super().__init__(
            f"batch allocation failed for {function!r} after "
            f"{error.attempts} attempt(s): {error.describe()}"
        )
        self.function = function
        self.error = error


def classify_exception(exc: BaseException) -> Tuple[str, str]:
    """``(error_class, permanence)`` for any exception the pipeline raises.

    Imports are local so this module stays importable from anywhere
    (workers classify before serializing a failure payload, the engine
    classifies pool-level exceptions like ``BrokenProcessPool``).
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout

    from repro.batch.faultinject import InjectedFault
    from repro.batch.serialize import UncacheableConfigError
    from repro.core.budget import BudgetExceededError
    from repro.graph.coloring import ColoringInvariantError, NoColorForRequiredNode
    from repro.ir.parser import IRParseError
    from repro.ir.validate import IRValidationError
    from repro.machine.rewrite import AllocationCheckError
    from repro.machine.simulator import SimulationError
    from repro.minilang import MiniLangError

    if isinstance(exc, InjectedFault):
        return "injected", exc.permanence
    if isinstance(exc, BudgetExceededError):
        # Fuel spend is a pure function of (input, config, budget), so
        # exhaustion recurs on every retry -- route it to the ladder.
        # The wall-clock deadline is the one nondeterministic limit: a
        # retry on an unloaded worker may well fit, so it is transient.
        if exc.resource == "fuel":
            return "budget", PERMANENT
        return "deadline", TRANSIENT
    if isinstance(exc, (IRParseError, MiniLangError)):
        return "parse", PERMANENT
    if isinstance(exc, IRValidationError):
        return "validate", PERMANENT
    if isinstance(exc, NoColorForRequiredNode):
        return "no_color", PERMANENT
    if isinstance(exc, ColoringInvariantError):
        # Engine-internal cache corruption, not a property of the input
        # function -- but re-running the same task would recompute the
        # same broken caches, so it is permanent for retry purposes.
        return "coloring_invariant", PERMANENT
    if isinstance(exc, AllocationCheckError):
        return "allocation_check", PERMANENT
    if isinstance(exc, SimulationError):
        return "simulation", PERMANENT
    if isinstance(exc, UncacheableConfigError):
        return "uncacheable_config", PERMANENT
    if isinstance(exc, (FuturesTimeout, TimeoutError)):
        return "timeout", TRANSIENT
    if isinstance(exc, BrokenExecutor):
        return "pool", TRANSIENT
    if isinstance(exc, RecursionError):
        # Structural: the input's nesting blew the interpreter stack.
        # The identical task recurses identically on any worker, so a
        # retry just burns budget -- degrade instead.  (RecursionError
        # subclasses RuntimeError, not OSError, so order here is free.)
        return "recursion", PERMANENT
    if isinstance(exc, MemoryError):
        # The allocator's footprint is a deterministic function of the
        # input; a task that exhausts memory exhausts it again on retry
        # (workers are long-lived, so "some other task bloated the
        # process" self-heals via the pool restart path, not retries).
        return "oom", PERMANENT
    if isinstance(exc, OSError):
        return "os", TRANSIENT
    return "internal", PERMANENT


def task_error_from_exception(
    exc: BaseException, attempts: int = 1,
    message: Optional[str] = None,
) -> TaskError:
    """Condense an exception into a :class:`TaskError`."""
    error_class, permanence = classify_exception(exc)
    return TaskError(
        error_class=error_class,
        message=message if message is not None else str(exc),
        permanence=permanence,
        attempts=attempts,
    )
