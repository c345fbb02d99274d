"""Deterministic resource governance for a single allocation.

A pathological input -- a deep loop nest, an irreducible mesh, a
huge-degree interference graph, a function that churns spills round
after round -- can burn a worker until an *external* timeout kills it,
discarding all completed work and starving honest traffic queued behind
it.  This module gives the allocator *internal* defenses:

* :class:`AllocationBudget` -- a "fuel" pool the pipeline's loop headers
  charge deterministically (instructions lowered, graph nodes and edges
  built, simplify/spill rounds, tile-tree depth).  Fuel spend is a pure
  function of the input program and the configuration, so exhaustion is
  reproducible: the same function with the same budget exhausts on the
  same charge, every process, every hash seed.  Exhaustion raises
  :class:`BudgetExceededError` with ``resource="fuel"`` -- classified
  PERMANENT, so the batch engine's degradation ladder handles it like
  any other structural failure (retrying would burn the same fuel).
* A **wall-clock deadline** as a transient backstop for whatever the
  fuel accounting missed.  The clock is the only nondeterministic part,
  so a deadline miss raises with ``resource="deadline"`` -- classified
  TRANSIENT, feeding the bounded-retry path instead of the ladder.
* :func:`estimate_cost` -- a cheap, deterministic, monotone admission
  estimate over parsed-function stats (blocks, instructions, live
  variables) so oversized work can be routed to a fallback allocator or
  rejected *before* any fuel is burned on it.

The unbudgeted path stays free: every checkpoint site is guarded by
``if budget is not None``, a single identity test.

Budget limits never change what a *completed* allocation decides --
they only abort -- so a budgeted run that finishes is bit-identical to
an unbudgeted one (``repro.determinism check --budget`` proves it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "AllocationBudget",
    "BudgetExceededError",
    "BudgetLimits",
    "estimate_cost",
]


class BudgetExceededError(Exception):
    """An allocation ran out of fuel or past its deadline.

    ``resource`` is ``"fuel"`` (deterministic counters exhausted;
    PERMANENT -- see :func:`repro.errors.classify_exception`) or
    ``"deadline"`` (wall clock; TRANSIENT).  ``counters`` is the
    per-category spend at the moment of the raise.
    """

    def __init__(
        self,
        resource: str,
        spent: float,
        limit: float,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.resource = resource
        self.spent = spent
        self.limit = limit
        self.counters = dict(counters or {})
        unit = "fuel units" if resource == "fuel" else "s"
        super().__init__(
            f"allocation {resource} budget exceeded: "
            f"spent {spent:g}{'' if resource == 'fuel' else unit} "
            f"of {limit:g} {unit}"
            + (f" (counters: {self.counters})" if self.counters else "")
        )


@dataclass(frozen=True)
class BudgetLimits:
    """The immutable spec a fresh :class:`AllocationBudget` is minted
    from -- one budget per allocation, so fuel counters never leak
    between functions.

    ``max_fuel`` is the deterministic fuel pool (``None`` = unlimited);
    ``deadline_s`` the wall-clock backstop in seconds (``None`` = no
    deadline).
    """

    max_fuel: Optional[int] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_fuel is not None and self.max_fuel < 1:
            raise ValueError(f"max_fuel must be >= 1, got {self.max_fuel}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )

    @property
    def unlimited(self) -> bool:
        return self.max_fuel is None and self.deadline_s is None

    def start(self) -> Optional["AllocationBudget"]:
        """A fresh budget for one allocation, or ``None`` when both
        limits are off (so the pipeline's ``budget is None`` fast path
        stays taken)."""
        if self.unlimited:
            return None
        return AllocationBudget(
            max_fuel=self.max_fuel, deadline_s=self.deadline_s
        )


#: The deadline clock is consulted only every this-many charges: a
#: ``time.monotonic()`` call per charge would dominate the checkpoints
#: it is supposed to keep cheap.
_DEADLINE_STRIDE = 256


class AllocationBudget:
    """Mutable fuel/deadline state for exactly one allocation.

    ``charge(units, counter)`` is the cooperative checkpoint the
    pipeline's loop headers call; it accumulates per-category counters
    (observability) against one shared fuel pool (enforcement) and
    consults the deadline clock on a stride.  Charges are emitted at
    deterministic points with deterministic unit counts, so the fuel
    spend -- and therefore *which charge* exhausts a too-small budget --
    is a pure function of (input, config, budget).
    """

    __slots__ = (
        "max_fuel", "deadline_s", "spent", "counters",
        "_deadline_mono", "_ticks",
    )

    def __init__(
        self,
        max_fuel: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.max_fuel = max_fuel
        self.deadline_s = deadline_s
        self.spent = 0
        self.counters: Dict[str, int] = {}
        self._deadline_mono = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._ticks = 0

    def charge(self, units: int, counter: str) -> None:
        """Spend *units* of fuel against *counter*; raise on exhaustion.

        Deterministic: rejects exactly when cumulative spend passes
        ``max_fuel``, independent of wall time.  The deadline is checked
        every :data:`_DEADLINE_STRIDE` charges as a transient backstop.
        """
        self.counters[counter] = self.counters.get(counter, 0) + units
        self.spent += units
        if self.max_fuel is not None and self.spent > self.max_fuel:
            raise BudgetExceededError(
                "fuel", self.spent, self.max_fuel, self.counters
            )
        self._ticks += 1
        if self._deadline_mono is not None and (
            self._ticks % _DEADLINE_STRIDE == 0
        ):
            self.check_deadline()

    def check_deadline(self) -> None:
        """Unconditional deadline probe (for long stretches between
        fuel charges, e.g. around a fallback simulation)."""
        if self._deadline_mono is not None:
            now = time.monotonic()
            if now > self._deadline_mono:
                raise BudgetExceededError(
                    "deadline",
                    round(now - (self._deadline_mono - self.deadline_s), 3),
                    self.deadline_s,
                    self.counters,
                )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready spend report for ``--stats`` and trace events."""
        return {
            "spent": self.spent,
            "max_fuel": self.max_fuel,
            "deadline_s": self.deadline_s,
            "counters": dict(sorted(self.counters.items())),
        }


def estimate_cost(fn) -> int:
    """Deterministic admission estimate for allocating *fn*.

    ``blocks + instructions * (1 + variables)`` over the parsed
    function: a crude stand-in for the liveness/interference work the
    pipeline will actually do (every instruction is visited against the
    live-variable universe), chosen for its properties rather than its
    accuracy -- it is a pure function of the program text, monotone in
    block and instruction count (adding either never lowers it), and
    costs one linear walk.  Admission control compares it against
    ``BatchConfig.admission_limit`` *before* lowering anything.
    """
    n_blocks = 0
    n_instrs = 0
    variables = set()
    for block in fn:
        n_blocks += 1
        n_instrs += len(block.instrs)
        variables |= block.variables()
    return n_blocks + n_instrs * (1 + len(variables))
