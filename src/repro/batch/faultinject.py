"""Deterministic fault injection for the batch engine.

The resilience machinery (retries, pool restarts, the degradation ladder,
cache quarantine) is only trustworthy if it can be *driven* on demand, so
faults are injected from a declarative plan instead of monkeypatching:
the ``REPRO_FAULT_PLAN`` environment variable holds either inline JSON or
``@/path/to/plan.json``.  Environment-variable transport is the point --
pool workers are separate processes (fork *or* spawn) and inherit the
coordinator's environment, so one plan governs every process of a batch
run without any extra plumbing.

A plan is a JSON list of fault specs.  Task faults name the *task index*
(position in the engine's deduplicated miss list, i.e. submission order)
and the *attempt* (0-based, incremented by the engine on each retry), so
a fault fires at exactly one deterministic point of the run:

``{"task": 3, "attempt": 0, "action": "raise", "kind": "transient"}``
    raise :class:`InjectedFault` (``kind`` is ``"transient"`` --
    the default -- or ``"permanent"``);
``{"task": 3, "attempt": 0, "action": "hang", "hang_s": 600}``
    sleep inside the worker (trips the engine's per-task timeout);
``{"task": 3, "attempt": 0, "action": "kill"}``
    ``os._exit`` the worker process (trips ``BrokenProcessPool`` and the
    engine's pool-restart path).

Disk faults target the cache layer by write ordinal (0-based, counted
per process):

``{"disk_write": 2, "action": "corrupt"}``
    scribble over the record after the atomic rename, simulating on-disk
    corruption (the cache must quarantine it, not crash).

``kill`` and ``hang`` only make sense inside a pool worker; on the
inline (``batch_workers == 0``) path both downgrade to a *transient*
:class:`InjectedFault` so retry handling is still exercised without
killing or blocking the coordinator.

Everything here is a pure function of the plan text and the
deterministic (task, attempt) / write-ordinal coordinates, so an
injected-fault run retries into a state bit-identical to a fault-free
run -- which the CI determinism gate asserts with an injected worker
crash.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.errors import PERMANENT, TRANSIENT

#: Environment variable holding the plan (inline JSON or ``@path``).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Default sleep for ``hang`` faults without an explicit ``hang_s``.
DEFAULT_HANG_S = 600.0

#: Exit status for ``kill`` faults (mirrors SIGABRT's conventional 134).
KILL_EXIT_STATUS = 134


class InjectedFault(RuntimeError):
    """A failure raised on purpose by the fault plan."""

    def __init__(self, message: str, permanence: str = TRANSIENT) -> None:
        super().__init__(message)
        self.permanence = permanence


class FaultPlan:
    """A parsed fault plan; empty plans are valid and do nothing."""

    def __init__(self, specs: Optional[List[Dict[str, object]]] = None) -> None:
        self.specs = list(specs or [])
        self._disk_writes = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    # task faults
    # ------------------------------------------------------------------
    def task_fault(
        self, task_index: int, attempt: int
    ) -> Optional[Dict[str, object]]:
        """The spec targeting (*task_index*, *attempt*), or ``None``."""
        for spec in self.specs:
            if (
                spec.get("task") == task_index
                and int(spec.get("attempt", 0)) == attempt
            ):
                return spec
        return None

    def maybe_fail_task(
        self, task_index: int, attempt: int, in_worker: bool
    ) -> None:
        """Fire the fault targeting this (task, attempt), if any.

        *in_worker* distinguishes pool workers (where ``kill`` and
        ``hang`` act literally) from the inline path (where both
        downgrade to a transient :class:`InjectedFault`).
        """
        spec = self.task_fault(task_index, attempt)
        if spec is None:
            return
        action = spec.get("action", "raise")
        where = f"task {task_index} attempt {attempt}"
        if action == "raise":
            kind = spec.get("kind", TRANSIENT)
            permanence = PERMANENT if kind == PERMANENT else TRANSIENT
            raise InjectedFault(
                f"injected {permanence} failure at {where}", permanence
            )
        if action == "hang":
            if in_worker:
                time.sleep(float(spec.get("hang_s", DEFAULT_HANG_S)))
                return
            raise InjectedFault(
                f"injected hang (inline downgrade) at {where}", TRANSIENT
            )
        if action == "kill":
            if in_worker:
                os._exit(KILL_EXIT_STATUS)
            raise InjectedFault(
                f"injected kill (inline downgrade) at {where}", TRANSIENT
            )
        raise ValueError(f"unknown fault action {action!r} in {spec}")

    # ------------------------------------------------------------------
    # disk faults
    # ------------------------------------------------------------------
    def maybe_corrupt_disk_write(self, path: str) -> None:
        """Corrupt *path* if the plan targets this write ordinal.

        Called by the cache after each completed (atomic) disk write;
        the ordinal counts writes observed by *this* plan instance.
        """
        ordinal = self._disk_writes
        self._disk_writes += 1
        for spec in self.specs:
            if (
                spec.get("action") == "corrupt"
                and spec.get("disk_write") == ordinal
            ):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write('{"version": "corrupted-by-fault-plan"')
                return


_EMPTY_PLAN = FaultPlan()
_cached_text: Optional[str] = None
_cached_plan: FaultPlan = _EMPTY_PLAN


def active_plan() -> FaultPlan:
    """The plan named by :data:`ENV_VAR`, or an empty plan.

    Parsed lazily and cached per distinct environment value, so tests can
    flip the variable between runs and workers pay one parse per plan.
    Disk-write ordinals live on the cached instance, i.e. they count per
    process per plan text -- deterministic for a deterministic run.
    """
    global _cached_text, _cached_plan
    text = os.environ.get(ENV_VAR)
    if text == _cached_text:
        return _cached_plan
    if not text:
        _cached_text, _cached_plan = text, _EMPTY_PLAN
        return _cached_plan
    raw = text
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as fh:
            raw = fh.read()
    specs = json.loads(raw)
    if not isinstance(specs, list):
        raise ValueError(
            f"{ENV_VAR} must be a JSON list of fault specs, got "
            f"{type(specs).__name__}"
        )
    _cached_text, _cached_plan = text, FaultPlan(specs)
    return _cached_plan
