"""Structured allocation-trace events.

Every observable decision the hierarchical allocator makes is describable
by one of the frozen dataclasses below.  Events are plain data: no methods
beyond what dataclasses provide, every field JSON-serializable through
:func:`dataclasses.asdict`, so any sink (in-memory list, JSONL file,
Chrome trace viewer) can consume the same stream.

Determinism contract: with the exception of :class:`StageTiming` (wall
times and thread names are inherently run-specific), every event is a pure
function of the input program and configuration -- the allocation pipeline
is bit-deterministic (see ``repro.determinism``), so the filtered event
stream is too.  Golden-trace tests rely on this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

#: Reasons a :class:`SpillDecision` can carry, in the order the pipeline
#: can produce them for one variable.
SPILL_REASONS = (
    "not_worth_a_register",  # section-4 rule: transfer + weight < 0
    "no_color",              # optimistic coloring found no color
    "pressure_victim",       # evicted so an operand temporary could color
    "demotion",              # phase-2 rule: parent in memory, weight <= transfer
)

#: The paper's four boundary cases (section 3, "Inserting Spill Code").
BOUNDARY_ACTIONS = ("spill", "transfer", "reload", "no_change")


@dataclass(frozen=True)
class CandidateMetrics:
    """The five section-4 quantities for one allocation candidate."""

    local_weight: float
    transfer: float
    weight: float
    reg: float
    mem: float


@dataclass(frozen=True)
class TileColored:
    """One tile finished coloring (phase 1) or binding (phase 2).

    ``candidates`` carries the section-4 metrics for every variable that
    was visible in the tile, keyed by name; ``assignment`` maps colored
    nodes to their pseudo (phase 1) or physical (phase 2) register.
    """

    tile_id: int
    phase: str  # "phase1" | "phase2"
    kind: str   # tile provenance: "root" / "body" / "loop" / "cond"
    blocks: Tuple[str, ...]
    rounds: int
    assignment: Mapping[str, str]
    spilled: Tuple[str, ...]
    used_colors: Tuple[str, ...]
    candidates: Mapping[str, CandidateMetrics]


@dataclass(frozen=True)
class SpillDecision:
    """A variable was sent to memory, and why.

    ``weight`` / ``transfer`` are the section-4 values that justified the
    decision (``Weight_t(v)`` and ``Transfer_t(v)``); for coloring spills
    ``weight`` is the priority the spill heuristic ranked the node by.
    """

    tile_id: int
    phase: str
    var: str
    reason: str  # one of SPILL_REASONS
    weight: float
    transfer: float


@dataclass(frozen=True)
class BoundaryAction:
    """Treatment of one live variable on one tile-boundary edge.

    ``action`` names the paper case derived from the two locations:
    parent-register/child-memory is a Spill, two distinct registers a
    Transfer, parent-memory/child-register a Reload, identical locations
    No Change.  ``store_avoided`` marks the Reload exit half whose store
    was skipped because nothing in the subtile defines the variable ("the
    spill is unnecessary because v was never modified in the loop").
    """

    edge: Tuple[str, str]
    parent_tile: int
    child_tile: int
    entering: bool  # True: edge enters the child tile; False: exits it
    var: str
    action: str  # one of BOUNDARY_ACTIONS
    parent_loc: str  # physical register or the MEM sentinel
    child_loc: str
    store_avoided: bool = False


@dataclass(frozen=True)
class PreferenceApplied:
    """The coloring engine honored a preference.

    ``kind`` is ``"local"`` when the node took its local preference color
    (parent binding, linkage register) and ``"partner"`` when it inherited
    an already-colored preference partner's color (copy elimination).
    """

    tile_id: int
    phase: str
    var: str
    color: str
    kind: str  # "local" | "partner"


@dataclass(frozen=True)
class PseudoBound:
    """Phase 2 bound one of a tile's pseudo registers to its final home.

    ``pseudo`` is the phase-1 color, ``summary`` the tile summary variable
    that represented it in the parent, ``binding`` the physical register
    the parent gave that summary variable (or the MEM sentinel).
    """

    tile_id: int
    pseudo: str
    summary: str
    binding: str


@dataclass(frozen=True)
class CacheHit:
    """The batch engine served one function from the allocation cache.

    ``source`` says which layer answered: ``"memory"`` for the in-process
    LRU, ``"disk"`` for the persistent content-addressed store.
    ``fingerprint`` is the canonical-program sha256 of the *input*
    function (the content address; see :mod:`repro.batch.serialize`).
    """

    function: str
    fingerprint: str
    source: str  # "memory" | "disk"


@dataclass(frozen=True)
class CacheMiss:
    """No cached allocation existed for one function; it will be computed."""

    function: str
    fingerprint: str


@dataclass(frozen=True)
class TileCacheHit:
    """One tile was served from the per-tile memoization store
    (:mod:`repro.core.incremental`) instead of being recomputed.

    ``phase`` says which layer answered: ``"phase1"`` for a reused
    bottom-up summary, ``"phase2"`` for a reused top-down binding
    overlay.  ``fingerprint`` is the tile's content address.  On a
    phase-2 hit this event *replaces* the tile's ``TileColored`` event
    (the binding was not recomputed, so there is nothing to trace).
    """

    tile_id: int
    phase: str
    fingerprint: str


@dataclass(frozen=True)
class BatchTask:
    """One function's trip through the batch engine.

    ``worker`` names where the allocation ran: ``"worker-<i>"`` for a
    pool process, ``"inline"`` for the coordinator process, ``"cache"``
    when a cache hit made computation unnecessary.  ``start`` is seconds
    since the batch run began (wall clock, comparable across worker
    processes); the Chrome sink lays these out as one row per worker.
    """

    function: str
    fingerprint: str
    worker: str
    start: float
    duration: float
    cached: bool


@dataclass(frozen=True)
class TaskFailed:
    """One attempt at one batch task failed.

    Emitted once per *failed attempt* (so a task that fails twice and
    then succeeds produces two of these).  ``error_class`` /
    ``permanence`` come from :func:`repro.errors.classify_exception`;
    ``attempt`` is 0-based.
    """

    function: str
    fingerprint: str
    error_class: str
    permanence: str  # "permanent" | "transient"
    attempt: int
    message: str


@dataclass(frozen=True)
class TaskRetried:
    """The engine re-queued a transiently-failed batch task.

    ``attempt`` is the 0-based number of the *upcoming* attempt;
    ``backoff_s`` the deterministic delay applied before it.
    """

    function: str
    fingerprint: str
    attempt: int
    backoff_s: float


@dataclass(frozen=True)
class PoolRestarted:
    """The worker pool broke (crashed worker, hung task) and was rebuilt.

    ``restarts`` is the engine's cumulative restart count after this one;
    ``resubmitted`` how many in-flight tasks were re-queued onto the
    fresh pool.
    """

    restarts: int
    resubmitted: int


@dataclass(frozen=True)
class Admitted:
    """Admission control let one function through to the allocator.

    Emitted only when an admission limit is configured
    (``BatchConfig.admission_limit``).  ``cost`` is
    :func:`repro.core.budget.estimate_cost` of the input function --
    deterministic, so the admit/reject stream is too.
    """

    function: str
    fingerprint: str
    cost: int
    limit: int


@dataclass(frozen=True)
class Rejected:
    """Admission control refused one function.

    Its estimated cost exceeded ``BatchConfig.admission_limit``; the
    function never reaches the hierarchical allocator and fails with
    permanent error class ``"admission"`` (routing to the degradation
    ladder, or skipping/failing, per ``on_error``).
    """

    function: str
    fingerprint: str
    cost: int
    limit: int


@dataclass(frozen=True)
class BudgetExceeded:
    """A budgeted allocation ran out of fuel or past its deadline.

    ``resource`` is ``"fuel"`` (deterministic, permanent) or
    ``"deadline"`` (wall clock, transient); ``spent`` / ``limit`` are in
    fuel units or seconds accordingly.  Fuel events are covered by the
    determinism contract; deadline events are not.
    """

    function: str
    fingerprint: str
    resource: str  # "fuel" | "deadline"
    spent: float
    limit: float


@dataclass(frozen=True)
class Degraded:
    """A function landed on the degradation ladder.

    After its primary (hierarchical) allocation failed permanently or
    exhausted its retries, ``fallback_allocator`` (``"chaitin"`` or the
    spill-everywhere ``"naive"``) produced the result instead.
    ``error_class`` names the primary failure that forced the fallback.
    """

    function: str
    fingerprint: str
    fallback_allocator: str
    error_class: str


@dataclass(frozen=True)
class ServiceRequest:
    """One HTTP request handled by the allocation service.

    Request-scoped accounting for :mod:`repro.service`: ``endpoint`` is
    the route (``"allocate"`` / ``"metrics"`` / ``"healthz"``),
    ``status`` the HTTP status returned, ``functions`` how many
    functions the request carried (0 for non-allocate endpoints), and
    ``coalesced`` how many of those were attached to an allocation
    already in flight for another request instead of being enqueued.

    Like :class:`StageTiming`, this event is *not* covered by the
    determinism contract: ``duration_ms`` is wall clock, and status
    codes depend on run-specific load (a 429 exists only under
    backpressure).
    """

    endpoint: str
    method: str
    status: int
    functions: int
    coalesced: int
    duration_ms: float


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock interval of one pipeline stage or per-tile task.

    ``start`` is a ``time.perf_counter`` value -- meaningful only relative
    to other events of the same process.  ``category`` is ``"pipeline"``
    for whole-allocation stages and ``"tile"`` for the per-tile work of
    the phase drivers; ``thread`` names the emitting thread, which is
    what the Chrome trace sink lays out as rows.
    """

    name: str
    category: str  # "pipeline" | "tile"
    start: float
    duration: float
    thread: str = ""
    tile_id: Optional[int] = None

    @classmethod
    def for_tile(cls, phase: str, tile_id: int, start: float) -> "StageTiming":
        """The ``"tile"`` interval of one tile's *phase* work, from
        *start* (a ``time.perf_counter`` value) until now."""
        return cls(
            name=f"{phase}:tile{tile_id}",
            category="tile",
            start=start,
            duration=time.perf_counter() - start,
            thread=threading.current_thread().name,
            tile_id=tile_id,
        )
