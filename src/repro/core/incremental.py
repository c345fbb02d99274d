"""Per-tile content-addressed memoization (incremental re-allocation).

Full re-allocation of an edited function repeats almost all of the work
the previous run already did: a single-block edit dirties one tile and
its ancestor chain, while every sibling subtree's phase-1 summary and
phase-2 binding are bit-identical to last time.  This module caches both
phases at tile granularity so re-allocation recomputes only the dirty
subtree:

* :func:`tile_fingerprint` -- content address of everything phase 1 of
  one tile can observe: the tile's own blocks (per instruction the uid,
  opcode, defs, uses and clobbers, but no immediate; execution
  frequency; block-level live-out), the
  boundary-edge signature (edge, frequency, full live set), the visible
  variables with their locality bits, the children's fingerprints, and
  the allocator/machine/code-version invalidation key (reused from
  :mod:`repro.batch.serialize`).  Two tiles with equal fingerprints
  produce byte-identical phase-1 allocations -- the determinism gate
  (``repro.determinism``) is what licenses this.
* :class:`TileCacheStore` -- process-local LRU over phase-1 allocations
  (detached :func:`copy_allocation` copies, keyed by fingerprint) and
  phase-2 overlays (keyed by fingerprint plus the parent-interface
  digest).
* :func:`run_phase1_incremental` / :func:`run_phase2_incremental` --
  drop-in replacements for the sequential drivers that walk the tile
  tree, reuse every clean subtree verbatim, and recompute only dirty
  tiles.  Output is bit-identical to the cold drivers (proven by
  ``repro.determinism check --incremental``).

Correctness rests on three invariants:

* **Stable names.**  Tile ids and instruction uids come from
  process-global counters; ``ts:{tid}:{color}`` / ``tmp:{uid}:...``
  names would otherwise depend on process history.  The allocator
  renumbers both on its private copy (:meth:`TileTree.renumber`, and
  :meth:`Function.canonical_copy`'s uids) before any analysis runs,
  making every derived name a pure function of the program text.
* **Copy-on-write graphs.**  :func:`copy_allocation` shares the
  pristine interference graph between the stored copy and the live
  allocation; phase 2 mutates the graph (intruders, operand temps), so a
  dirty tile clones the graph first and the stored copy keeps the
  pristine version.
* **Copied containers.**  Phase 2 extends ``metrics.transfer`` /
  ``metrics.weight`` in place (intruder setdefaults);
  :func:`copy_allocation` gives both the stored copy and every copy it
  hands out their own metric dicts and every other dict, set and list
  field of :class:`~repro.core.summary.TileAllocation`.

Exclusions (documented in DESIGN.md section 10): the rewrite stage
(spill-code insertion) always runs fresh -- it is a cheap linear pass
over the whole function and depends on cross-tile state (fix-up block
labels, reserved-register rotation) that is not worth fingerprinting.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from hashlib import sha256
from typing import Dict, Optional, Set, Tuple

from repro.core.config import HierarchicalConfig
from repro.core.info import FunctionContext
from repro.core.phase1 import allocate_tile
from repro.core.phase2 import bind_tile
from repro.core.summary import MEM, TileAllocation, TileMetrics
from repro.machine.target import Machine
from repro.tiles.tile import Tile
from repro.trace.events import StageTiming, TileCacheHit

#: Bump when the fingerprint recipe below changes: old entries must never
#: answer for inputs hashed under a different recipe.
FINGERPRINT_VERSION = 2


def tile_invalidation_key(config: HierarchicalConfig, machine: Machine) -> str:
    """Invalidation key for tile-granular entries.

    Reuses the batch cache's key (format version, allocator source hash,
    semantic config fields, machine description) so one definition of
    "the allocator changed" guards both cache layers, prefixed with the
    fingerprint recipe version.  Raises
    :class:`repro.batch.serialize.UncacheableConfigError` for configs
    carrying profile frequencies (per-run data cannot key a
    content-addressed store).  Imported lazily: ``repro.batch`` imports
    the pipeline, which imports this package.
    """
    from repro.batch.serialize import invalidation_key

    return f"tilefp{FINGERPRINT_VERSION}:" + invalidation_key(config, machine)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def tile_fingerprint(
    ctx: FunctionContext,
    tile: Tile,
    allocations: Dict[int, TileAllocation],
    child_fps: Dict[int, str],
    invalidation: str,
) -> str:
    """Content address of one tile's phase-1 inputs.

    Children must already be fingerprinted and allocated (postorder
    discipline): the visible set includes the children's globals, and a
    child's fingerprint stands in for its entire subtree.

    The recipe covers every input :func:`repro.core.phase1.allocate_tile`
    reads, directly or through the context helpers:

    * the tile id (embedded in summary-variable and pseudo-color names)
      and kind;
    * the function's parameter list (phase-2 renaming, liveness at entry);
    * per own block, in sorted label order: the block digest
      (:meth:`~repro.perf.arena.FunctionArena.block_digest`: label,
      successors, and per instruction the uid, opcode, defs, uses and
      clobbers), the execution frequency, and the block-level live-out
      set (instruction-level liveness inside the block derives from it
      -- a distant edit that changes what is live out of an own block
      must dirty the tile);
    * per boundary edge, in boundary-edge order: endpoints, edge
      frequency, and the full live-on-edge set (boundary cliques,
      intruder candidates and their transfer costs all derive from it);
    * per visible variable, in sorted order: the refs-only-inside and
      live-on-boundary bits (locality classification reads *function
      wide* reference sets, which the block digests cannot see);
    * the children's fingerprints, in child order;
    * the invalidation key (allocator source, config, machine).

    Immediates are not hashed: nothing before the spill rewrite reads
    one, and the rewrite always runs fresh on the current function, so
    an edit that changes only a constant (or an array or callee name)
    replays every tile and the output still prints the new value.

    Frequencies are hashed as ``float.hex()`` -- exact, no formatting
    loss; ULP-level frequency changes legitimately dirty a tile because
    spill tie-breaks can hinge on them.
    """
    h = sha256()
    upd = h.update
    upd(f"tilefp:v{FINGERPRINT_VERSION}\n".encode())
    upd(invalidation.encode())
    upd(f"\ntile {tile.tid} {tile.kind}\n".encode())
    upd(("params " + ",".join(ctx.fn.params) + "\n").encode())

    own = sorted(tile.own_blocks())
    live_out = ctx.liveness.live_out
    arena = ctx.arena
    for label in own:
        upd(b"B ")
        upd(label.encode())
        upd(b" ")
        upd(arena.block_digest(arena.block_id[label]).encode())
        upd(f" {ctx.block_freq(label).hex()} ".encode())
        upd(",".join(sorted(live_out[label])).encode())
        upd(b"\n")

    live_on_edge = ctx.liveness.live_on_edge
    for src, dst in ctx.tree.boundary_edges(tile):
        upd(f"E {src}>{dst} {ctx.edge_freq(src, dst).hex()} ".encode())
        upd(",".join(sorted(live_on_edge(src, dst))).encode())
        upd(b"\n")

    visible: Set[str] = set(ctx.referenced_in_blocks(own))
    for child in tile.children:
        visible |= allocations[child.tid].globals_
    for var in sorted(visible):
        inside = "i" if ctx.refs_only_inside(tile, var) else "-"
        boundary = "b" if ctx.live_on_boundary(tile, var) else "-"
        upd(f"V {var} {inside}{boundary}\n".encode())

    for child in tile.children:
        upd(f"C {child_fps[child.tid]}\n".encode())
    return h.hexdigest()


def interface_digest(
    ctx: FunctionContext,
    tile: Tile,
    alloc: TileAllocation,
    allocations: Dict[int, TileAllocation],
) -> str:
    """Digest of everything phase 2 reads from the *parent*: the parent's
    physical binding (register name or the MEM sentinel, which is also
    what an absent entry means) for every name the tile's binding pass
    can look up -- its summary variables, its globals, and every variable
    live on its boundary (the intruder candidates).  The root has no
    parent; its single overlay key is the constant ``"ROOT"``."""
    if tile.parent is None:
        return "ROOT"
    parent_phys = allocations[tile.parent.tid].phys
    names: Set[str] = set(alloc.summary_vars.values())
    names |= alloc.globals_
    names |= ctx.liveness.index.frozenset_of(ctx.boundary_live_mask(tile))
    h = sha256()
    for name in sorted(names):
        h.update(f"{name}={parent_phys.get(name, MEM)}\n".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# cached entries
# ----------------------------------------------------------------------
#: ``(name, factory)`` for every dict, set and list field of
#: :class:`TileAllocation` -- read off ``dataclasses.fields`` so a field
#: added later is copied without another edit here.
_CONTAINER_FIELDS = tuple(
    (f.name, f.default_factory)
    for f in fields(TileAllocation)
    if f.default_factory in (dict, set, list)
)


def copy_allocation(alloc: TileAllocation) -> TileAllocation:
    """Detached copy of a tile allocation: the phase-1 store keeps one of
    each just-computed allocation, and a hit hands out one of the stored
    version.

    Every dict, set and list field is copied one level deep (their
    members are strings, floats and tuples), and the metrics get owned
    dicts (phase 2 extends ``transfer`` and ``weight`` in place for
    intruders).  ``graph`` stays *shared*: phase 2 clones it before
    mutating (see :func:`run_phase2_incremental`).
    """
    # ``__dict__.copy()`` keeps CPython's shared-key instance-dict layout,
    # which a freshly built dict would not (stored copies are retained).
    state = alloc.__dict__.copy()
    for name, factory in _CONTAINER_FIELDS:
        state[name] = factory(state[name])
    metrics_state = alloc.metrics.__dict__.copy()
    for name, values in metrics_state.items():
        metrics_state[name] = dict(values)
    metrics = TileMetrics.__new__(TileMetrics)
    metrics.__dict__ = metrics_state
    state["metrics"] = metrics
    copy = TileAllocation.__new__(TileAllocation)
    copy.__dict__ = state
    return copy


@dataclass
class Phase2Overlay:
    """The delta phase 2 applies on top of a phase-1 allocation, for one
    (fingerprint, parent interface) pair.  Applying it is equivalent to
    running :func:`repro.core.phase2.bind_tile` -- minus the graph
    mutation, which nothing downstream reads (the node/edge counts the
    stats want are recorded here instead, as ``graph_counts``).

    A delta rather than a full post-phase-2 :func:`copy_allocation`: the
    tile's phase-1 copy is already in the store, and storing whole
    post-phase-2 copies as well raised the peak RSS of a 120-function,
    240-edit loop at 6 registers from 84.9 to 110.8 MB (+31 %; CPython
    3.11, x86-64 Linux)."""

    phys: Dict[str, str]
    summary_phys: Dict[str, str]
    temp_nodes: Set[str]
    rounds_delta: int
    node_count: int
    edge_count: int


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
@dataclass
class TileCacheStats:
    """Cumulative store-level counters (across functions; the per-run
    reuse counters live in :class:`IncrementalState`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TileCacheStore:
    """LRU store for phase-1 entries and phase-2 overlays.

    Keys are ``("p1", fingerprint)`` and ``("p2", fingerprint, interface
    digest)``; both namespaces share one LRU so capacity bounds total
    retained entries.  Content addressing makes sharing across functions
    sound -- two functions containing byte-identical tiles (after tid/uid
    renumbering) legitimately hit each other's entries.  Thread-safe: the
    service drives the batch engine from an event loop while benches may
    poke the same store from the main thread.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = TileCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# ----------------------------------------------------------------------
# incremental drivers
# ----------------------------------------------------------------------
@dataclass
class IncrementalState:
    """Carry-over between the two incremental phases plus the per-run
    reuse counters the batch stats aggregate."""

    #: tile id -> live allocation; every ``graph`` in it is shared with a
    #: stored phase-1 copy until phase 2 clones it
    allocations: Dict[int, TileAllocation]
    #: tile id -> fingerprint (every tile, hit or miss)
    fingerprints: Dict[int, str]
    phase1_hits: Set[int] = field(default_factory=set)
    phase2_hits: int = 0
    phase2_misses: int = 0

    def counters(self, tree) -> Dict[str, int]:
        """The headline reuse counters: ``tile_hits`` / ``tile_misses``
        count phase-1 summary reuse; ``subtrees_reused`` counts maximal
        reused subtrees (a hit whose parent missed -- the roots of the
        regions the edit did not dirty)."""
        hits = self.phase1_hits
        subtrees = 0
        for tile in tree.postorder():
            if tile.tid in hits and (
                tile.parent is None or tile.parent.tid not in hits
            ):
                subtrees += 1
        return {
            "tile_hits": len(hits),
            "tile_misses": len(self.fingerprints) - len(hits),
            "subtrees_reused": subtrees,
            "phase2_hits": self.phase2_hits,
            "phase2_misses": self.phase2_misses,
        }


def run_phase1_incremental(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    store: TileCacheStore,
    invalidation: str,
) -> IncrementalState:
    """Phase 1 with per-tile memoization: postorder walk, fingerprint
    each tile once its children are resolved, reuse cached summaries
    verbatim, compute and store the rest."""
    budget = ctx.budget
    tracer = ctx.tracer
    state = IncrementalState(allocations={}, fingerprints={})
    allocations = state.allocations
    fps = state.fingerprints
    for tile in ctx.tree.postorder():
        if budget is not None:
            budget.charge(1, "tiles")
        start = time.perf_counter()
        fp = tile_fingerprint(ctx, tile, allocations, fps, invalidation)
        fps[tile.tid] = fp
        stored = store.get(("p1", fp))
        if stored is not None:
            alloc = copy_allocation(stored)
            state.phase1_hits.add(tile.tid)
            if tracer.enabled:
                tracer.emit(TileCacheHit(
                    tile_id=tile.tid, phase="phase1", fingerprint=fp,
                ))
        else:
            alloc = allocate_tile(ctx, config, tile, allocations)
            store.put(("p1", fp), copy_allocation(alloc))
        allocations[tile.tid] = alloc
        if tracer.enabled:
            tracer.emit(StageTiming.for_tile("phase1", tile.tid, start))
    return state


def run_phase2_incremental(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    store: TileCacheStore,
    state: IncrementalState,
) -> None:
    """Phase 2 with overlay memoization: preorder walk; a tile whose
    fingerprint *and* parent interface both match a cached overlay takes
    the recorded bindings verbatim, everything else binds fresh (cloning
    the shared graph first) and records its overlay."""
    budget = ctx.budget
    tracer = ctx.tracer
    allocations = state.allocations
    for tile in ctx.tree.preorder():
        if budget is not None:
            budget.charge(1, "tiles")
        start = time.perf_counter()
        alloc = allocations[tile.tid]
        fp = state.fingerprints[tile.tid]
        key = ("p2", fp, interface_digest(ctx, tile, alloc, allocations))
        overlay = store.get(key)
        if overlay is not None:
            alloc.phys = dict(overlay.phys)
            alloc.summary_phys = dict(overlay.summary_phys)
            alloc.temp_nodes = set(overlay.temp_nodes)
            alloc.recolor_rounds += overlay.rounds_delta
            alloc.graph_counts = (overlay.node_count, overlay.edge_count)
            state.phase2_hits += 1
            if tracer.enabled:
                tracer.emit(TileCacheHit(
                    tile_id=tile.tid, phase="phase2", fingerprint=fp,
                ))
        else:
            # The graph is shared with the stored phase-1 copy.
            alloc.graph = alloc.graph.clone()
            rounds_before = alloc.recolor_rounds
            bind_tile(ctx, config, tile, allocations)
            state.phase2_misses += 1
            store.put(key, Phase2Overlay(
                phys=dict(alloc.phys),
                summary_phys=dict(alloc.summary_phys),
                temp_nodes=set(alloc.temp_nodes),
                rounds_delta=alloc.recolor_rounds - rounds_before,
                node_count=len(alloc.graph),
                edge_count=alloc.graph.edge_count(),
            ))
        if tracer.enabled:
            tracer.emit(StageTiming.for_tile("phase2", tile.tid, start))
