"""Per-tile content-addressed memoization (incremental re-allocation).

Full re-allocation of an edited function repeats almost all of the work
the previous run already did: a single-block edit dirties one tile and
its ancestor chain, while every sibling subtree's phase-1 summary and
phase-2 binding are bit-identical to last time.  This module caches both
phases at tile granularity so re-allocation recomputes only the dirty
subtree:

* :func:`tile_fingerprint` -- content address of everything phase 1 of
  one tile can observe: the tile's own blocks (canonical text including
  uids and clobbers, execution frequency, block-level live-out), the
  boundary-edge signature (edge, frequency, full live set), the visible
  variables with their locality bits, the children's fingerprints, and
  the allocator/machine/code-version invalidation key (reused from
  :mod:`repro.batch.serialize`).  Two tiles with equal fingerprints
  produce byte-identical phase-1 allocations -- the determinism gate
  (``repro.determinism``) is what licenses this.
* :class:`TileCacheStore` -- process-local LRU over phase-1 entries
  (keyed by fingerprint) and phase-2 overlays (keyed by fingerprint plus
  the parent-interface digest).
* :func:`run_phase1_incremental` / :func:`run_phase2_incremental` --
  drop-in replacements for the sequential drivers that walk the tile
  tree, reuse every clean subtree verbatim, and recompute only dirty
  tiles.  Output is bit-identical to the cold drivers (proven by
  ``repro.determinism check --incremental``).

Correctness rests on three invariants:

* **Stable names.**  Tile ids and instruction uids come from
  process-global counters; ``ts:{tid}:{color}`` / ``tmp:{uid}:...``
  names would otherwise depend on process history.  The allocator
  renumbers both on its private clone (:meth:`TileTree.renumber`,
  :meth:`Function.renumber_uids`) before any analysis runs, making every
  derived name a pure function of the program text.
* **Copy-on-write graphs.**  A phase-1 entry shares its pristine
  interference graph with the live allocation; phase 2 mutates the graph
  (intruders, operand temps), so a dirty tile clones the graph first and
  the cached entry keeps the pristine version.
* **Copied containers.**  Phase 2 extends ``metrics.transfer`` /
  ``metrics.weight`` in place (intruder setdefaults); snapshots own
  copies of the five metric dicts and of every other mutable container,
  in both directions.

Exclusions (documented in DESIGN.md section 10): the rewrite stage
(spill-code insertion) always runs fresh -- it is a cheap linear pass
over the whole function and depends on cross-tile state (fix-up block
labels, reserved-register rotation) that is not worth fingerprinting.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import HierarchicalConfig
from repro.core.info import FunctionContext
from repro.core.phase1 import allocate_tile
from repro.core.phase2 import bind_tile
from repro.core.summary import MEM, TileAllocation, TileMetrics
from repro.graph.interference import InterferenceGraph
from repro.machine.target import Machine
from repro.tiles.tile import Tile
from repro.trace.events import StageTiming, TileCacheHit

#: Bump when the fingerprint recipe below changes: old entries must never
#: answer for inputs hashed under a different recipe.
FINGERPRINT_VERSION = 1


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
    * per own block, in sorted label order: the canonical block digest
      (text, uids, clobbers, successors), the execution frequency, and
      the block-level live-out set (instruction-level liveness inside the
      block derives from it -- a distant edit that changes what is live
      out of an own block must dirty the tile);
    * per boundary edge, in boundary-edge order: endpoints, edge
      frequency, and the full live-on-edge set (boundary cliques,
      intruder candidates and their transfer costs all derive from it);
    * per visible variable, in sorted order: the refs-only-inside and
      live-on-boundary bits (locality classification reads *function
      wide* reference sets, which the block digests cannot see);
    * the children's fingerprints, in child order;
    * the invalidation key (allocator source, config, machine).

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
def _copy_metrics(metrics: TileMetrics) -> TileMetrics:
    """Own copies of the five metric dicts (phase 2 extends ``transfer``
    and ``weight`` in place for intruders)."""
    return TileMetrics(
        local_weight=dict(metrics.local_weight),
        transfer=dict(metrics.transfer),
        weight=dict(metrics.weight),
        reg=dict(metrics.reg),
        mem=dict(metrics.mem),
    )


@dataclass
class Phase1Entry:
    """Frozen image of one tile's post-phase-1 allocation.

    ``graph`` is the pristine post-phase-1 interference graph, *shared*
    with whichever live allocation it was snapshotted from or
    instantiated into -- phase 2 must clone before mutating (the drivers
    below enforce this).  Every other container is an owned copy.
    """

    tile_id: int
    graph: InterferenceGraph
    assignment: Dict[str, str]
    spilled: Set[str]
    locals_: Set[str]
    globals_: Set[str]
    boundary_globals: Set[str]
    ts_map: Dict[str, str]
    summary_vars: Dict[str, str]
    global_regs: Dict[str, str]
    conflict_global_summary: Set[Tuple[str, str]]
    conflict_global_global: Set[Tuple[str, str]]
    conflict_summary_summary: Set[Tuple[str, str]]
    phys_prefs_up: Dict[str, str]
    pref_pairs_up: List[Tuple[str, str]]
    summary_prefs_up: List[Tuple[str, str]]
    pref_pairs_all: List[Tuple[str, str]]
    local_prefs_all: Dict[str, str]
    metrics: TileMetrics
    forced_memory: Set[str]
    temp_nodes: Set[str]
    reserved_regs: List[str]
    recolor_rounds: int


def snapshot_phase1(alloc: TileAllocation) -> Phase1Entry:
    """Capture a just-computed phase-1 allocation (before phase 2 runs)."""
    return Phase1Entry(
        tile_id=alloc.tile_id,
        graph=alloc.graph,
        assignment=dict(alloc.assignment),
        spilled=set(alloc.spilled),
        locals_=set(alloc.locals_),
        globals_=set(alloc.globals_),
        boundary_globals=set(alloc.boundary_globals),
        ts_map=dict(alloc.ts_map),
        summary_vars=dict(alloc.summary_vars),
        global_regs=dict(alloc.global_regs),
        conflict_global_summary=set(alloc.conflict_global_summary),
        conflict_global_global=set(alloc.conflict_global_global),
        conflict_summary_summary=set(alloc.conflict_summary_summary),
        phys_prefs_up=dict(alloc.phys_prefs_up),
        pref_pairs_up=list(alloc.pref_pairs_up),
        summary_prefs_up=list(alloc.summary_prefs_up),
        pref_pairs_all=list(alloc.pref_pairs_all),
        local_prefs_all=dict(alloc.local_prefs_all),
        metrics=_copy_metrics(alloc.metrics),
        forced_memory=set(alloc.forced_memory),
        temp_nodes=set(alloc.temp_nodes),
        reserved_regs=list(alloc.reserved_regs),
        recolor_rounds=alloc.recolor_rounds,
    )


def instantiate_phase1(entry: Phase1Entry) -> TileAllocation:
    """Materialize a live allocation from a cached entry (the inverse of
    :func:`snapshot_phase1`; the graph stays shared until phase 2 needs
    to mutate it)."""
    return TileAllocation(
        tile_id=entry.tile_id,
        graph=entry.graph,
        assignment=dict(entry.assignment),
        spilled=set(entry.spilled),
        locals_=set(entry.locals_),
        globals_=set(entry.globals_),
        boundary_globals=set(entry.boundary_globals),
        ts_map=dict(entry.ts_map),
        summary_vars=dict(entry.summary_vars),
        global_regs=dict(entry.global_regs),
        conflict_global_summary=set(entry.conflict_global_summary),
        conflict_global_global=set(entry.conflict_global_global),
        conflict_summary_summary=set(entry.conflict_summary_summary),
        phys_prefs_up=dict(entry.phys_prefs_up),
        pref_pairs_up=list(entry.pref_pairs_up),
        summary_prefs_up=list(entry.summary_prefs_up),
        pref_pairs_all=list(entry.pref_pairs_all),
        local_prefs_all=dict(entry.local_prefs_all),
        metrics=_copy_metrics(entry.metrics),
        forced_memory=set(entry.forced_memory),
        temp_nodes=set(entry.temp_nodes),
        reserved_regs=list(entry.reserved_regs),
        recolor_rounds=entry.recolor_rounds,
    )


@dataclass
class Phase2Overlay:
    """The delta phase 2 applies on top of a phase-1 allocation, for one
    (fingerprint, parent interface) pair.  Applying it is equivalent to
    running :func:`repro.core.phase2.bind_tile` -- minus the graph
    mutation, which nothing downstream reads (the node/edge counts the
    stats want are recorded here instead, as ``graph_counts``)."""

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

    allocations: Dict[int, TileAllocation]
    #: tile id -> fingerprint (every tile, hit or miss)
    fingerprints: Dict[int, str]
    #: tile id -> the store's pristine graph when the live allocation
    #: still shares it (phase 2 clones before mutating)
    shared_graphs: Dict[int, InterferenceGraph] = field(default_factory=dict)
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
        entry = store.get(("p1", fp))
        if entry is not None:
            alloc = instantiate_phase1(entry)
            state.shared_graphs[tile.tid] = entry.graph
            state.phase1_hits.add(tile.tid)
            if tracer.enabled:
                tracer.emit(TileCacheHit(
                    tile_id=tile.tid, phase="phase1", fingerprint=fp,
                ))
        else:
            alloc = allocate_tile(ctx, config, tile, allocations)
            entry = snapshot_phase1(alloc)
            # The entry shares the live graph; phase 2 clones on write.
            state.shared_graphs[tile.tid] = entry.graph
            store.put(("p1", fp), entry)
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
    the shared pristine graph first) and records its overlay."""
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
            shared = state.shared_graphs.get(tile.tid)
            if shared is not None and alloc.graph is shared:
                alloc.graph = shared.clone()
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
