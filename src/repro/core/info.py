"""Shared per-function context for both allocation phases.

Bundles the function, its tile tree, liveness, frequencies and reference
maps so the phases don't recompute or thread a dozen arguments around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.frequency import FrequencyInfo, estimate_frequencies
from repro.analysis.liveness import Liveness, liveness_from_arena
from repro.core.budget import AllocationBudget
from repro.ir.function import Function
from repro.machine.target import Machine
from repro.perf.arena import FunctionArena, build_arena
from repro.perf.varindex import iter_bits
from repro.tiles.fixup import FixupStats
from repro.tiles.tile import Tile, TileTree
from repro.trace.tracer import NULL_TRACER, NullTracer


@dataclass
class FunctionContext:
    """Everything phase 1 / phase 2 need to know about one function."""

    fn: Function
    machine: Machine
    tree: TileTree
    liveness: Liveness
    freq: FrequencyInfo
    fixup: FixupStats
    #: flat lowering of ``fn`` (block/instruction/variable tables): the
    #: reference and definition sets every classification helper reads.
    arena: FunctionArena = field(repr=False)
    #: label of inserted fix-up block -> the original edge it subdivides
    orig_edge: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: structured-event recorder threaded through both phases; the shared
    #: :data:`~repro.trace.tracer.NULL_TRACER` keeps untraced runs free
    #: (call sites guard on ``tracer.enabled``).
    tracer: NullTracer = field(default=NULL_TRACER, repr=False)
    #: per-allocation resource budget; ``None`` (the default) keeps every
    #: checkpoint site on its single-identity-test fast path.
    budget: Optional["AllocationBudget"] = field(default=None, repr=False)
    #: tile id -> OR of live-on-edge bitsets over the tile's boundary
    _boundary_live: Dict[int, int] = field(default_factory=dict, repr=False)
    #: tile id -> var -> summed boundary transfer frequency (section 4)
    _boundary_transfer: Dict[int, Dict[str, float]] = field(
        default_factory=dict, repr=False
    )
    #: label -> {var: defs+uses count} (the paper's ``Refs_b(v)``)
    _ref_counts: Dict[str, Dict[str, int]] = field(
        default_factory=dict, repr=False
    )
    #: tile id -> ``tile.all_blocks`` as a bitset over arena block ids
    _tile_all_bmask: Dict[int, int] = field(default_factory=dict, repr=False)
    _tile_memo_version: int = field(default=-1, repr=False)

    # ------------------------------------------------------------------
    # per-tile variable classification (paper section 3)
    # ------------------------------------------------------------------
    def referenced_in_blocks(self, labels) -> Set[str]:
        arena = self.arena
        arena.check_current("referenced_in_blocks")
        mask = 0
        block_id = arena.block_id
        block_ref = arena.block_ref
        for label in labels:
            mask |= block_ref[block_id[label]]
        return set(arena.index.members(mask))

    def refs_only_inside(self, tile: Tile, var: str) -> bool:
        vid = self.arena.index._ids.get(var)
        if vid is None:
            return False
        refs = self.arena.var_ref_bmask(vid)
        return bool(refs) and not refs & ~self.tile_all_bmask(tile)

    def defined_in_subtree(self, tile: Tile, var: str) -> bool:
        vid = self.arena.index._ids.get(var)
        if vid is None:
            return False
        return bool(self.arena.var_def_bmask(vid) & self.tile_all_bmask(tile))

    def _tile_memos_current(self) -> None:
        version = getattr(self.fn, "cfg_version", None)
        if version != self._tile_memo_version:
            self._boundary_live.clear()
            self._boundary_transfer.clear()
            self._ref_counts.clear()
            self._tile_all_bmask.clear()
            self._tile_memo_version = version

    def block_ref_counts(self, label: str) -> Dict[str, int]:
        """``Refs_b(v)`` for every variable referenced in block *label*
        (memoized; one block scan instead of one per queried variable)."""
        cached = self._ref_counts.get(label)
        if cached is None:
            counts: Dict[str, int] = {}
            get = counts.get
            for instr in self.fn.blocks[label].instrs:
                for var in instr.defs:
                    counts[var] = get(var, 0) + 1
                for var in instr.uses:
                    counts[var] = get(var, 0) + 1
            self._ref_counts[label] = cached = counts
        return cached

    def boundary_live_mask(self, tile: Tile) -> int:
        """Bitset (over ``liveness.index``) of variables live along any of
        *tile*'s boundary edges (memoized per CFG version)."""
        self._tile_memos_current()
        mask = self._boundary_live.get(tile.tid)
        if mask is None:
            mask = 0
            live_bits = self.liveness.live_on_edge_bits
            for src, dst in self.tree.boundary_edges(tile):
                mask |= live_bits(src, dst)
            self._boundary_live[tile.tid] = mask
        return mask

    def live_on_boundary(self, tile: Tile, var: str) -> bool:
        index = self.liveness.index
        if var not in index:
            return False
        return bool(self.boundary_live_mask(tile) >> index.id_of(var) & 1)

    def boundary_transfer(self, tile: Tile) -> Dict[str, float]:
        """``Transfer_t(v)`` for every variable live on *tile*'s boundary:
        the summed frequency of boundary edges carrying it (memoized; vars
        absent from the dict have zero transfer)."""
        self._tile_memos_current()
        cached = self._boundary_transfer.get(tile.tid)
        if cached is None:
            acc: Dict[int, float] = {}
            live_bits = self.liveness.live_on_edge_bits
            for src, dst in self.tree.boundary_edges(tile):
                freq = self.edge_freq(src, dst)
                if not freq:
                    continue
                for vid in iter_bits(live_bits(src, dst)):
                    acc[vid] = acc.get(vid, 0.0) + freq
            name_of = self.liveness.index.name_of
            cached = {name_of(vid): total for vid, total in acc.items()}
            self._boundary_transfer[tile.tid] = cached
        return cached

    def boundary_live_sets(self, tile: Tile) -> List[FrozenSet[str]]:
        return [
            self.liveness.live_on_edge(src, dst)
            for src, dst in self.tree.boundary_edges(tile)
        ]

    def is_local(self, tile: Tile, var: str) -> bool:
        """Paper: local iff all references are inside *tile* and the
        variable is not live along any of its entry or exit edges."""
        return self.refs_only_inside(tile, var) and not self.live_on_boundary(
            tile, var
        )

    def tile_all_bmask(self, tile: Tile) -> int:
        """``tile.all_blocks`` as a bitset over arena block ids."""
        self._tile_memos_current()
        mask = self._tile_all_bmask.get(tile.tid)
        if mask is None:
            block_id = self.arena.block_id
            mask = 0
            for label in tile.all_blocks:
                bid = block_id.get(label)
                if bid is not None:
                    mask |= 1 << bid
            self._tile_all_bmask[tile.tid] = mask
        return mask

    # ------------------------------------------------------------------
    # frequencies, resilient to fix-up blocks absent from a profile
    # ------------------------------------------------------------------
    def block_freq(self, label: str) -> float:
        freq = self.freq.block_freq.get(label)
        if freq is not None:
            return freq
        # A fix-up block subdivides one original edge and executes exactly
        # as often as that edge was traversed.
        edge = self.orig_edge.get(label)
        if edge is not None:
            return self.freq.edge_freq.get(edge, 0.0)
        return 0.0

    def edge_freq(self, src: str, dst: str) -> float:
        freq = self.freq.edge_freq.get((src, dst))
        if freq is not None:
            return freq
        for label in (src, dst):
            edge = self.orig_edge.get(label)
            if edge is not None:
                return self.freq.edge_freq.get(edge, 0.0)
        return 0.0


def build_context(
    fn: Function,
    machine: Machine,
    tree: TileTree,
    fixup: FixupStats,
    frequencies: Optional[FrequencyInfo],
    tracer: Optional[NullTracer] = None,
    budget: Optional[AllocationBudget] = None,
) -> FunctionContext:
    """Assemble a :class:`FunctionContext` (liveness and frequency included).

    The function is lowered into a :class:`~repro.perf.arena.FunctionArena`
    first; liveness runs over the flat tables and both phases consume the
    arena through the context's mask-based helpers.
    """
    arena = build_arena(fn, budget=budget)
    liveness = liveness_from_arena(arena)
    freq = frequencies or estimate_frequencies(fn)
    ctx = FunctionContext(
        fn=fn,
        machine=machine,
        tree=tree,
        liveness=liveness,
        freq=freq,
        fixup=fixup,
        orig_edge=dict(fixup.orig_edge),
        arena=arena,
        tracer=tracer if tracer is not None else NULL_TRACER,
        budget=budget,
    )
    return ctx
