"""Phase 2: top-down binding of pseudo registers to physical registers.

Visiting tiles in preorder, each tile recolors its interference graph with
*physical* registers:

* nodes whose phase-1 color has a tile summary variable are preferenced to
  the physical register the parent bound that summary variable to;
* globals are preferenced to their parent binding;
* parent-register variables live across the tile but absent from its graph
  are added as *intruders* conflicting with every node ("we make these
  variables conflict with every other variable in the conflict graph and
  preference them to the physical register they received in the parent");
* the demotion rule runs first: a global in a register here but in memory
  in the parent with ``weight <= transfer`` flips to memory ("otherwise we
  change the allocation of v in t to reflect that it should be in memory").

Spill/transfer code between the tile and its parent is planned later by
:mod:`repro.core.spill_code` from the recorded per-tile locations.

Invariants callers rely on:

* :func:`bind_tile` requires the parent's ``phys`` map to be complete
  (preorder discipline); the sequential and incremental drivers both walk
  the tree in preorder.
* after ``bind_tile`` returns, ``alloc.phys`` maps *every* node the
  rewrite stage can encounter in the tile -- visible variables, operand
  temporaries, intruders -- to a physical register or :data:`MEM`.
* phase-1 spill decisions are never undone: a variable spilled bottom-up
  stays in ``pre_spilled`` here ("spill decisions are never undone").
* tracing via ``ctx.tracer`` is observational only.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.core.config import HierarchicalConfig
from repro.core.info import FunctionContext
from repro.core.summary import MEM, TileAllocation, is_summary_var, is_temp_node
from repro.core.tilecolor import TileColoringSpec, color_tile
from repro.ir.instructions import is_phys
from repro.tiles.tile import Tile
from repro.core.metrics import snapshot_candidates
from repro.trace.events import (
    PseudoBound,
    SpillDecision,
    StageTiming,
    TileColored,
)


def run_phase2(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    allocations: Dict[int, TileAllocation],
) -> None:
    """Bind every tile top-down; fills ``alloc.phys`` per tile.

    With tracing on, each tile also emits a ``"tile"``
    :class:`~repro.trace.events.StageTiming`."""
    budget = ctx.budget
    tracer = ctx.tracer
    for tile in ctx.tree.preorder():
        if budget is not None:
            budget.charge(1, "tiles")
        start = time.perf_counter()
        bind_tile(ctx, config, tile, allocations)
        if tracer.enabled:
            tracer.emit(StageTiming.for_tile("phase2", tile.tid, start))


def bind_tile(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    tile: Tile,
    allocations: Dict[int, TileAllocation],
) -> None:
    """Phase-2 processing of one tile (parent must already be bound)."""
    alloc = allocations[tile.tid]
    parent_alloc: Optional[TileAllocation] = (
        allocations[tile.parent.tid] if tile.parent is not None else None
    )

    def parent_loc(var: str) -> Optional[str]:
        if parent_alloc is None:
            return None
        return parent_alloc.phys.get(var, MEM)

    # ------------------------------------------------------------------
    # demotion pre-pass (spill decisions are never undone, so these join
    # the spilled set before coloring and get operand temporaries)
    # ------------------------------------------------------------------
    tracer = ctx.tracer
    pre_spilled: Set[str] = set(alloc.spilled)
    if parent_alloc is not None and config.demotion:
        for var in sorted(alloc.globals_):
            if var in pre_spilled or var not in alloc.assignment:
                continue
            if parent_loc(var) == MEM:
                weight = alloc.metrics.weight.get(var, 0.0)
                transfer = alloc.metrics.transfer.get(var, 0.0)
                if weight <= transfer:
                    pre_spilled.add(var)
                    if tracer.enabled:
                        tracer.emit(SpillDecision(
                            tile_id=tile.tid, phase="phase2", var=var,
                            reason="demotion",
                            weight=weight, transfer=transfer,
                        ))

    # ------------------------------------------------------------------
    # preferences from the parent's bindings
    # ------------------------------------------------------------------
    local_prefs: Dict[str, str] = {}
    if config.preferencing:
        local_prefs.update(alloc.local_prefs_all)
    alloc.summary_phys = {}
    for color, summary in alloc.summary_vars.items():
        binding = parent_loc(summary)
        alloc.summary_phys[summary] = binding if binding is not None else MEM
        if tracer.enabled:
            tracer.emit(PseudoBound(
                tile_id=tile.tid, pseudo=color, summary=summary,
                binding=alloc.summary_phys[summary],
            ))

    globals_ = alloc.globals_
    ts_get = alloc.ts_map.get
    summary_phys_get = alloc.summary_phys.get
    for node in alloc.graph.nodes():
        if node in pre_spilled or is_phys(node):
            continue
        if parent_alloc is not None and node in globals_:
            binding = parent_loc(node)
            if binding is not None and binding != MEM:
                local_prefs[node] = binding
            continue
        summary = ts_get(node)
        if summary is not None:
            binding = summary_phys_get(summary)
            if binding is not None and binding != MEM:
                local_prefs[node] = binding

    # Sorted: the precolored map seeds the coloring engine's color-reuse
    # list, whose order is outcome-relevant.
    precolored = {v: v for v in sorted(alloc.graph.nodes()) if is_phys(v)}

    # ------------------------------------------------------------------
    # intruders: parent-register variables live across this tile that the
    # bottom-up pass ignored (unreferenced in the subtree)
    # ------------------------------------------------------------------
    priorities: Dict[str, float] = dict(alloc.metrics.weight)
    if parent_alloc is not None:
        boundary_edges = ctx.tree.boundary_edges(tile)
        boundary_live = ctx.liveness.index.frozenset_of(
            ctx.boundary_live_mask(tile)
        )
        graph = alloc.graph
        for var in sorted(boundary_live):
            if var in graph:
                continue
            binding = parent_loc(var)
            if binding is None or binding == MEM:
                continue
            # Conflicts with every existing node (including intruders
            # inserted on earlier iterations), in bulk.
            graph.add_conflicts_all(var)
            local_prefs[var] = binding
            # Spilling an intruder costs a store/load around the tile.
            transfer = sum(
                ctx.edge_freq(src, dst)
                for src, dst in boundary_edges
                if var in ctx.liveness.live_on_edge(src, dst)
            )
            priorities[var] = transfer
            alloc.metrics.transfer.setdefault(var, transfer)
            alloc.metrics.weight.setdefault(var, transfer)

    # ------------------------------------------------------------------
    # physical coloring
    # ------------------------------------------------------------------
    reserve = config.spill_temp_strategy == "reserve"
    color_order = list(ctx.machine.registers)
    if reserve:
        color_order = color_order[: -len(alloc.reserved_regs)] if alloc.reserved_regs else color_order
    spec = TileColoringSpec(
        k=len(color_order),
        color_order=color_order,
        priorities=priorities,
        precolored=precolored,
        local_prefs=local_prefs,
        pref_pairs=list(alloc.pref_pairs_all) if config.preferencing else [],
        boundary=set(),
        pre_spilled=pre_spilled,
        make_temps=not reserve,
        spill_heuristic=config.spill_heuristic,
        phase="phase2",
        transfer_costs=alloc.metrics.transfer,
    )
    outcome = color_tile(ctx, tile, alloc.graph, spec)

    alloc.temp_nodes = outcome.temp_nodes
    alloc.recolor_rounds += outcome.rounds - 1
    phys: Dict[str, str] = {}
    for node, color in outcome.assignment.items():
        phys[node] = color
    for node in outcome.spilled:
        phys[node] = MEM
    alloc.phys = phys
    if tracer.enabled:
        tracer.emit(TileColored(
            tile_id=tile.tid, phase="phase2", kind=tile.kind,
            blocks=tuple(sorted(tile.own_blocks())),
            rounds=outcome.rounds,
            assignment={n: c for n, c in phys.items() if c != MEM},
            spilled=tuple(sorted(n for n, c in phys.items() if c == MEM)),
            used_colors=tuple(outcome.used_colors),
            candidates=snapshot_candidates(
                alloc.metrics, sorted(alloc.metrics.weight)
            ),
        ))
