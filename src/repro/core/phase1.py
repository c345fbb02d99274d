"""Phase 1: bottom-up tile coloring (paper section 3, Figure 2).

Each tile, visited in postorder:

1. classifies its visible variables into locals and globals,
2. builds the tile interference graph -- conflicts from its own blocks,
   the children's conflict summaries, and boundary liveness,
3. adds preferences (copies in its own blocks plus the children's
   propagated preferences),
4. computes the section-4 metrics and pre-spills variables "not worth a
   register",
5. colors the graph with pseudo registers (physical where required),
   re-coloring with operand temporaries as needed, and
6. condenses its local allocation into tile summary variables and the
   conflict/preference summary for its parent.

Invariants callers rely on:

* :func:`allocate_tile` requires every child's :class:`TileAllocation` to
  be present in *allocations* (postorder discipline); the sequential and
  incremental drivers both walk the tree in postorder.
* a tile's returned allocation is complete and immutable from the
  parent's perspective: summary variables, conflict summaries and
  finalized ``Reg``/``Mem`` metrics never change once returned.
* every hash-order-sensitive walk (visible set, conflict summaries,
  ref-block sums) runs in canonical sorted order -- the bit-determinism
  guarantee (``repro.determinism``) rests on this.
* tracing via ``ctx.tracer`` is observational; the event stream never
  feeds back into any decision.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import HierarchicalConfig
from repro.core.info import FunctionContext
from repro.core.metrics import (
    compute_pre_metrics,
    finalize_metrics,
    not_worth_a_register,
    snapshot_candidates,
)
from repro.core.summary import (
    TileAllocation,
    is_summary_var,
    is_temp_node,
    summary_var_name,
)
from repro.core.tilecolor import TileColoringSpec, color_tile
from repro.graph.interference import InterferenceGraph, build_interference
from repro.ir.instructions import Opcode, is_phys
from repro.tiles.tile import Tile
from repro.trace.events import SpillDecision, StageTiming, TileColored


def run_phase1(
    ctx: FunctionContext, config: HierarchicalConfig
) -> Dict[int, TileAllocation]:
    """Allocate every tile bottom-up; returns allocations keyed by tile id.

    With tracing on, each tile also emits a ``"tile"``
    :class:`~repro.trace.events.StageTiming`."""
    allocations: Dict[int, TileAllocation] = {}
    budget = ctx.budget
    tracer = ctx.tracer
    for tile in ctx.tree.postorder():
        if budget is not None:
            budget.charge(1, "tiles")
        start = time.perf_counter()
        allocations[tile.tid] = allocate_tile(ctx, config, tile, allocations)
        if tracer.enabled:
            tracer.emit(StageTiming.for_tile("phase1", tile.tid, start))
    return allocations


def allocate_tile(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    tile: Tile,
    allocations: Dict[int, TileAllocation],
) -> TileAllocation:
    """Process one tile (children must already be in *allocations*)."""
    alloc = TileAllocation(tile_id=tile.tid)
    own = tile.own_blocks()
    children = tile.children

    # ------------------------------------------------------------------
    # visibility and locality
    # ------------------------------------------------------------------
    visible: Set[str] = set(ctx.referenced_in_blocks(own))
    for child in children:
        visible |= allocations[child.tid].globals_
    alloc.locals_ = {v for v in visible if ctx.is_local(tile, v)}
    alloc.globals_ = visible - alloc.locals_
    alloc.boundary_globals = {
        v for v in alloc.globals_ if ctx.live_on_boundary(tile, v)
    }

    # ------------------------------------------------------------------
    # interference graph
    # ------------------------------------------------------------------
    graph = build_interference(
        ctx.fn, ctx.liveness, labels=sorted(own), relevant=visible,
        budget=ctx.budget,
    )
    # Sorted once, reused below: node insertion order is the canonical
    # order for every downstream dict walk (subgraphs, phase-2
    # precoloring), so it must not inherit the hash-salted iteration
    # order of ``visible``.
    ordered_visible = sorted(visible)
    for var in ordered_visible:
        graph.add_node(var)

    # Boundary-liveness cliques: variables simultaneously live at a tile
    # boundary conflict even when neither is defined in blocks(t).  (The
    # paper's def-point construction is complete for whole programs; per
    # tile it needs this seeding -- see DESIGN.md section 4.)  Boundary
    # edges sharing a destination carry identical live sets; clique
    # insertion is idempotent, so duplicates are skipped up front.
    for live in dict.fromkeys(ctx.boundary_live_sets(tile)):
        graph.add_clique(live & visible)

    for child in children:
        child_alloc = allocations[child.tid]
        for summary in child_alloc.summary_vars.values():
            graph.add_node(summary)
        # The conflict summaries are sets of pairs -- iterate them sorted
        # so edge (and therefore node) insertion order is canonical.
        for g, summary in sorted(child_alloc.conflict_global_summary):
            graph.add_edge(g, summary)
        for g1, g2 in sorted(child_alloc.conflict_global_global):
            graph.add_edge(g1, g2)
        for s1, s2 in sorted(child_alloc.conflict_summary_summary):
            graph.add_edge(s1, s2)

        child_summaries = list(child_alloc.summary_vars.values())
        child_boundary_live: Set[str] = set()
        for live in dict.fromkeys(ctx.boundary_live_sets(child)):
            child_boundary_live |= live
            graph.add_clique(live & visible)
        # Variables live across the child without a register there conflict
        # with all of the child's summary variables (conflict source 3).
        for var in sorted(child_boundary_live):
            if var in visible and var not in child_alloc.global_regs:
                for summary in child_summaries:
                    graph.add_edge(var, summary)

    # ------------------------------------------------------------------
    # preferences
    # ------------------------------------------------------------------
    local_prefs: Dict[str, str] = {}
    pref_pairs: List[Tuple[str, str]] = []
    if config.preferencing:
        pref_pairs.extend(_copy_pairs(ctx, own, visible))
        for child in children:
            child_alloc = allocations[child.tid]
            for var, reg in child_alloc.phys_prefs_up.items():
                local_prefs.setdefault(var, reg)
            pref_pairs.extend(child_alloc.pref_pairs_up)
            pref_pairs.extend(child_alloc.summary_prefs_up)

    # Variables that *are* physical register names carry a hard linkage
    # requirement (they were produced by call lowering).  Canonical order:
    # the precolored map seeds the coloring engine's color-reuse list.
    precolored = {v: v for v in ordered_visible if is_phys(v)}

    # ------------------------------------------------------------------
    # metrics and forced spills
    # ------------------------------------------------------------------
    tracer = ctx.tracer
    alloc.metrics = compute_pre_metrics(
        ctx, tile, ordered_visible, allocations, children
    )
    for var in ordered_visible:
        if var in precolored:
            continue
        if not_worth_a_register(alloc.metrics, var):
            alloc.forced_memory.add(var)
            if tracer.enabled:
                tracer.emit(SpillDecision(
                    tile_id=tile.tid, phase="phase1", var=var,
                    reason="not_worth_a_register",
                    weight=alloc.metrics.weight.get(var, 0.0),
                    transfer=alloc.metrics.transfer.get(var, 0.0),
                ))

    # ------------------------------------------------------------------
    # color
    # ------------------------------------------------------------------
    k = ctx.machine.num_registers
    reserve = config.spill_temp_strategy == "reserve"
    reserved_regs: List[str] = []
    if reserve:
        reserved_regs = ctx.machine.registers[-2:]
        if k <= len(reserved_regs):
            raise ValueError(
                "reserve strategy needs more than 2 registers"
            )
        k = k - len(reserved_regs)

    spec = TileColoringSpec(
        k=k,
        color_order=[f"t{tile.tid}.p{i}" for i in range(k)],
        priorities=dict(alloc.metrics.weight),
        precolored=precolored,
        local_prefs=local_prefs,
        pref_pairs=pref_pairs,
        boundary=set(alloc.boundary_globals),
        pre_spilled=set(alloc.forced_memory),
        make_temps=not reserve,
        spill_heuristic=config.spill_heuristic,
        phase="phase1",
        transfer_costs=alloc.metrics.transfer,
    )
    outcome = color_tile(ctx, tile, graph, spec)

    alloc.graph = graph
    alloc.assignment = outcome.assignment
    alloc.spilled = outcome.spilled
    alloc.temp_nodes = outcome.temp_nodes
    alloc.reserved_regs = reserved_regs
    alloc.recolor_rounds = outcome.rounds
    alloc.pref_pairs_all = list(pref_pairs)
    alloc.local_prefs_all = dict(local_prefs)

    # ------------------------------------------------------------------
    # summary for the parent
    # ------------------------------------------------------------------
    _build_summary(ctx, config, tile, alloc, allocations, pref_pairs, local_prefs)
    finalize_metrics(
        alloc.metrics,
        alloc.assignment,
        alloc.spilled,
        ordered_visible,
    )
    if tracer.enabled:
        tracer.emit(TileColored(
            tile_id=tile.tid, phase="phase1", kind=tile.kind,
            blocks=tuple(sorted(own)),
            rounds=outcome.rounds,
            assignment=dict(alloc.assignment),
            spilled=tuple(sorted(alloc.spilled)),
            used_colors=tuple(outcome.used_colors),
            candidates=snapshot_candidates(
                alloc.metrics, sorted(alloc.metrics.weight)
            ),
        ))
    return alloc


def _copy_pairs(
    ctx: FunctionContext, own_labels, visible: Set[str]
) -> List[Tuple[str, str]]:
    pairs = []
    for label in own_labels:
        for instr in ctx.fn.blocks[label].instrs:
            if (
                instr.op in (Opcode.COPY, Opcode.MOVE)
                and instr.defs
                and instr.uses
                and instr.defs[0] in visible
                and instr.uses[0] in visible
            ):
                pairs.append((instr.defs[0], instr.uses[0]))
    return pairs


def _build_summary(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    tile: Tile,
    alloc: TileAllocation,
    allocations: Dict[int, TileAllocation],
    pref_pairs: List[Tuple[str, str]],
    local_prefs: Dict[str, str],
) -> None:
    """Condense the tile's allocation into the parent-facing summary."""
    # "Local-ish" nodes: the tile's locals, its operand temporaries, and
    # the children's summary variables -- everything whose register usage
    # the parent should see only through this tile's summary variables.
    localish: Set[str] = set()
    child_summary_names: Set[str] = set()
    for child in tile.children:
        child_summary_names |= set(
            allocations[child.tid].summary_vars.values()
        )
    for node in alloc.graph.nodes():
        if node in alloc.locals_ or is_temp_node(node) or node in child_summary_names:
            localish.add(node)

    # Summary variables: one per color used by a local-ish node.
    for node in sorted(localish):
        color = alloc.assignment.get(node)
        if color is None:
            continue
        if color not in alloc.summary_vars:
            alloc.summary_vars[color] = summary_var_name(tile.tid, color)
        alloc.ts_map[node] = alloc.summary_vars[color]

    # Globals holding registers here.
    for var in sorted(alloc.globals_):
        color = alloc.assignment.get(var)
        if color is not None and var not in alloc.spilled:
            alloc.global_regs[var] = color

    # Conflict summary, derived from the tile graph's edges.  Walks the
    # id-level neighbour lists (each pair once, via ``a < b`` on names) --
    # equivalent to graph.edges() without materializing the string facade;
    # every insertion below lands in a set, so neighbour order is free.
    assignment_get = alloc.assignment.get
    ts_get = alloc.ts_map.get
    global_regs = alloc.global_regs
    names = alloc.graph.id_names()
    nbrs = alloc.graph.neighbor_ids()
    # Ranks order exactly like names (memoized on the graph since the
    # coloring pass), so the each-pair-once filter compares two ints and
    # only materializes the neighbour's name for kept pairs.
    rank = alloc.graph.name_rank_array()
    for a, ia in alloc.graph.node_ids().items():
        ca = assignment_get(a)
        if ca is None:
            continue
        a_local = a in localish
        ra = rank[ia]
        for ib in nbrs[ia]:
            if rank[ib] < ra:
                continue
            b = names[ib]
            cb = assignment_get(b)
            if cb is None:
                continue
            b_local = b in localish
            if a_local and b_local:
                sa, sb = ts_get(a), ts_get(b)
                if sa and sb and sa != sb:
                    alloc.conflict_summary_summary.add(_ordered(sa, sb))
            elif a_local != b_local:
                g = b if a_local else a
                l = a if a_local else b
                if g in global_regs:
                    summary = ts_get(l)
                    if summary:
                        alloc.conflict_global_summary.add((g, summary))
            else:
                if a in global_regs and b in global_regs:
                    alloc.conflict_global_global.add(_ordered(a, b))

    # Propagated preferences (paper section 3, special cases 1-3).
    if config.preferencing:
        for var, color in alloc.global_regs.items():
            if is_phys(color):
                alloc.phys_prefs_up[var] = color
        seen_pairs = set()
        for a, b in pref_pairs:
            ca, cb = alloc.assignment.get(a), alloc.assignment.get(b)
            if ca is None or ca != cb:
                continue
            if a in alloc.global_regs and b in alloc.global_regs:
                pair = _ordered(a, b)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    alloc.pref_pairs_up.append(pair)
            elif a in alloc.global_regs or b in alloc.global_regs:
                g = a if a in alloc.global_regs else b
                l = b if g == a else a
                summary = alloc.ts_map.get(l)
                if summary:
                    pair = (g, summary)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        alloc.summary_prefs_up.append(pair)


def _ordered(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)
