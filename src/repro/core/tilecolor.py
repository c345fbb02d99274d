"""Shared tile-coloring loop with operand-temporary handling.

Both phases color a tile's interference graph; whenever a variable with
references in the tile's own blocks ends up in memory, those references need
scratch registers.  Following section 6 of the paper, the temporaries are
added to the graph as local variables with *infinite spill cost* and the
tile is recolored -- "our method avoids the need to iterate [the whole
allocation]" because the iteration stays inside one small tile graph and the
temporaries' one-instruction live ranges keep them trivially colorable.

Invariants callers rely on:

* ``graph`` is mutated only by *adding* temp nodes and their conflicts --
  existing nodes and edges are never removed, so phase 2 can recolor the
  same graph object that phase 1 colored.
* spill decisions are monotone: once a variable enters the spilled set (a
  caller's ``pre_spilled`` or a coloring round), no later round removes it
  ("spill decisions are never undone").
* every spilled variable with references in the tile's own blocks has a
  colored operand temporary per reference in the returned assignment
  (``make_temps=True``), which the rewrite stage looks up by name.
* tracing (``ctx.tracer``) is observational only; enabling it cannot
  change the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.info import FunctionContext
from repro.core.summary import (
    is_summary_var,
    is_temp_node,
    parse_temp_node,
    temp_node_name,
)
from repro.graph.coloring import ColoringResult, NoColorForRequiredNode, color_graph
from repro.graph.interference import InterferenceGraph
from repro.tiles.tile import Tile
from repro.trace.events import PreferenceApplied, SpillDecision

#: Recolor rounds per tile before giving up (each round only adds temps for
#: newly spilled variables, so a handful suffices).
MAX_RECOLOR_ROUNDS = 25


@dataclass
class TileColoringSpec:
    """Inputs to one tile-coloring run (phase independent)."""

    k: int
    color_order: List[str]
    priorities: Dict[str, float] = field(default_factory=dict)
    precolored: Dict[str, str] = field(default_factory=dict)
    local_prefs: Dict[str, str] = field(default_factory=dict)
    pref_pairs: List[Tuple[str, str]] = field(default_factory=list)
    boundary: Set[str] = field(default_factory=set)
    #: nodes never allowed to spill (besides temps, which are implied).
    never_spill: Set[str] = field(default_factory=set)
    #: nodes excluded from coloring (already decided to live in memory).
    pre_spilled: Set[str] = field(default_factory=set)
    #: create operand temporaries for spilled references ("recolor"
    #: strategy); with False the caller reserved registers instead.
    make_temps: bool = True
    #: spill-candidate ranking (see graph.coloring.color_graph).
    spill_heuristic: str = "cost_over_degree"
    #: which allocation phase this run belongs to (trace events only).
    phase: str = "phase1"
    #: ``Transfer_t(v)`` per variable, for spill-decision events only.
    transfer_costs: Mapping[str, float] = field(default_factory=dict)


@dataclass
class TileColoringOutcome:
    assignment: Dict[str, str]
    spilled: Set[str]
    temp_nodes: Set[str]
    rounds: int
    used_colors: List[str]


def color_tile(
    ctx: FunctionContext,
    tile: Tile,
    graph: InterferenceGraph,
    spec: TileColoringSpec,
) -> TileColoringOutcome:
    """Color *graph*, adding operand temporaries until a fixed point.

    ``graph`` is mutated: temp nodes and their conflicts are added so later
    phases see them.  Nodes in ``spec.pre_spilled`` never participate; their
    references get temporaries immediately.
    """
    own_labels = sorted(tile.own_blocks())
    tracer = ctx.tracer
    trace_hook = None
    if tracer.enabled:
        def trace_hook(var: str, color: str, kind: str) -> None:
            tracer.emit(PreferenceApplied(
                tile_id=tile.tid, phase=spec.phase,
                var=var, color=color, kind=kind,
            ))
    all_spilled: Set[str] = set(spec.pre_spilled)
    temp_nodes: Set[str] = {n for n in graph.nodes() if is_temp_node(n)}
    vars_with_temps: Set[str] = set()  # real vars whose references have temps
    # Same-instruction peer index: uid -> ([use temps], [def temps]).
    # ``_add_temp_nodes`` consults it instead of rescanning every graph
    # node per spilled-var instruction, and extends it with what it adds,
    # so it stays current across recolor rounds (uids are function-global
    # and each instruction is visited at most once per round).
    temps_by_uid: Dict[int, Tuple[List[str], List[str]]] = {}
    for name in temp_nodes:
        uid, var, kind = parse_temp_node(name)
        vars_with_temps.add(var)
        entry = temps_by_uid.get(uid)
        if entry is None:
            entry = temps_by_uid[uid] = ([], [])
        entry[0 if kind == "u" else 1].append(name)

    # Stable across rounds except for newly added temps / spills; built
    # once and updated incrementally rather than rebuilt per round.
    priorities = dict(spec.priorities)
    for t in temp_nodes:
        priorities[t] = float("inf")

    budget = ctx.budget
    rounds = 0
    while True:
        rounds += 1
        if budget is not None:
            budget.charge(1, "rounds")
        if rounds > MAX_RECOLOR_ROUNDS:
            raise RuntimeError(
                f"tile #{tile.tid}: no coloring fixed point after "
                f"{MAX_RECOLOR_ROUNDS} rounds"
            )
        if spec.make_temps:
            new_vars = {
                v
                for v in all_spilled
                if v not in vars_with_temps and not is_summary_var(v)
            }
            added = _add_temp_nodes(
                ctx, own_labels, graph, new_vars, all_spilled, temps_by_uid
            )
            temp_nodes |= added
            vars_with_temps |= new_vars
            for t in added:
                priorities[t] = float("inf")

        if all_spilled:
            work = graph.subgraph(graph.node_ids().keys() - all_spilled)
            precolored = {
                v: c
                for v, c in spec.precolored.items()
                if v not in all_spilled
            }
        else:
            # Nothing excluded: color the tile graph directly (color_graph
            # never mutates its input).
            work = graph
            precolored = spec.precolored
        try:
            result = color_graph(
                work,
                k=spec.k,
                color_order=spec.color_order,
                priorities=priorities,
                precolored=precolored,
                local_prefs=spec.local_prefs,
                pref_pairs=spec.pref_pairs,
                never_spill=spec.never_spill | temp_nodes,
                boundary=spec.boundary,
                spill_heuristic=spec.spill_heuristic,
                trace_hook=trace_hook,
                budget=budget,
            )
        except NoColorForRequiredNode as exc:
            # Extreme pressure: an unspillable node (operand temporary) has
            # no color left.  Spill its least valuable ordinary neighbour
            # and recolor -- "the paper's temporaries do not contribute
            # significantly" holds only when something else yields.
            victims = [
                n
                for n in work.neighbors(exc.node)
                if n not in temp_nodes
                and n not in spec.never_spill
                and n not in spec.precolored
            ]
            if not victims:
                raise
            victim = min(
                victims, key=lambda n: (spec.priorities.get(n, 0.0), n)
            )
            if tracer.enabled:
                tracer.emit(SpillDecision(
                    tile_id=tile.tid, phase=spec.phase, var=victim,
                    reason="pressure_victim",
                    weight=spec.priorities.get(victim, 0.0),
                    transfer=spec.transfer_costs.get(victim, 0.0),
                ))
            all_spilled.add(victim)
            continue
        if not result.spilled:
            return TileColoringOutcome(
                assignment=result.assignment,
                spilled=all_spilled,
                temp_nodes=temp_nodes,
                rounds=rounds,
                used_colors=result.used_colors,
            )
        if tracer.enabled:
            # result.spilled excludes all_spilled (those never entered the
            # work graph), so each spill is reported exactly once.
            for var in sorted(result.spilled):
                tracer.emit(SpillDecision(
                    tile_id=tile.tid, phase=spec.phase, var=var,
                    reason="no_color",
                    weight=spec.priorities.get(var, 0.0),
                    transfer=spec.transfer_costs.get(var, 0.0),
                ))
        all_spilled |= result.spilled
        if not spec.make_temps:
            # Reserve strategy: no recoloring needed, spilled references
            # will use the reserved registers at rewrite time.
            return TileColoringOutcome(
                assignment={
                    v: c
                    for v, c in result.assignment.items()
                    if v not in all_spilled
                },
                spilled=all_spilled,
                temp_nodes=set(),
                rounds=rounds,
                used_colors=result.used_colors,
            )


def _instr_temps(
    instr, new_vars: Set[str]
) -> Tuple[List[str], List[str]]:
    """Temp-node names for *instr*'s references to *new_vars* -- operand
    order (first occurrence), because the list order decides graph node
    insertion order downstream."""
    use_temps: List[str] = []
    def_temps: List[str] = []
    uid = instr.uid
    for var in dict.fromkeys(instr.uses):
        if var in new_vars:
            use_temps.append(temp_node_name(uid, var, "u"))
    for var in dict.fromkeys(instr.defs):
        if var in new_vars:
            def_temps.append(temp_node_name(uid, var, "d"))
    return use_temps, def_temps


def _connect_temps(
    graph: InterferenceGraph,
    added: Set[str],
    temps: List[str],
    live_regs: Iterable[str],
    peers: Iterable[str],
) -> None:
    """Insert *temps* with conflicts against the live registers, each
    other, and same-kind peers.  The neighbour list is identical for
    every temp of one kind at one instruction, so it is sorted once --
    the union is a set, and edge insertion order decides node order for
    nodes first seen here."""
    if not temps:
        return
    others = sorted(set(live_regs) | set(temps) | set(peers))
    for temp in temps:
        graph.add_node(temp)
        graph.add_star(temp, others)
        added.add(temp)


def _record_temps(
    temps_by_uid: Dict[int, Tuple[List[str], List[str]]],
    uid: int,
    use_temps: List[str],
    def_temps: List[str],
) -> None:
    entry = temps_by_uid.get(uid)
    if entry is None:
        entry = temps_by_uid[uid] = ([], [])
    entry[0].extend(use_temps)
    entry[1].extend(def_temps)


def _mask_names(mask: int, name_of) -> List[str]:
    out: List[str] = []
    append = out.append
    while mask:
        low = mask & -mask
        append(name_of(low.bit_length() - 1))
        mask ^= low
    return out


def _add_temp_nodes(
    ctx: FunctionContext,
    own_labels: Iterable[str],
    graph: InterferenceGraph,
    new_vars: Set[str],
    all_spilled: Set[str],
    temps_by_uid: Dict[int, Tuple[List[str], List[str]]],
) -> Set[str]:
    """Create temp nodes for every reference to *new_vars* in the tile's own
    blocks, with conflicts against whatever is live (and not itself spilled)
    at the reference point.

    Existing temps at an instruction conflict with new temps of the same
    kind: use temps coexist before the instruction, def temps after it.
    A def temp may share a register with a use temp -- all uses are read
    before any def is written.  Same-kind peers come from *temps_by_uid*
    (maintained by the caller across rounds), never from a graph rescan.

    The arena path walks only blocks whose referenced-variable mask
    intersects the newly spilled set, and within them only instructions
    whose use/def bitmasks do, so spill-free regions cost one word AND
    per block.  The object path walks every instruction like the original
    implementation; it is the reference the temp-node differential in
    ``tests/test_arena_analysis.py`` compares the arena path against, by
    unsetting ``ctx.arena`` around one call.
    """
    added: Set[str] = set()
    if not new_vars:
        return added
    liveness = ctx.liveness
    arena = ctx.arena
    if arena is not None and (arena.fn is not ctx.fn or arena.retired):
        arena = None

    if arena is not None:
        index = liveness.index
        mask_of_known = index.mask_of_known
        new_mask = mask_of_known(new_vars)
        # Graph nodes that are function variables, minus everything
        # spilled: the register-resident candidates a temp conflicts
        # with.  Temp/summary/physical nodes have no vid and fall out.
        reg_mask = mask_of_known(graph.node_ids()) & ~mask_of_known(all_spilled)
        name_of = index.name_of
        block_id = arena.block_id
        block_start = arena.block_start
        block_ref = arena.block_ref
        i_uses = arena.i_uses
        i_defs = arena.i_defs
        instrs = arena.instrs
        for label in own_labels:
            bid = block_id[label]
            if not block_ref[bid] & new_mask:
                continue
            live_in_bits = liveness.instr_live_in_bits(label)
            live_out_bits = liveness.instr_live_out_bits(label)
            start = block_start[bid]
            for idx in range(block_start[bid + 1] - start):
                i = start + idx
                if not (i_uses[i] | i_defs[i]) & new_mask:
                    continue
                instr = instrs[i]
                use_temps, def_temps = _instr_temps(instr, new_vars)
                peers = temps_by_uid.get(instr.uid)
                _connect_temps(
                    graph, added, use_temps,
                    _mask_names(live_in_bits[idx] & reg_mask, name_of),
                    peers[0] if peers else (),
                )
                _connect_temps(
                    graph, added, def_temps,
                    _mask_names(live_out_bits[idx] & reg_mask, name_of),
                    peers[1] if peers else (),
                )
                _record_temps(temps_by_uid, instr.uid, use_temps, def_temps)
        return added

    node_set = set(graph.nodes())
    for label in own_labels:
        block = ctx.fn.blocks[label]
        live_in = liveness.instr_live_in(label)
        live_out = liveness.instr_live_out(label)
        for idx, instr in enumerate(block.instrs):
            use_temps, def_temps = _instr_temps(instr, new_vars)
            if not use_temps and not def_temps:
                continue
            peers = temps_by_uid.get(instr.uid)
            live_in_regs = {
                v for v in live_in[idx] if v in node_set and v not in all_spilled
            }
            live_out_regs = {
                v for v in live_out[idx] if v in node_set and v not in all_spilled
            }
            _connect_temps(
                graph, added, use_temps, live_in_regs,
                peers[0] if peers else (),
            )
            _connect_temps(
                graph, added, def_temps, live_out_regs,
                peers[1] if peers else (),
            )
            _record_temps(temps_by_uid, instr.uid, use_temps, def_temps)
    return added
