"""Spill-code placement and final program rewriting.

Once phase 2 has bound every tile, two jobs remain:

1. **Boundary code** (paper section 3, "Inserting Spill Code"): for every
   edge crossing a tile boundary and every variable live along it, compare
   the parent and child locations and plan the four cases -- Spill,
   Transfer, Reload, No Change.  Code lands in a fresh block on the edge;
   "stores and moves from a register must precede loads and moves to a
   register", and move cycles are broken with an idle register (or, in the
   worst case, a memory bounce).
2. **Reference rewriting**: within each tile's own blocks, references map
   to the tile's physical registers; references to memory-resident
   variables go through the operand temporaries colored during allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import HierarchicalConfig
from repro.core.info import FunctionContext
from repro.core.summary import MEM, TileAllocation, temp_node_name
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode, is_phys
from repro.machine.rewrite import spill_slot
from repro.tiles.tile import Tile
from repro.trace.events import BoundaryAction


@dataclass
class EdgePlan:
    """Planned fix-up operations for one boundary edge."""

    stores: List[Tuple[str, str]] = field(default_factory=list)  # (slot, src reg)
    moves: List[Tuple[str, str]] = field(default_factory=list)   # (dst, src)
    loads: List[Tuple[str, str]] = field(default_factory=list)   # (dst reg, slot)
    #: registers holding live values across this edge (cycle breaking).
    busy: Set[str] = field(default_factory=set)

    def empty(self) -> bool:
        return not (self.stores or self.moves or self.loads)


def plan_boundary_code(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    allocations: Dict[int, TileAllocation],
) -> Dict[Tuple[str, str], EdgePlan]:
    """Compute the :class:`EdgePlan` for every tile-crossing edge."""
    plans: Dict[Tuple[str, str], EdgePlan] = {}
    tree = ctx.tree
    tracer = ctx.tracer
    budget = ctx.budget
    for src, dst in ctx.fn.edges():
        if budget is not None:
            budget.charge(1, "edges")
        t_src = tree.tile_of(src)
        t_dst = tree.tile_of(dst)
        if t_src is t_dst:
            continue
        if t_dst.parent is t_src:
            parent, child, child_tile, entering = t_src, t_dst, t_dst, True
        elif t_src.parent is t_dst:
            parent, child, child_tile, entering = t_dst, t_src, t_src, False
        else:  # pragma: no cover - tree legality guarantees adjacency
            raise AssertionError(f"edge {src}->{dst} spans non-adjacent tiles")

        parent_phys = allocations[parent.tid].phys
        child_phys = allocations[child.tid].phys
        plan = EdgePlan()
        live = sorted(ctx.liveness.live_on_edge(src, dst))
        for var in live:
            lp = parent_phys.get(var, MEM)
            lc = child_phys.get(var, MEM)
            for loc in (lp, lc):
                if loc != MEM:
                    plan.busy.add(loc)
            store_avoided = False
            if lp == lc:
                pass  # No Change (or same register throughout)
            elif entering:
                if lp != MEM and lc == MEM:       # Spill
                    plan.stores.append((spill_slot(var), lp))
                elif lp != MEM and lc != MEM:     # Transfer
                    plan.moves.append((lc, lp))
                elif lp == MEM and lc != MEM:     # Reload
                    plan.loads.append((lc, spill_slot(var)))
            else:
                if lp != MEM and lc == MEM:       # Spill (exit half)
                    plan.loads.append((lp, spill_slot(var)))
                elif lp != MEM and lc != MEM:     # Transfer (exit half)
                    plan.moves.append((lp, lc))
                elif lp == MEM and lc != MEM:     # Reload (exit half)
                    # "The spill is unnecessary because v was never
                    # modified in the loop": skip the store when nothing in
                    # the subtile defines the variable.
                    if not config.store_avoidance or ctx.defined_in_subtree(
                        child_tile, var
                    ):
                        plan.stores.append((spill_slot(var), lc))
                    else:
                        store_avoided = True
            if tracer.enabled:
                action = _boundary_case(lp, lc)
                tracer.emit(BoundaryAction(
                    edge=(src, dst),
                    parent_tile=parent.tid, child_tile=child.tid,
                    entering=entering, var=var, action=action,
                    parent_loc=lp, child_loc=lc,
                    store_avoided=store_avoided,
                ))
                tracer.count(f"boundary.{action}")
        if not plan.empty():
            plans[(src, dst)] = plan
    return plans


def _boundary_case(parent_loc: str, child_loc: str) -> str:
    """Name the paper's section-3 case for one (parent, child) location
    pair: Spill, Transfer, Reload, or No Change."""
    if parent_loc == child_loc:
        return "no_change"
    if parent_loc != MEM and child_loc == MEM:
        return "spill"
    if parent_loc != MEM and child_loc != MEM:
        return "transfer"
    return "reload"


def sequence_moves(
    plan: EdgePlan, registers: List[str], edge: Tuple[str, str],
    budget=None,
) -> List[Instr]:
    """Order one edge's operations; break register-move cycles.

    Returns the instruction list for the fix-up block: stores first, then
    the sequenced moves, then loads.
    """
    instrs: List[Instr] = [
        Instr(Opcode.SPILL_ST, uses=(src,), imm=slot) for slot, src in plan.stores
    ]

    pending: Dict[str, str] = {}
    for dst, src in plan.moves:
        if dst != src:
            if dst in pending:  # pragma: no cover - planner keeps dsts unique
                raise AssertionError(f"duplicate move target {dst} on {edge}")
            pending[dst] = src

    bounce_slot = f"cycle:{edge[0]}->{edge[1]}"
    free_candidates = [r for r in registers if r not in plan.busy]

    while pending:
        if budget is not None:
            budget.charge(1, "moves")
        sources = set(pending.values())
        movable = [d for d in pending if d not in sources]
        if movable:
            dst = movable[0]
            src = pending.pop(dst)
            instrs.append(Instr(Opcode.MOVE, defs=(dst,), uses=(src,)))
            continue
        # Pure cycle: save one destination's current value, redirect the
        # move that consumes it.
        dst = next(iter(sorted(pending)))
        if free_candidates:
            temp = free_candidates[0]
            instrs.append(Instr(Opcode.MOVE, defs=(temp,), uses=(dst,)))
            replacement = temp
        else:
            # "In the worst case a register must be spilled just to provide
            # an idle register" -- we bounce through memory instead, which
            # is the same cost without disturbing a third register.
            instrs.append(
                Instr(Opcode.SPILL_ST, uses=(dst,), imm=f"{bounce_slot}:{dst}")
            )
            replacement = f"{bounce_slot}:{dst}"
        for d, s in list(pending.items()):
            if s == dst:
                pending[d] = replacement

    # Resolve memory bounces among sequenced moves.
    resolved: List[Instr] = []
    for instr in instrs:
        if instr.op is Opcode.MOVE and instr.uses[0].startswith("cycle:"):
            resolved.append(
                Instr(Opcode.SPILL_LD, defs=instr.defs, imm=instr.uses[0])
            )
        else:
            resolved.append(instr)
    instrs = resolved

    instrs.extend(
        Instr(Opcode.SPILL_LD, defs=(dst,), imm=slot) for dst, slot in plan.loads
    )
    return instrs


def rewrite_program(
    ctx: FunctionContext,
    config: HierarchicalConfig,
    allocations: Dict[int, TileAllocation],
) -> Function:
    """Produce the final physical-register function (mutates ``ctx.fn``)."""
    fn = ctx.fn
    plans = plan_boundary_code(ctx, config, allocations)

    # Rewrite references block by block.
    for label in list(fn.blocks):
        tile = ctx.tree.tile_of(label)
        _rewrite_block(fn.blocks[label], allocations[tile.tid], config)

    # Materialize boundary code on its edges.  all_occurrences: when a CBR's
    # arms coincide, the edge appears twice in the successor list and the
    # spill block must intercept both traversals.
    for (src, dst), plan in sorted(plans.items()):
        instrs = sequence_moves(
            plan, ctx.machine.registers, (src, dst), budget=ctx.budget
        )
        block = fn.insert_block_on_edge(
            src, dst, label=fn.new_label("sp"), all_occurrences=True
        )
        block.instrs = instrs

    # Drop construction fix-up blocks that received no code.
    for label in ctx.fixup.inserted_labels:
        block = fn.blocks.get(label)
        if block is not None and block.is_empty() and len(block.succ_labels) == 1:
            if label not in (fn.start_label, fn.stop_label):
                fn.remove_empty_block(label)

    # Parameters: rename to the root tile's register when it has one.
    root_phys = allocations[ctx.tree.root.tid].phys
    fn.params = [
        root_phys[p] if root_phys.get(p) not in (None, MEM) else p
        for p in fn.params
    ]
    return fn


def _rewrite_block(
    block, alloc: TileAllocation, config: HierarchicalConfig
) -> None:
    loc = alloc.phys
    reserve = config.spill_temp_strategy == "reserve"
    new_instrs: List[Instr] = []
    for instr in block.instrs:
        loads: List[Instr] = []
        stores: List[Instr] = []
        use_map: Dict[str, str] = {}
        reserved_idx = 0
        for var in dict.fromkeys(instr.uses):
            location = loc.get(var)
            if location is None:
                raise AssertionError(
                    f"variable {var!r} has no location in tile #{alloc.tile_id}"
                )
            if location != MEM:
                use_map[var] = location
                continue
            if reserve:
                reg = alloc.reserved_regs[reserved_idx % len(alloc.reserved_regs)]
                reserved_idx += 1
            else:
                reg = loc[temp_node_name(instr.uid, var, "u")]
            loads.append(Instr(Opcode.SPILL_LD, defs=(reg,), imm=spill_slot(var)))
            use_map[var] = reg
        def_map: Dict[str, str] = {}
        reserved_idx = 0
        for var in dict.fromkeys(instr.defs):
            location = loc.get(var)
            if location is None:
                raise AssertionError(
                    f"variable {var!r} has no location in tile #{alloc.tile_id}"
                )
            if location != MEM:
                def_map[var] = location
                continue
            if reserve:
                reg = alloc.reserved_regs[reserved_idx % len(alloc.reserved_regs)]
                reserved_idx += 1
            else:
                reg = loc[temp_node_name(instr.uid, var, "d")]
            def_map[var] = reg
            stores.append(Instr(Opcode.SPILL_ST, uses=(reg,), imm=spill_slot(var)))
        new_instrs.extend(loads)
        new_instrs.append(instr.replace(
            uses=tuple(use_map[v] for v in instr.uses),
            defs=tuple(def_map[v] for v in instr.defs),
        ))
        new_instrs.extend(stores)
    block.instrs = new_instrs
