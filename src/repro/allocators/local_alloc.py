"""Single-block local allocator.

The opposite extreme from Chaitin: perfect *local* usage sensitivity with
no global view at all.  Within each basic block registers are assigned
bottom-up with furthest-next-use eviction; across block boundaries every
variable lives in its memory slot.  The paper's allocator subsumes both
perspectives ("sensitive to local usage patterns while retaining a global
perspective"), and this baseline quantifies what the local half alone buys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.allocators.base import (
    AllocationOutcome,
    Allocator,
    AllocStats,
    record_spill_blocks,
)
from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode, phys_reg
from repro.machine.rewrite import check_physical, spill_slot
from repro.machine.target import Machine


class LocalAllocator(Allocator):
    """Per-block allocation; memory at every block boundary."""

    name = "local"

    def allocate(self, fn: Function, machine: Machine) -> AllocationOutcome:
        stats = AllocStats()
        stats.iterations = 1
        liveness = compute_liveness(fn)
        out = fn.clone()
        registers = machine.registers

        for label, block in out.blocks.items():
            live_out = liveness.live_out[label]
            new_instrs: List[Instr] = []
            in_reg: Dict[str, str] = {}      # var -> register holding it
            reg_holds: Dict[str, Optional[str]] = {r: None for r in registers}
            dirty: Set[str] = set()          # vars whose register copy is newer

            # Next-use positions for eviction decisions.
            positions: Dict[str, List[int]] = {}
            for idx, instr in enumerate(block.instrs):
                for var in instr.uses:
                    positions.setdefault(var, []).append(idx)

            def next_use(var: str, after: int) -> int:
                for pos in positions.get(var, ()):  # lists are short
                    if pos >= after:
                        return pos
                return 1 << 30

            def spill_out(var: str) -> None:
                reg = in_reg.pop(var)
                reg_holds[reg] = None
                if var in dirty:
                    new_instrs.append(
                        Instr(Opcode.SPILL_ST, uses=(reg,), imm=spill_slot(var))
                    )
                    dirty.discard(var)

            def take_register(idx: int, protect: Set[str]) -> str:
                for reg, holder in reg_holds.items():
                    if holder is None:
                        return reg
                # Evict the holder with the furthest next use.
                victim = max(
                    (v for v in in_reg if v not in protect),
                    key=lambda v: (next_use(v, idx), v),
                )
                reg = in_reg[victim]
                spill_out(victim)
                return reg

            for idx, instr in enumerate(block.instrs):
                protect = set(instr.uses)
                use_map: Dict[str, str] = {}
                for var in dict.fromkeys(instr.uses):
                    if var in in_reg:
                        use_map[var] = in_reg[var]
                        continue
                    reg = take_register(idx, protect)
                    new_instrs.append(
                        Instr(Opcode.SPILL_LD, defs=(reg,), imm=spill_slot(var))
                    )
                    in_reg[var] = reg
                    reg_holds[reg] = var
                    use_map[var] = reg

                # A definition may steal an operand's register: the machine
                # reads all uses before writing defs, and any dirty victim
                # is stored *before* this instruction executes.
                def_map: Dict[str, str] = {}
                for var in instr.defs:
                    if var in in_reg:
                        reg = in_reg[var]
                    else:
                        reg = take_register(idx + 1, set(def_map))
                        in_reg[var] = reg
                        reg_holds[reg] = var
                    def_map[var] = reg
                    dirty.add(var)

                new_instrs.append(instr.replace(
                    uses=tuple(use_map[v] for v in instr.uses),
                    defs=tuple(def_map[v] for v in instr.defs),
                ))

            # Terminators must stay last: flush dirty live-out values just
            # before the terminator.
            flush = [
                Instr(Opcode.SPILL_ST, uses=(in_reg[v],), imm=spill_slot(v))
                for v in sorted(dirty)
                if v in live_out
            ]
            if new_instrs and new_instrs[-1].is_terminator:
                new_instrs[-1:-1] = flush
            else:
                new_instrs.extend(flush)
            block.instrs = new_instrs

        # Parameters are found in their home slots (calling convention);
        # their names stay in the signature but are never referenced.
        stats.spilled_vars = set(fn.variables())
        check_physical(out, machine.num_registers)
        record_spill_blocks(out, stats)
        return AllocationOutcome(out, machine, stats)
