"""All-memory straw-man allocator.

Every variable lives in memory; each instruction loads its operands into
scratch registers and stores its result back.  This is the upper anchor for
the dynamic-memory-reference benches (what you pay with no allocation at
all) and doubles as a correctness oracle for the rewrite machinery since it
exercises every spill path.
"""

from __future__ import annotations

from typing import Dict, List

from repro.allocators.base import (
    AllocationOutcome,
    Allocator,
    AllocStats,
    record_spill_blocks,
)
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode, phys_reg
from repro.machine.rewrite import check_physical, spill_slot
from repro.machine.target import Machine


class NaiveMemoryAllocator(Allocator):
    """Spill everything; use at most three scratch registers."""

    name = "naive"

    def allocate(self, fn: Function, machine: Machine) -> AllocationOutcome:
        if machine.num_registers < 2:
            raise ValueError("naive allocator needs at least 2 registers")
        stats = AllocStats()
        stats.iterations = 1
        out = fn.clone()

        for block in out.blocks.values():
            new_instrs: List[Instr] = []
            for instr in block.instrs:
                reg_of: Dict[str, str] = {}
                for i, var in enumerate(dict.fromkeys(instr.uses)):
                    reg = phys_reg(i % machine.num_registers)
                    reg_of[var] = reg
                    new_instrs.append(
                        Instr(Opcode.SPILL_LD, defs=(reg,), imm=spill_slot(var))
                    )
                def_regs = [
                    phys_reg(i % machine.num_registers)
                    for i in range(len(instr.defs))
                ]
                new_instrs.append(instr.replace(
                    uses=tuple(reg_of[v] for v in instr.uses),
                    defs=tuple(def_regs),
                ))
                for var, reg in zip(instr.defs, def_regs):
                    new_instrs.append(
                        Instr(Opcode.SPILL_ST, uses=(reg,), imm=spill_slot(var))
                    )
            block.instrs = new_instrs

        # Parameters are found in their home slots (calling convention);
        # their names stay in the signature but are never referenced.
        stats.spilled_vars |= set(fn.variables())
        check_physical(out, machine.num_registers)
        record_spill_blocks(out, stats)
        return AllocationOutcome(out, machine, stats)
