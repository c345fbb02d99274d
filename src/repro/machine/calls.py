"""Linkage-convention lowering (paper section 6).

Two transformations executed *before* allocation:

* :func:`lower_calls` rewrites every ``CALL`` so that arguments flow through
  the machine's argument registers and results through its result registers,
  using explicit copies to/from variables *named* after physical registers.
  Such names act as precolored nodes in every allocator ("when certain
  values must be in particular physical registers ... those variables are
  assigned to the appropriate physical registers"), and the copies supply
  the preferences that let the allocator compute arguments directly into
  place.  The call itself clobbers the caller-save registers, so values
  live across it must sit in callee-save registers or memory.

* :func:`with_callee_save` materializes the paper's callee-save model:
  "each callee-save register is assumed to contain a live variable with
  weight commensurate with the save and restore cost and a preference to
  the callee-save register."  Each callee-save register becomes an incoming
  parameter copied into a pseudo variable at entry and restored before
  every return -- the allocator's ordinary spill analysis then performs
  shrink wrapping: the pseudo is only pushed to memory around the regions
  that actually need the register.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode, phys_reg
from repro.machine.target import Machine


class LinkageError(ValueError):
    """Raised when a call cannot be expressed in the machine's linkage."""


def callee_save_pseudo(index: int) -> str:
    """Name of the pseudo variable holding callee-save register *index*."""
    return f"csv:{index}"


def lower_calls(fn: Function, machine: Machine) -> Function:
    """Rewrite CALLs to use the machine's argument/result registers."""
    out = fn.clone()
    caller_save = tuple(phys_reg(i) for i in sorted(machine.caller_save))
    for block in out.blocks.values():
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if instr.op is not Opcode.CALL:
                new_instrs.append(instr)
                continue
            if len(instr.uses) > len(machine.arg_regs):
                raise LinkageError(
                    f"call to {instr.imm!r} passes {len(instr.uses)} args "
                    f"but the machine has {len(machine.arg_regs)} argument "
                    "registers"
                )
            if len(instr.defs) > len(machine.ret_regs):
                raise LinkageError(
                    f"call to {instr.imm!r} returns {len(instr.defs)} values "
                    f"but the machine has {len(machine.ret_regs)} result "
                    "registers"
                )
            arg_regs = [phys_reg(machine.arg_regs[i]) for i in range(len(instr.uses))]
            ret_regs = [phys_reg(machine.ret_regs[i]) for i in range(len(instr.defs))]
            for reg, var in zip(arg_regs, instr.uses):
                new_instrs.append(Instr(Opcode.COPY, defs=(reg,), uses=(var,)))
            new_instrs.append(instr.replace(
                uses=tuple(arg_regs),
                defs=tuple(ret_regs),
                clobbers=tuple(r for r in caller_save if r not in ret_regs),
            ))
            for var, reg in zip(instr.defs, ret_regs):
                new_instrs.append(Instr(Opcode.COPY, defs=(var,), uses=(reg,)))
        block.instrs = new_instrs
    return out


def with_callee_save(fn: Function, machine: Machine) -> Function:
    """Thread the callee-save registers through *fn* as live pseudos.

    The callee-save registers become extra parameters (their incoming
    values), are copied into ``csv:k`` pseudo variables at entry, restored
    into their registers before every return, and appended to the returned
    values -- so the standard differential check verifies the callee-save
    contract end to end.
    """
    if not machine.callee_save:
        return fn.clone()
    out = fn.clone()
    regs = [phys_reg(i) for i in sorted(machine.callee_save)]
    pseudos = [callee_save_pseudo(i) for i in sorted(machine.callee_save)]

    start = out.blocks[out.start_label]
    saves = [
        Instr(Opcode.COPY, defs=(pseudo,), uses=(reg,))
        for pseudo, reg in zip(pseudos, regs)
    ]
    start.instrs = saves + start.instrs
    out.params = list(out.params) + regs

    for block in out.blocks.values():
        term = block.terminator
        if term is None or term.op is not Opcode.RET:
            continue
        restores = [
            Instr(Opcode.COPY, defs=(reg,), uses=(pseudo,))
            for pseudo, reg in zip(pseudos, regs)
        ]
        ret = term.replace(uses=term.uses + tuple(regs))
        block.instrs = block.instrs[:-1] + restores + [ret]
    return out
