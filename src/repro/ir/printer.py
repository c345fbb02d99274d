"""Textual rendering of the toy IR (inverse of :mod:`repro.ir.parser`)."""

from __future__ import annotations

from typing import List

from repro.ir.instructions import (
    BINARY_EVAL_BY_VALUE,
    Instr,
    Opcode,
    UNARY_EVAL_BY_VALUE,
)

# Membership on string values: str hashing is C-level, ``Enum.__hash__``
# is a Python call -- and the canonical-text renderer runs once per
# instruction per fingerprint.
_BINARY_VALUES = frozenset(BINARY_EVAL_BY_VALUE)
_UNARY_VALUES = frozenset(UNARY_EVAL_BY_VALUE)


def format_instr(instr: Instr) -> str:
    """One-line textual form of an instruction."""
    op = instr.op
    opv = op._value_
    if op is Opcode.CONST:
        return f"{instr.defs[0]} = const {instr.imm!r}"
    if op in (Opcode.COPY, Opcode.MOVE):
        return f"{instr.defs[0]} = {opv} {instr.uses[0]}"
    if opv in _BINARY_VALUES:
        return f"{instr.defs[0]} = {opv} {instr.uses[0]}, {instr.uses[1]}"
    if opv in _UNARY_VALUES:
        return f"{instr.defs[0]} = {opv} {instr.uses[0]}"
    if op is Opcode.LOAD:
        return f"{instr.defs[0]} = load {instr.imm}[{instr.uses[0]}]"
    if op is Opcode.STORE:
        return f"store {instr.imm}[{instr.uses[0]}], {instr.uses[1]}"
    if op is Opcode.CALL:
        dsts = ", ".join(instr.defs)
        args = ", ".join(instr.uses)
        prefix = f"{dsts} = " if dsts else ""
        text = f"{prefix}call {instr.imm}({args})"
        if instr.clobbers:
            text += " clobbers " + ", ".join(instr.clobbers)
        return text
    if op is Opcode.BR:
        return "br"
    if op is Opcode.CBR:
        return f"cbr {instr.uses[0]}"
    if op is Opcode.RET:
        return "ret " + ", ".join(instr.uses) if instr.uses else "ret"
    if op is Opcode.SPILL_ST:
        return f"spillst [{instr.imm}], {instr.uses[0]}"
    if op is Opcode.SPILL_LD:
        return f"{instr.defs[0]} = spillld [{instr.imm}]"
    if op is Opcode.NOP:
        return "nop"
    raise AssertionError(f"unhandled opcode {op}")


def format_block(block) -> str:
    lines: List[str] = [f"{block.label}:"]
    for instr in block.instrs:
        lines.append(f"  {format_instr(instr)}")
    if block.succ_labels:
        lines.append(f"  -> {', '.join(block.succ_labels)}")
    return "\n".join(lines)


def format_function(fn) -> str:
    """Multi-line textual form of a whole function, blocks in
    :meth:`~repro.ir.function.Function.block_order` (RPO, then the
    unreachable labels sorted).  The text carries neither the block
    dict's order nor the instruction uids, and allocation reads neither:
    ``pipeline.prepare`` starts from
    :meth:`~repro.ir.function.Function.canonical_copy`."""
    header = f"func {fn.name}({', '.join(fn.params)}) start={fn.start_label} stop={fn.stop_label}"
    parts = [header]
    for label in fn.block_order():
        parts.append(format_block(fn.blocks[label]))
    return "\n".join(parts) + "\n"
