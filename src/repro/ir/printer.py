"""Textual rendering of the toy IR (inverse of :mod:`repro.ir.parser`),
and the stamp that tells when a function's text is still what it was."""

from __future__ import annotations

from operator import is_
from typing import List, Sequence

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


#: Closes each variable-length run of a stamp (the parameters, a
#: block's instructions, its successors), so one run cannot shift into
#: the next.  Nothing in a function is this object.
_END = object()


def text_stamp(fn) -> List[object]:
    """References to what :func:`format_function` reads from *fn*, in
    the order it reads them: the name, the parameters, the start and
    stop labels, then for each block in
    :meth:`~repro.ir.function.Function.block_order` (the entry
    ``fn.blocks`` holds for the label) its ``label``, each instruction,
    and its ``succ_labels``.

    Two stamps of a function that hold the same objects in the same
    places (:func:`same_stamp`) mean the same text: an
    :class:`~repro.ir.instructions.Instr` cannot change once built and
    its immediate is immutable, and the names and labels are strings.
    The comparison is by identity because ``==`` is not enough: two
    instructions holding ``1`` and ``True`` (or ``0.0`` and ``-0.0``)
    print differently.
    """
    refs: List[object] = [fn.name, *fn.params, _END, fn.start_label,
                          fn.stop_label]
    blocks = fn.blocks
    for label in fn.block_order():
        block = blocks[label]
        refs.append(block.label)
        refs += block.instrs
        refs.append(_END)
        refs += block.succ_labels
        refs.append(_END)
    return refs


def same_stamp(kept: Sequence[object], stamp: Sequence[object]) -> bool:
    """True when *stamp* holds the very objects *kept* holds, in the
    same places."""
    return len(kept) == len(stamp) and all(map(is_, kept, stamp))
