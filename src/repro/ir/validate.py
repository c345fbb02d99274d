"""Structural validation of IR functions.

Checks the CFG invariants the paper's program model requires (section 2)
plus general well-formedness.  Allocator outputs are additionally validated
by :mod:`repro.machine.rewrite` (physical-register-only, pressure bounds).
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import (
    MEMORY_OPS,
    OPERAND_COUNTS_BY_VALUE,
    TERMINATOR_VALUES,
    Opcode,
    is_const_literal,
    is_phys,
    operand_count_error,
)


class IRValidationError(ValueError):
    """Raised when a function violates a structural invariant."""


#: Opcodes whose immediate names an array, a callee or a spill slot;
#: the parser reads each back as a ``str``.
_NAMING_VALUES = frozenset(op.value for op in MEMORY_OPS | {Opcode.CALL})


def validate_function(fn: Function, allow_unreachable: bool = False) -> None:
    """Raise :class:`IRValidationError` on the first violated invariant.

    Invariants:

    * start and stop blocks exist; start has no predecessors; stop has no
      successors (unique entry/exit, paper section 2);
    * every successor label resolves to a block (checked before any CFG
      map is built);
    * every instruction has its opcode's def and use counts
      (:data:`~repro.ir.instructions.OPERAND_COUNTS`), a ``CONST``
      holds an int, bool or finite float, and the array, callee or slot
      of a load, store, call or spill is a ``str``;
    * terminator arity matches successor count (CBR has exactly two
      successors, RET none or an edge to stop, others at most one);
    * non-terminator instructions do not appear after a terminator;
    * only calls clobber, and only physical registers;
    * every block except stop has at least one successor;
    * all blocks are reachable from start (unless *allow_unreachable*).
    """
    if fn.start_label not in fn.blocks:
        raise IRValidationError(f"missing start block {fn.start_label!r}")
    if fn.stop_label not in fn.blocks:
        raise IRValidationError(f"missing stop block {fn.stop_label!r}")

    # Labels first: every CFG map below indexes blocks by successor.
    for block in fn:
        for succ in block.succ_labels:
            if succ not in fn.blocks:
                raise IRValidationError(
                    f"block {block.label} branches to unknown label {succ!r}"
                )
    preds = fn.predecessors_map()
    if preds[fn.start_label]:
        raise IRValidationError(
            f"start block has predecessors: {preds[fn.start_label]}"
        )
    if fn.blocks[fn.stop_label].succ_labels:
        raise IRValidationError("stop block has successors")

    # Keyed by the opcode's string value, and the checks inline: this
    # loop runs per instruction on every prepare and allocated program.
    counts = OPERAND_COUNTS_BY_VALUE
    terminators = TERMINATOR_VALUES
    naming = _NAMING_VALUES
    for block in fn:
        term = block.terminator
        for instr in block.instrs[:-1]:
            if instr.op._value_ in terminators:
                raise IRValidationError(
                    f"terminator {instr.op} not last in block {block.label}"
                )
        for instr in block.instrs:
            want_defs, want_uses = counts[instr.op._value_]
            if (want_defs is not None and len(instr.defs) != want_defs) or (
                want_uses is not None and len(instr.uses) != want_uses
            ):
                raise IRValidationError(
                    f"block {block.label}: {operand_count_error(instr)}"
                )
            if instr.op is Opcode.CONST and not is_const_literal(instr.imm):
                raise IRValidationError(
                    f"block {block.label}: const takes an int, bool or "
                    f"finite float, not {instr.imm!r}"
                )
            if instr.op._value_ in naming and type(instr.imm) is not str:
                raise IRValidationError(
                    f"block {block.label}: {instr.op.value} names its "
                    f"array, callee or slot with a str, not {instr.imm!r}"
                )
            if not instr.clobbers:
                continue
            if instr.op is not Opcode.CALL:
                raise IRValidationError(
                    f"{instr.op.value} in block {block.label} clobbers "
                    f"{list(instr.clobbers)}; only calls clobber"
                )
            names = [r for r in instr.clobbers if not is_phys(r)]
            if names:
                raise IRValidationError(
                    f"call in block {block.label} clobbers {names}, which "
                    "are not physical registers"
                )
        if term is not None and term.op is Opcode.CBR:
            if len(block.succ_labels) != 2:
                raise IRValidationError(
                    f"CBR block {block.label} must have 2 successors, has "
                    f"{len(block.succ_labels)}"
                )
        elif block.label != fn.stop_label:
            if len(block.succ_labels) != 1:
                raise IRValidationError(
                    f"block {block.label} must have exactly 1 successor, has "
                    f"{len(block.succ_labels)}"
                )

    if not allow_unreachable:
        unreachable = set(fn.blocks) - fn.reachable()
        if unreachable:
            raise IRValidationError(
                f"unreachable blocks: {sorted(unreachable)}"
            )

