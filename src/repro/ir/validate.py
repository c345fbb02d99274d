"""Structural validation of IR functions.

Checks the CFG invariants the paper's program model requires (section 2)
plus general well-formedness.  Allocator outputs are additionally validated
by :mod:`repro.machine.rewrite` (physical-register-only, pressure bounds).
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Opcode, is_phys


class IRValidationError(ValueError):
    """Raised when a function violates a structural invariant."""


def validate_function(fn: Function, allow_unreachable: bool = False) -> None:
    """Raise :class:`IRValidationError` on the first violated invariant.

    Invariants:

    * start and stop blocks exist; start has no predecessors; stop has no
      successors (unique entry/exit, paper section 2);
    * every successor label resolves to a block;
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

    preds = fn.predecessors_map()
    if preds[fn.start_label]:
        raise IRValidationError(
            f"start block has predecessors: {preds[fn.start_label]}"
        )
    if fn.blocks[fn.stop_label].succ_labels:
        raise IRValidationError("stop block has successors")

    for block in fn:
        for succ in block.succ_labels:
            if succ not in fn.blocks:
                raise IRValidationError(
                    f"block {block.label} branches to unknown label {succ!r}"
                )
        term = block.terminator
        for instr in block.instrs[:-1]:
            if instr.is_terminator:
                raise IRValidationError(
                    f"terminator {instr.op} not last in block {block.label}"
                )
        for instr in block.instrs:
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

