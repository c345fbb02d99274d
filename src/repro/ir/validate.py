"""Structural validation of IR functions.

Checks the CFG invariants the paper's program model requires (section 2)
plus general well-formedness.  Allocator outputs are additionally validated
by :mod:`repro.machine.rewrite` (physical-register-only, pressure bounds).
"""

from __future__ import annotations

import re

from repro.ir.function import Function
from repro.ir.instructions import (
    MEMORY_OPS,
    OPERAND_COUNTS_BY_VALUE,
    SPILL_OPS,
    TERMINATOR_VALUES,
    Opcode,
    is_const_literal,
    is_phys,
    operand_count_error,
)
from repro.ir.parser import FUNC_NAME, LABEL, NAME, SLOT


class IRValidationError(ValueError):
    """Raised when a function violates a structural invariant."""


#: Opcodes whose immediate names an array, a callee or a spill slot;
#: the parser reads each back as a ``str``.
_NAMING_VALUES = frozenset(op.value for op in MEMORY_OPS | {Opcode.CALL})
_SLOT_VALUES = frozenset(op.value for op in SPILL_OPS)


def _check_all(items, pattern: str, what: str) -> None:
    """Raise unless each of *items* is a ``str`` that *pattern* matches.
    With one item, or a *pattern* that is a run of one character class,
    one match of their concatenation checks them all."""
    try:
        if "" not in items and re.fullmatch(f"(?:{pattern})?", "".join(items)):
            return
    except TypeError:  # an item that is not a str
        pass
    bad = min(repr(item) for item in items
              if type(item) is not str or not re.fullmatch(pattern, item))
    raise IRValidationError(f"{what} {bad} does not parse back")


def validate_function(fn: Function, allow_unreachable: bool = False) -> None:
    """Raise :class:`IRValidationError` on the first violated invariant.

    Invariants:

    * start and stop blocks exist; start has no predecessors; stop has no
      successors (unique entry/exit, paper section 2);
    * every name matches the parser's pattern for its position, and every
      block is labelled with its key, so the printed text parses back;
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
    _check_all([fn.name], FUNC_NAME, "function name")
    _check_all(fn.blocks, LABEL, "block label")
    # Each distinct parameter, def and use, checked once after the walk
    # below: a check per operand inside it costs twice as much.
    try:
        names = {*fn.params, *(name for block in fn for instr in block.instrs
                               for name in instr.defs + instr.uses)}
    except TypeError:  # an unhashable name
        raise IRValidationError("a name is not a str") from None
    slots = set()

    # Labels first: every CFG map below indexes blocks by successor.
    for label, block in fn.blocks.items():
        if block.label != label:
            raise IRValidationError(f"block {label!r} says {block.label!r}")
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
            if instr.op._value_ in naming:
                if type(instr.imm) is not str:
                    raise IRValidationError(
                        f"block {block.label}: {instr.op.value} names its "
                        f"array, callee or slot with a str, not {instr.imm!r}"
                    )
                kind = slots if instr.op._value_ in _SLOT_VALUES else names
                kind.add(instr.imm)
            if not instr.clobbers:
                continue
            if instr.op is not Opcode.CALL:
                raise IRValidationError(
                    f"{instr.op.value} in block {block.label} clobbers "
                    f"{list(instr.clobbers)}; only calls clobber"
                )
            bad = [r for r in instr.clobbers
                   if type(r) is not str or not is_phys(r)]
            if bad:
                raise IRValidationError(
                    f"call in block {block.label} clobbers {bad}, which "
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

    _check_all(names, NAME, "name")
    _check_all(slots, SLOT, "spill slot")

    if not allow_unreachable:
        unreachable = set(fn.blocks) - fn.reachable()
        if unreachable:
            raise IRValidationError(
                f"unreachable blocks: {sorted(unreachable)}"
            )

