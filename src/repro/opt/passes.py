"""Scalar and CFG optimization passes.

All passes are *functional*: they take a function, work on a clone, and
return ``(new_fn, changed)``.  They preserve observable behaviour (returned
values, final array state) -- property-tested in ``tests/test_opt.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.liveness import compute_liveness
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPS,
    Instr,
    Opcode,
    UNARY_OPS,
    eval_binary,
    eval_unary,
)

#: Opcodes that may be deleted when their results are dead: no memory
#: writes, no control effects.  LOAD/SPILL_LD are included -- the toy
#: memory model has no traps or volatile locations.
_EFFECT_FREE = (
    frozenset(BINARY_OPS)
    | frozenset(UNARY_OPS)
    | {Opcode.CONST, Opcode.COPY, Opcode.MOVE, Opcode.LOAD, Opcode.SPILL_LD}
)


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------
def constant_fold(fn: Function) -> Tuple[Function, bool]:
    """Fold constant expressions and branches (block-local propagation).

    Within each block, definitions by ``CONST`` feed later operands; fully
    constant arithmetic collapses to ``CONST``; a ``CBR`` whose condition is
    a known constant becomes an unconditional edge (unreachable blocks are
    then dropped).
    """
    out = fn.clone()
    changed = False
    for block in out.blocks.values():
        consts: Dict[str, object] = {}
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            op = instr.op
            folded: Optional[Instr] = None
            if op in BINARY_OPS and all(u in consts for u in instr.uses):
                value = eval_binary(
                    op, consts[instr.uses[0]], consts[instr.uses[1]]
                )
                folded = Instr(Opcode.CONST, defs=instr.defs, imm=value)
            elif op in UNARY_OPS and instr.uses[0] in consts:
                value = eval_unary(op, consts[instr.uses[0]])
                folded = Instr(Opcode.CONST, defs=instr.defs, imm=value)
            elif op in (Opcode.COPY, Opcode.MOVE) and instr.uses[0] in consts:
                folded = Instr(
                    Opcode.CONST, defs=instr.defs, imm=consts[instr.uses[0]]
                )
            elif op is Opcode.CBR and instr.uses[0] in consts:
                taken = 0 if consts[instr.uses[0]] else 1
                block.succ_labels = [block.succ_labels[taken]]
                out.invalidate_caches()
                folded = Instr(Opcode.BR)

            if folded is not None:
                changed = True
                instr = folded

            # Update the constant environment.
            if instr.op is Opcode.CONST:
                consts[instr.defs[0]] = instr.imm
            else:
                for var in instr.defs:
                    consts.pop(var, None)
            new_instrs.append(instr)
        block.instrs = new_instrs

    if changed:
        dropped = _drop_unreachable(out)
        changed = True
    return out, changed


def _drop_unreachable(fn: Function) -> int:
    """Delete blocks unreachable from start (the stop block is kept -- a
    function whose stop became unreachable would not validate, and no
    terminating program folds that way)."""
    reachable = fn.reachable()
    doomed = [
        label
        for label in list(fn.blocks)
        if label not in reachable and label != fn.stop_label
    ]
    for label in doomed:
        del fn.blocks[label]
    if doomed:
        fn.invalidate_caches()
    return len(doomed)


# ---------------------------------------------------------------------------
# copy propagation
# ---------------------------------------------------------------------------
def copy_propagate(fn: Function) -> Tuple[Function, bool]:
    """Within each block, replace uses of copy destinations by the copied
    source while both stay unmodified."""
    out = fn.clone()
    changed = False
    for block in out.blocks.values():
        available: Dict[str, str] = {}  # copy dst -> original src
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if any(u in available for u in instr.uses):
                instr = instr.replace(
                    uses=tuple(available.get(u, u) for u in instr.uses)
                )
                changed = True
            for var in instr.defs:
                available.pop(var, None)
                for dst in [d for d, s in available.items() if s == var]:
                    available.pop(dst)
            if (
                instr.op in (Opcode.COPY, Opcode.MOVE)
                and instr.defs
                and instr.uses
                and instr.defs[0] != instr.uses[0]
            ):
                available[instr.defs[0]] = instr.uses[0]
            new_instrs.append(instr)
        block.instrs = new_instrs
    return out, changed


# ---------------------------------------------------------------------------
# dead code elimination
# ---------------------------------------------------------------------------
def dead_code_eliminate(fn: Function, max_rounds: int = 10) -> Tuple[Function, bool]:
    """Remove effect-free instructions whose definitions are all dead."""
    out = fn.clone()
    changed_any = False
    for _ in range(max_rounds):
        liveness = compute_liveness(out)
        changed = False
        for label, block in out.blocks.items():
            live: Set[str] = set(liveness.live_out[label])
            kept_reversed: List[Instr] = []
            for instr in reversed(block.instrs):
                removable = (
                    instr.op in _EFFECT_FREE
                    and instr.defs
                    and not any(d in live for d in instr.defs)
                )
                if removable:
                    changed = True
                    continue
                live.difference_update(instr.defs)
                live.update(instr.uses)
                kept_reversed.append(instr)
            block.instrs = list(reversed(kept_reversed))
        if not changed:
            break
        changed_any = True
    return out, changed_any


# ---------------------------------------------------------------------------
# CFG simplification
# ---------------------------------------------------------------------------
def simplify_cfg(fn: Function) -> Tuple[Function, bool]:
    """Merge straight-line chains and drop empty pass-through blocks."""
    out = fn.clone()
    changed = False

    # Merge b -> c where b is c's unique predecessor and c is b's unique
    # successor.
    merged = True
    while merged:
        merged = False
        preds = out.predecessors_map()
        for label in list(out.blocks):
            block = out.blocks.get(label)
            if block is None or len(block.succ_labels) != 1:
                continue
            succ = block.succ_labels[0]
            if (
                succ == label
                or succ == out.stop_label
                or succ == out.start_label
                or len(preds[succ]) != 1
            ):
                continue
            successor = out.blocks[succ]
            if block.terminator is not None and block.terminator.op is Opcode.BR:
                block.instrs = block.instrs[:-1]
            elif block.terminator is not None:
                continue  # CBR with one successor should not occur
            block.instrs.extend(successor.instrs)
            block.succ_labels = list(successor.succ_labels)
            del out.blocks[succ]
            out.invalidate_caches()
            changed = True
            merged = True
            break

    # Drop empty pass-through blocks.
    for label in list(out.blocks):
        block = out.blocks.get(label)
        if (
            block is not None
            and label not in (out.start_label, out.stop_label)
            and block.is_empty()
            and len(block.succ_labels) == 1
            and block.succ_labels[0] != label
        ):
            out.remove_empty_block(label)
            changed = True

    return out, changed


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def optimize(fn: Function, max_rounds: int = 8) -> Function:
    """Run all passes to a fixed point."""
    current = fn
    for _ in range(max_rounds):
        round_changed = False
        for pass_fn in (constant_fold, copy_propagate, dead_code_eliminate,
                        simplify_cfg):
            current, changed = pass_fn(current)
            round_changed = round_changed or changed
        if not round_changed:
            return current
    return current
