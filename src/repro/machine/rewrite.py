"""Post-allocation program rewriting.

Two jobs:

* :func:`rewrite_spilled` -- Chaitin-style spill materialization: rewrite
  every reference to a spilled variable through a fresh short-lived
  temporary, inserting ``SPILL_LD``/``SPILL_ST`` around the reference.  Used
  by the flat baseline allocators between coloring iterations.
* :func:`apply_assignment` -- substitute every variable by its physical
  register once a complete assignment exists, and check the result.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode, is_phys

def spill_slot(var: str) -> str:
    """The memory slot key for a spilled variable.

    One slot per (renamed) variable: "there is a single memory location
    associated with each spilled variable."
    """
    return f"slot:{var}"


def fresh_temp(var: str, counter: "itertools.count") -> str:
    """A fresh operand-temporary name for a spilled variable reference.

    *counter* is per ``rewrite_spilled`` call, never process-global:
    temp names must be a pure function of the input so flat-allocator
    output (the degradation ladder's fallback rungs included) is
    bit-identical across repeated allocations in one process.  No
    cross-round collision is possible: a variable spilled in round *n*
    no longer appears as an operand in round *n+1*, and re-spilled temps
    get a longer ``@t``-suffixed name.
    """
    return f"{var}@t{next(counter)}"


def rewrite_spilled(
    fn: Function, spilled: Set[str], reuse_within_block: bool = False
) -> Tuple[Function, Set[str]]:
    """Rewrite references to *spilled* variables through spill temporaries.

    Every use gets a ``SPILL_LD`` into a fresh temporary immediately before
    the instruction; every def goes to a fresh temporary followed by a
    ``SPILL_ST``.  With *reuse_within_block* a loaded value is reused by
    subsequent uses in the same block until the next definition -- the
    "simple methods within a basic block [2][6]" the paper mentions.

    Returns the rewritten copy and the set of *single-reference*
    temporaries created.  Those have one-instruction live ranges and may
    safely be given infinite spill cost in the next coloring round; temps
    extended by within-block reuse are ordinary short-lived variables and
    must remain spillable.
    """
    out = fn.clone()
    temps: Set[str] = set()
    reused: Set[str] = set()
    temp_counter = itertools.count(1)
    for block in out.blocks.values():
        new_instrs: List[Instr] = []
        cached: Dict[str, str] = {}  # spilled var -> temp currently holding it
        for instr in block.instrs:
            use_map: Dict[str, str] = {}
            for var in instr.uses:
                if var not in spilled or var in use_map:
                    continue
                if reuse_within_block and var in cached:
                    use_map[var] = cached[var]
                    reused.add(cached[var])
                    continue
                temp = fresh_temp(var, temp_counter)
                temps.add(temp)
                new_instrs.append(
                    Instr(Opcode.SPILL_LD, defs=(temp,), imm=spill_slot(var))
                )
                use_map[var] = temp
                if reuse_within_block:
                    cached[var] = temp
            def_map: Dict[str, str] = {}
            stores: List[Instr] = []
            for var in instr.defs:
                if var not in spilled:
                    continue
                temp = fresh_temp(var, temp_counter)
                temps.add(temp)
                def_map[var] = temp
                stores.append(
                    Instr(Opcode.SPILL_ST, uses=(temp,), imm=spill_slot(var))
                )
                if reuse_within_block:
                    cached[var] = temp

            if use_map or def_map:
                # defs and uses map independently: an instruction that both
                # uses and defines a spilled variable reads one temp and
                # writes another.
                new_instrs.append(_def_then_use_rewrite(instr, def_map, use_map))
            else:
                new_instrs.append(instr)
            new_instrs.extend(stores)
        block.instrs = new_instrs
    return out, temps - reused


def _def_then_use_rewrite(instr: Instr, def_map, use_map) -> Instr:
    return instr.replace(
        uses=tuple(use_map.get(v, v) for v in instr.uses),
        defs=tuple(def_map.get(v, v) for v in instr.defs),
    )


def apply_assignment(
    fn: Function, assignment: Mapping[str, str], strict: bool = True
) -> Function:
    """Substitute variables by their assigned physical registers.

    With *strict* every variable occurring in *fn* must be mapped to a
    physical register name; the output is checked by
    :func:`check_physical`.
    """
    referenced = set()
    for _, instr in fn.instructions():
        referenced.update(instr.defs)
        referenced.update(instr.uses)
    missing = sorted(v for v in referenced if v not in assignment)
    if strict and missing:
        raise ValueError(f"unassigned variables: {missing}")

    out = fn.clone()
    for block in out.blocks.values():
        block.instrs = [
            instr.rewrite(lambda v: assignment.get(v, v))
            for instr in block.instrs
        ]
    # Parameters not referenced anywhere (e.g. fully spilled ones, whose
    # value reaches spill code through the home slot) keep their name.
    out.params = [assignment.get(p, p) for p in fn.params]
    if strict:
        check_physical(out)
    return out


class AllocationCheckError(RuntimeError):
    """The rewritten program violates a physical-machine invariant."""


def check_physical(fn: Function, num_registers: Optional[int] = None) -> None:
    """Verify a rewritten function touches only physical registers.

    Also bounds the register pressure implied by the liveness of the
    rewritten program when *num_registers* is given (it cannot exceed it,
    since registers are the variables now, but the check documents intent
    and catches rewriter bugs that leave virtual names behind).
    """
    # A rewritten function references the same handful of registers over
    # and over; validate each distinct name once.  ``int(var[1:])`` is
    # exactly ``phys_index`` for names ``is_phys`` already accepted.
    checked: set = set()
    for block in fn.blocks.values():
        for instr in block.instrs:
            for var in instr.defs + instr.uses:
                if var in checked:
                    continue
                if not is_phys(var):
                    raise AllocationCheckError(
                        f"virtual register {var!r} survives in block "
                        f"{block.label}: {instr!r}"
                    )
                if num_registers is not None and int(var[1:]) >= num_registers:
                    raise AllocationCheckError(
                        f"register {var} out of range for machine with "
                        f"{num_registers} registers"
                    )
                checked.add(var)


def remove_self_moves(fn: Function) -> int:
    """Drop ``copy R, R`` / ``move R, R`` no-ops (successful preferencing
    makes linkage copies collapse onto themselves).  Returns the count."""
    removed = 0
    for block in fn.blocks.values():
        kept = []
        for instr in block.instrs:
            if (
                instr.op in (Opcode.COPY, Opcode.MOVE)
                and instr.defs
                and instr.uses
                and instr.defs[0] == instr.uses[0]
            ):
                removed += 1
                continue
            kept.append(instr)
        block.instrs = kept
    return removed


def count_static_spill_code(fn: Function) -> Dict[str, int]:
    """Static counts of allocation-inserted instructions."""
    loads = stores = moves = 0
    for block in fn.blocks.values():
        for instr in block.instrs:
            if instr.op is Opcode.SPILL_LD:
                loads += 1
            elif instr.op is Opcode.SPILL_ST:
                stores += 1
            elif instr.op is Opcode.MOVE:
                moves += 1
    return {"spill_loads": loads, "spill_stores": stores, "moves": moves}
