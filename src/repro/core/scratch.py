"""Memory-hierarchy extension (paper section 6).

"Some machines have more levels of programmer addressable memory hierarchy
than just registers and main memory.  Our techniques can be easily extended
to handle this hierarchy by moving variables between one hierarchical level
and another at the tile boundaries.  Allocation entails placing the
variable at the highest level where it can be allocated and relying on the
spill analysis to eliminate unprofitable moves between levels."

We model one intermediate level -- a small *scratch* memory with its own
(cheaper) access cost -- and implement the first half of the paper's
sketch: after allocation, each spilled variable competes for one of the
``machine.num_scratch`` scratch cells by spill weight, and the winners'
home slots move wholesale from main memory to scratch.  Per-tile movement
*between* the levels (the paper's second half) is left as future work and
documented in DESIGN.md; promotion is per variable, which already realizes
"placing the variable at the highest level where it can be allocated".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.allocators.base import AllocationOutcome
from repro.analysis.frequency import FrequencyInfo, estimate_frequencies
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode

#: Slot-key prefix marking the scratch level (the simulator tallies these
#: separately so the cost model can price them).
SCRATCH_PREFIX = "scratch:"
_SLOT_PREFIX = "slot:"


def spill_slot_references(fn: Function) -> Dict[str, float]:
    """Static spill references per slot key (unweighted)."""
    counts: Dict[str, float] = {}
    for _, instr in fn.instructions():
        if instr.op in (Opcode.SPILL_LD, Opcode.SPILL_ST):
            counts[instr.imm] = counts.get(instr.imm, 0.0) + 1
    return counts


def weighted_slot_traffic(
    fn: Function, freq: Optional[FrequencyInfo] = None
) -> Dict[str, float]:
    """Expected dynamic spill references per slot key."""
    freq = freq or estimate_frequencies(fn)
    traffic: Dict[str, float] = {}
    for label, block in fn.blocks.items():
        weight = freq.prob_block(label)
        for instr in block.instrs:
            if instr.op in (Opcode.SPILL_LD, Opcode.SPILL_ST):
                traffic[instr.imm] = traffic.get(instr.imm, 0.0) + weight
    return traffic


def promote_to_scratch(
    fn: Function,
    num_scratch: int,
    freq: Optional[FrequencyInfo] = None,
) -> Tuple[Function, List[str]]:
    """Move the hottest spilled variables' home slots into scratch.

    Returns the rewritten function and the promoted slot keys (ordered by
    expected traffic).  Only ordinary variable slots (``slot:*``) compete;
    cycle-bounce slots are untouched (they are rare by construction).
    """
    if num_scratch <= 0:
        return fn.clone(), []
    traffic = weighted_slot_traffic(fn, freq)
    # Parameter home slots stay in main memory: the calling convention
    # places arguments there, not in scratch.
    param_slots = {_SLOT_PREFIX + p for p in fn.params}
    candidates = sorted(
        (
            key
            for key in traffic
            if key.startswith(_SLOT_PREFIX) and key not in param_slots
        ),
        key=lambda key: (-traffic[key], key),
    )
    chosen = candidates[:num_scratch]
    mapping = {
        key: SCRATCH_PREFIX + key[len(_SLOT_PREFIX):] for key in chosen
    }

    out = fn.clone()
    for block in out.blocks.values():
        new_instrs = []
        for instr in block.instrs:
            if (
                instr.op in (Opcode.SPILL_LD, Opcode.SPILL_ST)
                and instr.imm in mapping
            ):
                new_instrs.append(instr.replace(imm=mapping[instr.imm]))
            else:
                new_instrs.append(instr)
        block.instrs = new_instrs
    return out, chosen


def hierarchy_cost(
    run,
    memory_cost: float = 1.0,
    scratch_cost: float = 0.3,
    move_cost: float = 0.0,
) -> float:
    """Weighted allocation-overhead cost under the two-level model."""
    return (
        (run.spill_loads + run.spill_stores - run.scratch_refs) * memory_cost
        + run.scratch_refs * scratch_cost
        + run.register_moves * move_cost
    )
