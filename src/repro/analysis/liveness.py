"""Live-variable analysis.

Classic backward iterative dataflow over the CFG.  Besides block-level
``live_in``/``live_out`` sets the module exposes per-instruction live sets
(needed by interference construction) and per-edge liveness (needed to place
spill code on tile entry/exit edges, where the paper's ``Live_e(v)`` term is
evaluated).

There is one engine: :func:`compute_liveness` lowers the function into a
:class:`~repro.perf.arena.FunctionArena` (every operand interned once into a
dense :class:`~repro.perf.VarIndex`) and solves the equations with the
arena's scalar bitset worklist, so the transfer function of a block is two
machine-word operations (``use | (out & ~def)``) instead of Python set
algebra.  The string-facing API (frozensets keyed by label) is a façade
materialized from the bitsets; hot callers can use the ``*_bits`` twins
directly.  Per-instruction sets are memoized per block -- tiles revisit the
same blocks many times per coloring round -- and are scanned from the
arena's precomputed operand bitsets, so a scan after the function was
mutated (the arena retired) raises instead of answering stale.  The
string-set implementation in :mod:`repro.analysis.reference` is the test
oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.perf.arena import FunctionArena, build_arena
from repro.perf.varindex import VarIndex


class Liveness:
    """Result of live-variable analysis on one function.

    ``arena`` is the flat lowering the analysis ran over; ``index`` is its
    interning table, shared by every bitset this object hands out;
    ``live_in_bits``/``live_out_bits`` map block label to the block-level
    bitsets.  The classic ``live_in``/``live_out`` frozenset dicts are
    kept for compatibility and convenience.
    """

    def __init__(self, arena: FunctionArena) -> None:
        self.arena = arena
        self.index = index = arena.index
        labels = arena.labels
        self.live_in_bits: Dict[str, int] = dict(zip(labels, arena.live_in))
        self.live_out_bits: Dict[str, int] = dict(zip(labels, arena.live_out))
        self.live_in: Dict[str, FrozenSet[str]] = {
            label: index.frozenset_of(bits)
            for label, bits in self.live_in_bits.items()
        }
        self.live_out: Dict[str, FrozenSet[str]] = {
            label: index.frozenset_of(bits)
            for label, bits in self.live_out_bits.items()
        }
        # Per-instruction memos, filled lazily per block label.
        self._instr_out_bits: Dict[str, List[int]] = {}
        self._instr_in_bits: Dict[str, List[int]] = {}
        self._instr_out_sets: Dict[str, List[FrozenSet[str]]] = {}
        self._instr_in_sets: Dict[str, List[FrozenSet[str]]] = {}

    # ------------------------------------------------------------------
    # edge-level liveness
    # ------------------------------------------------------------------
    def live_on_edge(self, src: str, dst: str) -> FrozenSet[str]:
        """Variables live along control edge ``src -> dst``.

        Without phi nodes this is exactly ``live_in(dst)``; the paper's
        ``Live_e(v)`` predicate is membership in this set.
        """
        return self.live_in[dst]

    def live_on_edge_bits(self, src: str, dst: str) -> int:
        return self.live_in_bits[dst]

    # ------------------------------------------------------------------
    # instruction-level liveness
    # ------------------------------------------------------------------
    def instr_live_out_bits(self, label: str) -> List[int]:
        """For each instruction in block *label*, the bitset of variables
        live immediately *after* it (memoized)."""
        cached = self._instr_out_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[0]
        return cached

    def instr_live_in_bits(self, label: str) -> List[int]:
        """Bitsets of variables live immediately *before* each instruction
        (memoized)."""
        cached = self._instr_in_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[1]
        return cached

    def _scan_block(self, label: str) -> Tuple[List[int], List[int]]:
        """One backward pass over the arena's per-instruction bitsets,
        filling both memo lists (raises on a retired arena)."""
        arena = self.arena
        outs, ins = arena.scan_block(arena.block_id[label])
        self._instr_out_bits[label] = outs
        self._instr_in_bits[label] = ins
        return outs, ins

    def instr_live_out(self, label: str) -> List[FrozenSet[str]]:
        """For each instruction in block *label*, the set of variables live
        immediately *after* it (the set interference construction needs at
        each definition point)."""
        cached = self._instr_out_sets.get(label)
        if cached is None:
            index = self.index
            cached = [
                index.frozenset_of(bits)
                for bits in self.instr_live_out_bits(label)
            ]
            self._instr_out_sets[label] = cached
        return cached

    def instr_live_in(self, label: str) -> List[FrozenSet[str]]:
        """Variables live immediately *before* each instruction."""
        cached = self._instr_in_sets.get(label)
        if cached is None:
            index = self.index
            cached = [
                index.frozenset_of(bits)
                for bits in self.instr_live_in_bits(label)
            ]
            self._instr_in_sets[label] = cached
        return cached

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def live_through_blocks(self, labels) -> FrozenSet[str]:
        """Variables live into or out of any block in *labels*."""
        mask = 0
        for label in labels:
            mask |= self.live_in_bits[label] | self.live_out_bits[label]
        return self.index.frozenset_of(mask)


def block_use_def(block) -> Tuple[Set[str], Set[str]]:
    """(upward-exposed uses, defs) of a block."""
    uses: Set[str] = set()
    defs: Set[str] = set()
    for instr in block.instrs:
        for u in instr.uses:
            if u not in defs:
                uses.add(u)
        defs.update(instr.defs)
    return uses, defs


def compute_liveness(
    fn: Function, index: Optional[VarIndex] = None
) -> Liveness:
    """Iterative backward live-variable analysis over a fresh arena.

    Pass *index* to share an interning table across analyses of the same
    function; by default a fresh one is built (deterministically: names are
    interned in block/instruction order).
    """
    return liveness_from_arena(build_arena(fn, index))


def liveness_from_arena(arena: FunctionArena) -> Liveness:
    """Block-level liveness over a prepared
    :class:`~repro.perf.arena.FunctionArena` (solved on first use).

    The returned object carries the arena, so per-instruction scans read
    its precomputed operand bitsets instead of walking ``Instr`` objects.
    """
    if not arena.live_in and arena.labels:
        arena.compute_liveness()
    return Liveness(arena)
