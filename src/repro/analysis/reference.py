"""Reference (pre-bitset) analysis implementations.

The seed repository computed liveness and interference over Python string
sets; ``repro.analysis.liveness`` and ``repro.graph.interference`` now run
over interned bitsets.  This module preserves the original algorithms
verbatim as an *oracle*: the property tests assert the bitset
implementations produce exactly the same sets and edges on random
structured programs, and ``benchmarks/bench_scalability.py`` times them
to normalize its timing gates for machine speed.  Nothing in the
allocator imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.liveness import block_use_def
from repro.graph.interference import InterferenceGraph
from repro.ir.function import Function


class ReferenceLiveness:
    """String-set liveness result mirroring the seed's ``Liveness``."""

    def __init__(
        self,
        fn: Function,
        live_in: Dict[str, FrozenSet[str]],
        live_out: Dict[str, FrozenSet[str]],
    ) -> None:
        self._fn = fn
        self.live_in = live_in
        self.live_out = live_out

    def live_on_edge(self, src: str, dst: str) -> FrozenSet[str]:
        return self.live_in[dst]

    def instr_live_out(self, label: str) -> List[FrozenSet[str]]:
        block = self._fn.blocks[label]
        live: Set[str] = set(self.live_out[label])
        out: List[FrozenSet[str]] = [frozenset()] * len(block.instrs)
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            out[i] = frozenset(live)
            live.difference_update(instr.defs)
            live.update(instr.uses)
        return out

    def instr_live_in(self, label: str) -> List[FrozenSet[str]]:
        block = self._fn.blocks[label]
        live: Set[str] = set(self.live_out[label])
        result: List[FrozenSet[str]] = [frozenset()] * len(block.instrs)
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            live.difference_update(instr.defs)
            live.update(instr.uses)
            result[i] = frozenset(live)
        return result


def reference_liveness(fn: Function) -> ReferenceLiveness:
    """The seed's iterative backward dataflow over string sets."""
    use_map: Dict[str, Set[str]] = {}
    def_map: Dict[str, Set[str]] = {}
    for label, block in fn.blocks.items():
        uses, defs = block_use_def(block)
        use_map[label] = uses
        def_map[label] = defs

    live_in: Dict[str, Set[str]] = {label: set() for label in fn.blocks}
    live_out: Dict[str, Set[str]] = {label: set() for label in fn.blocks}

    order = list(fn.rpo())
    order_set = set(order)
    order += [label for label in fn.blocks if label not in order_set]
    worklist = list(reversed(order))
    in_worklist = set(worklist)
    preds = fn.predecessors_map()

    while worklist:
        label = worklist.pop()
        in_worklist.discard(label)
        block = fn.blocks[label]
        new_out: Set[str] = set()
        for succ in block.succ_labels:
            new_out.update(live_in[succ])
        new_in = use_map[label] | (new_out - def_map[label])
        if new_out != live_out[label] or new_in != live_in[label]:
            live_out[label] = new_out
            live_in[label] = new_in
            for pred in preds[label]:
                if pred not in in_worklist:
                    worklist.append(pred)
                    in_worklist.add(pred)

    return ReferenceLiveness(
        fn,
        {label: frozenset(s) for label, s in live_in.items()},
        {label: frozenset(s) for label, s in live_out.items()},
    )


def reference_interference(
    fn: Function,
    liveness: ReferenceLiveness,
    labels=None,
    relevant=None,
) -> InterferenceGraph:
    """The seed's Chaitin-style construction over string sets."""
    graph = InterferenceGraph()
    if labels is None:
        labels = list(fn.blocks)

    def keep(var: str) -> bool:
        return relevant is None or var in relevant

    for label in labels:
        block = fn.blocks[label]
        live_out_per_instr = liveness.instr_live_out(label)
        for instr, live_after in zip(block.instrs, live_out_per_instr):
            for var in instr.defs:
                if keep(var):
                    graph.add_node(var)
            for var in instr.uses:
                if keep(var):
                    graph.add_node(var)
            exempt: Set[str] = set()
            if instr.is_copy_like:
                exempt.add(instr.uses[0])
            written = instr.defs + instr.clobbers
            for var in instr.clobbers:
                if keep(var):
                    graph.add_node(var)
            for var in written:
                if not keep(var):
                    continue
                for other in live_after:
                    if other == var or other in exempt or not keep(other):
                        continue
                    graph.add_edge(var, other)
                for sibling in written:
                    if sibling != var and keep(sibling):
                        graph.add_edge(var, sibling)
    return graph
