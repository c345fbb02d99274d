"""Functions: control flow graphs of basic blocks.

Matches the paper's program model: ``G = (B, E, start, stop)`` with a unique
``start`` block with no predecessors and a unique ``stop`` block with no
successors (section 2).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import Instr


class Function:
    """A named CFG with parameters and a designated start/stop block pair.

    Blocks are held in an insertion-ordered dict keyed by label.  Edges are
    derived from each block's ``succ_labels``.  Mutating helpers
    (:meth:`insert_block_on_edge`, :meth:`add_block`) keep the successor
    lists consistent and invalidate the CFG-derived caches (:meth:`rpo`,
    :meth:`predecessors_map`, :meth:`edges`); code that edits
    ``succ_labels`` directly must call :meth:`invalidate_caches` itself.
    ``cfg_version`` increments on every invalidation, so downstream caches
    (tile boundary edges, liveness memos) can detect staleness cheaply.
    """

    def __init__(
        self,
        name: str,
        params: Iterable[str] = (),
        start_label: str = "start",
        stop_label: str = "stop",
    ) -> None:
        self.name = name
        self.params: List[str] = list(params)
        self.blocks: Dict[str, BasicBlock] = {}
        self.start_label = start_label
        self.stop_label = stop_label
        self._label_counter = itertools.count(1)
        #: bumped by :meth:`invalidate_caches`; external caches key on it.
        self.cfg_version = 0
        self._cfg_cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # CFG-derived caches
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop cached CFG queries after a structural mutation.

        The mutating helpers on this class call it automatically; callers
        that edit ``succ_labels`` in place or delete blocks directly must
        invoke it before the next :meth:`rpo`/:meth:`predecessors_map`/
        :meth:`edges` query.
        """
        self.cfg_version += 1
        self._cfg_cache.clear()

    # ------------------------------------------------------------------
    # block management
    # ------------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        self.invalidate_caches()
        return block

    def new_label(self, prefix: str = "bb") -> str:
        """A label not yet used in this function."""
        while True:
            label = f"{prefix}.{next(self._label_counter)}"
            if label not in self.blocks:
                return label

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def start(self) -> BasicBlock:
        return self.blocks[self.start_label]

    @property
    def stop(self) -> BasicBlock:
        return self.blocks[self.stop_label]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def predecessors_map(self) -> Dict[str, List[str]]:
        """Label -> list of predecessor labels (in deterministic order).

        Cached until the next :meth:`invalidate_caches`; callers must not
        mutate the returned structure.
        """
        cached = self._cfg_cache.get("preds")
        if cached is None:
            preds: Dict[str, List[str]] = {label: [] for label in self.blocks}
            for block in self.blocks.values():
                for succ in block.succ_labels:
                    preds[succ].append(block.label)
            self._cfg_cache["preds"] = cached = preds
        return cached

    def edges(self) -> List[Tuple[str, str]]:
        """All control flow edges as (src, dst) label pairs (cached; do not
        mutate the returned list)."""
        cached = self._cfg_cache.get("edges")
        if cached is None:
            out: List[Tuple[str, str]] = []
            for block in self.blocks.values():
                label = block.label
                for succ in block.succ_labels:
                    out.append((label, succ))
            self._cfg_cache["edges"] = cached = out
        return cached

    # ------------------------------------------------------------------
    # mutation helpers
    # ------------------------------------------------------------------
    def insert_block_on_edge(
        self,
        src: str,
        dst: str,
        label: Optional[str] = None,
        all_occurrences: bool = False,
    ) -> BasicBlock:
        """Split edge ``src -> dst`` with a fresh empty block.

        This is the paper's "inserted on an edge" operation: "a new basic
        block is created which is executed only when this edge is traversed;
        fix-up code is placed in this block."  If the edge occurs several
        times in the successor list (a CBR whose arms coincide), only the
        first occurrence is redirected unless ``all_occurrences`` is set.
        Spill-code placement must set it: code on the edge has to run on
        *every* traversal, whichever arm the branch takes.
        """
        if label is None:
            label = self.new_label("fix")
        new_block = BasicBlock(label, [], [dst])
        src_block = self.blocks[src]
        try:
            idx = src_block.succ_labels.index(dst)
        except ValueError:
            raise ValueError(f"no edge {src} -> {dst}") from None
        if all_occurrences:
            src_block.succ_labels = [
                label if s == dst else s for s in src_block.succ_labels
            ]
        else:
            src_block.succ_labels[idx] = label
        self.add_block(new_block)
        return new_block

    def remove_empty_block(self, label: str) -> None:
        """Unlink an empty pass-through block with a single successor.

        Used to clean fix-up blocks that received no spill code.
        """
        block = self.blocks[label]
        if label in (self.start_label, self.stop_label):
            raise ValueError("cannot remove start/stop block")
        if not block.is_empty() or len(block.succ_labels) != 1:
            raise ValueError(f"block {label} is not an empty pass-through block")
        target = block.succ_labels[0]
        for other in self.blocks.values():
            other.succ_labels = [
                target if s == label else s for s in other.succ_labels
            ]
        del self.blocks[label]
        self.invalidate_caches()

    # ------------------------------------------------------------------
    # whole-function queries
    # ------------------------------------------------------------------
    def variables(self) -> Set[str]:
        out: Set[str] = set(self.params)
        for block in self.blocks.values():
            out.update(block.variables())
        return out

    def instructions(self) -> Iterator[Tuple[BasicBlock, Instr]]:
        for block in self.blocks.values():
            for instr in block.instrs:
                yield block, instr

    def instr_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def rpo(self) -> List[str]:
        """Reverse postorder over block labels from the start block
        (cached; do not mutate the returned list)."""
        cached = self._cfg_cache.get("rpo")
        if cached is not None:
            return cached
        seen: Set[str] = set()
        order: List[str] = []
        stack: List[Tuple[str, Iterator[str]]] = []

        def push(label: str) -> None:
            seen.add(label)
            stack.append((label, iter(self.blocks[label].succ_labels)))

        push(self.start_label)
        while stack:
            label, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    push(succ)
                    advanced = True
                    break
            if not advanced:
                order.append(label)
                stack.pop()
        order.reverse()
        self._cfg_cache["rpo"] = order
        return order

    def reachable(self) -> Set[str]:
        return set(self.rpo())

    def block_order(self) -> List[str]:
        """:meth:`rpo`, then the unreachable labels sorted (do not mutate
        the returned list): the order
        :func:`~repro.ir.printer.format_function` prints and
        :meth:`canonical_copy` stores, never the dict's insertion order.
        """
        order = self.rpo()
        if len(order) == len(self.blocks):
            return order
        reachable = set(order)
        return order + sorted(
            label for label in self.blocks if label not in reachable
        )

    def renumber_uids(self) -> None:
        """Reassign instruction uids to function-local ordinals (1-based).

        Uids normally come from a process-global counter, so their absolute
        values depend on how many instructions the process has already
        parsed or cloned.  Operand-temporary names
        (``tmp:{uid}:{var}:{kind}``) embed the uid, which would make
        allocation results -- and the per-tile fingerprints of
        :mod:`repro.core.incremental` -- a function of process history.
        Renumbering in block dict/instruction order makes uids a pure
        function of the program text when the dict order is one (as in
        :meth:`canonical_copy`).  Only call on a private clone **before**
        any uid-keyed analysis (arena, liveness memos) is built.
        """
        uid = 1
        for block in self.blocks.values():
            for instr in block.instrs:
                instr.uid = uid
                uid += 1

    def clone(self) -> "Function":
        """Deep copy in block dict order, instruction uids preserved --
        neither of which the printed text carries (see
        :meth:`canonical_copy`)."""
        return self._copy(self.blocks)

    def canonical_copy(self) -> "Function":
        """Deep copy that is a function of the printed text: blocks in
        :meth:`block_order`, uids renumbered in that order.  Allocation
        starts from it (``pipeline.prepare``), so functions that print
        alike allocate alike."""
        fn = self._copy(self.block_order())
        fn.renumber_uids()
        return fn

    def _copy(self, labels: Iterable[str]) -> "Function":
        fn = Function(self.name, self.params, self.start_label, self.stop_label)
        for label in labels:
            fn.add_block(self.blocks[label].clone())
        fn._label_counter = itertools.count(self._next_counter_start())
        return fn

    def _next_counter_start(self) -> int:
        best = 1
        for label in self.blocks:
            parts = label.rsplit(".", 1)
            if len(parts) == 2 and parts[1].isdigit():
                best = max(best, int(parts[1]) + 1)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Function {self.name}: {len(self.blocks)} blocks>"
