"""Basic blocks: straight-line instruction sequences with a label."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.ir.instructions import Instr, Opcode, TERMINATORS


class BasicBlock:
    """A labelled sequence of instructions.

    Successor labels are stored on the block itself (``succ_labels``); the
    owning :class:`~repro.ir.function.Function` derives the edge sets from
    them.  Control transfer semantics:

    * If the block ends in ``CBR``, ``succ_labels[0]`` is taken when the
      condition is truthy and ``succ_labels[1]`` otherwise.
    * Any other block with successors falls through (or ``BR``-jumps) to
      ``succ_labels[0]``.
    * The unique stop block has no successors.
    """

    __slots__ = ("label", "instrs", "succ_labels")

    def __init__(
        self,
        label: str,
        instrs: Optional[Iterable[Instr]] = None,
        succ_labels: Optional[Iterable[str]] = None,
    ) -> None:
        self.label = label
        self.instrs: List[Instr] = list(instrs) if instrs is not None else []
        self.succ_labels: List[str] = list(succ_labels) if succ_labels is not None else []

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instr]:
        """The trailing branch/return instruction, if present."""
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            return self.instrs[-1]
        return None

    @property
    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instrs[:-1]
        return list(self.instrs)

    def append(self, instr: Instr) -> None:
        """Append *instr*, keeping any terminator last."""
        if self.terminator is not None and not instr.is_terminator:
            self.instrs.insert(len(self.instrs) - 1, instr)
        else:
            self.instrs.append(instr)

    def insert_before_terminator(self, instrs: Iterable[Instr]) -> None:
        """Insert *instrs* immediately before the terminator (or at the end)."""
        instrs = list(instrs)
        if self.terminator is not None:
            pos = len(self.instrs) - 1
            self.instrs[pos:pos] = instrs
        else:
            self.instrs.extend(instrs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def variables(self) -> set:
        """All variables referenced anywhere in this block (clobbered
        registers included -- they participate in interference)."""
        out = set()
        for instr in self.instrs:
            out.update(instr.defs)
            out.update(instr.uses)
            out.update(instr.clobbers)
        return out

    def defs(self) -> set:
        out = set()
        for instr in self.instrs:
            out.update(instr.defs)
        return out

    def uses(self) -> set:
        out = set()
        for instr in self.instrs:
            out.update(instr.uses)
        return out

    def ref_count(self, var: str) -> int:
        """Number of static references to *var* (defs + uses), the paper's
        ``Refs_b(v)`` quantity."""
        count = 0
        for instr in self.instrs:
            count += instr.defs.count(var)
            count += instr.uses.count(var)
        return count

    def is_empty(self) -> bool:
        """True if the block contains no instructions or only a bare branch."""
        return all(i.op in (Opcode.BR, Opcode.NOP) for i in self.instrs)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.label}: {len(self.instrs)} instrs -> {self.succ_labels}>"

    def clone(self) -> "BasicBlock":
        """A copy with its own instruction and successor lists; the
        instructions themselves are shared (they are immutable)."""
        return BasicBlock(self.label, self.instrs, self.succ_labels)
