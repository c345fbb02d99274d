"""Instruction set of the toy IR.

Instructions are three-address operations over *virtual registers*
(arbitrary identifier strings).  After register allocation the same
instruction classes are reused with *physical register* names, which by
convention are spelled ``R0``, ``R1``, ... (see :func:`phys_reg`).

Every instruction carries explicit ``defs`` and ``uses`` tuples; the
allocators consume nothing else about an instruction except its opcode
(for spill-cost and preference special cases such as :attr:`Opcode.COPY`).
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from typing import Any, Optional, Tuple


class Opcode(enum.Enum):
    """Operation codes for the toy IR.

    The set is intentionally small but sufficient to express the numeric
    kernels and control-flow shapes used throughout the paper: arithmetic,
    comparisons, array loads/stores, branches, calls and the spill
    instructions inserted by register allocation.
    """

    # Value-producing operations.
    CONST = "const"     # dst = imm
    COPY = "copy"       # dst = src  (source of preferences, paper section 3)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"         # integer division semantics in the simulator
    MOD = "mod"
    NEG = "neg"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    NOT = "not"
    CMP_LT = "cmplt"
    CMP_LE = "cmple"
    CMP_EQ = "cmpeq"
    CMP_NE = "cmpne"
    CMP_GT = "cmpgt"
    CMP_GE = "cmpge"

    # Program-level memory traffic (distinct from spill traffic).
    LOAD = "load"       # dst = array[idx]      (imm = array name)
    STORE = "store"     # array[idx] = src      (imm = array name)

    # Calls (lowered before allocation by repro.machine.calls).
    CALL = "call"       # dsts = call imm(uses)

    # Control flow (block terminators).
    BR = "br"           # unconditional; successor taken from the block
    CBR = "cbr"         # conditional on single use; successors[0]=true
    RET = "ret"         # return uses; only legal in the stop block

    # Inserted by register allocation.
    SPILL_ST = "spillst"   # slot(imm) = src   -- store to a spill slot
    SPILL_LD = "spillld"   # dst = slot(imm)   -- reload from a spill slot
    MOVE = "move"          # dst = src         -- register-to-register transfer
    NOP = "nop"


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.BR, Opcode.CBR, Opcode.RET})

#: Opcodes whose execution touches memory (the quantity the paper minimizes
#: is *dynamic memory references*; spill traffic and program traffic are
#: tallied separately by the simulator).
MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.SPILL_ST, Opcode.SPILL_LD})

#: Spill instructions specifically (inserted by allocators).
SPILL_OPS = frozenset({Opcode.SPILL_ST, Opcode.SPILL_LD})

_BINARY_EVAL = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: int(a / b) if b != 0 else 0,
    Opcode.MOD: lambda a, b: a % b if b != 0 else 0,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.AND: lambda a, b: int(bool(a) and bool(b)),
    Opcode.OR: lambda a, b: int(bool(a) or bool(b)),
    Opcode.CMP_LT: lambda a, b: int(a < b),
    Opcode.CMP_LE: lambda a, b: int(a <= b),
    Opcode.CMP_EQ: lambda a, b: int(a == b),
    Opcode.CMP_NE: lambda a, b: int(a != b),
    Opcode.CMP_GT: lambda a, b: int(a > b),
    Opcode.CMP_GE: lambda a, b: int(a >= b),
}

_UNARY_EVAL = {
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: int(not a),
}

BINARY_OPS = frozenset(_BINARY_EVAL)
UNARY_OPS = frozenset(_UNARY_EVAL)

#: How many defs and uses each opcode takes (``None``: any number).
#: ``validate_function`` checks every instruction against it and the
#: parser every line, so no later stage indexes past an operand list.
OPERAND_COUNTS = {
    Opcode.CONST: (1, 0),
    Opcode.COPY: (1, 1),
    Opcode.MOVE: (1, 1),
    **{op: (1, 2) for op in BINARY_OPS},
    **{op: (1, 1) for op in UNARY_OPS},
    Opcode.LOAD: (1, 1),
    Opcode.STORE: (0, 2),
    Opcode.CALL: (None, None),
    Opcode.BR: (0, 0),
    Opcode.CBR: (0, 1),
    Opcode.RET: (0, None),
    Opcode.SPILL_ST: (0, 1),
    Opcode.SPILL_LD: (1, 0),
    Opcode.NOP: (0, 0),
}


#: :data:`OPERAND_COUNTS` and :data:`TERMINATORS` keyed by the opcode's
#: string value, for the per-instruction checks of ``validate_function``
#: (see :data:`BINARY_EVAL_BY_VALUE` below for why).
OPERAND_COUNTS_BY_VALUE = {op.value: n for op, n in OPERAND_COUNTS.items()}
TERMINATOR_VALUES = frozenset(op.value for op in TERMINATORS)


def operand_count_error(instr: "Instr") -> Optional[str]:
    """What is wrong with *instr*'s def and use counts, or ``None`` when
    they are those of :data:`OPERAND_COUNTS`."""
    want_defs, want_uses = OPERAND_COUNTS_BY_VALUE[instr.op._value_]
    if (want_defs is None or len(instr.defs) == want_defs) and (
        want_uses is None or len(instr.uses) == want_uses
    ):
        return None
    return (
        f"{instr.op.value} has {len(instr.defs)} def(s) and "
        f"{len(instr.uses)} use(s), not {want_defs} and {want_uses}"
    )


def is_const_literal(value) -> bool:
    """What ``CONST`` takes: an int, a bool or a finite float, the
    literals that the printer (``repr``), the parser
    (``ast.literal_eval``) and the simulator's arithmetic all keep."""
    kind = type(value)
    return kind is int or kind is bool or (
        kind is float and math.isfinite(value)
    )

#: Evaluator tables keyed by the opcode's string value: the simulator's
#: inner loop dispatches on ``op._value_`` because str hashing is C-level
#: while ``Enum.__hash__`` is a Python call per dynamic instruction.
BINARY_EVAL_BY_VALUE = {op.value: fn for op, fn in _BINARY_EVAL.items()}
UNARY_EVAL_BY_VALUE = {op.value: fn for op, fn in _UNARY_EVAL.items()}

_BY_MNEMONIC = {op.value: op for op in Opcode}

_PHYS_RE = re.compile(r"^R(\d+)$")

_instr_counter = itertools.count(1)

#: "Keep this field" in :meth:`Instr.replace` (``None`` is an immediate).
_KEEP = object()


def phys_reg(index: int) -> str:
    """Return the canonical name of physical register *index* (``R0`` ...)."""
    return f"R{index}"


def is_phys(name: str) -> bool:
    """True if *name* is a physical register name (``R<digits>``)."""
    # Equivalent to the regex (isdecimal == Unicode Nd == ``\d``) without
    # the per-call regex-engine cost; this predicate runs per reference in
    # several hot loops.
    return len(name) > 1 and name[0] == "R" and name[1:].isdecimal()


def phys_index(name: str) -> int:
    """Inverse of :func:`phys_reg`; raises ``ValueError`` on non-physical names."""
    m = _PHYS_RE.match(name)
    if m is None:
        raise ValueError(f"{name!r} is not a physical register name")
    return int(m.group(1))


#: Types an immediate may have: each value keeps one printed form for
#: life.  A flat tuple of them is accepted too.
IMMEDIATE_TYPES = frozenset({type(None), int, float, bool, str})


def is_immediate(imm) -> bool:
    """True when *imm* is one of :data:`IMMEDIATE_TYPES` or a flat
    tuple of them: what :class:`Instr` accepts."""
    if type(imm) in IMMEDIATE_TYPES:
        return True
    return type(imm) is tuple and all(type(v) in IMMEDIATE_TYPES for v in imm)


def _mutable_immediate(imm) -> TypeError:
    return TypeError(
        f"immediate {imm!r} is not a None/int/float/bool/str or a "
        "tuple of these"
    )


class _Fields:
    """An instruction's storage, filled by :meth:`Instr.__new__` before
    the object becomes an :class:`Instr` (whose own writes raise)."""

    __slots__ = ("op", "defs", "uses", "imm", "clobbers", "uid")


class Instr(_Fields):
    """A single three-address instruction, immutable once built: a pass
    that changes one builds a replacement (:meth:`replace`) and stores
    it in the block, so functions can share instructions, and an
    instruction that is the same object prints the same text
    (:func:`repro.ir.printer.text_stamp` relies on that).

    Attributes:
        op: the :class:`Opcode`.
        defs: variables defined (written) by this instruction.
        uses: variables used (read) by this instruction, in operand order.
        imm: opcode-specific payload -- the literal for ``CONST``, the array
            name for ``LOAD``/``STORE``, the callee name for ``CALL``, the
            spill-slot key for ``SPILL_LD``/``SPILL_ST``.  One of
            :data:`IMMEDIATE_TYPES` or a flat tuple of them; anything
            else raises ``TypeError``.
        clobbers: physical registers destroyed as a side effect (calls).
        uid: unique id, kept by :meth:`replace`, used to key
            per-instruction analysis results.
    """

    __slots__ = ()

    def __new__(
        cls,
        op: Opcode,
        defs: Tuple[str, ...] = (),
        uses: Tuple[str, ...] = (),
        imm: Any = None,
        clobbers: Tuple[str, ...] = (),
        uid: Optional[int] = None,
    ) -> "Instr":
        if type(imm) not in IMMEDIATE_TYPES and not is_immediate(imm):
            raise _mutable_immediate(imm)
        # Filled as a plain slotted object, then retyped: this costs
        # about what the old mutable dataclass did, where assigning
        # through ``object.__setattr__`` costs twice that.
        self = _Fields()
        self.op = op
        self.defs = defs if type(defs) is tuple else tuple(defs)
        self.uses = uses if type(uses) is tuple else tuple(uses)
        self.imm = imm
        self.clobbers = clobbers if type(clobbers) is tuple else tuple(clobbers)
        self.uid = next(_instr_counter) if uid is None else uid
        self.__class__ = cls
        return self

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(
            f"Instr is immutable: build a replacement with "
            f"Instr.replace({name}=...)"
        )

    __delattr__ = __setattr__

    def __reduce__(self):
        return (Instr, (self.op, self.defs, self.uses, self.imm,
                        self.clobbers, self.uid))

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_spill(self) -> bool:
        return self.op in SPILL_OPS

    @property
    def is_copy_like(self) -> bool:
        """Copies and moves generate preferences (paper section 3)."""
        return self.op in (Opcode.COPY, Opcode.MOVE)

    def variables(self) -> Tuple[str, ...]:
        """All variables referenced (defs then uses)."""
        return self.defs + self.uses

    def replace(self, *, op=_KEEP, defs=_KEEP, uses=_KEEP, imm=_KEEP,
                clobbers=_KEEP, uid=_KEEP) -> "Instr":
        """A new instruction with the given fields replaced and the
        others, the uid included, kept."""
        # Filled like ``__new__`` does, checking only what changes: the
        # web renaming, uid renumbering and spill rewrite replace
        # instructions one by one.
        new = _Fields()
        new.op = self.op if op is _KEEP else op
        new.defs = self.defs if defs is _KEEP else tuple(defs)
        new.uses = self.uses if uses is _KEEP else tuple(uses)
        if imm is _KEEP:
            new.imm = self.imm
        elif is_immediate(imm):
            new.imm = imm
        else:
            raise _mutable_immediate(imm)
        new.clobbers = self.clobbers if clobbers is _KEEP else tuple(clobbers)
        new.uid = self.uid if uid is _KEEP else uid
        new.__class__ = Instr
        return new

    def rewrite(self, mapping) -> "Instr":
        """A new instruction with defs/uses substituted through *mapping*.

        *mapping* is any callable ``old_name -> new_name``; names absent
        from the mapping should be returned unchanged by the callable.
        The ``uid`` is preserved so analysis keyed on uids stays valid.
        """
        return Instr(
            self.op, tuple(map(mapping, self.defs)),
            tuple(map(mapping, self.uses)), self.imm, self.clobbers,
            self.uid,
        )

    def fresh_clone(self) -> "Instr":
        """Structural copy with a brand-new uid."""
        return self.replace(uid=next(_instr_counter))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.ir.printer import format_instr

        return f"<Instr {format_instr(self)}>"


def make_binary(op: Opcode, dst: str, lhs: str, rhs: str) -> Instr:
    """Construct a binary arithmetic/comparison instruction."""
    if op not in BINARY_OPS:
        raise ValueError(f"{op} is not a binary opcode")
    return Instr(op, defs=(dst,), uses=(lhs, rhs))


def make_unary(op: Opcode, dst: str, src: str) -> Instr:
    """Construct a unary instruction."""
    if op not in UNARY_OPS:
        raise ValueError(f"{op} is not a unary opcode")
    return Instr(op, defs=(dst,), uses=(src,))


def eval_binary(op: Opcode, a, b):
    """Evaluate a binary opcode on concrete values (simulator hook)."""
    return _BINARY_EVAL[op](a, b)


def eval_unary(op: Opcode, a):
    """Evaluate a unary opcode on a concrete value (simulator hook)."""
    return _UNARY_EVAL[op](a)


def opcode_from_mnemonic(mnemonic: str) -> Opcode:
    """Look up an :class:`Opcode` by its textual mnemonic."""
    op = _BY_MNEMONIC.get(mnemonic)
    if op is None:
        raise ValueError(f"unknown opcode mnemonic {mnemonic!r}")
    return op
