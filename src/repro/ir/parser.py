"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

The grammar is line-oriented::

    func NAME(p1, p2) start=LBL stop=LBL
    LBL:
      x = const 3
      y = add x, x
      z = load A[i]
      store A[i], z
      r = call f(x, y) clobbers R2, R3
      call g(z)
      cbr c
      -> then_lbl, else_lbl
    ...

Successor lists follow the block body on a ``->`` line.  A call may end
with ``clobbers`` and the physical registers it destroys (the linkage
lowering in :mod:`repro.machine.calls` adds them).  Round-tripping
``parse_function(format_function(fn))`` reproduces an equivalent function.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPS,
    Instr,
    Opcode,
    UNARY_OPS,
    is_const_literal,
    is_immediate,
    operand_count_error,
)

#: The name grammar: the parser reads each position by its pattern and
#: ``validate_function`` rejects a name outside it, so a valid function's
#: text parses back to it.  Variables, arrays and callees are NAMEs
#: (``.t3``, ``x%1``, ``csv:0``, ``R0``); a SLOT is any one line of text.
NAME = r"[\w.$%:]+"
LABEL = r"[\w.$%]+"
FUNC_NAME = r"\w[\w.]*"
SLOT = r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+"

_FUNC_RE = re.compile(
    rf"^func\s+({FUNC_NAME})\((.*?)\)\s+start=({LABEL})\s+stop=({LABEL})\s*$"
)
_LABEL_RE = re.compile(rf"^({LABEL}):\s*$")
_SUCC_RE = re.compile(r"^->\s*(.*)$")
_ASSIGN_RE = re.compile(r"^(.*?)\s*=\s*(.*)$")
_LOAD_RE = re.compile(rf"^load\s+({NAME})\[({NAME})\]$")
_STORE_RE = re.compile(rf"^store\s+({NAME})\[({NAME})\],\s*({NAME})$")
_CALL_RE = re.compile(
    rf"^call\s+({NAME})\((.*?)\)(?:\s+clobbers\s+(.+))?$"
)
_SPILL_ST_RE = re.compile(rf"^spillst\s+\[({SLOT})\],\s*({NAME})$")
_SPILL_LD_RE = re.compile(rf"^spillld\s+\[({SLOT})\]$")
_CBR_RE = re.compile(rf"^cbr\s+({NAME})$")
_RET_RE = re.compile(r"^ret(?:\s+(.*))?$")
#: Comma-separated lists of names and of labels, possibly empty.
_NAMES_RE = re.compile(rf"\s*(?:{NAME}(?:\s*,\s*{NAME})*)?\s*")
_LABELS_RE = re.compile(rf"\s*(?:{LABEL}(?:\s*,\s*{LABEL})*)?\s*")


class IRParseError(ValueError):
    """Raised on malformed IR text."""


def _split_names(text: str, names: re.Pattern = _NAMES_RE) -> List[str]:
    """The comma-separated names in *text*, as *names* matches them."""
    if not names.fullmatch(text):
        raise IRParseError(f"{text.strip()!r} is not a list of names")
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


# Fast-path table for rhs forms that are just ``mnemonic operand, ...``:
# one dict probe on the leading token beats attempting the load/call/spill
# regexes on the arithmetic lines that dominate real programs.  Opcodes
# with structured operands (load/call/spill) stay on the regex chain.
_SIMPLE_RHS_OPS = {
    op.value: op
    for op in (Opcode.CONST, Opcode.COPY, Opcode.MOVE, *BINARY_OPS, *UNARY_OPS)
}


def _call(m: re.Match, dsts: List[str]) -> Instr:
    """A CALL from a :data:`_CALL_RE` match, in either call form."""
    return Instr(
        Opcode.CALL,
        defs=tuple(dsts),
        uses=tuple(_split_names(m.group(2))),
        imm=m.group(1),
        clobbers=tuple(_split_names(m.group(3) or "")),
    )


def _literal(text: str):
    """``ast.literal_eval(text)``, or :class:`IRParseError` when *text*
    is not a literal or its value is not an immediate."""
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        raise IRParseError(f"{text!r} is not a literal") from None
    if not is_immediate(value):
        raise IRParseError(f"{text!r} is not an immutable literal")
    return value


def _const(text: str):
    value = _literal(text)
    if not is_const_literal(value):
        raise IRParseError(
            f"const takes an int, bool or finite float, not {text!r}"
        )
    return value


def _parse_rhs(dsts: List[str], rhs: str) -> Instr:
    rhs = rhs.strip()
    parts = rhs.split(None, 1)
    if not parts:
        raise IRParseError(f"empty right-hand side in {rhs!r}")
    op = _SIMPLE_RHS_OPS.get(parts[0])
    if op is not None:
        rest = parts[1] if len(parts) > 1 else ""
        if op is Opcode.CONST:
            return Instr(op, defs=tuple(dsts), imm=_const(rest))
        return Instr(op, defs=tuple(dsts), uses=tuple(_split_names(rest)))
    m = _LOAD_RE.match(rhs)
    if m:
        return Instr(Opcode.LOAD, defs=tuple(dsts), uses=(m.group(2),), imm=m.group(1))
    m = _CALL_RE.match(rhs)
    if m:
        return _call(m, dsts)
    m = _SPILL_LD_RE.match(rhs)
    if m:
        return Instr(Opcode.SPILL_LD, defs=tuple(dsts), imm=m.group(1))
    raise IRParseError(f"cannot parse rhs {rhs!r}")


def _parse_instr(line: str) -> Instr:
    m = _ASSIGN_RE.match(line)
    if m and "[" not in m.group(1):
        dsts = _split_names(m.group(1))
        return _parse_rhs(dsts, m.group(2))
    m = _STORE_RE.match(line)
    if m:
        return Instr(Opcode.STORE, uses=(m.group(2), m.group(3)), imm=m.group(1))
    m = _SPILL_ST_RE.match(line)
    if m:
        return Instr(Opcode.SPILL_ST, uses=(m.group(2),), imm=m.group(1))
    m = _CALL_RE.match(line)
    if m:
        return _call(m, [])
    if line == "br":
        return Instr(Opcode.BR)
    if line == "nop":
        return Instr(Opcode.NOP)
    m = _CBR_RE.match(line)
    if m:
        return Instr(Opcode.CBR, uses=(m.group(1),))
    m = _RET_RE.match(line)
    if m:
        return Instr(Opcode.RET, uses=tuple(_split_names(m.group(1) or "")))
    raise IRParseError(f"cannot parse instruction {line!r}")


def _parse_line(fn: Function, current: Optional[BasicBlock], line: str):
    """Add one body line to *fn*; returns the block now being filled."""
    lm = _LABEL_RE.match(line)
    if lm:
        label = lm.group(1)
        if label in fn.blocks:
            raise IRParseError(f"duplicate block label {label!r}")
        return fn.add_block(BasicBlock(label))
    sm = _SUCC_RE.match(line)
    if sm:
        if current is None:
            raise IRParseError("successor list before any block")
        current.succ_labels = _split_names(sm.group(1), _LABELS_RE)
        return current
    if current is None:
        raise IRParseError(f"instruction outside block: {line!r}")
    instr = _parse_instr(line)
    problem = operand_count_error(instr)
    if problem is not None:
        raise IRParseError(f"{problem}: {line!r}")
    current.instrs.append(instr)
    return current


def parse_function(text: str) -> Function:
    """Parse a single function from *text*.  A malformed line raises
    :class:`IRParseError` with its line number."""
    lines = [
        (number, ln.strip())
        for number, ln in enumerate(text.splitlines(), 1)
    ]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise IRParseError("empty input")
    number, header = lines[0]
    m = _FUNC_RE.match(header)
    if not m:
        raise IRParseError(f"line {number}: bad function header {header!r}")
    name, params_text, start_label, stop_label = m.groups()
    fn = Function(name, _split_names(params_text), start_label, stop_label)

    current: Optional[BasicBlock] = None
    for number, line in lines[1:]:
        try:
            current = _parse_line(fn, current, line)
        except IRParseError as exc:
            raise IRParseError(f"line {number}: {exc}") from None

    if fn.start_label not in fn.blocks or fn.stop_label not in fn.blocks:
        raise IRParseError("missing start or stop block")
    fn.invalidate_caches()
    return fn
