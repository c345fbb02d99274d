"""An interpreter for the toy IR.

The simulator serves three purposes:

1. **Objective function.** The paper's goal is "to minimize the number of
   dynamic memory references"; the simulator counts them exactly, split
   into program traffic (``LOAD``/``STORE``) and spill traffic
   (``SPILL_LD``/``SPILL_ST``), plus register moves.
2. **Differential verification.** The same interpreter runs both the
   virtual-register input program and the allocator's physical-register
   output; matching results certify the allocation was semantics-preserving
   (:func:`repro.pipeline.compile_function` runs that comparison).
3. **Profiler.** Block and edge execution counts form a profile that
   :mod:`repro.analysis.frequency` can consume, reproducing the paper's
   claim that "profiling information can be trivially incorporated".

Values are Python ints/floats.  Reading a never-written variable or a
clobbered (caller-save, post-call) register raises, which turns allocation
bugs into loud test failures instead of silent wrong answers.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_EVAL_BY_VALUE,
    Instr,
    Opcode,
    UNARY_EVAL_BY_VALUE,
)


class SimulationError(RuntimeError):
    """Raised on runtime errors: unset variables, step overruns, bad ops."""


class _Poison:
    """Sentinel stored into caller-save registers across calls."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<poison>"


POISON = _Poison()

#: Intrinsics callable via ``CALL``; deliberately small and pure.
INTRINSICS: Dict[str, Callable[..., Any]] = {
    "abs": lambda a: abs(a),
    "min2": lambda a, b: min(a, b),
    "max2": lambda a, b: max(a, b),
    "clamp": lambda x, lo, hi: max(lo, min(hi, x)),
    "sq": lambda a: a * a,
    "id": lambda a: a,
    "zero": lambda: 0,
}


@dataclass
class Profile:
    """Execution counts gathered during a run."""

    block_counts: Dict[str, int] = field(default_factory=dict)
    edge_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def merge(self, other: "Profile") -> "Profile":
        merged = Profile(dict(self.block_counts), dict(self.edge_counts))
        for label, count in other.block_counts.items():
            merged.block_counts[label] = merged.block_counts.get(label, 0) + count
        for edge, count in other.edge_counts.items():
            merged.edge_counts[edge] = merged.edge_counts.get(edge, 0) + count
        return merged


@dataclass
class ExecutionResult:
    """Outcome of one simulated run."""

    returned: Tuple[Any, ...]
    arrays: Dict[str, Dict[int, Any]]
    steps: int
    opcode_counts: Counter
    profile: Profile
    #: spill references that hit the intermediate scratch level (slot keys
    #: prefixed "scratch:"), a subset of the spill loads/stores.
    scratch_refs: int = 0

    @property
    def program_memory_refs(self) -> int:
        """Dynamic LOAD/STORE count (inherent to the program)."""
        return (
            self.opcode_counts[Opcode.LOAD] + self.opcode_counts[Opcode.STORE]
        )

    @property
    def spill_memory_refs(self) -> int:
        """Dynamic spill loads + stores (allocation overhead -- the paper's
        objective)."""
        return (
            self.opcode_counts[Opcode.SPILL_LD]
            + self.opcode_counts[Opcode.SPILL_ST]
        )

    @property
    def spill_loads(self) -> int:
        return self.opcode_counts[Opcode.SPILL_LD]

    @property
    def spill_stores(self) -> int:
        return self.opcode_counts[Opcode.SPILL_ST]

    @property
    def total_memory_refs(self) -> int:
        return self.program_memory_refs + self.spill_memory_refs

    @property
    def register_moves(self) -> int:
        """Dynamic register-to-register transfers inserted by allocation."""
        return self.opcode_counts[Opcode.MOVE]

    def cost(self, load_cost: float = 1.0, store_cost: float = 1.0,
             move_cost: float = 0.0) -> float:
        """Weighted allocation-overhead cost of the run."""
        return (
            self.opcode_counts[Opcode.SPILL_LD] * load_cost
            + self.opcode_counts[Opcode.SPILL_ST] * store_cost
            + self.opcode_counts[Opcode.MOVE] * move_cost
        )


def simulate(
    fn: Function,
    args: Optional[Mapping[str, Any]] = None,
    arrays: Optional[Mapping[str, Sequence[Any]]] = None,
    max_steps: int = 2_000_000,
    intrinsics: Optional[Mapping[str, Callable[..., Any]]] = None,
) -> ExecutionResult:
    """Execute *fn* and return an :class:`ExecutionResult`.

    Args:
        fn: the function to run (virtual- or physical-register form).
        args: values for ``fn.params``.
        arrays: initial array contents, copied before execution; indexable
            by non-negative int.  Out-of-range reads return 0 (arrays are
            conceptually unbounded zero-initialized memory).
        max_steps: instruction budget; exceeding it raises
            :class:`SimulationError` (guards non-terminating tests).
        intrinsics: overrides/extends the default ``CALL`` intrinsics.
    """
    env: Dict[str, Any] = {}
    slots: Dict[Any, Any] = {}
    args = dict(args or {})
    for param in fn.params:
        if param not in args:
            raise SimulationError(f"missing argument for parameter {param!r}")
        value = args.pop(param)
        env[param] = value
        # Calling convention: arguments are available both in their
        # parameter register and in their home memory slot, so an allocator
        # that spills a parameter finds it in memory without a prologue.
        slots[f"slot:{param}"] = value
    if args:
        raise SimulationError(f"unknown arguments: {sorted(args)}")

    memory: Dict[str, Dict[int, Any]] = {}
    for name, contents in (arrays or {}).items():
        if isinstance(contents, Mapping):
            memory[name] = dict(contents)
        else:
            memory[name] = {i: v for i, v in enumerate(contents)}

    callees = dict(INTRINSICS)
    if intrinsics:
        callees.update(intrinsics)

    counts: Counter = Counter()
    scratch_refs = 0
    block_counts: Dict[str, int] = defaultdict(int)
    edge_counts: Dict[Tuple[str, str], int] = defaultdict(int)
    returned: Tuple[Any, ...] = ()

    def read(name: str, instr: Instr, label: str) -> Any:
        try:
            value = env[name]
        except KeyError:
            raise SimulationError(
                f"read of unset variable {name!r} at {label}:{instr.op.value}"
            ) from None
        if value is POISON:
            raise SimulationError(
                f"read of clobbered register {name!r} at {label}:{instr.op.value}"
            )
        return value

    steps = 0
    label = fn.start_label
    finished = False
    while not finished:
        block = fn.blocks[label]
        block_counts[label] += 1
        next_label: Optional[str] = None
        for instr in block.instrs:
            steps += 1
            if steps > max_steps:
                raise SimulationError(f"exceeded {max_steps} steps")
            op = instr.op
            # Keyed by the opcode's string value (``_value_`` is the
            # plain instance attribute behind the ``value`` descriptor):
            # str hashing is C-level and cached, Enum.__hash__ is a
            # Python call paid once per dynamic instruction.  Rekeyed to
            # Opcode on return.  The arithmetic branches likewise dispatch
            # through value-keyed evaluator tables and inline the common
            # case of ``read`` (present, non-poison) to keep the dominant
            # opcodes free of extra Python calls.
            opv = op._value_
            counts[opv] += 1
            if op is Opcode.CONST:
                env[instr.defs[0]] = instr.imm
            elif op in (Opcode.COPY, Opcode.MOVE):
                name = instr.uses[0]
                value = env.get(name, POISON)
                if value is POISON:
                    value = read(name, instr, label)
                env[instr.defs[0]] = value
            elif (binfn := BINARY_EVAL_BY_VALUE.get(opv)) is not None:
                name = instr.uses[0]
                a = env.get(name, POISON)
                if a is POISON:
                    a = read(name, instr, label)
                name = instr.uses[1]
                b = env.get(name, POISON)
                if b is POISON:
                    b = read(name, instr, label)
                env[instr.defs[0]] = binfn(a, b)
            elif (unfn := UNARY_EVAL_BY_VALUE.get(opv)) is not None:
                name = instr.uses[0]
                a = env.get(name, POISON)
                if a is POISON:
                    a = read(name, instr, label)
                env[instr.defs[0]] = unfn(a)
            elif op is Opcode.LOAD:
                idx = read(instr.uses[0], instr, label)
                env[instr.defs[0]] = memory.setdefault(instr.imm, {}).get(idx, 0)
            elif op is Opcode.STORE:
                idx = read(instr.uses[0], instr, label)
                memory.setdefault(instr.imm, {})[idx] = read(
                    instr.uses[1], instr, label
                )
            elif op is Opcode.SPILL_ST:
                if isinstance(instr.imm, str) and instr.imm.startswith("scratch:"):
                    scratch_refs += 1
                slots[instr.imm] = read(instr.uses[0], instr, label)
            elif op is Opcode.SPILL_LD:
                if isinstance(instr.imm, str) and instr.imm.startswith("scratch:"):
                    scratch_refs += 1
                if instr.imm not in slots:
                    raise SimulationError(
                        f"reload from never-stored slot {instr.imm!r} at {label}"
                    )
                env[instr.defs[0]] = slots[instr.imm]
            elif op is Opcode.CALL:
                fnval = callees.get(instr.imm)
                if fnval is None:
                    raise SimulationError(f"unknown callee {instr.imm!r}")
                argv = [read(u, instr, label) for u in instr.uses]
                result = fnval(*argv)
                results = result if isinstance(result, tuple) else (result,)
                for dst, value in zip(instr.defs, results):
                    env[dst] = value
                for reg in instr.clobbers:
                    if reg not in instr.defs:
                        env[reg] = POISON
            elif op is Opcode.BR or op is Opcode.NOP:
                pass
            elif op is Opcode.CBR:
                cond = read(instr.uses[0], instr, label)
                next_label = block.succ_labels[0] if cond else block.succ_labels[1]
            elif op is Opcode.RET:
                returned = tuple(read(u, instr, label) for u in instr.uses)
            else:  # pragma: no cover - all opcodes handled
                raise SimulationError(f"unhandled opcode {op}")

        if label == fn.stop_label:
            finished = True
        else:
            if next_label is None:
                if not block.succ_labels:
                    raise SimulationError(
                        f"block {label} has no successors but is not stop"
                    )
                next_label = block.succ_labels[0]
            edge_counts[(label, next_label)] += 1
            label = next_label

    profile = Profile(dict(block_counts), dict(edge_counts))
    return ExecutionResult(
        returned=returned,
        arrays=memory,
        steps=steps,
        opcode_counts=Counter({Opcode(v): c for v, c in counts.items()}),
        profile=profile,
        scratch_refs=scratch_refs,
    )
