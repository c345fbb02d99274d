"""Tests for the pipeline facade, machine description and rewrite helpers."""

import pytest

from repro.allocators import BriggsAllocator, ChaitinAllocator
from repro.allocators.base import AllocationOutcome, AllocStats
from repro.core import HierarchicalAllocator
from repro.ir.instructions import Instr, Opcode
from repro.machine.rewrite import (
    AllocationCheckError,
    apply_assignment,
    check_physical,
    count_static_spill_code,
    rewrite_spilled,
    spill_slot,
)
from repro.machine.simulator import SimulationError, simulate
from repro.machine.target import Machine
from repro.pipeline import Workload, compare_allocators, compile_function, prepare
from repro.workloads.kernels import dot


class TestMachine:
    def test_registers_named(self):
        m = Machine.simple(3)
        assert m.registers == ["R0", "R1", "R2"]

    def test_needs_one_register(self):
        with pytest.raises(ValueError):
            Machine(num_registers=0)

    def test_callee_save_range_checked(self):
        with pytest.raises(ValueError):
            Machine(num_registers=2, callee_save=frozenset({5}))

    def test_with_linkage(self):
        m = Machine.with_linkage(8, num_callee_save=3, num_args=2)
        assert m.callee_save == frozenset({5, 6, 7})
        assert m.arg_regs == (0, 1)
        assert m.ret_regs == (0,)
        assert m.caller_save == frozenset({0, 1, 2, 3, 4})
        assert m.callee_save_names() == ["R5", "R6", "R7"]

    def test_linkage_needs_caller_save(self):
        with pytest.raises(ValueError):
            Machine.with_linkage(2, num_callee_save=2)


class TestRewriteHelpers:
    def test_spill_slot_stable(self):
        assert spill_slot("x") == "slot:x"

    def test_rewrite_spilled_inserts_loads_stores(self, loop_fn):
        out, temps = rewrite_spilled(loop_fn, {"s"})
        assert temps
        body_ops = [i.op for i in out.blocks["body"].instrs]
        assert Opcode.SPILL_LD in body_ops
        assert Opcode.SPILL_ST in body_ops

    def test_rewrite_spilled_preserves_semantics(self, loop_fn):
        out, _ = rewrite_spilled(loop_fn, {"s", "i"})
        a = simulate(loop_fn, args={"n": 5})
        b = simulate(out, args={"n": 5})
        assert a.returned == b.returned

    def test_rewrite_def_and_use_separate_temps(self, loop_fn):
        out, _ = rewrite_spilled(loop_fn, {"i"})
        add = next(
            i for i in out.blocks["body"].instrs
            if i.op is Opcode.ADD and i.uses and "i@" in i.uses[0]
        )
        assert add.defs[0] != add.uses[0]

    def test_apply_assignment_strict_missing(self, loop_fn):
        with pytest.raises(ValueError, match="unassigned"):
            apply_assignment(loop_fn, {"i": "R0"})

    def test_apply_assignment_full(self, loop_fn):
        mapping = {v: "R0" for v in loop_fn.variables()}
        mapping.update({"i": "R1", "c": "R2", "n": "R3"})
        out = apply_assignment(loop_fn, mapping)
        check_physical(out)

    def test_check_physical_catches_virtual(self, loop_fn):
        with pytest.raises(AllocationCheckError):
            check_physical(loop_fn)

    def test_check_physical_range(self):
        from repro.ir.builder import FunctionBuilder

        b = FunctionBuilder("f")
        b.block("one")
        b.const("R7", 1)
        b.ret("R7")
        fn = b.finish()
        check_physical(fn, num_registers=8)
        with pytest.raises(AllocationCheckError):
            check_physical(fn, num_registers=4)

    def test_count_static_spill_code(self, loop_fn):
        out, _ = rewrite_spilled(loop_fn, {"s"})
        counts = count_static_spill_code(out)
        assert counts["spill_loads"] > 0
        assert counts["spill_stores"] > 0
        assert counts["moves"] == 0


class TestPipeline:
    def _workload(self):
        return Workload(
            dot(), args={"n": 4},
            arrays={"A": [1, 2, 3, 4], "B": [4, 3, 2, 1]}, name="dot",
        )

    def test_prepare_renames(self):
        fn = prepare(dot())
        assert fn is not None

    def test_verification_catches_bad_allocator(self):
        class BrokenAllocator(ChaitinAllocator):
            name = "broken"

            def allocate(self, fn, machine):
                outcome = super().allocate(fn, machine)
                # Corrupt: swap the operands of the first mul.
                for block in outcome.fn.blocks.values():
                    for idx, instr in enumerate(block.instrs):
                        if instr.op is Opcode.MUL:
                            block.instrs[idx] = instr.replace(
                                uses=(instr.uses[0], instr.uses[0])
                            )
                            return outcome
                return outcome

        with pytest.raises(SimulationError):
            compile_function(
                self._workload(), BrokenAllocator(), Machine.simple(8)
            )

    def test_compare_allocators(self):
        results = compare_allocators(
            self._workload(),
            [ChaitinAllocator(), BriggsAllocator(), HierarchicalAllocator()],
            Machine.simple(4),
        )
        assert set(results) == {"chaitin", "briggs", "hierarchical"}
        returned = {r.allocated_run.returned for r in results.values()}
        assert returned == {(20,)}

    def test_overhead_summary(self):
        result = compile_function(
            self._workload(), ChaitinAllocator(), Machine.simple(3)
        )
        summary = result.overhead_summary
        assert summary["spill_loads"] == result.allocated_run.spill_loads
        assert summary["program_refs"] > 0

    def test_missing_argument_detected(self):
        w = Workload(dot(), args={}, arrays={})
        with pytest.raises(SimulationError):
            compile_function(w, ChaitinAllocator(), Machine.simple(4))
