"""Tests for the IR interpreter (objective function + profiler)."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Instr, Opcode
from repro.machine.simulator import (
    POISON,
    SimulationError,
    simulate,
)
from repro.workloads.kernels import dot


class TestBasicExecution:
    def test_dot(self):
        result = simulate(
            dot(), args={"n": 4}, arrays={"A": [1, 2, 3, 4], "B": [5, 6, 7, 8]}
        )
        assert result.returned == (70,)

    def test_missing_argument(self, loop_fn):
        with pytest.raises(SimulationError):
            simulate(loop_fn)

    def test_unknown_argument(self, loop_fn):
        with pytest.raises(SimulationError):
            simulate(loop_fn, args={"n": 1, "bogus": 2})

    def test_unset_variable_read(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.add("x", "never", "never")
        b.ret("x")
        fn = b.finish()
        with pytest.raises(SimulationError, match="unset variable"):
            simulate(fn)

    def test_step_limit(self):
        b = FunctionBuilder("f")
        b.block("spin")
        b.const("t", 1)
        b.cbr("t", "spin", "out")
        b.block("out")
        b.ret("t")
        fn = b.finish()
        with pytest.raises(SimulationError, match="exceeded"):
            simulate(fn, max_steps=100)

    def test_branch_directions(self, diamond_fn):
        low = simulate(diamond_fn, args={"x": 3})
        high = simulate(diamond_fn, args={"x": 30})
        assert low.returned == (13,)
        assert high.returned == (20,)


class TestMemoryModel:
    def test_arrays_default_zero(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("i", 99)
        b.load("v", "A", "i")
        b.ret("v")
        fn = b.finish()
        assert simulate(fn).returned == (0,)

    def test_store_visible_in_result(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("i", 2)
        b.const("v", 42)
        b.store("A", "i", "v")
        b.ret("v")
        fn = b.finish()
        result = simulate(fn)
        assert result.arrays["A"][2] == 42

    def test_input_arrays_not_mutated(self):
        source = [1, 2, 3]
        b = FunctionBuilder("f")
        b.block("one")
        b.const("i", 0)
        b.const("v", 9)
        b.store("A", "i", "v")
        b.ret("v")
        fn = b.finish()
        simulate(fn, arrays={"A": source})
        assert source == [1, 2, 3]

    def test_spill_slots(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("v", 7)
        b.emit(Instr(Opcode.SPILL_ST, uses=("v",), imm="slot:x"))
        b.emit(Instr(Opcode.SPILL_LD, defs=("w",), imm="slot:x"))
        b.ret("w")
        fn = b.finish()
        result = simulate(fn)
        assert result.returned == (7,)
        assert result.spill_loads == 1
        assert result.spill_stores == 1

    def test_reload_from_unwritten_slot(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.emit(Instr(Opcode.SPILL_LD, defs=("w",), imm="slot:never"))
        b.ret("w")
        fn = b.finish()
        with pytest.raises(SimulationError, match="never-stored slot"):
            simulate(fn)

    def test_param_home_slot_initialized(self):
        """The calling convention places arguments in their home slots."""
        b = FunctionBuilder("f", params=["n"])
        b.block("one")
        b.emit(Instr(Opcode.SPILL_LD, defs=("w",), imm="slot:n"))
        b.ret("w")
        fn = b.finish()
        assert simulate(fn, args={"n": 13}).returned == (13,)


class TestCounters:
    def test_memory_reference_split(self):
        result = simulate(
            dot(), args={"n": 3}, arrays={"A": [1, 1, 1], "B": [1, 1, 1]}
        )
        assert result.program_memory_refs == 6  # two loads per iteration
        assert result.spill_memory_refs == 0
        assert result.total_memory_refs == 6

    def test_profile_counts(self):
        result = simulate(
            dot(), args={"n": 5}, arrays={"A": [0] * 5, "B": [0] * 5}
        )
        profile = result.profile
        assert profile.block_counts["body"] == 5
        assert profile.block_counts["head"] == 6
        assert profile.edge_counts[("head", "body")] == 5
        assert profile.edge_counts[("head", "done")] == 1

    def test_profile_merge(self):
        a = simulate(dot(), args={"n": 2}, arrays={}).profile
        b = simulate(dot(), args={"n": 3}, arrays={}).profile
        merged = a.merge(b)
        assert merged.block_counts["body"] == 5

    def test_cost_model(self):
        result = simulate(
            dot(), args={"n": 2}, arrays={"A": [1, 1], "B": [1, 1]}
        )
        assert result.cost() == 0.0  # no spill traffic in virtual form


class TestCalls:
    def test_intrinsic_call(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("x", -5)
        b.call(["y"], "abs", ["x"])
        b.ret("y")
        fn = b.finish()
        assert simulate(fn).returned == (5,)

    def test_unknown_callee(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("x", 1)
        b.call(["y"], "nosuch", ["x"])
        b.ret("y")
        fn = b.finish()
        with pytest.raises(SimulationError, match="unknown callee"):
            simulate(fn)

    def test_clobbered_register_poisoned(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("R1", 5)
        b.const("x", 1)
        b.emit(
            Instr(Opcode.CALL, defs=("y",), uses=("x",), imm="abs",
                  clobbers=("R1",))
        )
        b.add("z", "R1", "y")
        b.ret("z")
        fn = b.finish()
        with pytest.raises(SimulationError, match="clobbered"):
            simulate(fn)

    def test_custom_intrinsics(self):
        b = FunctionBuilder("f")
        b.block("one")
        b.const("x", 4)
        b.call(["y"], "triple", ["x"])
        b.ret("y")
        fn = b.finish()
        result = simulate(fn, intrinsics={"triple": lambda v: 3 * v})
        assert result.returned == (12,)
