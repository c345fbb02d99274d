"""Tests for the shared function context and the workload suite itself."""

import pytest

from repro.analysis.frequency import estimate_frequencies
from repro.core.config import HierarchicalConfig
from repro.core.info import build_context
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.tiles.construction import build_tile_tree_detailed
from repro.workloads.callsites import make_callee, make_caller
from repro.workloads.figure1 import figure1
from repro.workloads.generators import random_program, random_workload
from repro.workloads.kernels import (
    all_kernel_workloads,
    matmul,
    sequential_loops,
)


def ctx_for(fn, registers=4):
    build = build_tile_tree_detailed(fn)
    return build_context(
        build.tree.fn, Machine.simple(registers), build.tree, build.fixup, None
    )


class TestFunctionContext:
    def test_ref_and_def_blocks(self):
        arena = ctx_for(figure1()).arena

        def labels(blocks_of, var):
            return {arena.labels[b] for b in blocks_of(arena.index.id_of(var))}

        assert "B2" in labels(arena.var_ref_blocks, "g1")
        assert "B4" in labels(arena.var_ref_blocks, "g1")
        assert "B2" in labels(arena.var_def_blocks, "g1")
        assert "B4" not in labels(arena.var_def_blocks, "t1")

    def test_is_local_matches_paper_definition(self):
        ctx = ctx_for(figure1())
        loop1 = next(
            t for t in ctx.tree.preorder()
            if t.kind == "loop" and t.header == "B2"
        )
        assert ctx.is_local(loop1, "t1")
        assert not ctx.is_local(loop1, "g1")   # live across the boundary
        assert not ctx.is_local(loop1, "g2")   # referenced outside

    def test_defined_in_subtree(self):
        ctx = ctx_for(figure1())
        loop1 = next(
            t for t in ctx.tree.preorder()
            if t.kind == "loop" and t.header == "B2"
        )
        assert ctx.defined_in_subtree(loop1, "g1")
        assert not ctx.defined_in_subtree(loop1, "g2")

    def test_block_freq_for_fixup_blocks(self):
        """Blocks inserted by fix-up get their original edge's frequency
        even under a profile that predates them."""
        from repro.analysis.frequency import frequencies_from_profile

        fn = random_program(4, max_blocks=40, max_depth=4, break_prob=0.5)
        run = simulate(fn.clone(), args={"n": 5}, arrays={"A": [1] * 8})
        freq = frequencies_from_profile(fn, run.profile)
        build = build_tile_tree_detailed(fn)
        ctx = build_context(
            build.tree.fn, Machine.simple(4), build.tree, build.fixup, freq
        )
        for label in build.fixup.inserted_labels:
            if label in ctx.fn.blocks:
                # Must not raise and must be a finite number.
                value = ctx.block_freq(label)
                assert value >= 0.0

    def test_boundary_live_sets(self):
        ctx = ctx_for(figure1())
        loop1 = next(
            t for t in ctx.tree.preorder()
            if t.kind == "loop" and t.header == "B2"
        )
        union = set()
        for live in ctx.boundary_live_sets(loop1):
            union |= live
        assert "g2" in union  # live through the loop
        assert "t1" not in union


class TestWorkloadSuite:
    def test_all_kernels_execute(self):
        for workload in all_kernel_workloads(6):
            result = simulate(
                workload.fn, args=workload.args, arrays=workload.arrays
            )
            assert isinstance(result.returned, tuple), workload.label()

    def test_kernel_names_unique(self):
        names = [w.label() for w in all_kernel_workloads(4)]
        assert len(names) == len(set(names))

    def test_matmul_is_correct(self):
        import numpy

        n = 3
        a = list(range(1, n * n + 1))
        bm = list(range(2, n * n + 2))
        result = simulate(matmul(), args={"n": n}, arrays={"A": a, "B": bm})
        produced = result.arrays["C"]
        expect = (
            numpy.array(a).reshape(n, n) @ numpy.array(bm).reshape(n, n)
        )
        for i in range(n):
            for j in range(n):
                assert produced[i * n + j] == expect[i, j]

    def test_sequential_loops_shape(self):
        fn = sequential_loops(5)
        from repro.analysis.loops import build_loop_forest

        forest = build_loop_forest(fn)
        assert len(forest) == 5
        result = simulate(fn, args={"n": 2}, arrays={"A": [1, 2, 3]})
        assert result.returned[0] > 0

    def test_callsites_pair(self):
        callee = make_callee()
        assert simulate(callee, args={"x": 7, "lim": 5}).returned == (5,)
        assert simulate(callee, args={"x": 3, "lim": 5}).returned == (3,)
        caller = make_caller(2)
        assert sum(
            1 for _, i in caller.instructions() if i.op.value == "call"
        ) == 2


class TestGeneratorProperties:
    def test_deterministic(self):
        a = random_program(11)
        b = random_program(11)
        from repro.ir import format_function

        assert format_function(a) == format_function(b)

    def test_break_prob_changes_structure(self):
        """Some seed in a small sample must place a break (a conditional
        nested in a loop is needed, so not every seed qualifies)."""
        from repro.ir import format_function

        differs = 0
        for seed in range(8):
            plain = random_program(
                seed, max_blocks=40, max_depth=4, break_prob=0.0
            )
            breaky = random_program(
                seed, max_blocks=40, max_depth=4, break_prob=0.9
            )
            if format_function(plain) != format_function(breaky):
                differs += 1
        assert differs > 0

    def test_break_programs_terminate(self):
        for seed in range(10):
            fn = random_program(seed, max_depth=4, break_prob=0.6)
            simulate(fn, args={"n": 4}, arrays={"A": [2] * 8})

    def test_workload_runs_its_own_function(self):
        w = random_workload(21)
        result = simulate(w.fn, args=w.args, arrays=w.arrays)
        assert isinstance(result.returned, tuple)

    def test_frequencies_defined_for_all_blocks(self):
        fn = random_program(5, break_prob=0.3)
        freq = estimate_frequencies(fn)
        for label in fn.rpo():
            assert freq.block_freq[label] >= 0.0
