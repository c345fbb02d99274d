"""Tests for the performance core (repro.perf) and its consumers.

Covers the interning layer and bitset helpers, the stage timers, the
CFG-query caches and their invalidation, equality of the bitset analyses
with the preserved string-set reference implementations on random
structured programs, allocation determinism across processes with
different ``PYTHONHASHSEED`` values, and the duplicated-CBR-arm
spill-placement regression.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import compute_liveness
from repro.analysis.reference import reference_interference, reference_liveness
from repro.core import HierarchicalAllocator
from repro.graph.interference import InterferenceGraph, build_interference
from repro.ir.builder import FunctionBuilder
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.perf import StageTimers, VarIndex, bit_count, iter_bits
from repro.pipeline import compile_function
from repro.workloads.generators import random_program, random_workload

SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVarIndex:
    def test_intern_assigns_dense_stable_ids(self):
        idx = VarIndex()
        assert idx.intern("a") == 0
        assert idx.intern("b") == 1
        assert idx.intern("a") == 0  # stable on re-intern
        assert len(idx) == 2
        assert idx.names() == ["a", "b"]

    def test_roundtrip_mask_frozenset(self):
        idx = VarIndex(["x", "y", "z"])
        mask = idx.mask_of(["z", "x"])
        assert idx.frozenset_of(mask) == frozenset({"x", "z"})
        assert idx.members(mask) == ["x", "z"]  # id order

    def test_mask_of_interns_new_names(self):
        idx = VarIndex()
        mask = idx.mask_of(["p", "q"])
        assert bit_count(mask) == 2
        assert "p" in idx and "q" in idx

    def test_mask_of_known_skips_unknown(self):
        idx = VarIndex(["a"])
        mask = idx.mask_of_known(["a", "nope"])
        assert idx.frozenset_of(mask) == frozenset({"a"})
        assert "nope" not in idx

    def test_growth_keeps_old_bitsets_valid(self):
        idx = VarIndex(["a", "b"])
        old = idx.mask_of(["a", "b"])
        idx.intern("c")
        assert idx.frozenset_of(old) == frozenset({"a", "b"})

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestStageTimers:
    def test_accumulates_per_stage(self):
        timers = StageTimers()
        with timers.stage("a"):
            pass
        with timers.stage("a"):
            pass
        timers.add("b", 0.5)
        times = timers.as_dict()
        assert set(times) == {"a", "b"}
        assert times["a"] >= 0.0
        assert times["b"] == pytest.approx(0.5)
        assert timers.total() == pytest.approx(sum(times.values()))

    def test_stage_records_on_exception(self):
        timers = StageTimers()
        with pytest.raises(RuntimeError):
            with timers.stage("boom"):
                raise RuntimeError("x")
        assert "boom" in timers.as_dict()


class TestFunctionCfgCaches:
    def _fn(self):
        b = FunctionBuilder("f", params=["n"])
        b.block("one")
        b.const("x", 1)
        b.br("two")
        b.block("two")
        b.add("y", "x", "n")
        b.ret("y")
        return b.finish()

    def test_queries_are_cached(self):
        fn = self._fn()
        assert fn.rpo() is fn.rpo()
        assert fn.predecessors_map() is fn.predecessors_map()
        assert fn.edges() is fn.edges()

    def test_mutation_invalidates(self):
        fn = self._fn()
        before_edges = fn.edges()
        version = fn.cfg_version
        fn.insert_block_on_edge("one", "two")
        assert fn.cfg_version > version
        assert fn.edges() is not before_edges
        assert ("one", "two") not in fn.edges()

    def test_allocators_see_fresh_cfg_after_invalidate(self):
        fn = self._fn()
        fn.rpo()
        new = fn.insert_block_on_edge("one", "two")
        assert new.label in fn.rpo()


class TestInsertBlockAllOccurrences:
    def _cbr_same_target(self):
        b = FunctionBuilder("g", params=["c"])
        b.block("top")
        b.cbr("c", "join", "join")
        b.block("join")
        b.ret("c")
        return b.finish()

    def test_default_redirects_first_arm_only(self):
        fn = self._cbr_same_target()
        new = fn.insert_block_on_edge("top", "join")
        assert fn.blocks["top"].succ_labels == [new.label, "join"]

    def test_all_occurrences_redirects_both_arms(self):
        fn = self._cbr_same_target()
        new = fn.insert_block_on_edge("top", "join", all_occurrences=True)
        assert fn.blocks["top"].succ_labels == [new.label, new.label]


class TestSubgraph:
    def test_induced_subgraph(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        g.add_node("e")
        sub = g.subgraph({"b", "c", "e"})
        assert sorted(sub.nodes()) == ["b", "c", "e"]
        assert sub.interferes("b", "c")
        assert not sub.interferes("b", "a")
        assert sub.degree("e") == 0

    def test_subgraph_ignores_absent_nodes(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        sub = g.subgraph({"a", "zz"})
        assert sub.nodes() == ["a"]

    def test_subgraph_does_not_alias_adjacency(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        sub = g.subgraph({"a", "b"})
        sub.remove_node("a")
        assert g.interferes("a", "b")


@given(seed=SEEDS)
@COMMON
def test_bitset_liveness_equals_reference(seed):
    """The bitset dataflow produces exactly the frozensets of the seed's
    string-set implementation, block- and instruction-level."""
    fn = random_program(seed)
    fast = compute_liveness(fn)
    ref = reference_liveness(fn)
    assert fast.live_in == ref.live_in
    assert fast.live_out == ref.live_out
    for label in fn.blocks:
        assert fast.instr_live_out(label) == ref.instr_live_out(label)
        assert fast.instr_live_in(label) == ref.instr_live_in(label)


@given(seed=SEEDS)
@COMMON
def test_bitset_interference_equals_reference(seed):
    fn = random_program(seed)
    fast = build_interference(fn, compute_liveness(fn))
    ref = reference_interference(fn, reference_liveness(fn))
    assert sorted(fast.nodes()) == sorted(ref.nodes())
    assert sorted(fast.edges()) == sorted(ref.edges())


@given(seed=SEEDS)
@COMMON
def test_bitset_interference_equals_reference_restricted(seed):
    """Equality must also hold for tile-style restricted construction
    (subset of blocks, relevant-variable filter)."""
    fn = random_program(seed)
    labels = sorted(fn.blocks)[: max(1, len(fn.blocks) // 2)]
    fast_lv = compute_liveness(fn)
    ref_lv = reference_liveness(fn)
    relevant = set()
    for label in labels:
        relevant |= fn.blocks[label].variables()
    relevant = set(sorted(relevant)[: max(1, len(relevant) // 2)])
    fast = build_interference(fn, fast_lv, labels=labels, relevant=relevant)
    ref = reference_interference(fn, ref_lv, labels=labels, relevant=relevant)
    assert sorted(fast.nodes()) == sorted(ref.nodes())
    assert sorted(fast.edges()) == sorted(ref.edges())


_CROSS_PROCESS_SCRIPT = """
import hashlib, json, sys
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.workloads.generators import random_program

seed, registers = (int(a) for a in sys.argv[1:3])
out = HierarchicalAllocator(HierarchicalConfig()).allocate(
    random_program(seed), Machine.simple(registers)
)
text = format_function(out.fn)
print(json.dumps({
    "sha": hashlib.sha256(text.encode()).hexdigest(),
    "spilled": sorted(out.stats.spilled_vars),
}))
"""


class TestCrossProcessDeterminism:
    """Allocation must be bit-identical across *processes*: Python salts
    string hashes per process, so any decision leaking set/dict iteration
    order diverges here even though within-process runs agree."""

    HASH_SEEDS = ("0", "1", "12345")

    @staticmethod
    def _run(program_seed, registers, hash_seed):
        import repro

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        prior = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        proc = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT,
             str(program_seed), str(registers)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    # The test id predates the removal of the thread scheduler (whose
    # worker counts were the second axis); kept so history lines up.
    @pytest.mark.parametrize("program_seed,registers", [(7, 3), (501, 4)])
    def test_output_identical_across_hash_seeds_and_workers(
        self, program_seed, registers
    ):
        runs = {
            hash_seed: self._run(program_seed, registers, hash_seed)
            for hash_seed in self.HASH_SEEDS
        }
        baseline = runs[self.HASH_SEEDS[0]]
        for hash_seed, run in runs.items():
            assert run == baseline, (
                f"program seed {program_seed}: PYTHONHASHSEED={hash_seed} "
                f"produced different allocation output"
            )


class TestDuplicatedEdgeSpillRegression:
    """Boundary spill code must intercept *every* traversal of an edge
    whose CBR arms coincide (regression: a store planned on such an edge
    previously landed on the first arm only, so the false arm reloaded
    from a never-stored slot)."""

    def test_optimized_program_seed_501_allocates(self):
        from repro.opt import optimize
        from repro.pipeline import Workload

        w = random_workload(501)
        out = optimize(w.fn)
        workload = Workload(out, w.args, w.arrays, name="opt")
        result = compile_function(
            workload, HierarchicalAllocator(), Machine.simple(3)
        )
        assert result.allocated_run.returned == result.reference_run.returned

    def test_spill_block_on_duplicated_edge_covers_both_arms(self):
        """Direct check on the rewritten CFG: after allocation under heavy
        pressure, no CBR may keep a bare arm to a block that the other arm
        reaches through a spill block carrying stores."""
        from repro.opt import optimize
        from repro.pipeline import Workload

        w = random_workload(501)
        out = optimize(w.fn)
        workload = Workload(out, w.args, w.arrays, name="opt")
        result = compile_function(
            workload, HierarchicalAllocator(), Machine.simple(3)
        )
        fn = result.fn
        for label, block in fn.blocks.items():
            succ = block.succ_labels
            if len(succ) == 2 and succ[0] != succ[1]:
                # If one arm goes through a fix-up block into X and the
                # other goes to X directly, the fix-up block must be empty
                # (otherwise one path skips mandatory boundary code).
                for a, b in ((succ[0], succ[1]), (succ[1], succ[0])):
                    via = fn.blocks[a]
                    if (
                        len(via.succ_labels) == 1
                        and via.succ_labels[0] == b
                        and a.startswith("sp.")
                    ):
                        assert not via.instrs, (
                            f"spill block {a} bypassed by {label}->{b}"
                        )
