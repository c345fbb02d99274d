"""Property-based tests (hypothesis) over random structured programs.

These are the repository's strongest evidence: for arbitrary generated
programs, tile trees are legal, analyses satisfy their defining equations,
and every allocator is a semantics-preserving transformation whose output
respects the machine.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocators import BriggsAllocator, ChaitinAllocator, LocalAllocator
from repro.analysis.dominators import compute_dominators
from repro.analysis.frequency import estimate_frequencies
from repro.analysis.liveness import block_use_def, compute_liveness
from repro.analysis.renaming import rename_webs
from repro.cli import ALLOCATORS
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.graph.coloring import color_graph, verify_coloring
from repro.graph.interference import InterferenceGraph
from repro.ir.instructions import is_phys
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.ir.validate import validate_function
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.tiles.construction import build_tile_tree_detailed
from repro.tiles.validate import validate_tile_tree
from repro.workloads.generators import random_program, random_workload

SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=SEEDS)
@COMMON
def test_generator_produces_valid_programs(seed):
    fn = random_program(seed)
    validate_function(fn)


@given(seed=SEEDS)
@COMMON
def test_generated_programs_execute(seed):
    w = random_workload(seed)
    result = simulate(w.fn, args=w.args, arrays=w.arrays)
    assert isinstance(result.returned, tuple)


@given(seed=SEEDS)
@COMMON
def test_tile_trees_always_legal(seed):
    fn = random_program(seed)
    build = build_tile_tree_detailed(fn)
    validate_tile_tree(build.tree)
    validate_function(fn)


@given(seed=SEEDS)
@COMMON
def test_dominator_invariants(seed):
    fn = random_program(seed)
    dom = compute_dominators(fn)
    for label in fn.blocks:
        if label not in dom.idom:
            continue
        assert dom.dominates(fn.start_label, label)
        parent = dom.idom[label]
        if label != fn.start_label:
            assert dom.strictly_dominates(parent, label)


@given(seed=SEEDS)
@COMMON
def test_liveness_fixed_point(seed):
    fn = random_program(seed)
    lv = compute_liveness(fn)
    for label, block in fn.blocks.items():
        uses, defs = block_use_def(block)
        assert lv.live_in[label] == frozenset(
            uses | (lv.live_out[label] - defs)
        )
        expected_out = frozenset().union(
            *(lv.live_in[s] for s in block.succ_labels)
        ) if block.succ_labels else frozenset()
        assert lv.live_out[label] == expected_out


@given(seed=SEEDS)
@COMMON
def test_renaming_preserves_behaviour(seed):
    w = random_workload(seed)
    renamed, reverse = rename_webs(w.fn)
    validate_function(renamed)
    a = simulate(w.fn, args=w.args, arrays=w.arrays)
    b = simulate(renamed, args=dict(w.args), arrays=w.arrays)
    assert a.returned == b.returned
    for new, old in reverse.items():
        assert new == old or new.split("%")[0] == old


@given(seed=SEEDS)
@COMMON
def test_frequency_flow_conservation(seed):
    fn = random_program(seed)
    freq = estimate_frequencies(fn)
    for label in fn.blocks:
        if label == fn.start_label:
            continue
        inflow = sum(f for (u, v), f in freq.edge_freq.items() if v == label)
        assert inflow == pytest.approx(freq.block_freq[label], rel=1e-5, abs=1e-7)


@given(
    seed=SEEDS,
    registers=st.sampled_from([2, 3, 4, 6]),
    allocator_cls=st.sampled_from(
        [HierarchicalAllocator, ChaitinAllocator, BriggsAllocator, LocalAllocator]
    ),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_allocation_preserves_semantics(seed, registers, allocator_cls):
    """The headline property: any allocator, any register count, any
    generated program -- observable behaviour is unchanged and the output
    touches only machine registers."""
    w = random_workload(seed)
    result = compile_function(w, allocator_cls(), Machine.simple(registers))
    assert result.reference_run.returned == result.allocated_run.returned
    for block in result.fn.blocks.values():
        for instr in block.instrs:
            for var in instr.defs + instr.uses:
                assert is_phys(var)


def _shuffle_blocks(fn, rng):
    labels = list(fn.blocks)
    rng.shuffle(labels)
    fn.blocks = {label: fn.blocks[label] for label in labels}
    fn.invalidate_caches()


def _permute_uids(fn, rng):
    instrs = [instr for block in fn for instr in block.instrs]
    uids = [instr.uid for instr in instrs]
    rng.shuffle(uids)
    for instr, uid in zip(instrs, uids):
        instr.uid = uid


@pytest.mark.parametrize(
    "perturb", [_shuffle_blocks, _permute_uids],
    ids=["shuffled_blocks", "permuted_uids"],
)
@given(seed=SEEDS, registers=st.sampled_from([2, 4, 6]))
@COMMON
def test_allocation_is_a_function_of_the_text(perturb, seed, registers):
    """Block dict order and instruction uids are not in the printed
    text, so perturbing either must not move any allocator's output:
    the function compiles to what its parsed-back text compiles to."""
    w = random_workload(seed)
    perturb(w.fn, random.Random(seed))
    parsed = Workload(parse_function(format_function(w.fn)), w.args, w.arrays)
    machine = Machine.simple(registers)
    for name, allocator_cls in sorted(ALLOCATORS.items()):
        direct = compile_function(w, allocator_cls(), machine)
        back = compile_function(parsed, allocator_cls(), machine)
        assert format_function(direct.fn) == format_function(back.fn), name


@given(seed=SEEDS)
@COMMON
def test_hierarchical_tile_colorings_valid(seed):
    """Within every tile, conflicting nodes get different registers."""
    from repro.core.summary import MEM

    w = random_workload(seed)
    allocator = HierarchicalAllocator()
    compile_function(w, allocator, Machine.simple(3))
    for alloc in allocator.last_allocations.values():
        for a, b in alloc.graph.edges():
            la, lb = alloc.phys.get(a), alloc.phys.get(b)
            if la not in (None, MEM) and lb not in (None, MEM):
                assert la != lb


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        max_size=40,
    ),
    k=st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_coloring_engine_validity(edges, k):
    """Random graphs: assignments returned by the engine never color two
    adjacent nodes the same."""
    g = InterferenceGraph()
    for a, b in edges:
        if a != b:
            g.add_edge(f"v{a}", f"v{b}")
    for a in range(12):
        g.add_node(f"v{a}")
    result = color_graph(
        g, k=k, color_order=[f"R{i}" for i in range(k)]
    )
    assert not verify_coloring(g, result.assignment)
    assert len(result.used_colors) <= k
    for node in g.nodes():
        assert (node in result.assignment) != (node in result.spilled)


@given(seed=SEEDS, n=st.integers(1, 6))
@COMMON
def test_spill_slots_isolated_per_variable(seed, n):
    """Differential run with distinct inputs: memory state must match, so
    slots can never be shared by live variables."""
    w = random_workload(seed)
    w.args = {"n": n}
    result = compile_function(w, HierarchicalAllocator(), Machine.simple(2))
    ref = result.reference_run
    out = result.allocated_run
    canon = lambda arrays: {
        name: {i: v for i, v in contents.items() if v != 0}
        for name, contents in arrays.items()
    }
    assert canon(ref.arrays) == canon(out.arrays)


@given(seed=SEEDS)
@COMMON
def test_minilang_fuzz_compiles_and_runs(seed):
    """Source-level fuzzing: every generated MiniLang program compiles,
    validates, terminates, and allocates correctly."""
    from repro.workloads.minilang_fuzz import random_minilang_workload

    w = random_minilang_workload(seed)
    validate_function(w.fn)
    result = compile_function(w, HierarchicalAllocator(), Machine.simple(3))
    assert result.allocated_run.returned == result.reference_run.returned


@given(seed=SEEDS)
@COMMON
def test_minilang_fuzz_optimizer_agrees(seed):
    """The optimizer must not change a fuzzed program's behaviour, before
    or after register allocation."""
    from repro.opt import optimize
    from repro.workloads.minilang_fuzz import random_minilang_workload

    w = random_minilang_workload(seed)
    optimized = optimize(w.fn)
    a = simulate(w.fn, args=w.args, arrays=w.arrays)
    b = simulate(optimized, args=dict(w.args), arrays=w.arrays)
    assert a.returned == b.returned
