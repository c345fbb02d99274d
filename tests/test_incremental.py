"""Per-tile content-addressed memoization (``repro.core.incremental``).

The contract under test: with a :class:`TileCacheStore` attached, a warm
re-allocation is *bit-identical* to a cold one -- on the unedited
function (full reuse), on an edited function (clean subtrees replayed
from the store, dirty chain recomputed; an edit that changes only a
constant replays every tile), and on functions that spill
(the arena snapshot a fingerprint hashes is pre-rewrite, so a tile that
previously inserted spill code must never serve a stale entry).  The
reuse counters are part of the contract: they are how CI proves the
cache is actually hitting rather than silently recomputing.
"""

from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import compute_liveness
from repro.batch.serialize import (
    FORMAT_VERSION,
    record_from_dict,
    record_to_dict,
)
from repro.batch.worker import compute_record
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.budget import BudgetLimits
from repro.core.incremental import (
    TileCacheStore,
    copy_allocation,
    tile_invalidation_key,
)
from repro.core.summary import TileAllocation, TileMetrics
from repro.determinism import (
    build_workload,
    commutative_sites,
    edit_one_block,
    swap_operands,
)
from repro.ir.instructions import Opcode
from repro.machine.target import Machine
from repro.perf.arena import FunctionArena
from repro.pipeline import prepare
from repro.workloads.generators import random_program
from repro.workloads.kernels import matmul, sequential_loops

MACHINE = Machine.simple(8)
SMALL_MACHINE = Machine.simple(4)


def _const_sites(fn):
    """All (label, index) positions of integer CONST instructions."""
    return [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.CONST and isinstance(instr.imm, int)
    ]


def _bump(fn, site):
    label, index = site
    instrs = fn.block(label).instrs
    instrs[index] = instrs[index].replace(imm=instrs[index].imm + 1)


def _swap(fn, site):
    label, index = site
    instrs = fn.block(label).instrs
    instrs[index] = instrs[index].replace(uses=instrs[index].uses[::-1])


def _consts(fn, label):
    """The immediates of block *label*'s CONST instructions, in order."""
    return [
        instr.imm for instr in fn.blocks[label].instrs
        if instr.op is Opcode.CONST
    ]


def _swap_last_mul(fn):
    """Single-instruction edit deep in the tile tree: turn the last MUL
    (loop bodies have them; entry does not) into an ADD.  Semantics
    change, but both sides of every comparison see the same edit."""
    sites = [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.MUL
    ]
    label, index = sites[-1]
    instrs = fn.block(label).instrs
    instrs[index] = instrs[index].replace(op=Opcode.ADD)
    return label


def _allocate(fn, store=None, config=None, machine=MACHINE):
    allocator = HierarchicalAllocator(
        config or HierarchicalConfig(), tile_store=store
    )
    outcome = allocator.allocate(fn.clone(), machine)
    return outcome, allocator


def _text(outcome):
    from repro.ir.printer import format_function

    return format_function(outcome.fn)


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------
class TestTileCacheStore:
    def test_lru_eviction(self):
        store = TileCacheStore(capacity=2)
        store.put(("p1", "a"), 1)
        store.put(("p1", "b"), 2)
        assert store.get(("p1", "a")) == 1  # refresh a
        store.put(("p1", "c"), 3)  # evicts b
        assert store.get(("p1", "b")) is None
        assert store.get(("p1", "a")) == 1
        assert store.get(("p1", "c")) == 3
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.stats.misses == 1
        assert store.stats.hits == 3

    def test_clear(self):
        store = TileCacheStore(capacity=8)
        store.put(("p1", "a"), 1)
        store.clear()
        assert len(store) == 0
        assert store.get(("p1", "a")) is None

    def test_invalidation_key_differs_by_config_and_machine(self):
        base = tile_invalidation_key(HierarchicalConfig(), Machine.simple(8))
        other_cfg = tile_invalidation_key(
            HierarchicalConfig(demotion=False), Machine.simple(8)
        )
        other_machine = tile_invalidation_key(
            HierarchicalConfig(), Machine.simple(6)
        )
        assert base != other_cfg
        assert base != other_machine


# ----------------------------------------------------------------------
# the one copy of tile state
# ----------------------------------------------------------------------
class TestCopyAllocation:
    def test_copy_covers_every_field(self):
        """Every field of a real allocation is carried over; every dict,
        set and list (the metrics' dicts too) is a new object, and the
        graph stays shared until phase 2 clones it."""
        fn = prepare(matmul())
        allocator = HierarchicalAllocator(HierarchicalConfig())
        allocator.allocate(fn, SMALL_MACHINE)
        allocations = allocator.last_allocations
        assert any(a.spilled for a in allocations.values())
        for alloc in allocations.values():
            copy = copy_allocation(alloc)
            assert copy == alloc
            for f in fields(TileAllocation):
                value = getattr(alloc, f.name)
                if f.name == "graph":
                    assert getattr(copy, f.name) is value
                elif isinstance(value, (dict, set, list, TileMetrics)):
                    assert getattr(copy, f.name) is not value, f.name
            for f in fields(TileMetrics):
                assert getattr(copy.metrics, f.name) is not getattr(
                    alloc.metrics, f.name
                )
                assert getattr(copy.metrics, f.name) == getattr(
                    alloc.metrics, f.name
                )

    def test_phase2_leaves_stored_copies_pristine(self):
        """Phase 2 binds, adds intruders and temps to the live
        allocation; the stored phase-1 copy of each tile must see none
        of it, or a later hit would replay phase-2 state."""
        fn = prepare(matmul())
        store = TileCacheStore()
        _, allocator = _allocate(fn, store, machine=SMALL_MACHINE)
        stored = {
            entry.tile_id: entry
            for key, entry in store._entries.items()
            if key[0] == "p1"
        }
        live = allocator.last_allocations
        assert stored.keys() == live.keys()
        assert any(alloc.phys for alloc in live.values())
        for tid, alloc in live.items():
            entry = stored[tid]
            assert entry.phys == {} and entry.summary_phys == {}
            assert entry.graph is not alloc.graph
            assert len(entry.graph) <= len(alloc.graph)
            assert entry.metrics.transfer.items() <= (
                alloc.metrics.transfer.items()
            )


# ----------------------------------------------------------------------
# warm-replay identity
# ----------------------------------------------------------------------
class TestWarmReplay:
    def test_unedited_replay_is_full_reuse(self):
        fn = prepare(sequential_loops(12))
        store = TileCacheStore()
        cold, _ = _allocate(fn, store)
        warm, allocator = _allocate(fn, store)
        counters = allocator.last_tile_cache
        assert counters["tile_misses"] == 0
        assert counters["tile_hits"] > 0
        assert counters["subtrees_reused"] == 1  # the whole tree, at root
        assert _text(warm) == _text(cold)
        assert warm.stats.spilled_vars == cold.stats.spilled_vars

    def test_edited_function_reuses_clean_subtrees(self):
        base = prepare(sequential_loops(12))
        edited_fn = sequential_loops(12)
        # Edit inside the last loop body: every other loop subtree is a
        # clean sibling and must come from the store.
        _swap_last_mul(edited_fn)
        edited = prepare(edited_fn)

        store = TileCacheStore()
        _allocate(base, store)
        warm, allocator = _allocate(edited, store)
        counters = allocator.last_tile_cache
        # 12 loop subtrees; only the edited one (plus the root chain) is
        # dirty, so at least 11 clean sibling subtrees replay.
        assert counters["subtrees_reused"] >= 11
        assert counters["tile_hits"] >= 11
        assert counters["tile_misses"] >= 1  # the dirty chain recomputed
        # ... and only that chain: at most one tile per tree level.
        assert counters["tile_misses"] <= warm.stats.extra["tree_height"] + 1

    def test_edited_output_matches_fresh_allocation(self):
        base = prepare(sequential_loops(12))
        edited_fn = sequential_loops(12)
        _swap_last_mul(edited_fn)
        edited = prepare(edited_fn)

        store = TileCacheStore()
        _allocate(base, store)
        warm, _ = _allocate(edited, store)
        fresh, _ = _allocate(edited, store=None)
        assert _text(warm) == _text(fresh)
        assert warm.stats.spilled_vars == fresh.stats.spilled_vars

    def test_edited_reallocation_spends_under_half_the_cold_fuel(self):
        """What the memo saves, counted exactly: a replayed tile never
        runs ``allocate_tile``, so it spends no fuel.  A constant bump
        replays every tile (warm 2,624 against cold 9,464 fuel when this
        was written).  (Wall time is too noisy to gate: two runs with
        equal fuel can differ by 40%.)"""
        limits = BudgetLimits(max_fuel=10**15)
        base = prepare(build_workload("seq_loops_100").fn)
        edited_fn = build_workload("seq_loops_100").fn
        edit_one_block(edited_fn)
        edited = prepare(edited_fn)

        warm = HierarchicalAllocator(
            HierarchicalConfig(), tile_store=TileCacheStore(),
            budget_limits=limits,
        )
        warm.allocate(base.clone(), MACHINE)
        warm.allocate(edited.clone(), MACHINE)
        cold = HierarchicalAllocator(
            HierarchicalConfig(), budget_limits=limits
        )
        cold.allocate(edited.clone(), MACHINE)
        spent = (warm.last_budget["spent"], cold.last_budget["spent"])
        assert spent[0] <= 0.5 * spent[1], f"warm/cold fuel {spent}"

    def test_operand_edit_reallocation_spends_under_half_the_cold_fuel(self):
        """The recompute path, counted exactly: an operand swap dirties
        one tile and its ancestor chain, and only those run
        ``allocate_tile`` again (warm 4,119 against cold 9,464 fuel when
        this test was written)."""
        limits = BudgetLimits(max_fuel=10**15)
        base = prepare(build_workload("seq_loops_100").fn)
        edited_fn = build_workload("seq_loops_100").fn
        swap_operands(edited_fn)
        edited = prepare(edited_fn)

        warm = HierarchicalAllocator(
            HierarchicalConfig(), tile_store=TileCacheStore(),
            budget_limits=limits,
        )
        warm.allocate(base.clone(), MACHINE)
        warm.allocate(edited.clone(), MACHINE)
        assert warm.last_tile_cache["tile_misses"] >= 1
        cold = HierarchicalAllocator(
            HierarchicalConfig(), budget_limits=limits
        )
        cold.allocate(edited.clone(), MACHINE)
        spent = (warm.last_budget["spent"], cold.last_budget["spent"])
        assert spent[0] <= 0.5 * spent[1], f"warm/cold fuel {spent}"

    def test_stats_graph_counts_survive_phase2_replay(self):
        """A warm run reports the same graph-size stats as a cold one
        even though its phase-2 overlays never touched the live graphs."""
        fn = prepare(sequential_loops(8))
        store = TileCacheStore()
        cold, _ = _allocate(fn, store)
        warm, _ = _allocate(fn, store)
        assert warm.stats.max_graph_nodes == cold.stats.max_graph_nodes
        assert warm.stats.max_graph_edges == cold.stats.max_graph_edges

    def test_cross_function_sharing(self):
        """Content addressing is function-agnostic: two functions with an
        identical tile share entries (here: the identical function under
        a different name still hits)."""
        a = prepare(sequential_loops(6))
        b = prepare(sequential_loops(6))
        b.name = "other_name"
        store = TileCacheStore()
        _allocate(a, store)
        _, allocator = _allocate(b, store)
        assert allocator.last_tile_cache["tile_misses"] == 0


# ----------------------------------------------------------------------
# spill interactions (the arena-retirement audit)
# ----------------------------------------------------------------------
class TestSpilledTiles:
    def _spilling_setup(self):
        fn = prepare(random_program(
            seed=11, max_blocks=120, max_vars=24, max_depth=5
        ))
        outcome, allocator = _allocate(fn, machine=SMALL_MACHINE)
        assert outcome.stats.spilled_vars, "setup must spill"
        return fn, allocator

    def _site_in_spilled_tile(self, probe, sites):
        """The first of *sites* in the own blocks of a non-root tile whose
        previous allocation spilled real variables, or ``None``."""
        ctx, allocations = probe.last_context, probe.last_allocations
        for tile in ctx.tree.postorder():
            if tile.parent is None:
                continue
            alloc = allocations[tile.tid]
            if not any(
                not v.startswith(("ts:", "tmp:")) for v in alloc.spilled
            ):
                continue
            own = tile.own_blocks()
            candidates = [s for s in sites if s[0] in own]
            if candidates:
                return candidates[0]
        return None

    def test_edit_in_previously_spilled_tile(self):
        """Regression: an edit landing in a tile whose previous
        allocation inserted spill code must recompute that tile, never
        serve the stale pre-edit entry.  A constant bump there changes
        no allocation input: every tile replays, and the spill code
        around the replayed tile prints the new constant."""
        fn, probe = self._spilling_setup()
        swap_site = self._site_in_spilled_tile(probe, commutative_sites(fn))
        const_site = self._site_in_spilled_tile(probe, _const_sites(fn))
        if swap_site is None or const_site is None:
            pytest.skip("no editable spilled tile in this workload")

        store = TileCacheStore()
        _allocate(fn, store, machine=SMALL_MACHINE)

        edited = fn.clone()
        _swap(edited, swap_site)
        warm, allocator = _allocate(edited, store, machine=SMALL_MACHINE)
        fresh, _ = _allocate(edited, machine=SMALL_MACHINE)
        assert _text(warm) == _text(fresh)
        assert warm.stats.spilled_vars == fresh.stats.spilled_vars
        assert allocator.last_tile_cache["tile_misses"] >= 1

        bumped = fn.clone()
        _bump(bumped, const_site)
        warm, allocator = _allocate(bumped, store, machine=SMALL_MACHINE)
        fresh, _ = _allocate(bumped, machine=SMALL_MACHINE)
        assert _text(warm) == _text(fresh)
        assert warm.stats.spilled_vars == fresh.stats.spilled_vars
        assert allocator.last_tile_cache["tile_misses"] == 0
        assert allocator.last_tile_cache["subtrees_reused"] == 1
        label = const_site[0]
        assert _consts(warm.fn, label) == _consts(bumped, label)
        assert _consts(bumped, label) != _consts(fn, label)

    def test_spilling_function_unedited_replay(self):
        """Full warm replay of a spilling function: the spill rewrite
        runs fresh both times and must come out identical."""
        fn, _ = self._spilling_setup()
        store = TileCacheStore()
        cold, _ = _allocate(fn, store, machine=SMALL_MACHINE)
        warm, allocator = _allocate(fn, store, machine=SMALL_MACHINE)
        assert allocator.last_tile_cache["tile_misses"] == 0
        assert _text(warm) == _text(cold)

    def test_retired_arena_refuses_block_digest(self):
        """Fingerprints hash the pre-rewrite snapshot; once the rewrite
        retires the arena, serving a digest would hash stale text."""
        fn = prepare(sequential_loops(3))
        liveness = compute_liveness(fn)
        arena = FunctionArena(fn, liveness.index)
        assert arena.block_digest(0)  # fine while live
        arena.retire()
        with pytest.raises(RuntimeError):
            arena.block_digest(0)


# ----------------------------------------------------------------------
# batch plumbing
# ----------------------------------------------------------------------
class TestBatchPlumbing:
    def test_store_attached_record_round_trips(self):
        fn = prepare(sequential_loops(4))
        store = TileCacheStore()
        record, _, counters = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
            tile_store=store,
        )
        assert record.version == FORMAT_VERSION == 4
        assert counters["tile_misses"] > 0
        assert record_from_dict(record_to_dict(record)) == record

    def test_records_identical_with_and_without_store(self):
        """A record is a pure function of its cache key: a tile store
        changes how it is computed, never what it says."""
        fn = prepare(sequential_loops(4))
        plain, _, no_counters = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
        )
        store = TileCacheStore()
        cold, _, _ = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
            tile_store=store,
        )
        warm, _, counters = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
            tile_store=store,
        )
        assert no_counters is None
        assert counters["tile_misses"] == 0
        assert cold == plain
        assert warm == plain

    def test_engine_counters_inline(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(4)
        batch = BatchConfig(
            batch_workers=0, cache_policy="off", tile_cache=True
        )
        with BatchEngine(batch=batch) as engine:
            engine.allocate_module(workloads)
            first = engine.stats.tile_misses
            assert first > 0
            assert engine.stats.tile_hits == 0
            engine.allocate_module(workloads)
            # cache_policy="off" recomputes every function; the second
            # pass must be pure tile-store replay.
            assert engine.stats.tile_hits == first
            assert engine.stats.tile_misses == first
            assert engine.stats.subtrees_reused >= len(workloads)
            stats = engine.stats.as_dict()
            assert {"tile_hits", "tile_misses", "subtrees_reused"} <= set(
                stats
            )

    def test_engine_counters_pooled(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(3)
        batch = BatchConfig(
            batch_workers=1, cache_policy="off", tile_cache=True
        )
        with BatchEngine(batch=batch) as engine:
            engine.allocate_module(workloads)
            first = engine.stats.tile_misses
            assert first > 0
            engine.allocate_module(workloads)
            # One worker owns one store: the second pass replays from it
            # and the counters travel back through the pool plumbing.
            assert engine.stats.tile_hits == first

    def test_module_edit_recomputes_only_the_edited_function(self):
        """One edit in a warm module: the engine cache serves every other
        function, and the tile store serves most of the edited one.  An
        operand swap dirties the edited tile's chain; a constant bump
        after it replays every tile."""
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(40)
        # The largest function both edits apply to: the more tiles, the
        # smaller the share its dirty chain takes.
        victim = max(
            (w for w in workloads
             if commutative_sites(w.fn) and _const_sites(w.fn)),
            key=lambda w: len(w.fn.blocks),
        )
        batch = BatchConfig(batch_workers=0, tile_cache=True)
        with BatchEngine(batch=batch) as engine:
            stats = engine.stats

            def counters():
                return (stats.computed, stats.tile_hits, stats.tile_misses,
                        stats.subtrees_reused)

            def reallocate_after(edit):
                engine.allocate_module(workloads)
                before = counters()
                edit(victim.fn)
                results = engine.allocate_module(workloads)
                assert [r.name for r in results if not r.cached] == [
                    victim.label()
                ]
                return tuple(
                    after - prior for after, prior in zip(counters(), before)
                )

            computed, hits, misses, subtrees = reallocate_after(swap_operands)
            assert computed == 1
            assert subtrees >= 1
            assert misses >= 1
            assert misses <= 0.5 * (hits + misses), (hits, misses)

            computed, hits, misses, subtrees = reallocate_after(
                edit_one_block
            )
            assert computed == 1
            assert misses == 0
            assert subtrees == 1

    def test_tile_cache_off_reports_no_counters(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(2)
        with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:
            engine.allocate_module(workloads)
            assert engine.stats.tile_hits == 0
            assert engine.stats.tile_misses == 0


# ----------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------
def test_tile_cache_hit_events():
    from repro.trace import AllocationTracer, MemorySink, TileCacheHit

    fn = prepare(sequential_loops(6))
    store = TileCacheStore()
    _allocate(fn, store)

    sink = MemorySink()
    tracer = AllocationTracer([sink])
    allocator = HierarchicalAllocator(
        HierarchicalConfig(), tracer=tracer, tile_store=store
    )
    allocator.allocate(fn.clone(), MACHINE)
    hits = [e for e in sink.events if isinstance(e, TileCacheHit)]
    assert hits, "full warm replay must emit TileCacheHit events"
    assert {e.phase for e in hits} == {"phase1", "phase2"}
    assert all(e.fingerprint for e in hits)


# ----------------------------------------------------------------------
# hypothesis: random single-block edit replay
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pick=st.integers(min_value=0, max_value=10**6),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_edit_replay_matches_full(seed, pick):
    """For arbitrary generated programs and an arbitrary single-block
    edit: warm incremental re-allocation == fresh full allocation, and
    the identity replay (same text again) is 100% reuse.  An operand
    swap dirties its tile's chain; a constant bump replays every tile."""
    fn = prepare(random_program(seed))
    swaps = commutative_sites(fn)
    consts = _const_sites(fn)
    assume(swaps and consts)

    store = TileCacheStore()
    cold, _ = _allocate(fn, store)

    # Identity replay: everything hits, output identical.
    replay, allocator = _allocate(fn, store)
    counters = allocator.last_tile_cache
    assert counters["tile_misses"] == 0
    assert _text(replay) == _text(cold)

    # Edited replay: bit-identical to a fresh allocation of the edit.
    edited = fn.clone()
    _swap(edited, swaps[pick % len(swaps)])
    warm, allocator = _allocate(edited, store)
    fresh, _ = _allocate(edited)
    assert _text(warm) == _text(fresh)
    assert warm.stats.spilled_vars == fresh.stats.spilled_vars
    counters = allocator.last_tile_cache
    total = counters["tile_hits"] + counters["tile_misses"]
    assert total == warm.stats.extra["tile_count"]
    assert counters["tile_misses"] >= 1
    if counters["tile_hits"]:
        assert counters["subtrees_reused"] >= 1

    # A constant bump changes no allocation input: full replay, and
    # still bit-identical to a fresh allocation.
    bumped = fn.clone()
    _bump(bumped, consts[pick % len(consts)])
    warm, allocator = _allocate(bumped, store)
    fresh, _ = _allocate(bumped)
    assert _text(warm) == _text(fresh)
    assert allocator.last_tile_cache["tile_misses"] == 0
    assert allocator.last_tile_cache["subtrees_reused"] == 1
