"""Resource governance: budgets, admission estimates, engine ladder.

The load-bearing properties, each pinned here:

* budget limits only *abort* -- a budgeted allocation that completes is
  bit-identical to the unbudgeted one, and the fuel spend itself is a
  pure function of the input (two runs, same snapshot);
* fuel exhaustion is deterministic and classified PERMANENT, deadline
  misses TRANSIENT (``repro.errors`` taxonomy);
* :func:`~repro.core.budget.estimate_cost` is deterministic and
  monotone in program size (hypothesis over the structured generator);
* the batch engine degrades budget-starved functions down the ladder
  (``degraded_by_budget`` counted) and refuses over-limit functions at
  admission *before* consulting the cache (``rejected`` counted,
  ``attempts == 0``).
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import BatchConfig, BatchEngine
from repro.core import HierarchicalAllocator
from repro.core.budget import (
    AllocationBudget,
    BudgetExceededError,
    BudgetLimits,
    estimate_cost,
)
from repro.core.incremental import TileCacheStore
from repro.errors import PERMANENT, TRANSIENT, classify_exception
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, prepare
from repro.workloads.figure1 import figure1
from repro.workloads.generators import random_program
from repro.workloads.kernels import matmul

MACHINE = Machine.simple(8)
SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _program(seed: int):
    return random_program(seed, max_blocks=30, max_vars=12, max_depth=3)


class TestBudgetLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetLimits(max_fuel=0)
        with pytest.raises(ValueError):
            BudgetLimits(deadline_s=0.0)
        with pytest.raises(ValueError):
            BudgetLimits(deadline_s=-1.0)

    def test_unlimited_spec_starts_no_budget(self):
        assert BudgetLimits().unlimited
        assert BudgetLimits().start() is None

    def test_limited_spec_mints_fresh_budgets(self):
        limits = BudgetLimits(max_fuel=100)
        first, second = limits.start(), limits.start()
        assert isinstance(first, AllocationBudget)
        assert first is not second  # no fuel leaks between allocations
        first.charge(99, "tiles")
        assert second.spent == 0


class TestAllocationBudget:
    def test_charge_accumulates_and_raises_at_exhaustion(self):
        budget = AllocationBudget(max_fuel=10)
        budget.charge(4, "tiles")
        budget.charge(6, "graph")
        assert budget.spent == 10
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.charge(1, "graph")
        exc = exc_info.value
        assert exc.resource == "fuel"
        assert exc.spent == 11 and exc.limit == 10
        assert exc.counters == {"tiles": 4, "graph": 7}

    def test_snapshot_is_json_ready_and_sorted(self):
        budget = AllocationBudget(max_fuel=100)
        budget.charge(3, "simplify")
        budget.charge(2, "edges")
        snap = budget.snapshot()
        assert snap["spent"] == 5
        assert snap["max_fuel"] == 100
        assert list(snap["counters"]) == ["edges", "simplify"]

    def test_deadline_probe_raises_transient_resource(self):
        budget = AllocationBudget(deadline_s=0.001)
        time.sleep(0.01)
        with pytest.raises(BudgetExceededError) as exc_info:
            budget.check_deadline()
        assert exc_info.value.resource == "deadline"

    def test_classification_fuel_permanent_deadline_transient(self):
        fuel = BudgetExceededError("fuel", 11, 10)
        deadline = BudgetExceededError("deadline", 0.2, 0.1)
        assert classify_exception(fuel) == ("budget", PERMANENT)
        assert classify_exception(deadline) == ("deadline", TRANSIENT)


class TestEstimateCost:
    @COMMON
    @given(seed=SEEDS)
    def test_deterministic_over_same_text(self, seed):
        first = estimate_cost(_program(seed))
        second = estimate_cost(_program(seed))
        assert first == second

    @COMMON
    @given(seed=SEEDS)
    def test_monotone_in_program_growth(self, seed):
        """Adding blocks/instructions never lowers the estimate."""
        from repro.workloads.adversarial import (
            deep_loop_nest,
            high_degree_clique,
        )

        assert estimate_cost(deep_loop_nest(seed, depth=6)) < estimate_cost(
            deep_loop_nest(seed, depth=7)
        )
        assert estimate_cost(
            high_degree_clique(seed, width=12)
        ) < estimate_cost(high_degree_clique(seed, width=13))

    def test_positive_and_cheap_shape(self):
        fn = _program(3)
        cost = estimate_cost(fn)
        assert cost > len(fn.blocks)  # instructions weigh in


class TestBudgetedAllocationIdentity:
    @COMMON
    @given(seed=SEEDS)
    def test_generous_budget_is_bit_identical_to_unbudgeted(self, seed):
        fn = _program(seed)
        plain = HierarchicalAllocator().allocate(fn, MACHINE)
        budgeted_alloc = HierarchicalAllocator(
            budget_limits=BudgetLimits(max_fuel=10**9)
        )
        budgeted = budgeted_alloc.allocate(fn, MACHINE)
        assert format_function(budgeted.fn) == format_function(plain.fn)
        assert budgeted_alloc.last_budget is not None
        assert budgeted_alloc.last_budget["spent"] > 0

    @COMMON
    @given(seed=SEEDS)
    def test_fuel_spend_is_a_pure_function_of_the_input(self, seed):
        snaps = []
        for _ in range(2):
            allocator = HierarchicalAllocator(
                budget_limits=BudgetLimits(max_fuel=10**9)
            )
            allocator.allocate(_program(seed), MACHINE)
            snaps.append(allocator.last_budget)
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("make_fn", [figure1, matmul])
    def test_empty_tile_store_spends_the_same_fuel(self, make_fn):
        """The memoizing drivers charge one ``tiles`` unit per tile
        visited, like the sequential ones: a cold allocation with an empty
        store attached spends exactly the store-less fuel, so one
        ``max_fuel`` admits the same functions with or without a store."""
        snaps = []
        for store in (None, TileCacheStore()):
            allocator = HierarchicalAllocator(
                budget_limits=BudgetLimits(max_fuel=10**9), tile_store=store
            )
            allocator.allocate(prepare(make_fn()), Machine.simple(4))
            snaps.append(allocator.last_budget["counters"])
        assert snaps[1] == snaps[0]

    def test_tiny_fuel_raises_classified_exhaustion(self):
        allocator = HierarchicalAllocator(
            budget_limits=BudgetLimits(max_fuel=25)
        )
        with pytest.raises(BudgetExceededError) as exc_info:
            allocator.allocate(_program(1), MACHINE)
        assert exc_info.value.resource == "fuel"
        assert exc_info.value.counters  # at least one category charged

    def test_unbudgeted_allocator_records_no_snapshot(self):
        allocator = HierarchicalAllocator()
        allocator.allocate(_program(2), MACHINE)
        assert allocator.last_budget is None


def _module(count=3, seed=0):
    return [
        Workload(_program(seed + i), {"n": 4}, {}, name=f"fn{i}")
        for i in range(count)
    ]


class TestEngineGovernance:
    def test_tiny_fuel_degrades_down_the_ladder(self):
        config = BatchConfig(
            batch_workers=0, on_error="degrade", max_fuel=20
        )
        with BatchEngine(batch=config) as engine:
            module = engine.allocate_module(_module())
            stats = engine.stats
        assert all(r.ok and r.degraded for r in module.results)
        assert all(
            r.error is not None and r.error.error_class == "budget"
            for r in module.results
        )
        assert stats.degraded_by_budget == len(module.results)

    def test_admission_rejects_before_any_attempt(self):
        config = BatchConfig(
            batch_workers=0, on_error="degrade", admission_limit=10
        )
        with BatchEngine(batch=config) as engine:
            module = engine.allocate_module(_module())
            stats = engine.stats
        assert stats.rejected == len(module.results)
        for result in module.results:
            assert result.error.error_class == "admission"
            assert result.attempts == 0  # never reached the allocator
            assert result.ok and result.degraded  # ladder still produced

    def test_admission_is_independent_of_cache_state(self):
        """Rejection is a pure function of the input: a second submission
        of the same module rejects again instead of hitting a cache."""
        config = BatchConfig(
            batch_workers=0, on_error="degrade", admission_limit=10
        )
        with BatchEngine(batch=config) as engine:
            engine.allocate_module(_module())
            engine.allocate_module(_module())
            assert engine.stats.rejected == 2 * len(_module())

    def test_admitted_functions_complete_normally(self):
        config = BatchConfig(
            batch_workers=0, on_error="degrade", admission_limit=10**9,
            max_fuel=10**9,
        )
        with BatchEngine(batch=config) as engine:
            module = engine.allocate_module(_module())
            stats = engine.stats
        assert stats.rejected == 0 and stats.degraded_by_budget == 0
        assert all(r.ok and not r.degraded for r in module.results)

    def test_budget_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_fuel=0)
        with pytest.raises(ValueError):
            BatchConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            BatchConfig(admission_limit=0)
