"""E8 -- parallelism available to sibling subtrees (paper section 6).

"Sibling subtrees can be processed concurrently in both the bottom-up and
top-down passes.  The amount of parallelism depends on the shape of the
tile tree ... there is adequate breadth in the tree to expect benefit."

The allocator runs both phases sequentially; this bench measures the
claim structurally instead of with threads.  ``E8_breadth`` reports the
tiles per level (the units that could be colored concurrently).
``E8_critical_path`` weighs every tile by the deterministic fuel
(:mod:`repro.core.budget`) it spends in ``allocate_tile`` (phase 1) and
``bind_tile`` (phase 2): with unlimited workers, phase 1 can finish no
sooner than its heaviest leaf-to-root chain and phase 2 no sooner than its
heaviest root-to-leaf chain, so ``total / critical path`` bounds the
speedup section 6 could buy.  Fuel is a pure function of the input, so the
report is exact and the bench asserts two runs agree.
"""

from typing import Dict, List, Tuple

from conftest import fmt_row, report

from repro.core import HierarchicalAllocator
from repro.core import phase1, phase2
from repro.core.budget import BudgetLimits
from repro.machine.target import Machine
from repro.pipeline import compile_function
from repro.workloads.generators import random_workload
from repro.workloads.kernels import all_kernel_workloads

MACHINE = Machine.simple(4)

#: Far above any E8 workload's spend: the budget only counts here.
FUEL = 10 ** 12


def _workloads():
    return all_kernel_workloads(8) + [
        random_workload(s, max_blocks=48, max_depth=4) for s in range(4)
    ]


def test_tree_breadth(benchmark):
    widths = [16, 7, 7, 10, 14]
    rows = [fmt_row(
        ["workload", "tiles", "height", "max width", "parallel frac"],
        widths,
    )]
    for workload in _workloads():
        allocator = HierarchicalAllocator()
        compile_function(workload, allocator, MACHINE)
        stats = allocator.last_context
        tree = stats.tree
        profile = tree.breadth_profile()
        tiles = len(tree)
        max_width = max(profile.values())
        # Fraction of tiles that have at least one sibling at their level:
        # the work units that benefit from concurrency.
        parallel = sum(v for v in profile.values() if v > 1) / tiles
        rows.append(fmt_row(
            [workload.label(), tiles, tree.height(), max_width,
             parallel],
            widths,
        ))
    report("E8_breadth", rows)

    benchmark(lambda: None)


def _heaviest_chain(tile, fuel: Dict[int, int]) -> int:
    """Fuel of the heaviest root-to-leaf chain below (and including)
    *tile*."""
    below = [_heaviest_chain(child, fuel) for child in tile.children]
    return fuel[tile.tid] + max(below, default=0)


def _tile_fuel(workload, monkeypatch) -> Tuple[int, int, int]:
    """(tiles, total tile fuel, critical-path fuel) of one allocation."""
    spent: Dict[str, Dict[int, int]] = {"phase1": {}, "phase2": {}}

    def metered(phase, task):
        def run(ctx, config, tile, allocations):
            before = ctx.budget.spent
            result = task(ctx, config, tile, allocations)
            spent[phase][tile.tid] = ctx.budget.spent - before
            return result
        return run

    with monkeypatch.context() as patch:
        patch.setattr(phase1, "allocate_tile",
                      metered("phase1", phase1.allocate_tile))
        patch.setattr(phase2, "bind_tile",
                      metered("phase2", phase2.bind_tile))
        allocator = HierarchicalAllocator(
            budget_limits=BudgetLimits(max_fuel=FUEL)
        )
        compile_function(workload, allocator, MACHINE)
    root = allocator.last_context.tree.root
    total = sum(spent["phase1"].values()) + sum(spent["phase2"].values())
    critical = (
        _heaviest_chain(root, spent["phase1"])
        + _heaviest_chain(root, spent["phase2"])
    )
    return len(spent["phase1"]), total, critical


def _critical_path_table(monkeypatch) -> List[Tuple[str, int, int, int]]:
    return [
        (workload.label(), *_tile_fuel(workload, monkeypatch))
        for workload in _workloads()
    ]


def test_fuel_critical_path(monkeypatch):
    table = _critical_path_table(monkeypatch)
    assert table == _critical_path_table(monkeypatch), (
        "tile fuel is not deterministic"
    )
    widths = [16, 7, 12, 14, 12]
    rows = [fmt_row(
        ["workload", "tiles", "tile fuel", "critical path", "bound (x)"],
        widths,
    )]
    for name, tiles, total, critical in table:
        assert 0 < critical <= total
        rows.append(fmt_row(
            [name, tiles, total, critical, total / critical], widths,
        ))
    all_total = sum(row[2] for row in table)
    all_critical = sum(row[3] for row in table)
    rows.append(fmt_row(
        ["all", sum(row[1] for row in table), all_total, all_critical,
         all_total / all_critical],
        widths,
    ))
    rows.append(
        "tile fuel = fuel spent in allocate_tile + bind_tile; critical "
        "path = heaviest phase-1 chain + heaviest phase-2 chain; bound = "
        "tile fuel / critical path (section 6 speedup with unlimited "
        "workers); identical across two runs"
    )
    report("E8_critical_path", rows)
