"""E15 -- allocation-time scaling (Appendix A complexity remarks).

"Execution time [of fix-up] is O(||E|| * h(T)) ... It is expected that
actual times will not approach this bound in practice.  Execution time of
finding intervals is O(||E|| + ||N||) and the execution time of finding
tiles within intervals is dominated by the time to compute the dominator
relation."

We time tile-tree construction and full allocation on growing programs and
check growth stays near-linear (doubling the program should far less than
quadruple the time).
"""

import json
import os
import time

import pytest

from conftest import fmt_row, report

from repro.allocators import ChaitinAllocator
from repro.analysis.reference import reference_interference, reference_liveness
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.machine.target import Machine
from repro.pipeline import Workload, prepare
from repro.tiles.construction import build_tile_tree_detailed
from repro.workloads.generators import random_program
from repro.workloads.kernels import sequential_loops

MACHINE = Machine.simple(4)
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_analysis_speed.json"
)


def _time(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_construction_scaling(benchmark):
    widths = [8, 8, 12]
    rows = [fmt_row(["loops", "blocks", "build (ms)"], widths)]
    times = {}
    for count in (8, 16, 32, 64):
        fn = sequential_loops(count)
        times[count] = _time(lambda fn=fn: build_tile_tree_detailed(fn.clone()))
        rows.append(fmt_row(
            [count, len(fn.blocks), round(times[count] * 1e3, 2)], widths
        ))
    report("E15_construction_time", rows)

    # Near-linear: 8x the program should cost well under 8^2 = 64x time.
    assert times[64] < 64 * max(times[8], 1e-4)

    benchmark(lambda: build_tile_tree_detailed(sequential_loops(32)))


def test_allocation_scaling(benchmark):
    config = HierarchicalConfig(max_tile_width=4)
    widths = [8, 8, 14, 12]
    rows = [fmt_row(["loops", "blocks", "hier (ms)", "flat (ms)"], widths)]
    hier_times = {}
    for count in (8, 16, 32):
        fn = sequential_loops(count)
        prepared = prepare(fn.clone())

        def run_hier(prepared=prepared):
            HierarchicalAllocator(config).allocate(prepared.clone(), MACHINE)

        def run_flat(prepared=prepared):
            ChaitinAllocator().allocate(prepared.clone(), MACHINE)

        hier_times[count] = _time(run_hier, repeats=2)
        flat = _time(run_flat, repeats=2)
        rows.append(fmt_row(
            [count, len(fn.blocks), round(hier_times[count] * 1e3, 1),
             round(flat * 1e3, 1)],
            widths,
        ))
    report("E15_allocation_time", rows)

    assert hier_times[32] < 16 * max(hier_times[8], 1e-4)

    prepared = prepare(sequential_loops(16))
    benchmark(lambda: HierarchicalAllocator(config).allocate(
        prepared.clone(), MACHINE
    ))


# Quick regression gate (CI runs just this with ``-k quick``): end-to-end
# allocation must stay within 2x of the committed baseline in
# BENCH_analysis_speed.json.  The recorded times come from one machine;
# the string-set reference analysis (the seed algorithm, untouched by
# optimization work) is re-timed here and the baseline scaled by the
# calibration ratio so the gate transfers across machines.
QUICK_WORKLOADS = {
    "seq_loops_100": lambda: sequential_loops(100),
    "rand_struct_327": lambda: random_program(
        seed=1, max_blocks=400, max_vars=40, max_depth=6, break_prob=0.05
    ),
}


def _strset_analysis(fn):
    liv = reference_liveness(fn)
    for label in fn.blocks:
        liv.instr_live_out(label)
    reference_interference(fn, liv)


def test_quick_regression_gate():
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    recorded = baseline.get("current", {}).get("end_to_end", {})
    if not recorded:
        pytest.skip("no committed end-to-end baseline yet")

    machine = Machine.simple(8)
    config = HierarchicalConfig()
    widths = [16, 12, 12, 8]
    rows = [fmt_row(["workload", "limit (ms)", "now (ms)", "ratio"], widths)]
    failures = []
    for name, factory in QUICK_WORKLOADS.items():
        rec = recorded.get(name)
        if rec is None:
            continue
        fn = factory()
        cur = _time(
            lambda: HierarchicalAllocator(config).allocate(
                fn.clone(), machine
            ),
            repeats=3,
        )
        calib_now = _time(lambda: _strset_analysis(fn), repeats=3)
        scale = calib_now / max(rec["calibration_strset_s"], 1e-9)
        limit = rec["end_to_end_s"] * scale * 2.0
        rows.append(fmt_row(
            [name, round(limit * 1e3, 1), round(cur * 1e3, 1),
             round(cur / max(limit, 1e-9), 2)],
            widths,
        ))
        if cur > limit:
            failures.append(
                f"{name}: {cur * 1e3:.1f}ms exceeds 2x baseline "
                f"({limit * 1e3:.1f}ms machine-normalized)"
            )
    report("E15_quick_gate", rows)
    assert not failures, "; ".join(failures)


def test_quick_cold_path_gate():
    """Cold-module throughput >= 2.5x the seed-equivalent baseline.

    CI's quick perf gate for the flattened cold path: one inline
    (``batch_workers=0``) cold pass through the batch engine on the
    anchor's module size, compared against the frozen
    ``cold_path_anchor`` in ``BENCH_analysis_speed.json`` (see its
    ``note`` for how the seed-equivalent fn/s is derived), machine-
    normalized by the aggregate string-set calibration ratio.  The full
    bench (``bench_analysis_speed.py::test_cold_path_throughput``) gates
    the stricter 3x and records the trajectory; this is the cheap
    regression tripwire.  Run under ``PYTHONHASHSEED=0`` (as CI does)
    for comparable timings.
    """
    from bench_analysis_speed import (
        WORKLOADS,
        _run_analysis_reference,
    )
    from repro.batch import BatchConfig, BatchEngine, synthetic_module

    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    anchor = baseline.get("cold_path_anchor")
    if anchor is None:
        pytest.skip("no committed cold_path_anchor yet")

    workloads = synthetic_module(anchor["recorded_module_functions"])
    n = len(workloads)
    best = float("inf")
    for _ in range(2):
        with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:
            start = time.perf_counter()
            module = engine.allocate_module(workloads)
            best = min(best, time.perf_counter() - start)
        assert not module.failures, "cold pass had failures"
    cold_fps = n / max(best, 1e-9)

    calib_now = 0.0
    for name, factory in WORKLOADS:
        fn = factory()
        calib_now += _time(lambda: _run_analysis_reference(fn), repeats=3)
    machine_ratio = calib_now / max(anchor["calibration_strset_agg_s"], 1e-9)
    seed_fps_here = anchor["seed_equiv_cold_fps"] / machine_ratio
    speedup = cold_fps / max(seed_fps_here, 1e-9)

    widths = [26, 12]
    rows = [fmt_row(["metric", "value"], widths)]
    rows.append(fmt_row(["cold fn/s", round(cold_fps, 2)], widths))
    rows.append(fmt_row(["seed-equiv fn/s", round(seed_fps_here, 2)], widths))
    rows.append(fmt_row(["speedup vs seed", round(speedup, 2)], widths))
    report("E15_quick_cold_path", rows)

    assert speedup >= 2.5, (
        f"cold path {cold_fps:.1f} fn/s is only {speedup:.2f}x the "
        f"seed-equivalent {seed_fps_here:.1f} fn/s (need >= 2.5x)"
    )
