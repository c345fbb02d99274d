"""E15 -- allocation-time scaling (Appendix A complexity remarks), and the
repo's calibrated timing gates.

"Execution time [of fix-up] is O(||E|| * h(T)) ... It is expected that
actual times will not approach this bound in practice.  Execution time of
finding intervals is O(||E|| + ||N||) and the execution time of finding
tiles within intervals is dominated by the time to compute the dominator
relation."

We time tile-tree construction and full allocation on growing programs and
check growth stays near-linear (doubling the program should far less than
quadruple the time).

The rest of this file holds the timing gates no count can replace.  Each
compares a wall-clock time here against one recorded on another machine
in ``BENCH_analysis_speed.json``, scaled by the calibration ratio: the
string-set reference analysis (the seed's algorithm, which no
optimization touches) timed here over the time recorded with the
baseline.  The baseline file is frozen, so a missing section fails the
gate.  The gates print their tables and write nothing.

* ``-k quick`` (CI's perf gate): end-to-end allocation within 2x of
  ``current.end_to_end``; cold-module throughput >= 2.5x the
  seed-equivalent of ``cold_path_anchor``.
* the rest: end-to-end allocation >= 3x the seed on ``rand_struct_428``;
  cold-module throughput >= 4x the seed-equivalent; and, on >= 4 CPUs,
  cold throughput at 4 pool workers >= 2x that at 1 worker.

Run them under ``PYTHONHASHSEED=0``, as CI does.  Counts and fuel
ratios gate the rest of the engine, the tile memo and the service in
tier-1 (``tests/test_batch_engine.py``, ``tests/test_incremental.py``,
``tests/test_service.py``).
"""

import json
import os
import time

import pytest

from conftest import fmt_row, report, show

from repro.allocators import ChaitinAllocator
from repro.analysis.reference import reference_interference, reference_liveness
from repro.batch import BatchConfig, BatchEngine, synthetic_module
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.determinism import build_workload, workload_names
from repro.machine.target import Machine
from repro.pipeline import prepare
from repro.tiles.construction import build_tile_tree_detailed
from repro.workloads.kernels import sequential_loops

MACHINE = Machine.simple(4)
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_analysis_speed.json"
)
#: The bench workloads the quick end-to-end gate times.
QUICK_WORKLOADS = ("seq_loops_100", "rand_struct_327")
#: The largest bench workload: the full end-to-end gate's subject.
LARGEST = "rand_struct_428"


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


# ----------------------------------------------------------------------
# calibrated timing gates
# ----------------------------------------------------------------------
def _baseline(*path):
    """The section of the committed baseline at *path*."""
    with open(BASELINE_PATH) as fh:
        node = json.load(fh)
    for depth, key in enumerate(path):
        assert key in node, (
            f"BENCH_analysis_speed.json has no "
            f"{'.'.join(path[:depth + 1])}: the committed baseline is broken"
        )
        node = node[key]
    return node


def _strset(name):
    """The string-set reference analysis on one bench workload, as a
    callable: the calibration every gate scales its recorded time by."""
    fn = build_workload(name).fn

    def run():
        liveness = reference_liveness(fn)
        for label in fn.blocks:
            liveness.instr_live_out(label)
        reference_interference(fn, liveness)

    return run


def _end_to_end(names):
    """{name: (blocks, allocation s, calibration s)} for bench workloads
    allocated at 8 registers under the default config, best of 3 each.

    After an idle spell, a fresh process on a shared 2-vCPU host
    allocated ~3x slower for its first second or more, while the small
    calibration ran at full speed; a gate that timed its first
    workload's samples back to back failed on that alone.  So every
    workload is allocated once, untimed, and then the allocations and
    their calibrations are sampled in turn, one round at a time (as
    ``perfbench/hostspeed.py`` samples its reference task between timed
    operations): a spell that outlasts the untimed allocations reaches
    at most some of each workload's samples."""
    machine = Machine.simple(8)
    fns = {name: build_workload(name).fn for name in names}
    timed = {}
    for name, fn in fns.items():
        def allocate(fn=fn):
            HierarchicalAllocator(HierarchicalConfig()).allocate(
                fn.clone(), machine
            )

        allocate()
        timed[name, "calibration"] = _strset(name)
        timed[name, "allocation"] = allocate
    best = dict.fromkeys(timed, float("inf"))
    for _ in range(3):
        for key, callable_ in timed.items():
            best[key] = min(best[key], _time(callable_, repeats=1))
    return {
        name: (len(fn.blocks), best[name, "allocation"],
               best[name, "calibration"])
        for name, fn in fns.items()
    }


def _cold_path(repeats):
    """Cold-module throughput through a fresh inline engine on the
    anchor's module, best of *repeats*, over the anchor's seed-equivalent
    fn/s scaled to this machine by the aggregate calibration ratio (see
    ``cold_path_anchor.note`` for how that figure was derived)."""
    anchor = _baseline("cold_path_anchor")
    workloads = synthetic_module(anchor["recorded_module_functions"])
    best = float("inf")
    for _ in range(repeats):
        with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:
            start = time.perf_counter()
            module = engine.allocate_module(workloads)
            best = min(best, time.perf_counter() - start)
        assert not module.failures, "cold pass had failures"
        assert not any(r.cached for r in module), "cold pass hit the cache"
    ratio = (
        sum(_time(_strset(name)) for name in workload_names())
        / anchor["calibration_strset_agg_s"]
    )
    # fn/s scales inversely with time: a slower machine (ratio > 1)
    # would have recorded proportionally fewer fn/s.
    cold_fps = len(workloads) / best
    seed_fps = anchor["seed_equiv_cold_fps"] / ratio
    widths = [20, 12]
    show("cold path", [
        fmt_row(["metric", "value"], widths),
        fmt_row(["cold fn/s", round(cold_fps, 2)], widths),
        fmt_row(["seed-equiv fn/s", round(seed_fps, 2)], widths),
        fmt_row(["speedup vs seed", round(cold_fps / seed_fps, 2)], widths),
    ])
    return cold_fps / seed_fps


def test_quick_regression_gate():
    """End-to-end allocation within 2x of ``current.end_to_end``,
    machine-normalized per workload by its own calibration."""
    widths = [16, 12, 12, 8]
    rows = [fmt_row(["workload", "limit (ms)", "now (ms)", "ratio"], widths)]
    failures = []
    for name, (_, now, calib) in _end_to_end(QUICK_WORKLOADS).items():
        rec = _baseline("current", "end_to_end", name)
        limit = rec["end_to_end_s"] * calib / rec["calibration_strset_s"] * 2
        rows.append(fmt_row(
            [name, round(limit * 1e3, 1), round(now * 1e3, 1),
             round(now / limit, 2)],
            widths,
        ))
        if now > limit:
            failures.append(
                f"{name}: {now * 1e3:.1f}ms exceeds 2x baseline "
                f"({limit * 1e3:.1f}ms machine-normalized)"
            )
    show("end-to-end vs recorded", rows)
    assert not failures, "; ".join(failures)


def test_quick_cold_path_gate():
    """Cold-module throughput >= 2.5x the seed-equivalent baseline: the
    cheap tripwire; ``test_cold_path_throughput`` holds 4x."""
    speedup = _cold_path(repeats=2)
    assert speedup >= 2.5, (
        f"cold path is only {speedup:.2f}x the seed-equivalent (need >= 2.5x)"
    )


def test_end_to_end_speedup(benchmark):
    """>= 3x end-to-end allocation speedup over the recorded seed on the
    largest workload.  On a machine M the normalized speedup is

        (seed_e2e_recorded / e2e_on_M) * (calib_on_M / calib_recorded)
    """
    widths = [16, 8, 12, 12, 10]
    rows = [fmt_row(
        ["workload", "blocks", "seed (ms)*", "now (ms)", "speedup"], widths
    )]
    speedups = {}
    for name, (blocks, now, calib) in _end_to_end(workload_names()).items():
        rec = _baseline("seed_baseline", "workloads", name)
        seed = rec["end_to_end_s"] * calib / rec["calibration_strset_s"]
        speedups[name] = seed / now
        rows.append(fmt_row(
            [name, blocks, round(seed * 1e3, 1), round(now * 1e3, 1),
             round(speedups[name], 2)],
            widths,
        ))
    rows.append("* seed time scaled by the strset-calibration ratio")
    show("end-to-end vs seed", rows)
    assert speedups[LARGEST] >= 3.0, (
        f"{LARGEST}: end-to-end speedup {speedups[LARGEST]:.2f}x < 3x"
    )

    fn = build_workload("seq_loops_100").fn
    allocator = HierarchicalAllocator(HierarchicalConfig())
    benchmark(lambda: allocator.allocate(fn.clone(), Machine.simple(8)))


def test_cold_path_throughput(benchmark):
    """>= 4x cold-module throughput over the seed-equivalent baseline.

    Cold path = what a compiler pays on first contact with a module:
    format + fingerprint + full hierarchical allocation with differential
    verification, inline (``batch_workers=0``) through a fresh
    :class:`~repro.batch.BatchEngine`, so no cache and no pool startup
    pollute the number.  ``repro batch --profile`` attributes it to
    stages.
    """
    speedup = _cold_path(repeats=3)
    # Floor set after the dense select-loop / arena temp-node change,
    # whose calibrated runs measured 5.2-7.6x on a noisy shared host
    # (worst observed sample 4.31x); 4.0 keeps headroom for machine
    # jitter while still catching a regression to the level before it.
    assert speedup >= 4.0, (
        f"cold path is only {speedup:.2f}x the seed-equivalent (need >= 4x)"
    )

    small = synthetic_module(8)
    with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:

        def run():
            engine.cache.clear_memory()
            engine.allocate_module(small)

        benchmark(run)


def test_pool_scaling(benchmark):
    """Cold throughput at 4 pool workers >= 2x that at 1 worker on a
    120-function module (big enough that pool startup, a few hundred ms,
    does not dominate).  More processes than cores measures
    oversubscription, not scaling, so this needs >= 4 CPUs."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("pool scaling needs >= 4 CPUs")
    workloads = synthetic_module(120)
    cold_s = {}
    for workers in (1, 4):
        with BatchEngine(batch=BatchConfig(batch_workers=workers)) as engine:
            start = time.perf_counter()
            module = engine.allocate_module(workloads)
            cold_s[workers] = time.perf_counter() - start
        assert not module.failures, "cold pass had failures"
    scaling = cold_s[1] / cold_s[4]
    widths = [8, 10, 12]
    rows = [fmt_row(["workers", "cold (s)", "cold (f/s)"], widths)]
    for workers, seconds in sorted(cold_s.items()):
        rows.append(fmt_row(
            [workers, round(seconds, 3), round(len(workloads) / seconds, 1)],
            widths,
        ))
    show("pool scaling", rows)
    assert scaling >= 2.0, (
        f"cold throughput at 4 workers only {scaling:.2f}x that at 1 "
        f"(need >= 2x)"
    )

    small = synthetic_module(12)
    with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:
        engine.allocate_module(small)
        benchmark(lambda: engine.allocate_module(small))
