"""E18 -- batch allocation engine throughput (functions/sec).

The paper allocates one procedure at a time; real compilers allocate
modules.  The batch engine (``repro.batch``) fingerprints every function,
serves repeats from a content-addressed allocation cache, and fans cache
misses over a persistent process pool -- processes-per-function being the
parallel axis that scales under the GIL (the allocator colors the tiles
of one function sequentially; ``bench_parallelism.py`` measures what
section 6's intra-function parallelism could at most buy).

This bench measures module throughput on a >= 50-function synthetic
module at several worker counts, cold (empty cache) and warm (second pass
over the same module), and records the numbers under ``current.batch`` in
``BENCH_analysis_speed.json``.  Gates:

* warm-cache throughput must be >= 5x the cold single-process throughput
  (the cache must actually pay for its bookkeeping);
* cold throughput at 4 workers must be >= 2x cold at 1 worker -- checked
  only when the machine has >= 4 CPUs (process parallelism cannot beat
  the core count);
* cold, warm and pooled results must be bit-identical records.

``pytest benchmarks/bench_batch.py -k quick`` (or ``python
benchmarks/bench_batch.py --quick``) runs the reduced CI gate.
"""

import argparse
import json
import os
import sys
import time

from conftest import fmt_row, report

from repro.batch import BatchConfig, BatchEngine, synthetic_module

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_analysis_speed.json"
)

#: Acceptance floor is a >= 50-function module; 120 keeps the cold pass
#: well clear of pool-startup time (spawning a worker pool costs a few
#: hundred ms -- against a ~0.5s 50-function cold pass that skews the
#: multi-worker columns toward "parallelism doesn't pay").
MODULE_SIZE = 120
QUICK_SIZE = 12
WORKER_COUNTS = (1, 2, 4, 8)
WARM_SPEEDUP_FLOOR = 5.0
SCALING_FLOOR = 2.0


def _honest_worker_counts(counts=WORKER_COUNTS):
    """Worker counts this runner can honestly measure *scaling* on.

    A pool of N processes on a machine with fewer than N cores measures
    oversubscription, not scaling; recording those numbers as
    ``current.batch`` cold-scaling data poisons the baseline for every
    future comparison (an earlier session recorded a full 1/2/4/8-worker
    matrix from a ``cpu_count: 1`` runner).  Multi-worker columns are
    measured only up to the core count; the single-worker column always
    runs (it claims nothing about scaling)."""
    cpus = os.cpu_count() or 1
    kept = tuple(w for w in counts if w == 1 or w <= cpus)
    return kept, tuple(w for w in counts if w not in kept)


def _measure(workloads, workers):
    """Cold + warm pass through one engine; returns times and records."""
    batch = BatchConfig(batch_workers=workers)
    with BatchEngine(batch=batch) as engine:
        start = time.perf_counter()
        cold = engine.allocate_module(workloads)
        cold_s = time.perf_counter() - start
        assert not any(r.cached for r in cold), "cold pass hit the cache"

        start = time.perf_counter()
        warm = engine.allocate_module(workloads)
        warm_s = time.perf_counter() - start
        assert all(r.cached for r in warm), "warm pass missed the cache"

    cold_records = [r.record for r in cold]
    assert cold_records == [r.record for r in warm], (
        "warm-cache records diverge from cold records"
    )
    return cold_s, warm_s, cold_records


def _throughput_matrix(size, worker_counts):
    workloads = synthetic_module(size)
    n = len(workloads)
    rows_data = {}
    baseline_records = None
    for workers in worker_counts:
        cold_s, warm_s, records = _measure(workloads, workers)
        if baseline_records is None:
            baseline_records = records
        else:
            assert records == baseline_records, (
                f"workers={workers}: records diverge from workers="
                f"{worker_counts[0]}"
            )
        rows_data[workers] = {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cold_fps": round(n / max(cold_s, 1e-9), 2),
            "warm_fps": round(n / max(warm_s, 1e-9), 2),
        }
    return n, rows_data


def _print_matrix(name, n, rows_data, skipped=()):
    widths = [8, 10, 10, 12, 12]
    rows = [fmt_row(
        ["workers", "cold (s)", "warm (s)", "cold (f/s)", "warm (f/s)"],
        widths,
    )]
    for workers in sorted(rows_data):
        d = rows_data[workers]
        rows.append(fmt_row(
            [workers, d["cold_s"], d["warm_s"], d["cold_fps"],
             d["warm_fps"]],
            widths,
        ))
    rows.append(f"module: {n} functions, cpu_count={os.cpu_count()}")
    if skipped:
        rows.append(
            f"skipped workers {list(skipped)}: more processes than cores "
            "measures oversubscription, not scaling"
        )
    report(name, rows)


def _assert_gates(rows_data, single=1):
    base = rows_data[single]
    warm_speedup = base["warm_fps"] / max(base["cold_fps"], 1e-9)
    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm-cache throughput only {warm_speedup:.1f}x cold "
        f"single-process (need >= {WARM_SPEEDUP_FLOOR}x)"
    )
    # Process scaling can't beat the core count: only gate the 4-worker
    # speedup on machines that have 4 cores to give.
    if 4 in rows_data and (os.cpu_count() or 1) >= 4:
        scaling = rows_data[4]["cold_fps"] / max(base["cold_fps"], 1e-9)
        assert scaling >= SCALING_FLOOR, (
            f"cold throughput at 4 workers only {scaling:.2f}x cold at "
            f"{single} (need >= {SCALING_FLOOR}x)"
        )


def _save(n, rows_data, skipped=()):
    with open(BASELINE_PATH) as fh:
        data = json.load(fh)
    entry = {
        "module_functions": n,
        "cpu_count": os.cpu_count(),
        "workers": {str(w): d for w, d in rows_data.items()},
    }
    if skipped:
        entry["workers_skipped"] = {
            "counts": list(skipped),
            "reason": "cpu_count cannot support a scaling claim at these "
                      "worker counts",
        }
    data.setdefault("current", {})["batch"] = entry
    with open(BASELINE_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_batch_throughput(benchmark):
    """Full matrix: workers x {cold, warm} on the synthetic module."""
    counts, skipped = _honest_worker_counts()
    n, rows_data = _throughput_matrix(MODULE_SIZE, counts)
    _print_matrix("E18_batch_throughput", n, rows_data, skipped)
    _save(n, rows_data, skipped)
    _assert_gates(rows_data)

    workloads = synthetic_module(QUICK_SIZE)
    batch = BatchConfig(batch_workers=0)
    with BatchEngine(batch=batch) as engine:
        engine.allocate_module(workloads)
        benchmark(lambda: engine.allocate_module(workloads))


def test_quick_batch_gate():
    """Reduced CI gate: warm-cache speedup + pooled/inline bit-identity
    on a small module (runs via ``-k quick`` in the batch-gate CI step)."""
    workloads = synthetic_module(QUICK_SIZE)
    n = len(workloads)
    cold_s, warm_s, inline_records = _measure(workloads, workers=0)
    _, _, pooled_records = _measure(workloads, workers=2)
    assert pooled_records == inline_records, (
        "pooled records diverge from inline records"
    )
    fps = {
        0: {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cold_fps": round(n / max(cold_s, 1e-9), 2),
            "warm_fps": round(n / max(warm_s, 1e-9), 2),
        }
    }
    _print_matrix("E18_quick_batch_gate", n, fps)
    _assert_gates(fps, single=0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="run the reduced CI gate instead of the full matrix",
    )
    args = parser.parse_args(argv)
    if args.quick:
        test_quick_batch_gate()
        print("OK: quick batch gate passed")
        return 0
    counts, skipped = _honest_worker_counts()
    n, rows_data = _throughput_matrix(MODULE_SIZE, counts)
    _print_matrix("E18_batch_throughput", n, rows_data, skipped)
    _save(n, rows_data, skipped)
    _assert_gates(rows_data)
    print("OK: batch throughput gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
