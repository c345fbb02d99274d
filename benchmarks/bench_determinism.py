"""E17 -- cross-process allocation reproducibility.

PR 1 left a caveat: per-process string-hash salting could permute set
iteration order inside seed-inherited tie-breaks, so allocation output
could differ between processes on large random programs.  PR 2 replaced
every order-sensitive choice point with a canonical order; this bench is
the continuous proof.

Every bench workload (including the 428-block random program) is
allocated by the production driver and simulated in fresh subprocesses
under >= 3 distinct ``PYTHONHASHSEED`` values, and the resulting
fingerprints -- allocated program hash, spill set, dynamic cost counters
-- must be bit-identical across every seed.
"""

from conftest import fmt_row, report

from repro.determinism import (
    DEFAULT_HASH_SEEDS,
    fingerprint_in_subprocess,
    workload_names,
)

WORKLOADS = workload_names()

def test_cross_process_determinism():
    runs = {
        seed: fingerprint_in_subprocess(WORKLOADS, seed)
        for seed in DEFAULT_HASH_SEEDS
    }
    baseline_seed = DEFAULT_HASH_SEEDS[0]
    baseline = runs[baseline_seed]

    widths = [16, 8, 26, 10]
    rows = [fmt_row(
        ["workload", "blocks", "program sha256 (prefix)", "identical"],
        widths,
    )]
    failures = []
    for name in WORKLOADS:
        expected = baseline[name]
        same = all(run[name] == expected for run in runs.values())
        rows.append(fmt_row(
            [
                name,
                expected["blocks"],
                expected["program_sha256"][:24],
                f"{len(runs)}/{len(runs)}" if same else "DIVERGED",
            ],
            widths,
        ))
        if not same:
            for seed, run in runs.items():
                if run[name] != expected:
                    failures.append(
                        f"{name}: seed={seed} diverges from baseline "
                        f"seed={baseline_seed}"
                    )
    rows.append(
        f"matrix: PYTHONHASHSEED in {list(DEFAULT_HASH_SEEDS)}, "
        "production driver"
    )
    report("E17_determinism", rows)
    assert not failures, "\n".join(failures)
