"""Cross-process reproducibility gate (the PR-2 tentpole).

Allocation output -- assignments, inserted spill code, and simulated
costs -- must be bit-identical regardless of ``PYTHONHASHSEED``.  The
production driver runs once per hash seed, each in a *fresh subprocess*
so each interpreter gets its own hash salt; fingerprints are only
compared between subprocesses (absolute tile ids depend on in-process
history, so an in-process fingerprint is not comparable to a subprocess
one).

The workload list is the bench set, including the 428-block random
program that originally exposed the hash-order sensitivity.
"""

import json

import pytest

from repro.determinism import (
    DEFAULT_HASH_SEEDS,
    cross_process_check,
    fingerprint_in_subprocess,
    fingerprint_workloads,
    workload_names,
)

WORKLOADS = workload_names()

@pytest.fixture(scope="module")
def fingerprints():
    return {
        seed: fingerprint_in_subprocess(WORKLOADS, seed)
        for seed in DEFAULT_HASH_SEEDS
    }


def test_bench_set_includes_the_428_block_program():
    assert "rand_struct_428" in WORKLOADS


def test_three_distinct_hash_seeds_in_matrix():
    assert len(set(DEFAULT_HASH_SEEDS)) >= 3


@pytest.mark.parametrize("harness", [
    lambda **modes: fingerprint_workloads(WORKLOADS[:1], **modes),
    lambda **modes: fingerprint_in_subprocess(WORKLOADS[:1], "0", **modes),
    lambda **modes: cross_process_check(WORKLOADS[:1], **modes),
], ids=["fingerprint_workloads", "fingerprint_in_subprocess",
        "cross_process_check"])
def test_unknown_mode_name_raises(harness):
    """A mode keyword the table does not know is refused, not ignored."""
    with pytest.raises(ValueError, match="batch_workers"):
        harness(batch_workers=0)


# The test id predates the removal of the thread scheduler, whose worker
# counts were the matrix's second axis.
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bit_identical_across_seeds_and_workers(fingerprints, workload):
    baseline_seed = DEFAULT_HASH_SEEDS[0]
    baseline = fingerprints[baseline_seed][workload]
    # Sanity: the fingerprint actually covers program, spills and costs.
    assert set(baseline) >= {"program_sha256", "spilled", "costs"}
    for seed, run in fingerprints.items():
        assert run[workload] == baseline, (
            f"{workload}: seed={seed} diverges from seed={baseline_seed}:\n"
            f"baseline: {json.dumps(baseline, sort_keys=True)}\n"
            f"got:      {json.dumps(run[workload], sort_keys=True)}"
        )


def test_engine_and_service_match_direct_below_eight_registers():
    """Batch and served fingerprints equal the direct pipeline's at R=6,
    not only at the default R=8: every path allocates the program the
    canonical text describes, whatever the in-memory block order."""
    prints = fingerprint_workloads(
        ["rand_struct_327"], registers=6, batch=0, service=True
    )
    assert set(prints["rand_struct_327"]) >= {"batch", "service"}
