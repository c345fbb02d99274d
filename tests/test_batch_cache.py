"""Property tests for the content-addressed allocation cache.

Covers the serialization format (round-trip, version rejection), the LRU
and disk layers, the invalidation key (semantic config, machine and
prepare-option changes miss), single-function invalidation, and the
cold-vs-warm bit-identity guarantee across ``PYTHONHASHSEED`` values.
"""

import pytest

from repro.analysis.frequency import estimate_frequencies
from repro.batch import (
    FORMAT_VERSION,
    AllocationCache,
    BatchConfig,
    BatchEngine,
    function_fingerprint,
    invalidation_key,
    synthetic_module,
)
from repro.batch.serialize import (
    AllocationRecord,
    UncacheableConfigError,
    config_signature,
    dumps_record,
    loads_record,
    record_to_dict,
)
from repro.core import HierarchicalConfig
from repro.determinism import fingerprint_in_subprocess
from repro.machine.target import Machine
from repro.pipeline import Workload
from repro.workloads.generators import random_program
from repro.workloads.kernels import dot


def make_record(i=0, name="fn"):
    return AllocationRecord(
        version=FORMAT_VERSION,
        function=name,
        fingerprint=f"fp{i:04d}",
        blocks=3,
        allocated_sha256="a" * 64,
        allocated_text="func fn() {\n}\n",
        spilled=("v1", "v2"),
        bindings=(("t0:v1", "r0"), ("t1:v2", "r1")),
        static_costs={"spill_loads": 1, "spill_stores": 2, "moves": 0},
        costs={"spill_loads": 1, "spill_stores": 2, "moves": 0,
               "program_refs": 5},
        returned=[1, 2],
    )


class TestSerialization:
    def test_round_trip_is_identity(self):
        record = make_record()
        assert loads_record(dumps_record(record)) == record

    def test_tuple_return_normalizes_to_list(self):
        import dataclasses

        record = dataclasses.replace(make_record(), returned=(1, (2, 3)))
        assert loads_record(dumps_record(record)).returned == [1, [2, 3]]

    def test_version_mismatch_rejected(self):
        payload = record_to_dict(make_record())
        payload["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            from repro.batch.serialize import record_from_dict

            record_from_dict(payload)

    def test_dumps_is_canonical(self):
        # Bit-stable text: the same record always serializes identically
        # (the property that makes the disk layer shareable).
        record = make_record()
        assert dumps_record(record) == dumps_record(make_record())


class TestLRU:
    def test_eviction_at_capacity(self):
        cache = AllocationCache(capacity=2)
        for i in range(3):
            cache.put(f"k{i}", make_record(i))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("k0") is None
        assert cache.stats.misses == 1
        assert cache.get("k2") is not None

    def test_get_refreshes_recency(self):
        cache = AllocationCache(capacity=2)
        cache.put("k0", make_record(0))
        cache.put("k1", make_record(1))
        cache.get("k0")  # k1 is now least recent
        cache.put("k2", make_record(2))
        assert cache.get("k0") is not None
        assert cache.get("k1") is None

    def test_source_of_does_not_touch_counters(self):
        cache = AllocationCache(capacity=2)
        cache.put("k0", make_record(0))
        assert cache.source_of("k0") == "memory"
        assert cache.source_of("nope") is None
        assert cache.stats.hits == 0 and cache.stats.misses == 0


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        record = make_record()
        first = AllocationCache(capacity=4, cache_dir=str(tmp_path))
        first.put("abcd", record)
        assert first.stats.disk_writes == 1

        fresh = AllocationCache(capacity=4, cache_dir=str(tmp_path))
        assert fresh.source_of("abcd") == "disk"
        assert fresh.get("abcd") == record
        assert fresh.stats.disk_hits == 1
        # The hit promoted the record into memory.
        assert fresh.source_of("abcd") == "memory"

    def test_memory_clear_keeps_disk(self, tmp_path):
        cache = AllocationCache(capacity=4, cache_dir=str(tmp_path))
        cache.put("abcd", make_record())
        cache.clear_memory()
        assert cache.source_of("abcd") == "disk"
        assert cache.get("abcd") is not None

    def test_torn_record_treated_as_miss(self, tmp_path):
        cache = AllocationCache(capacity=4, cache_dir=str(tmp_path))
        path = cache._disk_path("abcd")
        import os

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.source_of("abcd") == "disk"
        assert cache.get("abcd") is None
        assert cache.stats.misses == 1


class TestInvalidationKey:
    MACHINE = Machine.simple(8)

    def test_stable_for_equal_inputs(self):
        assert invalidation_key(
            HierarchicalConfig(), self.MACHINE
        ) == invalidation_key(HierarchicalConfig(), self.MACHINE)

    def test_machine_change_invalidates(self):
        base = invalidation_key(HierarchicalConfig(), self.MACHINE)
        assert invalidation_key(
            HierarchicalConfig(), Machine.simple(4)
        ) != base

    def test_semantic_config_change_invalidates(self):
        base = invalidation_key(HierarchicalConfig(), self.MACHINE)
        assert invalidation_key(
            HierarchicalConfig(max_tile_width=4), self.MACHINE
        ) != base

    def test_prepare_options_invalidate(self):
        base = invalidation_key(HierarchicalConfig(), self.MACHINE)
        assert invalidation_key(
            HierarchicalConfig(), self.MACHINE, rename=False
        ) != base

    def test_profile_guided_config_is_uncacheable(self):
        freq = estimate_frequencies(dot())
        with pytest.raises(UncacheableConfigError):
            config_signature(HierarchicalConfig(frequencies=freq))
        # The engine degrades to cache-off instead of risking stale hits.
        engine = BatchEngine(config=HierarchicalConfig(frequencies=freq))
        assert engine.cache is None


class TestInputsDigest:
    def test_empty_inputs_yield_empty_digest(self):
        from repro.batch.serialize import cache_key, inputs_digest

        assert inputs_digest({}, {}) == ""
        assert cache_key("fp", "inv", inputs_digest({}, {})) == "fp-inv"

    def test_different_inputs_key_differently(self):
        from repro.batch.serialize import cache_key, inputs_digest

        small = inputs_digest({"n": 2}, {"A": [1, 2]})
        large = inputs_digest({"n": 4}, {"A": [1, 2]})
        assert small and large and small != large
        assert cache_key("fp", "inv", small) != cache_key("fp", "inv", large)

    def test_digest_is_order_insensitive_and_stable(self):
        from repro.batch.serialize import inputs_digest

        a = inputs_digest({"n": 2, "m": 3}, {"A": [1], "B": [2]})
        b = inputs_digest({"m": 3, "n": 2}, {"B": [2], "A": [1]})
        assert a == b
        # Tuples and lists carry the same values, so they must collide.
        assert inputs_digest({}, {"A": (1, 2)}) == inputs_digest(
            {}, {"A": [1, 2]}
        )


class TestSingleFunctionInvalidation:
    def test_editing_one_function_misses_only_that_entry(self):
        module = synthetic_module(6)
        edited = list(module)
        replacement = random_program(
            seed=424_242, max_blocks=30, max_vars=10, max_depth=3
        )
        edited[2] = Workload(
            replacement, {"n": 2},
            {"A": [1] * 8, "B": [0] * 8},
            name=module[2].label(),
        )
        assert function_fingerprint(edited[2].fn) != function_fingerprint(
            module[2].fn
        )

        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            assert engine.stats.cache_hits == 0
            assert engine.stats.computed == len(module)

            engine.allocate_module(edited)
            assert engine.stats.cache_hits == len(module) - 1
            assert engine.stats.computed == len(module) + 1


class TestCrossSeedBitIdentity:
    def test_cold_and_warm_identical_across_hash_seeds(self):
        """Direct, cold-batch and warm-cache fingerprints are one value
        across PYTHONHASHSEED {0, 1, 12345} (fresh interpreter each)."""
        names = ["seq_loops_100"]
        runs = {
            seed: fingerprint_in_subprocess(names, seed, batch=0)
            for seed in ("0", "1", "12345")
        }
        base = runs["0"][names[0]]
        # fingerprint_workloads already asserts batch-cold == direct; the
        # cold/warm sections must also agree, across every seed.
        assert base["batch"]["cold"] == base["batch"]["warm"]
        for seed, run in runs.items():
            assert run[names[0]] == base, f"seed {seed} diverged"
