"""Tests for the batch allocation engine (multi-function driver).

Pooled, inline and cached paths must produce bit-identical records in
submission order; duplicates are computed once; results match the
single-function pipeline; the trace stream records cache traffic and
per-worker task rows; the CLI ``batch`` subcommand wires it all up.
"""

import collections
import gc
import json

import pytest

import repro.batch.engine as engine_module
from repro.batch import (
    BatchConfig,
    BatchEngine,
    load_module_dir,
    synthetic_module,
)
from repro.batch.engine import SourceWorkload, canonical_source
from repro.batch.serialize import record_to_dict
from repro.cli import main as cli_main
from repro.core import HierarchicalAllocator
from repro.determinism import edit_one_block
from repro.ir.instructions import Instr, Opcode
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, allocate_module, compile_function
from repro.trace import (
    AllocationTracer,
    BatchTask,
    CacheHit,
    CacheMiss,
    ChromeTraceSink,
    MemorySink,
)
from repro.workloads.kernels import all_kernel_workloads, dot


def small_module(count=6):
    return synthetic_module(count)


class TestEngineBasics:
    def test_results_in_submission_order(self):
        module = small_module()
        with BatchEngine(batch=BatchConfig()) as engine:
            results = engine.allocate_module(module)
        assert [r.name for r in results] == [w.label() for w in module]
        assert all(not r.cached and r.source == "computed" for r in results)

    def test_warm_pass_served_from_cache(self, monkeypatch):
        module = small_module()
        calls = count_calls(
            monkeypatch, "compute_record", "parse_function", "format_function"
        )
        with BatchEngine(batch=BatchConfig()) as engine:
            cold = engine.allocate_module(module)
            # the counters sit where the engine looks its callees up; the
            # cold pass parses nothing, since it allocates in-memory
            # functions
            assert calls == {
                "compute_record": len(module),
                "format_function": len(module),
            }
            calls.clear()
            warm = engine.allocate_module(module)
        # The warm pass computes, parses and prints nothing.
        assert calls == {}
        assert all(r.cached and r.worker == "cache" for r in warm)
        assert [r.record for r in cold] == [r.record for r in warm]

    def test_pooled_equals_inline(self):
        module = small_module()
        with BatchEngine(batch=BatchConfig()) as inline_engine:
            inline = inline_engine.allocate_module(module)
        with BatchEngine(batch=BatchConfig(batch_workers=2)) as pooled_engine:
            pooled = pooled_engine.allocate_module(module)
        assert [r.record for r in inline] == [r.record for r in pooled]
        assert all(r.worker.startswith("worker-") for r in pooled)

    def test_duplicate_functions_computed_once(self):
        base = dot()
        module = [
            Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4}, name="a"),
            Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4}, name="b"),
        ]
        with BatchEngine(batch=BatchConfig()) as engine:
            results = engine.allocate_module(module)
        assert engine.stats.computed == 1
        assert engine.stats.functions == 2
        assert results[0].record == results[1].record
        assert [r.name for r in results] == ["a", "b"]

    def test_warm_cache_distinguishes_inputs(self):
        # Regression: the cache key must cover simulator inputs -- a warm
        # run with different inputs used to return the previous inputs'
        # dynamic costs/return value without re-simulating.
        base = dot()
        small = [Workload(base, {"n": 2}, {"A": [1] * 4, "B": [2] * 4},
                          name="dot")]
        large = [Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4},
                          name="dot")]
        with BatchEngine(batch=BatchConfig()) as engine:
            first = engine.allocate_module(small)
            second = engine.allocate_module(large)
        assert engine.stats.computed == 2
        assert not second[0].cached
        assert first[0].record.returned == [2 * 2]
        assert second[0].record.returned == [4 * 2]
        assert first[0].record.costs != second[0].record.costs
        # Static fields are input-independent: same function, same text.
        assert (first[0].record.allocated_text
                == second[0].record.allocated_text)
        assert first[0].record.spilled == second[0].record.spilled

    def test_dedup_distinguishes_inputs_within_module(self):
        # Regression: miss dedup used to group by function alone and hand
        # every duplicate the FIRST workload's simulated result.
        base = dot()
        module = [
            Workload(base, {"n": 2}, {"A": [1] * 4, "B": [2] * 4}, name="a"),
            Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4}, name="b"),
            Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4}, name="c"),
        ]
        with BatchEngine(batch=BatchConfig(cache_policy="off")) as engine:
            results = engine.allocate_module(module)
        assert engine.stats.computed == 2
        assert results[0].record.returned == [2 * 2]
        assert results[1].record.returned == [4 * 2]
        assert results[1].record == results[2].record

    def test_inputs_ignored_when_simulation_off(self):
        # Without simulation the record is input-independent, so differing
        # inputs still share one cache slot (and one computation).
        base = dot()
        module = [
            Workload(base, {"n": 2}, {"A": [1] * 4, "B": [2] * 4}, name="a"),
            Workload(base, {"n": 4}, {"A": [1] * 4, "B": [2] * 4}, name="b"),
        ]
        with BatchEngine(batch=BatchConfig(simulate=False)) as engine:
            results = engine.allocate_module(module)
        assert engine.stats.computed == 1
        assert results[0].record == results[1].record
        assert results[0].record.costs is None

    def test_stats_accumulate_across_modules(self):
        module = small_module()
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            engine.allocate_module(module)
            stats = engine.stats
        assert stats.functions == 2 * len(module)
        assert stats.computed == len(module)
        assert stats.cache_hits == len(module)
        assert stats.cache_misses == len(module)
        assert stats.wall_s > 0
        assert stats.functions_per_sec > 0
        payload = stats.as_dict()
        assert payload["hits"] == len(module)

    def test_cache_off_policy_recomputes(self):
        module = small_module(3)
        with BatchEngine(
            batch=BatchConfig(cache_policy="off")
        ) as engine:
            first = engine.allocate_module(module)
            second = engine.allocate_module(module)
        assert engine.cache is None
        assert engine.stats.computed == 2 * len(module)
        assert [r.record for r in first] == [r.record for r in second]

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        module = small_module(4)
        batch = BatchConfig(cache_policy="disk", cache_dir=str(tmp_path))
        with BatchEngine(batch=batch) as engine:
            cold = engine.allocate_module(module)
        with BatchEngine(batch=batch) as fresh:
            warm = fresh.allocate_module(module)
        assert all(r.cached and r.source == "disk" for r in warm)
        assert fresh.stats.disk_hits == len(module)
        assert [r.record for r in cold] == [r.record for r in warm]


class TestMatchesSingleFunctionPipeline:
    def test_records_match_compile_function(self):
        machine = Machine.simple(8)
        module = all_kernel_workloads(5)[:4]
        results = allocate_module(module, machine=machine)
        for workload, result in zip(module, results):
            direct = compile_function(
                workload, HierarchicalAllocator(), machine
            )
            assert result.record.allocated_text == format_function(direct.fn)
            assert set(result.record.spilled) == direct.stats.spilled_vars
            assert result.record.costs == {
                "spill_loads": direct.allocated_run.spill_loads,
                "spill_stores": direct.allocated_run.spill_stores,
                "moves": direct.allocated_run.register_moves,
                "program_refs": direct.allocated_run.program_memory_refs,
            }

    def test_lowered_calls_match_direct_allocation(self):
        """A pool worker allocates the canonical text it receives, parsed
        back; a call's clobbers must survive that round trip, or the
        worker keeps values in registers the call destroys."""
        from repro.batch.worker import compute_record
        from repro.core import HierarchicalConfig
        from repro.machine.calls import lower_calls
        from repro.workloads.callsites import make_caller

        machine = Machine.with_linkage(8, num_callee_save=2)
        fn = lower_calls(make_caller(2), machine)
        direct, _, _ = compute_record(
            "caller", fn, HierarchicalConfig(), machine, simulate=False
        )
        batch = BatchConfig(registers=8, simulate=False, batch_workers=1)
        with BatchEngine(machine=machine, batch=batch) as engine:
            result = engine.allocate_module(
                [Workload(fn, name="caller")]
            ).results[0]
        assert result.worker == "worker-0"
        assert result.record.allocated_sha256 == direct.allocated_sha256
        assert result.record.spilled == direct.spilled

    def test_static_path_when_no_inputs(self):
        module = [Workload(dot(), name="bare")]
        results = allocate_module(module)
        record = results.results[0].record
        assert record.costs is None and record.returned is None
        assert record.allocated_text
        assert record.bindings


def count_calls(monkeypatch, *names) -> collections.Counter:
    """Count calls of the named ``repro.batch.engine`` globals."""
    calls: collections.Counter = collections.Counter()

    def wrap(name):
        original = getattr(engine_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counted)

    for name in names:
        wrap(name)
    return calls


def count_formats(monkeypatch) -> collections.Counter:
    """Count the engine's ``format_function`` calls per function name,
    at the module name the engine looks it up under."""
    calls: collections.Counter = collections.Counter()
    original = engine_module.format_function

    def counted(fn):
        calls[fn.name] += 1
        return original(fn)

    monkeypatch.setattr(engine_module, "format_function", counted)
    return calls


class TestTextMemo:
    """A warm engine keys an unchanged in-memory function from its text
    memo, without printing it; any edit of a printed field prints it
    again (``tests/test_properties.py`` checks every such edit)."""

    def test_unchanged_module_formats_nothing(self, monkeypatch):
        module = small_module()
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            assert sum(calls.values()) == len(module)
            calls.clear()
            warm = engine.allocate_module(module)
        assert calls == {}
        assert engine.stats.keys_reused == len(module)
        assert engine.stats.as_dict()["keys_reused"] == len(module)
        assert all(r.cached for r in warm)

    def test_in_place_edit_formats_only_the_edited_function(
        self, monkeypatch
    ):
        module = small_module()
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            edit_one_block(module[2].fn)
            calls.clear()
            results = engine.allocate_module(module)
        assert calls == {module[2].fn.name: 1}
        assert engine.stats.keys_reused == len(module) - 1
        assert [r.cached for r in results] == [
            i != 2 for i in range(len(module))
        ]

    def test_cloned_function_formats_once_and_hits_the_cache(
        self, monkeypatch
    ):
        module = small_module()
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            module[1].fn = module[1].fn.clone()
            calls.clear()
            results = engine.allocate_module(module)
        assert calls == {module[1].fn.name: 1}
        assert all(r.cached for r in results)

    def test_new_engine_formats_every_function(self, monkeypatch):
        module = small_module()
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
        calls.clear()
        with BatchEngine(batch=BatchConfig()) as fresh:
            fresh.allocate_module(module)
        assert sum(calls.values()) == len(module)
        assert fresh.stats.keys_reused == 0

    def test_entry_lives_as_long_as_its_function(self):
        module = small_module()
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            assert len(engine._texts) == len(module)
            del module
            gc.collect()
            assert len(engine._texts) == 0

    def test_mutable_printed_value_formats_every_call(self, monkeypatch):
        """A printed value cannot change in place -- it cannot become a
        list, and no field can be written -- so it changes only by a
        replacement, and every call after one formats the function
        again and prints the new value."""
        workload = small_module(1)[0]
        block, index = next(
            (block, index) for block in workload.fn
            for index, instr in enumerate(block.instrs)
            if instr.op is Opcode.CONST
        )
        with pytest.raises(TypeError):
            block.instrs[index].replace(imm=[1])
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.entry_for(workload)
            with pytest.raises(AttributeError):
                block.instrs[index].imm = [1, 2]
            for imm in (1, 12):
                block.instrs[index] = block.instrs[index].replace(imm=imm)
                _, text, _, _ = engine.entry_for(workload)
                assert f"const {imm}\n" in text
            assert len(engine._texts) == 1
        assert calls == {workload.fn.name: 3}

    def test_mutable_immediate_cannot_be_built(self):
        """The memo's stamp holds one reference per instruction, which
        is sound only if no printed value can change in place: no
        instruction can hold a mutable immediate, whether built or
        replaced into one."""
        const = next(
            instr for block in small_module(1)[0].fn
            for instr in block.instrs if instr.op is Opcode.CONST
        )
        for imm in ([1], {1: 2}, {1}, bytearray(b"1"), (1, [2])):
            with pytest.raises(TypeError):
                Instr(Opcode.CONST, defs=const.defs, imm=imm)
            with pytest.raises(TypeError):
                const.replace(imm=imm)

    def test_source_workloads_bypass_the_memo(self, monkeypatch):
        module = [
            SourceWorkload(canonical_source(w.fn), w.args, w.arrays)
            for w in small_module(3)
        ]
        calls = count_formats(monkeypatch)
        with BatchEngine(batch=BatchConfig()) as engine:
            engine.allocate_module(module)
            engine.allocate_module(module)
            assert len(engine._texts) == 0
        assert calls == {}
        assert engine.stats.keys_reused == 0

    @pytest.mark.parametrize("batch", [
        BatchConfig(tile_cache=True),
        BatchConfig(batch_workers=1),
    ], ids=["tile_cache", "pooled"])
    def test_records_identical_with_and_without_memo_hits(self, batch):
        def dumps(results):
            return [json.dumps(record_to_dict(r.record), sort_keys=True)
                    for r in results]

        warm_module = small_module()
        with BatchEngine(batch=batch) as engine:
            engine.allocate_module(warm_module)
            edit_one_block(warm_module[3].fn)
            reused = engine.stats.keys_reused
            warm = engine.allocate_module(warm_module)
            assert engine.stats.keys_reused - reused == len(warm_module) - 1
        cold_module = small_module()
        edit_one_block(cold_module[3].fn)
        with BatchEngine(batch=batch) as engine:
            cold = engine.allocate_module(cold_module)
            assert engine.stats.keys_reused == 0
        assert dumps(warm) == dumps(cold)


class TestSyntheticModule:
    def test_deterministic_across_calls(self):
        first = synthetic_module(10)
        second = synthetic_module(10)
        assert [w.label() for w in first] == [w.label() for w in second]
        assert [format_function(w.fn) for w in first] == [
            format_function(w.fn) for w in second
        ]

    def test_distinct_functions(self):
        module = synthetic_module(10)
        texts = {format_function(w.fn) for w in module}
        assert len(texts) == len(module)


class TestTraceIntegration:
    def test_cache_events_and_task_rows(self):
        module = small_module(3)
        sink = MemorySink()
        tracer = AllocationTracer([sink])
        with BatchEngine(batch=BatchConfig(), tracer=tracer) as engine:
            engine.allocate_module(module)
            engine.allocate_module(module)
        misses = sink.of_type(CacheMiss)
        hits = sink.of_type(CacheHit)
        tasks = sink.of_type(BatchTask)
        assert [e.function for e in misses] == [w.label() for w in module]
        assert [e.function for e in hits] == [w.label() for w in module]
        assert sum(1 for t in tasks if not t.cached) == len(module)
        assert sum(1 for t in tasks if t.cached) == len(module)
        assert all(t.start >= 0 and t.duration >= 0 for t in tasks)

    def test_chrome_rows_per_worker(self, tmp_path):
        path = tmp_path / "batch.json"
        tracer = AllocationTracer([ChromeTraceSink(str(path))])
        module = small_module(4)
        with BatchEngine(
            batch=BatchConfig(batch_workers=2), tracer=tracer
        ) as engine:
            engine.allocate_module(module)
        tracer.close()
        doc = json.loads(path.read_text())
        batch_events = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "batch"
        ]
        assert len(batch_events) == len(module)
        rows = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        workers = {rows[e["tid"]] for e in batch_events}
        assert workers <= {"worker-0", "worker-1"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in batch_events)
        assert all(
            e["args"]["cached"] is False and e["args"]["fingerprint"]
            for e in batch_events
        )


class TestCLI:
    @pytest.fixture
    def module_dir(self, tmp_path):
        for workload in all_kernel_workloads(4)[:3]:
            name = workload.label()
            (tmp_path / f"{name}.ir").write_text(
                format_function(workload.fn)
            )
        return str(tmp_path)

    def run(self, argv):
        import io

        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_batch_static(self, module_dir):
        code, text = self.run([
            "batch", module_dir, "--no-simulate", "--stats",
        ])
        assert code == 0
        assert "functions:" in text and "misses:" in text

    def test_batch_with_cache_dir(self, module_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code1, _ = self.run([
            "batch", module_dir, "--no-simulate", "--cache", cache_dir,
        ])
        code2, text = self.run([
            "batch", module_dir, "--no-simulate", "--cache", cache_dir,
            "--stats",
        ])
        assert code1 == 0 and code2 == 0
        assert "disk" in text

    def test_load_module_dir_rejects_empty(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_module_dir(str(tmp_path))


class TestBatchConfigValidation:
    def test_disk_policy_requires_dir(self):
        with pytest.raises(ValueError):
            BatchConfig(cache_policy="disk")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            BatchConfig(cache_policy="magnetic-tape")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchConfig(batch_workers=-1)


class TestClockDiscipline:
    """Interval math must survive wall-clock steps (NTP, DST, manual
    set): durations and ``BatchStats.wall_s`` come from
    ``time.monotonic()``; ``time.time()`` is only ever a trace
    *timestamp*."""

    def test_backwards_wall_clock_step_cannot_negate_intervals(
        self, monkeypatch
    ):
        import time as _time

        real_time = _time.time
        # Every wall-clock read jumps 1000s *backwards* -- with
        # time.time()-based interval math this drives every duration
        # (and wall_s) negative.
        state = {"offset": 0.0}

        def stepping_time():
            state["offset"] -= 1000.0
            return real_time() + state["offset"]

        monkeypatch.setattr(_time, "time", stepping_time)

        module = synthetic_module(4)
        with BatchEngine(batch=BatchConfig(cache_policy="off")) as engine:
            allocation = engine.allocate_module(module)

        assert len(allocation) == 4
        assert allocation.ok
        assert engine.stats.wall_s >= 0.0
        for result in allocation:
            assert result.duration >= 0.0
        assert engine.stats.functions_per_sec >= 0.0

    def test_trace_task_rows_still_use_wall_stamps(self, monkeypatch):
        """Trace rows deliberately keep wall-clock ``start`` stamps (they
        are offset against the engine's wall-clock epoch and must be
        comparable across processes)."""
        import time as _time

        real_time = _time.time
        state = {"offset": 0.0}

        def stepping_time():
            state["offset"] -= 1000.0
            return real_time() + state["offset"]

        monkeypatch.setattr(_time, "time", stepping_time)

        sink = MemorySink()
        tracer = AllocationTracer([sink])
        module = synthetic_module(2)
        with BatchEngine(
            batch=BatchConfig(cache_policy="off"), tracer=tracer
        ) as engine:
            engine.allocate_module(module)

        rows = sink.of_type(BatchTask)
        assert len(rows) == 2
        for row in rows:
            # duration is monotonic-derived, never negative, even while
            # the wall clock (which feeds ``start``) is stepping wildly.
            assert row.duration >= 0.0
        assert engine.stats.wall_s >= 0.0
