"""Fault tolerance of the batch engine: error taxonomy, deterministic
retries, pool recovery, the degradation ladder, cache quarantine, and the
fault-injection harness that drives them all.

The load-bearing property throughout: a faulted-then-recovered run is
**bit-identical** to a fault-free run (same fingerprints, same spilled
sets, same cache state), because records are pure functions of their
content address and faults only shift wall times and counters.
"""

import io
import json
import os

import pytest

from repro.batch import (
    BatchConfig,
    BatchEngine,
    DEGRADATION_LADDER,
    FaultPlan,
    InjectedFault,
    ModuleFileError,
    ModuleLoad,
    active_plan,
    load_module_dir,
    synthetic_module,
)
from repro.batch.faultinject import ENV_VAR
from repro.cli import main as cli_main
from repro.errors import (
    PERMANENT,
    TRANSIENT,
    BatchFunctionError,
    TaskError,
    classify_exception,
    task_error_from_exception,
)
from repro.pipeline import allocate_module
from repro.trace import (
    AllocationTracer,
    Degraded,
    MemorySink,
    PoolRestarted,
    TaskFailed,
    TaskRetried,
)


def _fingerprints(module):
    return [r.record.fingerprint_dict() for r in module]


def _set_plan(monkeypatch, specs):
    monkeypatch.setenv(ENV_VAR, json.dumps(specs))


GOOD_IR = """func f() start=entry stop=entry
entry:
  x = const 1
  ret x
"""


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_parse_error_is_permanent(self):
        from repro.ir.parser import IRParseError

        assert classify_exception(IRParseError("x")) == ("parse", PERMANENT)

    def test_validation_error_is_permanent(self):
        from repro.ir.validate import IRValidationError

        assert classify_exception(IRValidationError("x")) == (
            "validate", PERMANENT,
        )

    def test_no_color_is_permanent(self):
        from repro.graph.coloring import NoColorForRequiredNode

        exc = NoColorForRequiredNode("no color", "v1")
        assert classify_exception(exc) == ("no_color", PERMANENT)

    def test_allocation_check_is_permanent(self):
        from repro.machine.rewrite import AllocationCheckError

        assert classify_exception(AllocationCheckError("x")) == (
            "allocation_check", PERMANENT,
        )

    def test_simulation_error_is_permanent(self):
        from repro.machine.simulator import SimulationError

        assert classify_exception(SimulationError("x")) == (
            "simulation", PERMANENT,
        )

    def test_timeout_is_transient(self):
        from concurrent.futures import TimeoutError as FuturesTimeout

        assert classify_exception(FuturesTimeout()) == (
            "timeout", TRANSIENT,
        )
        assert classify_exception(TimeoutError()) == ("timeout", TRANSIENT)

    def test_broken_pool_is_transient(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_exception(BrokenProcessPool("died")) == (
            "pool", TRANSIENT,
        )

    def test_os_errors_are_transient(self):
        assert classify_exception(OSError("disk")) == ("os", TRANSIENT)

    def test_resource_exhaustion_is_permanent(self):
        # A task's memory footprint and recursion depth are
        # deterministic functions of its input: retrying re-exhausts,
        # so both route to the degradation ladder instead.
        assert classify_exception(MemoryError()) == ("oom", PERMANENT)
        assert classify_exception(RecursionError("depth")) == (
            "recursion", PERMANENT,
        )

    def test_budget_exhaustion_is_permanent_deadline_transient(self):
        from repro.core.budget import BudgetExceededError

        fuel = BudgetExceededError("fuel", 1001, 1000, {"instrs": 1001})
        assert classify_exception(fuel) == ("budget", PERMANENT)
        deadline = BudgetExceededError("deadline", 2.5, 2.0)
        assert classify_exception(deadline) == ("deadline", TRANSIENT)

    def test_unknown_exception_is_internal_permanent(self):
        assert classify_exception(TypeError("surprise")) == (
            "internal", PERMANENT,
        )

    def test_injected_fault_keeps_its_permanence(self):
        assert classify_exception(InjectedFault("x", TRANSIENT)) == (
            "injected", TRANSIENT,
        )
        assert classify_exception(InjectedFault("x", PERMANENT)) == (
            "injected", PERMANENT,
        )

    def test_task_error_from_exception(self):
        err = task_error_from_exception(TimeoutError("slow"), attempts=3)
        assert err == TaskError("timeout", "slow", TRANSIENT, 3)
        assert err.transient and not err.permanent
        assert "timeout" in err.describe()

    def test_batch_function_error_carries_structure(self):
        err = TaskError("no_color", "v9", PERMANENT, attempts=1)
        exc = BatchFunctionError("kernel_7", err)
        assert exc.function == "kernel_7"
        assert exc.error is err
        assert "kernel_7" in str(exc) and "no_color" in str(exc)


# ----------------------------------------------------------------------
# fault plan parsing and matching
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_env_is_empty_plan(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        plan = active_plan()
        assert not plan
        plan.maybe_fail_task(0, 0, in_worker=False)  # no-op

    def test_inline_json_plan(self, monkeypatch):
        _set_plan(monkeypatch, [{"task": 2, "attempt": 1,
                                 "action": "raise"}])
        plan = active_plan()
        assert plan.task_fault(2, 1) is not None
        assert plan.task_fault(2, 0) is None
        assert plan.task_fault(0, 1) is None

    def test_plan_from_file(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"task": 0, "action": "raise"}]))
        monkeypatch.setenv(ENV_VAR, f"@{path}")
        assert active_plan().task_fault(0, 0) is not None

    def test_non_list_plan_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, '{"task": 0}')
        with pytest.raises(ValueError, match="JSON list"):
            active_plan()

    def test_raise_kinds(self):
        plan = FaultPlan([
            {"task": 0, "action": "raise", "kind": "permanent"},
            {"task": 1, "action": "raise"},
        ])
        with pytest.raises(InjectedFault) as exc:
            plan.maybe_fail_task(0, 0, in_worker=False)
        assert exc.value.permanence == PERMANENT
        with pytest.raises(InjectedFault) as exc:
            plan.maybe_fail_task(1, 0, in_worker=False)
        assert exc.value.permanence == TRANSIENT

    def test_kill_and_hang_downgrade_inline(self):
        plan = FaultPlan([
            {"task": 0, "action": "kill"},
            {"task": 1, "action": "hang"},
        ])
        for task in (0, 1):
            with pytest.raises(InjectedFault) as exc:
                plan.maybe_fail_task(task, 0, in_worker=False)
            assert exc.value.permanence == TRANSIENT

    def test_unknown_action_rejected(self):
        plan = FaultPlan([{"task": 0, "action": "explode"}])
        with pytest.raises(ValueError, match="explode"):
            plan.maybe_fail_task(0, 0, in_worker=False)


# ----------------------------------------------------------------------
# inline path: retries, exhaustion, on_error policies
# ----------------------------------------------------------------------
def _unprintable_module():
    """A valid function between two that cannot be printed: a dangling
    successor (``rpo`` would raise ``KeyError``) and an ``add`` with one
    operand (``format_instr`` would raise ``IndexError``)."""
    from repro.ir.instructions import Instr, Opcode
    from repro.ir.parser import parse_function

    dangling = synthetic_module(1, seed=3)[0]
    dangling.fn.blocks[dangling.fn.start_label].succ_labels = ["nowhere"]
    dangling.fn.invalidate_caches()
    one_operand = synthetic_module(1, seed=4)[0]
    one_operand.fn = parse_function(
        "func f(a) start=s stop=t\ns:\n  ret a\n  -> t\nt:\n"
    )
    one_operand.fn.blocks["s"].instrs.insert(
        0, Instr(Opcode.ADD, defs=("x",), uses=("a",))
    )
    return [dangling, synthetic_module(1, seed=5)[0], one_operand]


class TestUnprintableFunction:
    @pytest.mark.parametrize("on_error", ["degrade", "skip"])
    def test_fails_alone_as_validate(self, on_error):
        module = allocate_module(
            _unprintable_module(), batch=BatchConfig(on_error=on_error)
        )
        assert [r.record is None for r in module] == [True, False, True]
        for result in (module[0], module[2]):
            assert result.error.error_class == "validate"
            assert result.error.permanent
            assert not result.degraded
        assert module.stats.failures == 2

    def test_strict_mode_raises_the_classified_failure(self):
        with pytest.raises(BatchFunctionError) as info:
            allocate_module(
                _unprintable_module(), batch=BatchConfig(on_error="fail")
            )
        assert info.value.error.error_class == "validate"


class TestInlineFaults:
    def test_transient_failure_retries_to_identical_result(
        self, monkeypatch
    ):
        mod = synthetic_module(4, seed=11)
        baseline = allocate_module(mod, batch=BatchConfig())
        _set_plan(monkeypatch, [
            {"task": 1, "attempt": 0, "action": "raise",
             "kind": "transient"},
        ])
        faulted = allocate_module(
            mod, batch=BatchConfig(retry_backoff_s=0.0)
        )
        assert _fingerprints(faulted) == _fingerprints(baseline)
        assert faulted.ok
        assert faulted.stats.retries == 1
        assert faulted.stats.failures == 0
        assert faulted[1].attempts == 2
        assert not faulted[1].degraded

    def test_permanent_failure_degrades_without_burning_retries(
        self, monkeypatch
    ):
        mod = synthetic_module(3, seed=12)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        module = allocate_module(mod, batch=BatchConfig())
        result = module[0]
        assert module.ok  # degraded, but every function has a record
        assert result.degraded
        assert result.fallback_allocator == DEGRADATION_LADDER[0]
        assert result.record.allocator == DEGRADATION_LADDER[0]
        assert result.error is not None and result.error.permanent
        assert result.attempts == 1  # permanent: never retried
        assert module.stats.retries == 0
        assert module.stats.degraded == 1
        assert module.degraded_results == [result]
        # the other functions are untouched hierarchical results
        assert all(r.record.allocator == "hierarchical"
                   for r in module.results[1:])

    def test_retry_exhaustion_falls_down_the_ladder(self, monkeypatch):
        mod = synthetic_module(2, seed=13)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": a, "action": "raise",
             "kind": "transient"} for a in range(6)
        ])
        module = allocate_module(
            mod,
            batch=BatchConfig(max_retries=2, retry_backoff_s=0.0),
        )
        result = module[0]
        assert result.degraded
        assert result.attempts == 3  # 1 try + 2 retries
        assert result.error.attempts == 3
        assert module.stats.retries == 2

    def test_on_error_skip_records_structured_failure(self, monkeypatch):
        mod = synthetic_module(3, seed=14)
        _set_plan(monkeypatch, [
            {"task": 1, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        module = allocate_module(
            mod, batch=BatchConfig(on_error="skip")
        )
        result = module[1]
        assert result.record is None
        assert result.source == "failed"
        assert not result.ok
        assert result.error.error_class == "injected"
        assert not module.ok
        assert module.failures == [result]
        assert module.stats.failures == 1
        # the failure is isolated: siblings allocated normally
        assert module[0].ok and module[2].ok

    def test_on_error_fail_raises_batch_function_error(self, monkeypatch):
        mod = synthetic_module(2, seed=15)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        with pytest.raises(BatchFunctionError) as exc:
            allocate_module(mod, batch=BatchConfig(on_error="fail"))
        assert exc.value.error.error_class == "injected"

    def test_degraded_results_never_enter_the_cache(self, monkeypatch):
        mod = synthetic_module(2, seed=16)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        with BatchEngine(batch=BatchConfig()) as engine:
            first = engine.allocate_module(mod)
            assert first[0].degraded
            # only the healthy sibling was cached
            assert len(engine.cache) == 1
            # the same module again: task 0 misses again (and the plan,
            # keyed on (task, attempt) per call, degrades it again)
            second = engine.allocate_module(mod)
            assert second[0].degraded and not second[0].cached
            assert second[1].cached
            assert len(engine.cache) == 1

    def test_failure_events_are_emitted(self, monkeypatch):
        mod = synthetic_module(2, seed=17)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "transient"},
            {"task": 0, "attempt": 1, "action": "raise",
             "kind": "transient"},
            {"task": 0, "attempt": 2, "action": "raise",
             "kind": "transient"},
        ])
        sink = MemorySink()
        tracer = AllocationTracer([sink])
        allocate_module(
            mod,
            batch=BatchConfig(max_retries=2, retry_backoff_s=0.0),
            tracer=tracer,
        )
        failed = [e for e in sink.events if isinstance(e, TaskFailed)]
        retried = [e for e in sink.events if isinstance(e, TaskRetried)]
        degraded = [e for e in sink.events if isinstance(e, Degraded)]
        assert [e.attempt for e in failed] == [0, 1, 2]
        assert all(e.error_class == "injected" for e in failed)
        assert [e.attempt for e in retried] == [1, 2]
        assert len(degraded) == 1
        assert degraded[0].fallback_allocator == DEGRADATION_LADDER[0]

    def test_retry_backoff_is_deterministic_exponential(self, monkeypatch):
        mod = synthetic_module(1, seed=18)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": a, "action": "raise",
             "kind": "transient"} for a in range(2)
        ])
        sink = MemorySink()
        allocate_module(
            mod,
            batch=BatchConfig(max_retries=2, retry_backoff_s=0.01),
            tracer=AllocationTracer([sink]),
        )
        backoffs = [e.backoff_s for e in sink.events
                    if isinstance(e, TaskRetried)]
        assert backoffs == [0.01, 0.02]


# ----------------------------------------------------------------------
# pooled path: worker loss, hangs, pool restarts
# ----------------------------------------------------------------------
class TestPooledFaults:
    def test_worker_kill_restarts_pool_and_matches_fault_free(
        self, monkeypatch
    ):
        mod = synthetic_module(8, seed=21)
        monkeypatch.delenv(ENV_VAR, raising=False)
        baseline = allocate_module(mod, batch=BatchConfig(batch_workers=2))
        _set_plan(monkeypatch, [
            {"task": 1, "attempt": 0, "action": "kill"},
        ])
        sink = MemorySink()
        faulted = allocate_module(
            mod,
            batch=BatchConfig(batch_workers=2, retry_backoff_s=0.0),
            tracer=AllocationTracer([sink]),
        )
        assert _fingerprints(faulted) == _fingerprints(baseline)
        assert faulted.ok
        assert faulted.stats.pool_restarts == 1
        assert faulted.stats.retries >= 1
        assert faulted.stats.failures == 0
        restarts = [e for e in sink.events if isinstance(e, PoolRestarted)]
        assert len(restarts) == 1 and restarts[0].resubmitted >= 1
        failed = [e for e in sink.events if isinstance(e, TaskFailed)]
        assert any(e.error_class == "pool" for e in failed)

    def test_hung_worker_times_out_and_recovers(self, monkeypatch):
        mod = synthetic_module(4, seed=22)
        monkeypatch.delenv(ENV_VAR, raising=False)
        baseline = allocate_module(mod, batch=BatchConfig(batch_workers=2))
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "hang", "hang_s": 30},
        ])
        sink = MemorySink()
        faulted = allocate_module(
            mod,
            batch=BatchConfig(
                batch_workers=2, task_timeout_s=1.0, retry_backoff_s=0.0,
            ),
            tracer=AllocationTracer([sink]),
        )
        assert _fingerprints(faulted) == _fingerprints(baseline)
        assert faulted.ok
        assert faulted.stats.pool_restarts >= 1
        failed = [e for e in sink.events if isinstance(e, TaskFailed)]
        assert any(e.error_class == "timeout" for e in failed)

    def test_worker_side_permanent_failure_degrades(self, monkeypatch):
        mod = synthetic_module(3, seed=23)
        _set_plan(monkeypatch, [
            {"task": 2, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        module = allocate_module(
            mod, batch=BatchConfig(batch_workers=2)
        )
        assert module.ok
        assert module[2].degraded
        assert module[2].fallback_allocator == DEGRADATION_LADDER[0]
        assert module.stats.retries == 0  # permanent: no retry burned

    def test_close_is_idempotent_and_survives_broken_pool(
        self, monkeypatch
    ):
        mod = synthetic_module(2, seed=24)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": a, "action": "kill"} for a in range(9)
        ])
        engine = BatchEngine(batch=BatchConfig(
            batch_workers=2, max_retries=1, retry_backoff_s=0.0,
            on_error="skip",
        ))
        with engine:
            module = engine.allocate_module(mod)
            assert module[0].record is None  # kills exhausted retries
            assert module[0].error.transient
        engine.close()  # second close after __exit__: no-op
        engine.close()
        assert engine._pool is None

    def test_exception_mid_run_still_releases_the_pool(self, monkeypatch):
        mod = synthetic_module(2, seed=25)
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        engine = BatchEngine(batch=BatchConfig(
            batch_workers=2, on_error="fail",
        ))
        with pytest.raises(BatchFunctionError):
            with engine:
                engine.allocate_module(mod)
        assert engine._pool is None


# ----------------------------------------------------------------------
# disk cache: corruption -> quarantine
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_record_is_quarantined_not_fatal(
        self, monkeypatch, tmp_path
    ):
        mod = synthetic_module(3, seed=31)
        cache_dir = str(tmp_path / "cache")
        batch = BatchConfig(cache_policy="disk", cache_dir=cache_dir)
        # corrupt the second record as it is written
        _set_plan(monkeypatch, [{"disk_write": 1, "action": "corrupt"}])
        first = allocate_module(mod, batch=batch)
        assert first.ok
        monkeypatch.delenv(ENV_VAR)
        # a fresh engine (cold LRU) must treat the torn record as a miss,
        # quarantine it, and recompute a result identical to the others
        with BatchEngine(batch=batch) as engine:
            second = engine.allocate_module(mod)
            assert second.ok
            assert _fingerprints(second) == _fingerprints(first)
            sources = sorted(r.source for r in second)
            assert sources == ["computed", "disk", "disk"]
            assert engine.cache.stats.quarantined == 1
            assert engine.stats.quarantined == 1
        quarantine = tmp_path / "cache" / "quarantine"
        files = list(quarantine.iterdir())
        assert len(files) == 1
        assert "corrupted-by-fault-plan" in files[0].read_text()

    def test_disk_write_failure_is_counted_not_raised(self, tmp_path):
        from repro.batch import AllocationCache
        from repro.batch.serialize import AllocationRecord, FORMAT_VERSION

        cache_dir = tmp_path / "cache"
        cache = AllocationCache(capacity=4, cache_dir=str(cache_dir))
        record = AllocationRecord(
            version=FORMAT_VERSION, function="f", fingerprint="ab" * 32,
            blocks=1, allocated_sha256="cd" * 32, allocated_text="",
            spilled=(), bindings=(), static_costs={}, costs=None,
            returned=None,
        )
        # make the shard path unwritable by occupying it with a file
        (cache_dir / "ab").write_text("not a directory")
        cache.put("ab" * 32, record)
        assert cache.stats.disk_write_errors == 1
        assert cache.stats.disk_writes == 0
        assert cache.get("ab" * 32) is record  # memory layer unaffected


# ----------------------------------------------------------------------
# module loading: per-file isolation
# ----------------------------------------------------------------------
class TestModuleLoadErrors:
    def test_bad_files_become_structured_errors(self, tmp_path):
        (tmp_path / "a_good.ir").write_text(GOOD_IR)
        (tmp_path / "b_bad.ir").write_text("func { this is not IR")  # noqa: line kept odd on purpose
        (tmp_path / "c_good.ir").write_text(GOOD_IR.replace("func f", "func g"))
        load = load_module_dir(str(tmp_path))
        assert isinstance(load, ModuleLoad)
        assert not load.ok
        assert [w.label() for w in load] == ["a_good", "c_good"]
        assert len(load.errors) == 1
        error = load.errors[0]
        assert isinstance(error, ModuleFileError)
        assert error.filename == "b_bad.ir"
        assert error.stage == "parse"
        assert error.error_class == "parse"
        assert "b_bad.ir" in error.describe()

    def test_all_good_module_is_ok_and_list_like(self, tmp_path):
        (tmp_path / "f.ir").write_text(GOOD_IR)
        load = load_module_dir(str(tmp_path))
        assert load.ok and load.errors == []
        assert len(load) == 1 and list(load) == [load[0]]

    def test_missing_and_empty_dirs_still_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_module_dir(str(tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            load_module_dir(str(tmp_path))

    def test_dir_of_only_bad_files_reports_not_raises(self, tmp_path):
        (tmp_path / "bad.ir").write_text("not IR at all")
        load = load_module_dir(str(tmp_path))
        assert list(load) == []
        assert len(load.errors) == 1


# ----------------------------------------------------------------------
# CLI: failure summary and exit codes
# ----------------------------------------------------------------------
class TestCliFailures:
    def _write_good(self, path, name="f"):
        path.write_text(GOOD_IR.replace("func f", f"func {name}"))

    def test_load_error_exits_nonzero_with_summary(self, tmp_path):
        self._write_good(tmp_path / "good.ir")
        (tmp_path / "bad.ir").write_text("syntax error here")
        out = io.StringIO()
        code = cli_main(["batch", str(tmp_path)], out=out)
        text = out.getvalue()
        assert code == 1
        assert "LOAD FAILED bad.ir" in text
        assert "good:" in text  # the healthy file was still allocated
        assert "1 file(s) failed to load" in text

    def test_task_failure_exits_nonzero(self, monkeypatch, tmp_path):
        self._write_good(tmp_path / "only.ir")
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        out = io.StringIO()
        code = cli_main(
            ["batch", str(tmp_path), "--on-error", "skip"], out=out
        )
        assert code == 1
        assert "FAILED injected" in out.getvalue()
        assert "1 function(s) failed to allocate" in out.getvalue()

    def test_degraded_run_exits_zero_and_is_labelled(
        self, monkeypatch, tmp_path
    ):
        self._write_good(tmp_path / "only.ir")
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        out = io.StringIO()
        code = cli_main(["batch", str(tmp_path), "--stats"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "DEGRADED[chaitin]" in text
        assert "degraded: 1" in text

    def test_on_error_fail_flag_aborts(self, monkeypatch, tmp_path):
        self._write_good(tmp_path / "only.ir")
        _set_plan(monkeypatch, [
            {"task": 0, "attempt": 0, "action": "raise",
             "kind": "permanent"},
        ])
        with pytest.raises(SystemExit, match="on-error fail"):
            cli_main(
                ["batch", str(tmp_path), "--on-error", "fail"],
                out=io.StringIO(),
            )

    def test_healthy_run_still_exits_zero(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        self._write_good(tmp_path / "only.ir")
        out = io.StringIO()
        code = cli_main(
            ["batch", str(tmp_path), "--max-retries", "1",
             "--task-timeout", "60"],
            out=out,
        )
        assert code == 0
        assert "FAIL" not in out.getvalue()


# ----------------------------------------------------------------------
# acceptance: the ISSUE's end-to-end scenario
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_twenty_functions_one_kill_one_transient_bit_identical(
        self, monkeypatch
    ):
        mod = synthetic_module(20, seed=42)
        monkeypatch.delenv(ENV_VAR, raising=False)
        baseline = allocate_module(
            mod, batch=BatchConfig(batch_workers=2)
        )
        assert len(baseline) == 20 and baseline.ok

        _set_plan(monkeypatch, [
            {"task": 3, "attempt": 0, "action": "kill"},
            {"task": 11, "attempt": 0, "action": "raise",
             "kind": "transient"},
        ])
        faulted = allocate_module(
            mod,
            batch=BatchConfig(batch_workers=2, retry_backoff_s=0.0),
        )
        assert len(faulted) == 20 and faulted.ok
        assert _fingerprints(faulted) == _fingerprints(baseline)
        assert [tuple(r.record.spilled) for r in faulted] == [
            tuple(r.record.spilled) for r in baseline
        ]
        assert faulted.stats.pool_restarts == 1
        assert faulted.stats.retries >= 1
        assert faulted.stats.failures == 0
        assert faulted.stats.degraded == 0
