"""Golden allocation snapshot: every allocator over a fixed input matrix.

Each row compiles one workload end to end (rename, allocate, verify on the
simulator) and records the sha256 of the allocated program text, the
spilled-variable set, and the dynamic spill references and register moves
the simulator counted.  ``tests/golden/allocations.json`` pins every row;
any change to any allocator's output fails here, byte for byte.

The matrix:

* every allocator in :data:`repro.cli.ALLOCATORS` x R in {2, 4, 6} x the
  kernels (``all_kernel_workloads(8)``), eight small random programs and
  the paper's Figure 1;
* the four ``repro.determinism`` bench workloads (204-428 blocks) at R=6;
* one ``optimize=True`` row per allocator, so dead-code elimination's
  liveness is on the snapshot too.

``tests/golden/determinism.json`` pins the determinism harness the same
way: the exact text ``python -m repro.determinism fingerprint`` prints
with every mode on (batch, service, incremental, budget) for two bench
workloads, reuse and fuel counters included.

``tests/golden/engine.json`` pins what the batch engine reports under
faults and governance: for each scenario of :data:`ENGINE_SCENARIOS`, two
passes of ``synthetic_module(12)`` through one engine, inline and over two
pool workers, with every trace event (wall times dropped, pool worker
numbers normalized), every result's outcome and the engine's counters
after each pass.

Regenerate all three deliberately (after a reviewed output change) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.batch import BatchConfig, BatchEngine, synthetic_module
from repro.batch.faultinject import ENV_VAR
from repro.cli import ALLOCATORS
from repro.determinism import build_workload, main as determinism_main
from repro.determinism import workload_names
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.trace import AllocationTracer, MemorySink
from repro.trace.sinks import event_to_dict
from repro.workloads.figure1 import figure1_workload
from repro.workloads.generators import random_workload
from repro.workloads.kernels import all_kernel_workloads

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "allocations.json")
DETERMINISM_PATH = os.path.join(GOLDEN_DIR, "determinism.json")
ENGINE_PATH = os.path.join(GOLDEN_DIR, "engine.json")
#: the ``python -m repro.determinism`` command line the harness snapshot pins.
DETERMINISM_ARGV = (
    "fingerprint", "--workloads", "seq_loops_100,rand_struct_327",
    "--batch", "0", "--service", "--incremental", "--budget", "100000000",
)

SMALL_REGISTERS = (2, 4, 6)
LARGE_REGISTERS = 6
#: the DCE row: a large random program that dead-code elimination shrinks
#: from 1621 to 935 instructions.
OPTIMIZE_WORKLOAD = "rand_struct_428"


def _small_workloads() -> Iterator[Workload]:
    yield from all_kernel_workloads(8)
    for seed in range(8):
        yield random_workload(seed, max_blocks=48, max_depth=4)
    yield figure1_workload()


def _rows(allocator: str) -> Iterator[Tuple[str, Workload, int, bool]]:
    """(row key, workload, registers, optimize) for one allocator."""
    for r in SMALL_REGISTERS:
        for workload in _small_workloads():
            yield f"{allocator}/R{r}/{workload.label()}", workload, r, False
    for name in workload_names():
        yield (
            f"{allocator}/R{LARGE_REGISTERS}/{name}",
            build_workload(name), LARGE_REGISTERS, False,
        )
    yield (
        f"{allocator}/R{LARGE_REGISTERS}/{OPTIMIZE_WORKLOAD}/optimize",
        build_workload(OPTIMIZE_WORKLOAD), LARGE_REGISTERS, True,
    )


def compute_rows(allocator: str) -> Dict[str, Dict[str, object]]:
    """The snapshot rows of one allocator, keyed by row name."""
    out: Dict[str, Dict[str, object]] = {}
    for key, workload, registers, optimize in _rows(allocator):
        result = compile_function(
            workload, ALLOCATORS[allocator](), Machine.simple(registers),
            optimize=optimize,
        )
        out[key] = {
            "sha256": hashlib.sha256(
                format_function(result.fn).encode()
            ).hexdigest(),
            "spilled": sorted(result.stats.spilled_vars),
            "spill_refs": result.spill_refs,
            "moves": result.moves,
        }
    return out


def _load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["rows"]


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_golden_allocations(allocator):
    golden = {
        key: row for key, row in _load_golden().items()
        if key.split("/", 1)[0] == allocator
    }
    got = compute_rows(allocator)
    assert sorted(got) == sorted(golden), "row set changed"
    diverged = [key for key in golden if got[key] != golden[key]]
    assert not diverged, (
        f"{len(diverged)} row(s) diverge from the golden snapshot, e.g. "
        f"{diverged[0]}: golden {golden[diverged[0]]}, "
        f"got {got[diverged[0]]}"
    )


def determinism_output() -> str:
    """What ``python -m repro.determinism`` prints for DETERMINISM_ARGV."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert determinism_main(list(DETERMINISM_ARGV)) == 0
    return out.getvalue()


def test_golden_determinism_harness():
    with open(DETERMINISM_PATH, "rb") as fh:
        golden = fh.read()
    assert determinism_output().encode() == golden, (
        "repro.determinism fingerprint output diverges from "
        "tests/golden/determinism.json"
    )


def _invalid_load() -> Workload:
    """An in-memory function whose load names array ``3``, an int: the
    engine cannot key it."""
    fn = parse_function(
        "func bad(n) start=s stop=t\ns:\n  i = copy n\n  x = load A[i]\n"
        "  ret x\n  -> t\nt:\n"
    )
    fn.blocks["s"].instrs[1] = fn.blocks["s"].instrs[1].replace(imm=3)
    return Workload(fn, {"n": 1}, {"A": [5, 6]})


def _with_duplicates(module: List[Workload]) -> List[Workload]:
    """*module*, then two of its functions again under new labels (one
    with its own inputs, so a distinct key), then an invalid function."""
    first, fourth = module[0], module[4]
    return module + [
        Workload(first.fn, first.args, first.arrays, name="dup_first"),
        Workload(fourth.fn, dict(fourth.args, n=2), fourth.arrays,
                 name="dup_fourth_n2"),
        Workload(fourth.fn, fourth.args, fourth.arrays, name="dup_fourth"),
        _invalid_load(),
    ]


#: name -> (fault plan, BatchConfig settings, module transform, pooled?).
#: A pooled ``kill`` is left out: which in-flight tasks one dead worker
#: takes down with it depends on timing.
ENGINE_SCENARIOS = {
    "transient": ([{"task": 1, "action": "raise"}], {}, None, True),
    "permanent": (
        [{"task": 2, "action": "raise", "kind": "permanent"}],
        {}, None, True,
    ),
    "retries_exhausted": (
        [{"task": 3, "attempt": a, "action": "raise"} for a in range(3)],
        {}, None, True,
    ),
    "fuel": ([], {"max_fuel": 50}, None, True),
    "admission": ([], {"admission_limit": 3000}, None, True),
    "duplicates": ([], {}, _with_duplicates, True),
    "kill": ([{"task": 0, "action": "kill"}], {}, None, False),
}
ENGINE_PASSES = 2
ENGINE_POOL_WORKERS = 2
#: trace fields that carry wall time.
_WALL_FIELDS = ("start", "duration", "backoff_s")


def _engine_event(event) -> Dict[str, object]:
    row = {
        key: value for key, value in event_to_dict(event).items()
        if key not in _WALL_FIELDS
    }
    if "worker" in row:
        row["worker"] = re.sub(r"^worker-\d+$", "worker-N", row["worker"])
    return row


def _engine_result(result) -> Dict[str, object]:
    error = result.error
    return {
        "name": result.name,
        "source": result.source,
        "cached": result.cached,
        "degraded": result.degraded,
        "fallback_allocator": result.fallback_allocator,
        "attempts": result.attempts,
        "error": None if error is None else [
            error.error_class, error.permanence, error.attempts,
        ],
        "allocated_sha256": (
            result.record.allocated_sha256 if result.record else None
        ),
    }


def _engine_run(plan, settings, transform, workers) -> Dict[str, object]:
    """The rows of one scenario: per pass, its events, its results and
    the engine's counters after it."""
    module = synthetic_module(12)
    if transform is not None:
        module = transform(module)
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = json.dumps(plan)
    sink = MemorySink()
    rows: Dict[str, object] = {}
    try:
        config = BatchConfig(
            batch_workers=workers, registers=6, retry_backoff_s=0,
            **settings,
        )
        with BatchEngine(batch=config,
                         tracer=AllocationTracer([sink])) as engine:
            for number in range(ENGINE_PASSES):
                del sink.events[:]
                results = engine.allocate_module(module)
                for i, event in enumerate(sink.events):
                    rows[f"pass{number}/event{i:02d}"] = _engine_event(event)
                for i, result in enumerate(results):
                    rows[f"pass{number}/result{i:02d}"] = (
                        _engine_result(result)
                    )
                stats = engine.stats.as_dict()
                del stats["wall_s"], stats["functions_per_sec"]
                rows[f"pass{number}/stats"] = stats
    finally:
        if saved is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = saved
    return rows


def engine_rows() -> Dict[str, object]:
    """The engine snapshot, keyed ``<scenario>/<inline|pooled>/pass<n>/
    <event|result><i>`` and ``.../stats``."""
    rows: Dict[str, object] = {}
    for name, (plan, settings, transform, pooled) in ENGINE_SCENARIOS.items():
        for workers in (0, ENGINE_POOL_WORKERS) if pooled else (0,):
            mode = "pooled" if workers else "inline"
            run = _engine_run(plan, settings, transform, workers)
            rows.update(
                (f"{name}/{mode}/{key}", row) for key, row in run.items()
            )
    return rows


def _rows_text(rows: Dict[str, object]) -> str:
    """*rows* as JSON, one row per line, so a changed row shows as a
    one-line diff."""
    return '{"rows": {\n' + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
        for key in sorted(rows)
    ) + "\n}}\n"


def test_golden_engine_stream():
    with open(ENGINE_PATH) as fh:
        golden = json.load(fh)["rows"]
    got = json.loads(_rows_text(engine_rows()))["rows"]
    assert sorted(got) == sorted(golden), "row set changed"
    diverged = [key for key in golden if got[key] != golden[key]]
    assert not diverged, (
        f"{len(diverged)} row(s) diverge from tests/golden/engine.json, "
        f"e.g. {diverged[0]}: golden {golden[diverged[0]]}, "
        f"got {got[diverged[0]]}"
    )


def write_golden() -> int:
    rows: Dict[str, Dict[str, object]] = {}
    for allocator in sorted(ALLOCATORS):
        rows.update(compute_rows(allocator))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(_rows_text(rows))
    with open(DETERMINISM_PATH, "w") as fh:
        fh.write(determinism_output())
    with open(ENGINE_PATH, "w") as fh:
        fh.write(_rows_text(engine_rows()))
    return len(rows)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    rows = write_golden()
    print(
        f"wrote {rows} rows to {GOLDEN_PATH}, {DETERMINISM_PATH} "
        f"and {ENGINE_PATH}"
    )
