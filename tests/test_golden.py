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

Regenerate both deliberately (after a reviewed output change) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from typing import Dict, Iterator, Tuple

import pytest

from repro.cli import ALLOCATORS
from repro.determinism import build_workload, main as determinism_main
from repro.determinism import workload_names
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.workloads.figure1 import figure1_workload
from repro.workloads.generators import random_workload
from repro.workloads.kernels import all_kernel_workloads

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "allocations.json")
DETERMINISM_PATH = os.path.join(GOLDEN_DIR, "determinism.json")
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


def write_golden() -> int:
    rows: Dict[str, Dict[str, object]] = {}
    for allocator in sorted(ALLOCATORS):
        rows.update(compute_rows(allocator))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    # One row per line, so a changed allocation shows as a one-line diff.
    with open(GOLDEN_PATH, "w") as fh:
        fh.write('{"rows": {\n')
        fh.write(",\n".join(
            f" {json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
            for key in sorted(rows)
        ))
        fh.write("\n}}\n")
    with open(DETERMINISM_PATH, "w") as fh:
        fh.write(determinism_output())
    return len(rows)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    rows = write_golden()
    print(f"wrote {rows} rows to {GOLDEN_PATH} and {DETERMINISM_PATH}")
