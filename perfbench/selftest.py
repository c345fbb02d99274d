"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/selftest.py

Runs each workload twice untraced and twice traced on a 12-function
module for two seconds, and fails unless every run is correct, prints
exactly the metrics ``BENCHMARK.json`` names with their units, and
repeats the exact counts (``dyn_spill_refs``, ``dyn_moves``, ``fuel.*``)
to the unit.  It also checks that the benchmark refuses to run, without
printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("dyn_spill_refs", "dyn_moves")


def _run(cwd, workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--functions", "12"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _check(workload, trace, expected, proc):
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, (
        workload, trace, proc.stderr[-2000:])
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected, (workload, trace, set(printed) ^ set(expected))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            passes = [_check(workload, trace, units[trace],
                             _run(ROOT, workload, trace)) for _ in range(2)]
            exact = [k for k in passes[0]
                     if k in EXACT or k.startswith("fuel.")]
            for key in exact:
                assert passes[0][key] == passes[1][key], (
                    workload, key, passes[0][key], passes[1][key])
            assert exact, (workload, trace)
            print(f"ok {workload} trace={trace}: "
                  + ", ".join(f"{k}={passes[0][k]}" for k in exact))

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "cold_module", 0)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
