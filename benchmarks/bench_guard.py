"""E21 -- adversarial-input survival under resource governance.

The budget layer promises that *well-formed but hostile* input can cost
bounded work and nothing else: every function either completes within
its budget, degrades down the allocator ladder with a classified error,
or is refused at admission -- never an uncaught exception, never a hang.
This bench drives the adversarial corpus (``repro.workloads.adversarial``:
deep loop nests, irreducible meshes, interference cliques, spill churn,
and parser-depth attacks) through the batch engine under a deliberately
tight budget and records what happened to every input.

Scenarios, recorded in ``BENCH_guard.json``:

* **survival** -- every IR corpus case for each seed through a
  ``BatchEngine`` with ``max_fuel=TIGHT_FUEL`` and
  ``admission_limit=ADMISSION_LIMIT`` (sized so the corpus exercises
  all three outcomes: the mesh completes in budget, the clique burns
  its fuel and degrades, the nest/churn families are refused at
  admission).  MiniLang cases go through ``compile_source``: sources
  past the parser depth limit must raise a classified
  ``MiniLangError``.  Gates: zero uncaught exceptions, every failure
  carries a classified error, every function still yields a record
  (degrade mode), all three outcome kinds actually occur, and each
  engine pass finishes within a generous wall-clock ceiling (the
  "no hangs" proxy; the in-allocator deadline is exercised by unit
  tests, not timed here).
* **determinism** -- the identical module through a second fresh engine
  at the same fuel: per-function outcome (sha256 of the allocated text,
  degraded flag, error class, fallback allocator) must be bit-identical.
  Same fuel, same input, same story.

``python benchmarks/bench_guard.py --quick`` runs the one-seed CI gate
(same assertions); it prints its tables and writes nothing, so only the
full run refreshes ``BENCH_guard.json`` and its result files.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from conftest import fmt_row, report, show

from repro.batch import BatchConfig, BatchEngine
from repro.core.budget import estimate_cost
from repro.minilang import compile_source
from repro.minilang.lexer import MiniLangError
from repro.pipeline import Workload
from repro.workloads.adversarial import adversarial_corpus

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_guard.json"
)

SEEDS = (11, 23, 47)
QUICK_SEEDS = (11,)
#: Fuel per allocation: the mesh family completes well under this, the
#: clique family exhausts it (calibrated against the corpus families'
#: measured spend of ~300 / ~1700 / ~2500 units).
TIGHT_FUEL = 1000
#: Admission ceiling on estimate_cost: admits the mesh (~330) and the
#: clique (~2600), refuses the deep-nest (~6100) and churn (~7100)
#: families outright.
ADMISSION_LIMIT = 5000
#: Wall-clock ceiling per engine pass -- the corpus at scale 1 finishes
#: in well under a second, so minutes means a hang, not a slow machine.
WALL_CEILING_S = 120.0
#: Error classes a governed failure is allowed to carry.
CLASSIFIED = ("admission", "budget", "deadline")


def _save_baseline(payload):
    payload["environment"] = {
        "python_version": ".".join(str(v) for v in sys.version_info[:3]),
    }
    with open(BASELINE_PATH, "w") as fh:
        json.dump({"current": payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _corpus_module(seeds):
    """(workloads, minilang_cases) over *seeds*, submission order fixed."""
    workloads = []
    minilang = []
    for seed in seeds:
        for case in adversarial_corpus(seed):
            if case.fn is not None:
                workloads.append(
                    Workload(case.fn, {"n": 5}, {}, name=case.name)
                )
            else:
                minilang.append(case)
    return workloads, minilang


def _engine_config():
    return BatchConfig(
        batch_workers=0,
        on_error="degrade",
        max_fuel=TIGHT_FUEL,
        admission_limit=ADMISSION_LIMIT,
    )


def _outcome_kind(result):
    if result.error is None:
        return "completed"
    if result.error.error_class == "admission":
        return "rejected"
    return "degraded"


def _outcome_fingerprint(result):
    """Everything the same-fuel determinism gate compares per function."""
    record = result.record
    return {
        "name": result.name,
        "ok": result.ok,
        "degraded": result.degraded,
        "fallback": result.fallback_allocator,
        "error_class": result.error.error_class if result.error else None,
        "sha": record.allocated_sha256 if record else None,
        "allocator": record.allocator if record else None,
    }


def run_survival(seeds, emit):
    workloads, minilang = _corpus_module(seeds)
    failures = []
    t0 = time.perf_counter()
    try:
        with BatchEngine(batch=_engine_config()) as engine:
            module = engine.allocate_module(workloads)
            stats = engine.stats
    except Exception as exc:  # the gate: governance must contain this
        raise AssertionError(
            f"uncaught exception escaped the governed engine: {exc!r}"
        )
    elapsed = time.perf_counter() - t0
    if elapsed > WALL_CEILING_S:
        failures.append(
            f"engine pass took {elapsed:.1f}s > {WALL_CEILING_S}s ceiling"
        )

    kinds = {"completed": 0, "degraded": 0, "rejected": 0}
    rows = []
    for workload, result in zip(workloads, module.results):
        kind = _outcome_kind(result)
        kinds[kind] += 1
        if not result.ok:
            failures.append(f"{result.name}: no record (degrade mode broke)")
        if result.error is not None and result.error.error_class not in CLASSIFIED:
            failures.append(
                f"{result.name}: unclassified error class "
                f"{result.error.error_class!r}"
            )
        rows.append((
            result.name,
            estimate_cost(workload.fn),
            kind,
            result.error.error_class if result.error else "-",
            result.fallback_allocator or "-",
        ))

    minilang_rejects = 0
    for case in minilang:
        try:
            compile_source(case.source)
            if case.expect_reject:
                failures.append(f"{case.name}: depth attack was not rejected")
            else:
                kinds["completed"] += 1
                rows.append((case.name, "-", "completed", "-", "-"))
        except MiniLangError as exc:
            if not case.expect_reject:
                failures.append(f"{case.name}: spurious reject: {exc}")
            else:
                minilang_rejects += 1
                rows.append((case.name, "-", "rejected", "parse_depth", "-"))
        except Exception as exc:
            failures.append(
                f"{case.name}: unclassified front-end exception {exc!r}"
            )

    for kind in ("completed", "degraded", "rejected"):
        if kinds[kind] == 0:
            failures.append(
                f"corpus never produced a {kind!r} outcome -- the harness "
                f"is vacuous; recalibrate TIGHT_FUEL/ADMISSION_LIMIT"
            )
    if stats.rejected == 0:
        failures.append("engine admission control never fired")
    if stats.degraded_by_budget == 0:
        failures.append("budget-driven degradation never fired")

    widths = [34, 6, 10, 10, 10]
    lines = [
        fmt_row(["case", "cost", "outcome", "class", "fallback"], widths)
    ]
    lines += [fmt_row(list(row), widths) for row in rows]
    lines.append(
        f"fuel={TIGHT_FUEL} admission_limit={ADMISSION_LIMIT} "
        f"wall={elapsed:.2f}s completed={kinds['completed']} "
        f"degraded={kinds['degraded']} rejected={kinds['rejected']}"
    )
    emit("BENCH_guard_survival", lines)
    summary = {
        "seeds": list(seeds),
        "cases": len(rows),
        "completed": kinds["completed"],
        "degraded": kinds["degraded"],
        "rejected": kinds["rejected"],
        "minilang_rejects": minilang_rejects,
        "engine_rejected": stats.rejected,
        "engine_degraded_by_budget": stats.degraded_by_budget,
        "wall_s": round(elapsed, 3),
    }
    return summary, failures


def run_determinism(seeds, emit):
    """Same module, same fuel, two fresh engines: outcomes bit-identical."""
    workloads, _ = _corpus_module(seeds)
    prints = []
    for _ in range(2):
        with BatchEngine(batch=_engine_config()) as engine:
            module = engine.allocate_module(workloads)
        prints.append([_outcome_fingerprint(r) for r in module.results])
    failures = []
    for first, second in zip(prints[0], prints[1]):
        if first != second:
            failures.append(
                f"{first['name']}: same-fuel runs diverge:\n"
                f"  run1: {json.dumps(first, sort_keys=True)}\n"
                f"  run2: {json.dumps(second, sort_keys=True)}"
            )
    digest = hashlib.sha256(
        json.dumps(prints[0], sort_keys=True).encode()
    ).hexdigest()
    emit("BENCH_guard_determinism", [
        f"functions={len(prints[0])} fuel={TIGHT_FUEL} "
        f"identical={'yes' if not failures else 'NO'}",
        f"outcome_digest={digest}",
    ])
    return {"functions": len(prints[0]), "outcome_digest": digest}, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="one-seed CI gate (same assertions, smaller corpus)",
    )
    args = parser.parse_args(argv)
    seeds = QUICK_SEEDS if args.quick else SEEDS

    emit = show if args.quick else report
    survival, failures = run_survival(seeds, emit)
    determinism, det_failures = run_determinism(seeds, emit)
    failures += det_failures

    if not args.quick:
        _save_baseline({"survival": survival, "determinism": determinism})

    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {survival['cases']} corpus case(s) survived governance "
        f"(completed={survival['completed']} degraded={survival['degraded']} "
        f"rejected={survival['rejected']}), outcomes bit-identical at "
        f"fuel={TIGHT_FUEL}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
