"""Command-line interface.

Four subcommands over textual IR files (the format of
:mod:`repro.ir.printer`):

* ``run`` -- execute a program in the simulator and report results and
  dynamic counts.
* ``tiles`` -- print the tile tree (with fix-up applied).
* ``allocate`` -- run an allocator and print the rewritten program plus
  statistics; optionally verify against the original and use profile-guided
  frequencies.
* ``trace`` -- run the hierarchical allocator with structured tracing and
  render the per-tile decision report (section-4 metrics per candidate,
  the four boundary cases per edge); optionally dump the raw event stream
  as JSONL and/or the stage and per-tile timings as a ``chrome://tracing``
  file.
* ``batch`` -- allocate every IR/MiniLang file in a directory through the
  batch engine: content-addressed allocation cache (in-memory LRU,
  optionally persistent with ``--cache``) in front of a process pool
  (``--workers``); ``--stats`` prints hits/misses/evictions and
  functions/sec, ``--chrome`` writes the per-worker timeline.
* ``serve`` -- run the batch engine as a long-lived HTTP/JSON service
  (``POST /allocate``, ``GET /metrics``, ``GET /healthz``) with a shared
  allocation cache, cross-request coalescing and bounded-queue
  backpressure; drains gracefully on SIGINT/SIGTERM.  See
  ``docs/SERVICE.md``.

Examples::

    python -m repro allocate prog.ir --allocator hierarchical \
        --registers 4 --arg n=8 --array A=1,2,3,4,5,6,7,8 --verify
    python -m repro trace examples/programs/figure1.ir --registers 4 \
        --jsonl events.jsonl --chrome timeline.json --timings
    python -m repro batch examples/programs --workers 4 \
        --cache /tmp/alloc-cache --stats
    python -m repro serve --port 8421 --workers 4 \
        --cache /tmp/alloc-cache --queue-limit 512
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.allocators import (
    BriggsAllocator,
    ChaitinAllocator,
    LocalAllocator,
    NaiveMemoryAllocator,
)
from repro.analysis.frequency import frequencies_from_profile
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.ir import format_function
from repro.machine.simulator import SimulationError, simulate
from repro.machine.target import Machine
from repro.perf.timers import StageTimers
from repro.pipeline import (
    Workload,
    compile_function,
    load_function_source,
    prepare,
)
from repro.tiles import build_tile_tree
from repro.trace import (
    AllocationTracer,
    ChromeTraceSink,
    JSONLSink,
    MemorySink,
)
from repro.trace.report import render_report, render_schedule_summary

ALLOCATORS = {
    "hierarchical": HierarchicalAllocator,
    "chaitin": ChaitinAllocator,
    "briggs": BriggsAllocator,
    "local": LocalAllocator,
    "naive": NaiveMemoryAllocator,
}


def _parse_kv(pairs: Sequence[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not key or not value:
            raise SystemExit(f"bad --arg {pair!r}; expected name=int")
        out[key] = int(value)
    return out


def _parse_arrays(pairs: Sequence[str]) -> Dict[str, List[int]]:
    out: Dict[str, List[int]] = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not key:
            raise SystemExit(f"bad --array {pair!r}; expected name=v1,v2,...")
        out[key] = [int(v) for v in value.split(",") if v != ""]
    return out


def _load(path: str, lang: str = "auto"):
    if path == "-":
        return load_function_source(sys.stdin.read(), lang)
    with open(path) as fh:
        return load_function_source(fh.read(), lang)


def _add_io_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="IR or MiniLang file (or - for stdin)")
    parser.add_argument(
        "--lang", choices=["auto", "ir", "minilang"], default="auto",
        help="input language (auto-detected by default)",
    )
    parser.add_argument(
        "--arg", action="append", default=[], metavar="NAME=INT",
        help="scalar argument (repeatable)",
    )
    parser.add_argument(
        "--array", action="append", default=[], metavar="NAME=V1,V2,...",
        help="array input (repeatable)",
    )


def cmd_run(args: argparse.Namespace, out) -> int:
    fn = _load(args.file, args.lang)
    result = simulate(
        fn, args=_parse_kv(args.arg), arrays=_parse_arrays(args.array)
    )
    print(f"returned: {result.returned}", file=out)
    print(f"steps: {result.steps}", file=out)
    print(f"program memory refs: {result.program_memory_refs}", file=out)
    print(f"spill memory refs: {result.spill_memory_refs}", file=out)
    if args.profile:
        print("block counts:", file=out)
        for label, count in sorted(result.profile.block_counts.items()):
            print(f"  {label}: {count}", file=out)
    return 0


def cmd_tiles(args: argparse.Namespace, out) -> int:
    fn = _load(args.file, getattr(args, "lang", "auto"))
    tree = build_tile_tree(fn)
    print(tree.format(), file=out)
    print(f"tiles: {len(tree)}  height: {tree.height()}", file=out)
    return 0


def _budget_limits_from_args(args: argparse.Namespace):
    """BudgetLimits from ``--max-fuel`` / ``--deadline`` (None when off)."""
    max_fuel = getattr(args, "max_fuel", None)
    deadline = getattr(args, "deadline", None)
    if max_fuel is None and deadline is None:
        return None
    from repro.core.budget import BudgetLimits

    return BudgetLimits(max_fuel=max_fuel, deadline_s=deadline)


def cmd_allocate(args: argparse.Namespace, out) -> int:
    from repro.core.budget import BudgetExceededError

    fn = _load(args.file, args.lang)
    machine = Machine.simple(args.registers)
    scalar_args = _parse_kv(args.arg)
    arrays = _parse_arrays(args.array)

    budget_limits = _budget_limits_from_args(args)
    if args.allocator == "hierarchical":
        config = HierarchicalConfig()
        if args.profile_guided:
            run = simulate(fn, args=scalar_args, arrays=arrays)
            config = HierarchicalConfig(
                frequencies=frequencies_from_profile(fn, run.profile)
            )
        allocator = HierarchicalAllocator(config, budget_limits=budget_limits)
    else:
        if budget_limits is not None:
            raise SystemExit(
                "--max-fuel/--deadline apply to the hierarchical "
                "allocator only"
            )
        allocator = ALLOCATORS[args.allocator]()

    workload = Workload(fn, scalar_args, arrays, name=fn.name)
    try:
        result = compile_function(
            workload, allocator, machine, verify=not args.no_verify,
            optimize=args.optimize,
        )
    except BudgetExceededError as exc:
        raise SystemExit(f"allocation aborted by resource budget: {exc}")
    print(format_function(result.fn), file=out)
    print(f"# allocator: {args.allocator}", file=out)
    print(f"# registers: {args.registers}", file=out)
    print(f"# returned: {result.allocated_run.returned}", file=out)
    print(f"# dynamic spill loads:  {result.allocated_run.spill_loads}", file=out)
    print(f"# dynamic spill stores: {result.allocated_run.spill_stores}", file=out)
    print(f"# register moves:       {result.moves}", file=out)
    print(f"# spilled variables:    {sorted(result.stats.spilled_vars)}", file=out)
    if not args.no_verify:
        print("# verification: PASSED (differential run matched)", file=out)
    if budget_limits is not None and allocator.last_budget is not None:
        snap = allocator.last_budget
        print(
            f"# budget: spent {snap['spent']} fuel "
            f"(max_fuel={snap['max_fuel']}, deadline_s={snap['deadline_s']}, "
            f"counters={snap['counters']})",
            file=out,
        )
    if getattr(args, "profile", False):
        timers = StageTimers.from_snapshot(
            result.stats.extra.get("stage_times", {}),
            result.stats.extra.get("stage_counts", {}),
        )
        print("# stage profile (allocator pipeline):", file=out)
        for line in timers.report().splitlines():
            print(f"#   {line}", file=out)
    return 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    fn = _load(args.file, args.lang)
    machine = Machine.simple(args.registers)

    memory = MemorySink()
    sinks: List[object] = [memory]
    if args.jsonl:
        sinks.append(JSONLSink(args.jsonl))
    if args.chrome:
        sinks.append(ChromeTraceSink(args.chrome))
    tracer = AllocationTracer(sinks)

    allocator = HierarchicalAllocator(tracer=tracer)
    # Same preparation as ``allocate`` (web renaming), but no simulation:
    # the report describes allocation decisions, not dynamic costs.
    allocator.allocate(prepare(fn), machine)
    tracer.close()

    ctx = allocator.last_context
    print(
        render_report(
            memory.events,
            counters=tracer.counters(),
            tree_text=ctx.tree.format(),
            title=f"Allocation trace: {fn.name} "
                  f"({args.registers} registers)",
        ),
        file=out,
        end="",
    )
    if args.timings:
        print("\n## Stage timings\n", file=out)
        print(render_schedule_summary(memory.events), file=out)
    if args.jsonl:
        print(f"\n[events written to {args.jsonl}]", file=out)
    if args.chrome:
        print(
            f"\n[chrome://tracing timeline written to {args.chrome}]",
            file=out,
        )
    return 0


def cmd_batch(args: argparse.Namespace, out) -> int:
    from repro.batch import BatchConfig, BatchEngine, load_module_dir
    from repro.errors import BatchFunctionError

    workloads = load_module_dir(
        args.dir, args=_parse_kv(args.arg), arrays=_parse_arrays(args.array)
    )
    for file_error in workloads.errors:
        print(f"LOAD FAILED {file_error.describe()}", file=out)
    policy = args.policy
    if args.cache and policy == "memory":
        policy = "disk"
    batch = BatchConfig(
        batch_workers=args.workers,
        cache_dir=args.cache,
        cache_policy=policy,
        registers=args.registers,
        simulate=not args.no_simulate,
        max_retries=args.max_retries,
        task_timeout_s=args.task_timeout,
        on_error=args.on_error,
        tile_cache=args.tile_cache,
        tile_cache_entries=args.tile_cache_entries,
        max_fuel=args.max_fuel,
        deadline_s=args.deadline,
        admission_limit=args.admission_limit,
    )

    sinks: List[object] = []
    if args.jsonl:
        sinks.append(JSONLSink(args.jsonl))
    if args.chrome:
        sinks.append(ChromeTraceSink(args.chrome))
    tracer = AllocationTracer(sinks) if sinks else None

    engine = None
    try:
        with BatchEngine(batch=batch, tracer=tracer) as engine:
            module = engine.allocate_module(workloads)
    except BatchFunctionError as exc:
        raise SystemExit(f"batch allocation failed (--on-error fail): {exc}")
    except SimulationError as exc:
        raise SystemExit(
            f"simulation failed: {exc}\n"
            "(--arg/--array apply to every function in the module; use "
            "--no-simulate for static allocation of mixed-signature "
            "modules)"
        )
    finally:
        if tracer is not None:
            tracer.close()

    for result in module:
        record = result.record
        if record is None:
            print(
                f"{result.name}: FAILED {result.error.describe()} "
                f"[{result.worker}]",
                file=out,
            )
            continue
        line = (
            f"{result.name}: blocks={record.blocks} "
            f"spilled={len(record.spilled)} "
            f"static[loads={record.static_costs['spill_loads']} "
            f"stores={record.static_costs['spill_stores']} "
            f"moves={record.static_costs['moves']}]"
        )
        if record.costs is not None:
            line += (
                f" dynamic[spill_refs="
                f"{record.costs['spill_loads'] + record.costs['spill_stores']}"
                f" moves={record.costs['moves']}]"
            )
        if result.degraded:
            line += f" DEGRADED[{result.fallback_allocator}]"
        line += f" [{'cache:' + result.source if result.cached else result.worker}]"
        print(line, file=out)

    if args.stats:
        stats = module.stats.as_dict()
        print("# batch stats", file=out)
        keys = ["functions", "computed", "hits", "misses",
                "evictions", "disk_hits", "failures", "retries",
                "degraded", "pool_restarts", "quarantined"]
        if (
            args.max_fuel is not None
            or args.deadline is not None
            or args.admission_limit is not None
        ):
            keys += ["rejected", "degraded_by_budget"]
        if args.tile_cache:
            keys += ["tile_hits", "tile_misses", "subtrees_reused"]
        keys += ["wall_s", "functions_per_sec"]
        for key in keys:
            print(f"#   {key}: {stats[key]}", file=out)
    if args.profile and engine is not None:
        print("# stage profile (summed across functions/workers):",
              file=out)
        for line in engine.timers.report(
            total=module.stats.wall_s
        ).splitlines():
            print(f"#   {line}", file=out)
    if args.jsonl:
        print(f"# [events written to {args.jsonl}]", file=out)
    if args.chrome:
        print(f"# [chrome://tracing timeline written to {args.chrome}]",
              file=out)

    failures = module.failures
    if workloads.errors or failures:
        print(
            f"# FAILURES: {len(workloads.errors)} file(s) failed to load, "
            f"{len(failures)} function(s) failed to allocate",
            file=out,
        )
        return 1
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.batch import BatchConfig
    from repro.service import ServiceConfig, run_service

    policy = args.policy
    if args.cache and policy == "memory":
        policy = "disk"
    batch = BatchConfig(
        batch_workers=args.workers,
        cache_dir=args.cache,
        cache_policy=policy,
        registers=args.registers,
        simulate=not args.no_simulate,
        max_retries=args.max_retries,
        task_timeout_s=args.task_timeout,
        on_error=args.on_error,
        tile_cache=not args.no_tile_cache,
        tile_cache_entries=args.tile_cache_entries,
        max_fuel=args.max_fuel,
        deadline_s=args.deadline,
        admission_limit=args.admission_limit,
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        max_functions=args.max_functions,
        drain_timeout_s=args.drain_timeout,
        batch=batch,
    )
    tracer = AllocationTracer([JSONLSink(args.jsonl)]) if args.jsonl else None
    try:
        run_service(config, tracer=tracer, out=out)
    finally:
        if tracer is not None:
            tracer.close()
    if args.jsonl:
        print(f"# [events written to {args.jsonl}]", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical graph-coloring register allocation "
        "(Callahan & Koblenz, PLDI 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a program in the simulator")
    _add_io_args(run_p)
    run_p.add_argument("--profile", action="store_true",
                       help="print block execution counts")
    run_p.set_defaults(func=cmd_run)

    tiles_p = sub.add_parser("tiles", help="print the tile tree")
    tiles_p.add_argument("file", help="IR or MiniLang file (or - for stdin)")
    tiles_p.add_argument(
        "--lang", choices=["auto", "ir", "minilang"], default="auto",
        help="input language (auto-detected by default)",
    )
    tiles_p.set_defaults(func=cmd_tiles)

    alloc_p = sub.add_parser("allocate", help="run a register allocator")
    _add_io_args(alloc_p)
    alloc_p.add_argument(
        "--allocator", choices=sorted(ALLOCATORS), default="hierarchical"
    )
    alloc_p.add_argument("--registers", type=int, default=4)
    alloc_p.add_argument(
        "--profile-guided", action="store_true",
        help="profile on the given inputs first, then allocate "
        "(hierarchical only)",
    )
    alloc_p.add_argument(
        "--no-verify", action="store_true",
        help="skip the differential verification run",
    )
    alloc_p.add_argument(
        "--optimize", action="store_true",
        help="run the scalar/CFG optimization passes before allocation",
    )
    alloc_p.add_argument(
        "--profile", action="store_true",
        help="print per-stage time attribution for the allocation pipeline",
    )
    alloc_p.add_argument(
        "--max-fuel", type=int, default=None, metavar="N",
        help="deterministic fuel budget for the hierarchical allocator; "
        "exhaustion aborts with a classified error (default: unlimited)",
    )
    alloc_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock backstop for the hierarchical allocator "
        "(default: none)",
    )
    alloc_p.set_defaults(func=cmd_allocate)

    trace_p = sub.add_parser(
        "trace",
        help="trace a hierarchical allocation and print the per-tile "
        "decision report",
    )
    trace_p.add_argument("file", help="IR or MiniLang file (or - for stdin)")
    trace_p.add_argument(
        "--lang", choices=["auto", "ir", "minilang"], default="auto",
        help="input language (auto-detected by default)",
    )
    trace_p.add_argument("--registers", type=int, default=4)
    trace_p.add_argument(
        "--jsonl", metavar="PATH",
        help="also write the raw event stream as JSON Lines",
    )
    trace_p.add_argument(
        "--chrome", metavar="PATH",
        help="also write stage/tile timings in Chrome trace-event format "
        "(open in chrome://tracing or Perfetto)",
    )
    trace_p.add_argument(
        "--timings", action="store_true",
        help="append a stage/per-tile timing summary to the report",
    )
    trace_p.set_defaults(func=cmd_trace)

    batch_p = sub.add_parser(
        "batch",
        help="allocate a directory of functions through the batch engine "
        "(process pool + content-addressed allocation cache)",
    )
    batch_p.add_argument("dir", help="directory of .ir / .ml files")
    batch_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for cache misses (0 = allocate in-process)",
    )
    batch_p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="persistent cache directory (implies --policy disk)",
    )
    batch_p.add_argument(
        "--policy", choices=["memory", "disk", "off"], default="memory",
        help="cache policy (default: in-memory LRU; 'disk' needs --cache)",
    )
    batch_p.add_argument("--registers", type=int, default=8)
    batch_p.add_argument(
        "--arg", action="append", default=[], metavar="NAME=INT",
        help="scalar argument attached to every function (repeatable)",
    )
    batch_p.add_argument(
        "--array", action="append", default=[], metavar="NAME=V1,V2,...",
        help="array input attached to every function (repeatable)",
    )
    batch_p.add_argument(
        "--no-simulate", action="store_true",
        help="skip the simulator even when inputs are given "
        "(static allocation only)",
    )
    batch_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="bounded retries per task for transient failures "
        "(crashed/hung workers; default: 2)",
    )
    batch_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget for pooled tasks; a stuck task "
        "fails transiently and the pool is restarted (default: none)",
    )
    batch_p.add_argument(
        "--on-error", choices=["fail", "skip", "degrade"],
        default="degrade",
        help="final-failure policy: 'degrade' (default) retries with the "
        "chaitin then naive fallback allocators, 'skip' records a "
        "structured failure, 'fail' aborts the run",
    )
    batch_p.add_argument(
        "--tile-cache", action="store_true",
        help="attach per-process tile memoization stores: re-submissions "
        "of edited functions reuse clean subtrees and recompute only "
        "dirty tiles (bit-identical output)",
    )
    batch_p.add_argument(
        "--tile-cache-entries", type=int, default=4096, metavar="N",
        help="LRU capacity of each per-process tile store (default: 4096)",
    )
    batch_p.add_argument(
        "--max-fuel", type=int, default=None, metavar="N",
        help="deterministic fuel budget per hierarchical allocation; "
        "exhausted functions degrade through the fallback ladder "
        "(default: unlimited)",
    )
    batch_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock backstop per hierarchical allocation; a blown "
        "deadline is transient and retried (default: none)",
    )
    batch_p.add_argument(
        "--admission-limit", type=int, default=None, metavar="COST",
        help="reject functions whose estimated cost (blocks + instrs * "
        "(1 + vars)) exceeds COST before allocating; rejected functions "
        "go straight to the fallback ladder (default: admit everything)",
    )
    batch_p.add_argument(
        "--stats", action="store_true",
        help="print cache hit/miss/eviction counts and functions/sec",
    )
    batch_p.add_argument(
        "--profile", action="store_true",
        help="print per-stage time attribution summed across the module",
    )
    batch_p.add_argument(
        "--jsonl", metavar="PATH",
        help="write CacheHit/CacheMiss/BatchTask events as JSON Lines",
    )
    batch_p.add_argument(
        "--chrome", metavar="PATH",
        help="write the per-worker batch timeline in Chrome trace-event "
        "format",
    )
    batch_p.set_defaults(func=cmd_batch)

    serve_p = sub.add_parser(
        "serve",
        help="run the batch engine as an HTTP/JSON allocation service "
        "(shared cache, cross-request coalescing, bounded-queue "
        "backpressure)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8421,
        help="TCP port (0 picks a free ephemeral port; default: 8421)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="engine worker processes for cache misses "
        "(0 = allocate in-process)",
    )
    serve_p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="persistent cache directory (implies --policy disk)",
    )
    serve_p.add_argument(
        "--policy", choices=["memory", "disk", "off"], default="memory",
        help="cache policy (default: in-memory LRU; 'disk' needs --cache)",
    )
    serve_p.add_argument("--registers", type=int, default=8)
    serve_p.add_argument(
        "--no-simulate", action="store_true",
        help="static allocation only: skip the simulator, ignore "
        "submitted args/arrays for cache keying",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=1024, metavar="N",
        help="max pending allocations before /allocate answers 429 "
        "(default: 1024)",
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="max distinct allocations per engine dispatch round "
        "(default: 64)",
    )
    serve_p.add_argument(
        "--max-functions", type=int, default=256, metavar="N",
        help="max functions in one /allocate request (default: 256)",
    )
    serve_p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-shutdown budget for queued + in-flight work "
        "(default: 30)",
    )
    serve_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="bounded retries per task for transient failures (default: 2)",
    )
    serve_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget for pooled tasks (default: none)",
    )
    serve_p.add_argument(
        "--on-error", choices=["fail", "skip", "degrade"],
        default="degrade",
        help="engine final-failure policy (default: degrade through the "
        "chaitin/naive fallback ladder); 'fail' is translated to "
        "per-function failure results, never a dead service",
    )
    serve_p.add_argument(
        "--no-tile-cache", action="store_true",
        help="disable the per-process tile memoization stores (on by "
        "default for the service: edit-resubmit round-trips reuse "
        "clean subtrees across requests)",
    )
    serve_p.add_argument(
        "--tile-cache-entries", type=int, default=4096, metavar="N",
        help="LRU capacity of each per-process tile store (default: 4096)",
    )
    serve_p.add_argument(
        "--max-fuel", type=int, default=None, metavar="N",
        help="deterministic fuel budget per hierarchical allocation "
        "(default: unlimited)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock backstop per hierarchical allocation "
        "(default: none)",
    )
    serve_p.add_argument(
        "--admission-limit", type=int, default=None, metavar="COST",
        help="answer 413 for requests containing functions whose "
        "estimated cost exceeds COST (default: admit everything)",
    )
    serve_p.add_argument(
        "--jsonl", metavar="PATH",
        help="write ServiceRequest + engine events as JSON Lines",
    )
    serve_p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
