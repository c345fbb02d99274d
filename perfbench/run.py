"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold_module|edit_session|serve_mixed \
        --seed N --seconds S --trace 0|1 [--functions N]

Run from the root of a checkout (the program is imported from ``src``).
Each run sets up its workload several times (``setup_s`` is the median),
measures for ``--seconds``, then checks every output outside the timed
region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run wraps each
layer's public functions (:mod:`spans`) and reports per-layer self times,
counters and the fuel ledger instead.  Every run also appends its values
and environment to ``.perfbench/runs.jsonl``; traced runs write their
spans and layer table next to it.  ``README.md`` in this directory lists
the metrics and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Setups per run (``setup_s`` is their median): at least this many,
#: and more while they have taken less than SETUP_MIN_S in all.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
#: The tail percentile over a workload's 120 items: twelve lie beyond it,
#: and any percentile above 91.7 would leave fewer than ten.
TAIL_PCT = 90
#: serve_mixed offered load, requests per second (open loop).  A 20 s
#: run sends 840 requests: exactly 7 request cycles, so every item is
#: measured over the same 7 request bodies whatever the seed.
OFFERED_RATE = 42.0
#: serve_mixed client connections (keep-alive).
CONNECTIONS = 2
#: Edit rounds whose edited functions join edit_session's fuel ledger.
LEDGER_ROUNDS = 16
#: Per-request limit in serve_mixed; a request past it counts as failed.
REQUEST_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "fn_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "dyn_spill_refs": "count",
    "dyn_moves": "count",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

FUEL_COUNTERS = ("instrs", "liveness", "graph", "simplify", "rounds",
                 "tiles", "edges", "moves")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail(f"no program sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)


def _usable(result) -> bool:
    """A hierarchical result computed by the engine (not failed, not a
    degradation-ladder fallback, not a cache hit)."""
    return (result.record is not None and not result.degraded
            and not result.cached)


class Run:
    """What one workload run measured, before it becomes metrics."""

    def __init__(self, op: str) -> None:
        #: what one latency sample is: "function", "round" or "request".
        self.op = op
        self.setup_times = []
        #: item -> latencies (ms) of its repeats; an item's latency is
        #: its best repeat (see ``inputs``).
        self.samples = {}
        self.functions = 0
        self.window_s = 0.0
        self.fn_per_s = 0.0
        #: reference-task speed sampled inside the measured window.
        self.host = hostspeed.HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.dyn_spill_refs = 0
        self.dyn_moves = 0
        self.peak_rss_kb = 0
        self.counters = {}
        #: traced runs: spans, links, span cost, fuel ledger.
        self.spans = []
        self.links = {}
        self.root_layer = "bench.op"
        self.overhead_spans = 0
        self.fuel = {}
        self.extra = {}

    def sample(self, item, ms: float) -> None:
        self.samples.setdefault(item, []).append(ms)

    def item_latencies(self):
        return [min(v) for v in self.samples.values()]

    def fail(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def _median_setup(setup):
    """Run *setup* several times (see ``SETUP_REPEATS``); returns the
    times and the last result, closing earlier ones that can be."""
    times, result = [], None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        if result is not None and hasattr(result, "close"):
            result.close()
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
    return times, result


def _reset_code_version() -> None:
    """Forget the per-process hash of the allocator's sources, so every
    setup pays for it the way a fresh process does."""
    from repro.batch import serialize

    if hasattr(serialize, "_code_version_cache"):
        serialize._code_version_cache = None


def _machine():
    from repro.machine.target import Machine
    from inputs import REGISTERS

    return Machine.simple(REGISTERS)


def _fresh_records(named_texts, simulate_inputs=None):
    """Cold reference allocations outside any engine: one record per
    ``(name, text)``.  *simulate_inputs* maps a name to ``(args,
    arrays)`` for a differentially checked, simulated allocation."""
    from repro.batch.worker import compute_record
    from repro.core import HierarchicalConfig
    from repro.ir.parser import parse_function

    config, machine = HierarchicalConfig(), _machine()
    out = {}
    for name, text in named_texts:
        args, arrays = (simulate_inputs or {}).get(name, ({}, {}))
        record, _, _ = compute_record(
            name, parse_function(text), config, machine,
            args=args, arrays=arrays, simulate=bool(args or arrays),
        )
        out[text] = record
    return out


def _fuel_ledger(texts):
    """Summed ``core.budget`` counters of cold allocations of *texts*."""
    from repro.core import HierarchicalAllocator, HierarchicalConfig
    from repro.core.budget import BudgetLimits
    from repro.ir.parser import parse_function
    from repro.pipeline import prepare

    allocator = HierarchicalAllocator(
        HierarchicalConfig(), budget_limits=BudgetLimits(max_fuel=10 ** 15)
    )
    machine = _machine()
    totals = {name: 0 for name in FUEL_COUNTERS}
    totals["total"] = 0
    for text in texts:
        allocator.allocate(prepare(parse_function(text)), machine)
        budget = allocator.last_budget
        for name, units in budget["counters"].items():
            totals[name] = totals.get(name, 0) + units
        totals["total"] += budget["spent"]
    return totals


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _traced(trace: bool):
    """A recorder with the engine layers wrapped, or ``None``."""
    if not trace:
        return None
    import spans

    recorder = spans.SpanRecorder()
    recorder.wrap_all(spans.ENGINE_LAYERS)
    return recorder


def _collect(run: Run, recorder) -> None:
    if recorder is None:
        return
    recorder.restore()
    run.spans.extend(recorder.spans)
    run.links.update(recorder.links)
    run.overhead_spans += sum(
        1 for span in recorder.spans if span[2] != run.root_layer
    )


# ----------------------------------------------------------------------
# cold_module
# ----------------------------------------------------------------------
def cold_module(args) -> Run:
    from repro.batch.engine import BatchEngine
    from repro.core.config import BatchConfig
    from repro.ir.parser import parse_function
    from repro.machine.rewrite import check_physical
    import inputs

    run = Run("function")
    batch = BatchConfig(batch_workers=0, registers=inputs.REGISTERS,
                        simulate=True)

    def setup():
        _reset_code_version()
        module = inputs.base_module(args.seed, args.functions)
        BatchEngine(batch=batch).close()
        return module

    run.setup_times, module = _median_setup(setup)

    with BatchEngine(batch=batch) as engine:  # warm-up pass, not timed
        engine.allocate_module(module)
    recorder = _traced(args.trace)
    passes = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        span = recorder.open(run.root_layer) if recorder else None
        t0 = time.perf_counter()
        with BatchEngine(batch=batch) as engine:
            results = engine.allocate_module(module).results
        elapsed = time.perf_counter() - t0
        if span:
            recorder.close(*span)
        run.host.sample(3)
        # Keep the first pass whole; later passes only as far as the
        # checks need, so the heap the collector scans stays small.
        passes.append((elapsed, results if not passes else [
            (r.name, r.duration, _usable(r) and r.record.allocated_sha256)
            for r in results
        ]))
        if time.perf_counter() >= deadline:
            break
    run.window_s = time.perf_counter() - start
    _collect(run, recorder)
    run.peak_rss_kb = _rss_kb()
    run.extra["pass_s"] = [round(elapsed, 6) for elapsed, _ in passes]

    machine = _machine()
    first = passes[0][1]
    expected = []
    for result in first:
        if not _usable(result) or result.record.costs is None:
            expected.append(None)
            run.fail(f"{result.name}: not a computed, simulated result")
            continue
        try:
            check_physical(parse_function(result.record.allocated_text),
                           machine.num_registers)
        except Exception as exc:  # noqa: BLE001 -- any failure of the
            # independent check marks the output wrong.
            expected.append(None)
            run.fail(f"{result.name}: check_physical: {exc}")
            continue
        expected.append(result.record.allocated_sha256)
        costs = result.record.costs
        run.dyn_spill_refs += costs["spill_loads"] + costs["spill_stores"]
        run.dyn_moves += costs["moves"]
    rows = [(r.name, r.duration, expected[i]) for i, r in enumerate(first)]
    overheads = []
    for (elapsed, _), later in zip(passes,
                                   [rows] + [c for _, c in passes[1:]]):
        overheads.append(elapsed - sum(row[1] for row in later))
        for (name, duration, sha), want in zip(later, expected):
            run.attempted += 1
            run.functions += 1
            run.sample(name, duration * 1000.0)
            if want is None or sha != want:
                run.failed += 1
                run.fail(f"{name}: output missing or differs between passes")
    # Functions per second of a pass made of each function's fastest
    # allocation and the smallest per-pass engine overhead (engine
    # start-up, canonical printing, fingerprints): a whole pass lasts
    # 1.5-2 s, and one slow spell of the host spoils all of it.
    run.fn_per_s = args.functions / (
        sum(run.item_latencies()) / 1000.0 + min(overheads)
    )
    run.counters["cache_hits"] = 0
    run.counters["cache_lookups"] = run.functions
    if args.trace:
        from repro.ir.printer import format_function

        run.fuel = _fuel_ledger(format_function(w.fn) for w in module)
    return run


# ----------------------------------------------------------------------
# edit_session
# ----------------------------------------------------------------------
def _base_quality(run: Run, seed: int, count: int, served) -> dict:
    """Reference allocations of the base module, simulated and checked
    against the original program; adds their dynamic counts to *run*
    and checks, as one operation, that every ``served[name]`` allocated
    hash matches.  Returns text -> record for the module's functions."""
    from repro.ir.printer import format_function
    import inputs

    module = inputs.base_module(seed, count)
    named = [(w.label(), format_function(w.fn)) for w in module]
    records = _fresh_records(
        named, {w.label(): (w.args, w.arrays) for w in module}
    )
    run.attempted += 1
    mismatched = False
    for name, text in named:
        record = records[text]
        run.dyn_spill_refs += (record.costs["spill_loads"]
                               + record.costs["spill_stores"])
        run.dyn_moves += record.costs["moves"]
        if served.get(name) != record.allocated_sha256:
            mismatched = True
            run.fail(f"{name}: base-module output differs from reference")
    run.failed += mismatched
    return records


def edit_session(args) -> Run:
    from repro.batch.engine import BatchEngine
    from repro.batch.serialize import text_fingerprint
    from repro.core.config import BatchConfig
    from repro.determinism import edit_one_block
    from repro.ir.printer import format_function
    import inputs

    run = Run("round")
    batch = BatchConfig(batch_workers=0, registers=inputs.REGISTERS,
                        simulate=False, tile_cache=True)

    def setup():
        _reset_code_version()
        module = inputs.base_module(args.seed, args.functions)
        engine = BatchEngine(batch=batch)
        warm = engine.allocate_module(module).results
        return Session(engine, module, warm)

    run.setup_times, session = _median_setup(setup)
    engine, module = session.engine, session.module
    served = {r.name: r.record.allocated_sha256 for r in session.warm
              if r.record is not None}
    hits0 = engine.stats.tile_hits
    misses0 = engine.stats.tile_misses

    recorder = _traced(args.trace)
    choices = inputs.edit_choices(args.seed, len(module))
    log = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        index = next(choices)
        edit_one_block(module[index].fn)
        span = recorder.open(run.root_layer) if recorder else None
        t0 = time.perf_counter()
        results = engine.allocate_module(module).results
        elapsed = time.perf_counter() - t0
        if span:
            recorder.close(*span)
        log.append((index, results[index].fingerprint, [
            None if r.record is None or r.degraded
            else r.record.allocated_sha256 for r in results
        ], sum(1 for r in results if r.cached)))
        run.sample(index, elapsed * 1000.0)
        if len(log) % 20 == 1:
            run.host.sample(2)
        if time.perf_counter() >= deadline:
            break
    run.window_s = time.perf_counter() - start
    _collect(run, recorder)
    run.peak_rss_kb = _rss_kb()
    run.counters["tile_hits"] = engine.stats.tile_hits - hits0
    run.counters["tile_misses"] = engine.stats.tile_misses - misses0
    engine.close()

    # Replay the edits on fresh copies; every round's edited function is
    # checked against a cold allocation of the same text, and every other
    # function against the last hash checked for it.
    base = _base_quality(run, args.seed, args.functions, served)
    replay = inputs.base_module(args.seed, args.functions)
    expected = [base[format_function(w.fn)].allocated_sha256 for w in replay]
    ledger = []
    hits = 0
    for round_no, (index, fingerprint, shas, round_hits) in enumerate(log):
        fn = replay[index].fn
        edit_one_block(fn)
        text = format_function(fn)
        if round_no < LEDGER_ROUNDS:
            ledger.append(text)
        expected[index] = _fresh_records(
            [(replay[index].label(), text)]
        )[text].allocated_sha256
        run.attempted += 1
        run.functions += len(shas)
        hits += round_hits
        bad = [replay[i].label() for i, sha in enumerate(shas)
               if sha != expected[i]]
        if fingerprint != text_fingerprint(text):
            bad.append(f"{replay[index].label()} (replayed text differs)")
        if bad:
            run.failed += 1
            run.fail(f"round {round_no}: {', '.join(bad[:3])}")
    # Functions re-allocated per second by a typical round: the whole
    # module, in the mean best round time of the functions edited.
    bests = run.item_latencies()
    run.fn_per_s = len(module) * 1000.0 / statistics.mean(bests)
    run.counters["cache_hits"] = hits
    run.counters["cache_lookups"] = run.functions
    if args.trace:
        run.fuel = _fuel_ledger(
            [format_function(w.fn)
             for w in inputs.base_module(args.seed, args.functions)] + ledger
        )
    return run


class Session:
    """A warm edit_session engine and the module it holds."""

    def __init__(self, engine, module, warm) -> None:
        self.engine, self.module, self.warm = engine, module, warm

    def close(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in a child process started by ``serve_child.py``."""

    def __init__(self, trace: bool, tag: str) -> None:
        import subprocess

        os.makedirs(OUT_DIR, exist_ok=True)
        self.report_path = os.path.join(OUT_DIR, f"serve-{tag}.json")
        if os.path.exists(self.report_path):
            os.unlink(self.report_path)
        import inputs

        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_child.py"),
             "--report", self.report_path, "--trace", str(int(trace)), "--",
             "--port", "0", "--workers", "0",
             "--registers", str(inputs.REGISTERS)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        self.port = None
        line = self._readline(60.0)
        marker = "listening on http://"
        if marker not in line:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split(marker)[1].split()[0].rsplit(":", 1)[1])

    def _readline(self, timeout: float) -> str:
        import selectors

        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return ""
        return self.proc.stdout.readline()

    def close(self) -> dict:
        """Drain and stop the service; returns its report."""
        import signal
        import subprocess

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


async def _post_all(port, bodies, rate, timeout):
    """Open loop: body *i* is due at ``start + i / rate``; returns
    ``(start, [(due, sent, done, status, data, error)])``."""
    import asyncio
    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", port, max_connections=CONNECTIONS)
    records = [None] * len(bodies)

    async def one(i, due, functions):
        sent = time.perf_counter()
        try:
            reply = await asyncio.wait_for(client.allocate(functions),
                                           timeout)
            status, data, error = reply.status, reply.data, None
        except Exception as exc:  # noqa: BLE001 -- a failed request is
            # counted, never fatal to the run.
            status, data, error = 0, None, f"{type(exc).__name__}: {exc}"
        records[i] = (due, sent, time.perf_counter(), status, data, error)

    tasks = []
    start = time.perf_counter()
    try:
        for i, functions in enumerate(bodies):
            due = start + (i / rate if rate else 0.0)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, due, functions)))
        await asyncio.gather(*tasks)
    finally:
        await client.close()
    return start, records


def serve_mixed(args) -> Run:
    import asyncio
    from repro.batch.serialize import text_fingerprint
    import inputs

    run = Run("request")
    run.extra["offered_rate"] = OFFERED_RATE
    requests = max(1, int(OFFERED_RATE * args.seconds))
    tags = iter(range(SETUP_MAX_REPEATS))
    warm_state = {}

    def setup():
        plan, items = inputs.request_plan(args.seed, requests,
                                          args.functions)
        module = inputs.base_module(args.seed, args.functions)
        from repro.ir.printer import format_function

        warm_body = [{"name": w.label(), "text": format_function(w.fn)}
                     for w in module]
        server = Server(bool(args.trace), f"{args.seed}-{next(tags)}")
        try:
            _, records = asyncio.run(_post_all(
                server.port, [warm_body], 0.0, REQUEST_TIMEOUT_S
            ))
        except BaseException:
            server.close()
            raise
        warm_state["plan"], warm_state["items"] = plan, items
        warm_state["warm"] = records[0]
        return server

    run.setup_times, server = _median_setup(setup)
    plan, items, warm = (warm_state["plan"], warm_state["items"],
                         warm_state["warm"])
    try:
        before = asyncio.run(_metrics(server.port))
        start, records = asyncio.run(
            _post_all(server.port, plan, OFFERED_RATE, REQUEST_TIMEOUT_S)
        )
        end = max(r[2] for r in records)
        after = asyncio.run(_metrics(server.port))
    finally:
        report = server.close()
    run.window_s = end - start
    run.peak_rss_kb = report.get("maxrss_kb", 0)
    # The service's speed sets the latencies; it samples while idle.
    run.host.best_s = report.get("host_best_s", run.host.best_s)
    run.host.samples = report.get("host_samples", 0)

    engine0, engine1 = before["engine"], after["engine"]
    run.counters["tile_hits"] = engine1["tile_hits"] - engine0["tile_hits"]
    run.counters["tile_misses"] = (engine1["tile_misses"]
                                   - engine0["tile_misses"])
    lags = [(sent - due) * 1000.0 for due, sent, *_ in records]
    run.extra["lag_ms"] = statistics.median(lags)
    run.extra["lag_max_ms"] = max(lags)

    # Check outputs: every served hash against a cold reference
    # allocation of the same text.
    served = {}
    if warm[3] == 200 and warm[4]:
        served = {r["name"]: r.get("allocated_sha256")
                  for r in warm[4]["results"]}
    base = _base_quality(run, args.seed, args.functions, served)
    texts = {}
    for body in plan:
        for spec in body:
            texts.setdefault(spec["text"], spec["name"])
    fresh = dict(base)
    fresh.update(_fresh_records(
        [(name, text) for text, name in texts.items() if text not in base]
    ))
    by_fingerprint = {text_fingerprint(t): r.allocated_sha256
                      for t, r in fresh.items()}
    coalesced = cached = 0
    for i, (due, sent, done, status, data, error) in enumerate(records):
        run.attempted += 1
        run.sample(items[i], (done - due) * 1000.0)
        if status != 200 or not data:
            run.failed += 1
            run.fail(f"request {i}: status {status} {error or ''}")
            continue
        results = data["results"]
        run.functions += len(results)
        coalesced += int(data.get("coalesced", 0))
        cached += sum(1 for r in results if r.get("cached"))
        sent_fps = [text_fingerprint(spec["text"]) for spec in plan[i]]
        bad = [
            r.get("name") for r, fp in zip(results, sent_fps)
            if not r.get("ok") or r.get("degraded")
            or r.get("fingerprint") != fp
            or r.get("allocated_sha256") != by_fingerprint.get(fp)
        ]
        if bad or len(results) != len(sent_fps):
            run.failed += 1
            run.fail(f"request {i}: wrong output for {bad[:3]}")
    # Functions served per second, first due time to last reply.
    run.fn_per_s = run.functions / run.window_s
    run.counters["coalesced"] = coalesced
    run.counters["cache_hits"] = cached
    run.counters["cache_lookups"] = run.functions

    if args.trace:
        _serve_spans(run, report, start, end, records)
        run.fuel = _fuel_ledger(
            [text for text in texts]
            + [t for t in base if t not in texts]
        )
    return run


async def _metrics(port):
    from repro.service.client import ServiceClient

    async with ServiceClient("127.0.0.1", port, max_connections=1) as client:
        reply = await client.metrics()
    return reply.data


def _serve_spans(run: Run, report: dict, start: float, end: float,
                 records) -> None:
    """Server spans inside the measured window, plus one client span per
    request (from send to reply) as the root the uncovered share is
    measured against."""
    spans_in = [s for s in report.get("spans", [])
                if s[3] >= start and s[4] <= end]
    keep = {s[0] for s in spans_in}
    run.spans.extend(spans_in)
    run.links.update({
        int(k): [t for t in v if t in keep]
        for k, v in report.get("links", {}).items() if int(k) in keep
    })
    run.overhead_spans += len(spans_in)
    sizes = [n for t, n in report.get("batch_sizes", []) if start <= t <= end]
    run.extra["batch_size"] = statistics.mean(sizes) if sizes else 0.0
    next_id = max([s[0] for s in spans_in] + [0]) + 1
    for i, (due, sent, done, *_rest) in enumerate(records):
        run.spans.append([next_id + i, None, run.root_layer, sent, done])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
WORKLOADS = {
    "cold_module": cold_module,
    "edit_session": edit_session,
    "serve_mixed": serve_mixed,
}


def _percentile(values, pct):
    """The Harrell-Davis estimate of the *pct* percentile: a mean of all
    order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.
    Over 120 items it moves far less from run to run than interpolating
    the two order statistics next to the percentile."""
    values = sorted(values)
    n = len(values)
    if n < 2:
        return values[0] if values else 0.0
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_norm)

    # Weight of order statistic i: the density's mass on [i/n, (i+1)/n],
    # by Simpson's rule on 16 sub-intervals.
    steps = 16
    h = 1.0 / (n * steps)
    weights = [
        h / 3 * sum(
            density(i / n + j * h)
            * (1 if j in (0, steps) else 4 if j % 2 else 2)
            for j in range(steps + 1)
        )
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def end_to_end_metrics(run: Run) -> dict:
    """End-to-end metrics; times and CPU-bound rates at nominal host
    speed (:mod:`hostspeed`), their measured values in ``run.extra``."""
    items = run.item_latencies()
    raw = {
        "setup_s": statistics.median(run.setup_times),
        "fn_per_s": run.fn_per_s,
        "p50_ms": _percentile(items, 50),
        "tail_ms": _percentile(items, TAIL_PCT),
    }
    scale = run.host.scale
    run.extra["measured"] = raw
    run.extra["host"] = {"best_s": run.host.best_s, "scale": scale,
                         "samples": run.host.samples}
    values = {
        "setup_s": raw["setup_s"] * scale,
        # serve_mixed's rate is set by its offered load, not the CPU.
        "fn_per_s": raw["fn_per_s"] / (scale if run.op != "request" else 1),
        "p50_ms": raw["p50_ms"] * scale,
        "tail_ms": raw["tail_ms"] * scale,
        "dyn_spill_refs": run.dyn_spill_refs,
        "dyn_moves": run.dyn_moves,
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
        "ok_share": 1.0 - run.failed / run.attempted if run.attempted else 0.0,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in values}


def per_layer_metrics(run: Run) -> dict:
    import spans

    totals = spans.layer_totals(run.spans, run.links)
    ops = max(run.attempted, 1)
    metrics = {}
    for layer in spans.TIMED_LAYERS:
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}_s"] = (entry["self_s"] / ops, "s")
        metrics[f"{layer}.calls"] = (entry["calls"] / ops, "count")
    root = totals.get(run.root_layer, {"self_s": 0.0, "wall_s": 0.0})
    root_wall = root["wall_s"] or 1.0
    if run.op == "request":
        served = sum(totals.get(l, {"wall_s": 0.0})["wall_s"]
                     for l in ("http.read", "server.queue_wait"))
        uncovered = max(root_wall - served, 0.0) / root_wall
    else:
        uncovered = root["self_s"] / root_wall
    allocator = sum(totals.get(l, {"self_s": 0.0})["self_s"]
                    for l in spans.ALLOCATOR_LAYERS)
    c = run.counters
    lookups = c.get("cache_lookups", 0)
    tiles = c.get("tile_hits", 0) + c.get("tile_misses", 0)
    metrics.update({
        "cache.hit_ratio": (c.get("cache_hits", 0) / lookups
                            if lookups else 0.0, "share"),
        "incremental.tile_hits": (c.get("tile_hits", 0) / ops, "count"),
        "incremental.tile_misses": (c.get("tile_misses", 0) / ops, "count"),
        "incremental.recompute_ratio": (c.get("tile_misses", 0) / tiles
                                        if tiles else 0.0, "share"),
        "server.coalesced": (c.get("coalesced", 0) / ops, "count"),
        "server.batch_size": (run.extra.get("batch_size", 0.0), "count"),
        "loadgen.lag_ms": (run.extra.get("lag_ms", 0.0), "ms"),
        "trace.overhead_share": (
            run.overhead_spans * run.extra.get("span_cost_s", 0.0)
            / run.window_s if run.window_s else 0.0, "share"),
        "trace.uncovered_share": (uncovered, "share"),
        "trace.allocator_share": (allocator / root_wall, "share"),
        "op.items": (len(run.samples), "count"),
        "op.samples": (sum(len(v) for v in run.samples.values()), "count"),
    })
    for name in FUEL_COUNTERS + ("total",):
        metrics[f"fuel.{name}"] = (run.fuel.get(name, 0), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": args.seed,
        "seconds": args.seconds,
        "functions": args.functions,
        "trace": args.trace,
        "offered_rate": OFFERED_RATE if args.workload == "serve_mixed"
        else None,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _write_outputs(args, run: Run, metrics: dict, summary: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    entry = {
        "workload": args.workload,
        "environment": _environment(args),
        "summary": summary,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "setup_times_s": run.setup_times,
        "tail": {"pct": TAIL_PCT, "items": len(run.samples),
                 "samples": sum(len(v) for v in run.samples.values())},
        "extra": run.extra,
        "problems": run.problems,
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    if args.trace:
        import spans

        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": spans.layer_totals(run.spans, run.links),
                "root_layer": run.root_layer,
                "ops": run.attempted,
                "spans": run.spans,
                "links": run.links,
            }, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--functions", type=int, default=None,
                        help="base module size (default 120; the "
                        "self-test runs smaller)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is seeded per process and moves the allocator's
        # speed between runs; pin it, as the repository's speed gates do.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    _import_program()
    import inputs

    if args.functions is None:
        args.functions = inputs.FUNCTIONS
    if args.functions < inputs.GROUP_SIZE:
        _fail(f"--functions must be at least {inputs.GROUP_SIZE}")

    run = WORKLOADS[args.workload](args)
    if args.trace:
        import spans

        run.extra["span_cost_s"] = spans.calibrate_span_cost()
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run)
    summary = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    _write_outputs(args, run, metrics, summary)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
