"""Allocation-as-a-service: an asyncio front-end on the batch engine.

One :class:`AllocationService` owns one :class:`~repro.batch.BatchEngine`
and serves it over HTTP/JSON to any number of concurrent clients:

* ``POST /allocate`` -- submit a module (one or more functions as IR or
  MiniLang text, optionally with simulator inputs); results come back as
  one JSON document, or -- with ``?stream=1`` -- as NDJSON lines written
  per function as each allocation completes;
* ``GET /metrics`` -- the engine's :class:`~repro.batch.engine.BatchStats`
  plus service counters and per-endpoint latency histograms;
* ``GET /healthz`` -- pool liveness, queue depth, degradation-ladder
  state, and the effective configuration.

Core mechanics, in the order a request meets them:

1. **Parsing** happens on the event loop and is fault-isolated per
   function: a malformed body yields a classified ``400`` (error classes
   from :func:`repro.errors.classify_exception`), never a ``500``, and
   never touches the engine.  A text the service parsed before is not
   parsed again: the source memo (:class:`SourceMemo`) hands back its
   canonical text, fingerprint and cost estimate.
2. **Coalescing** -- every function is keyed by the engine's own cache
   key (:meth:`~repro.batch.engine.BatchEngine.entry_for`, so key parity
   with the engine is structural).  A key already in flight for *any*
   client attaches to that computation's future instead of enqueueing
   new work: the engine's per-batch miss dedup, lifted to cross-request
   scope.  Engine misses therefore equal distinct cache keys no matter
   how many clients race.
3. **Backpressure** -- admission is all-or-nothing against a bounded
   pending queue: a request whose *new* (non-coalesced) work does not
   fit returns ``429`` with ``Retry-After`` and enqueues nothing.
4. **Dispatch** -- a single dispatcher coroutine drains the queue into
   micro-batches (``max_batch``) and runs them through the engine on a
   dedicated single engine thread (the engine is not thread-safe; its
   own process pool provides the compute parallelism).  While a batch
   runs, new arrivals accumulate into the next batch.
5. **Resilience** is the engine's (PR 5): retries, per-task timeouts,
   pool restarts and the chaitin->naive degradation ladder all happen
   below the service; a function's final failure surfaces as a
   structured per-function error object in an otherwise-200 response.
   HTTP status codes describe the *request*, per-function ``ok`` the
   allocation.
6. **Graceful shutdown** drains: new ``/allocate`` requests get ``503``
   while queued and in-flight work completes and every already-accepted
   request receives its response; only after ``drain_timeout_s`` are
   leftover futures failed with error class ``"shutdown"``.

Determinism: the service adds routing, never allocation semantics --
served records are bit-identical to direct ``allocate_module`` output
(``python -m repro.determinism check --service`` proves it across hash
seeds).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch.engine import (
    BatchEngine,
    BatchResult,
    CanonicalSource,
    SourceWorkload,
    canonical_source,
)
from repro.errors import TaskError, classify_exception, task_error_from_exception
from repro.pipeline import load_function_source
from repro.service.config import ServiceConfig, describe_config
from repro.service.http import (
    READ_LIMIT,
    ChunkedWriter,
    ProtocolError,
    Request,
    read_request,
    response_bytes,
)
from repro.trace.events import ServiceRequest
from repro.trace.tracer import NULL_TRACER, NullTracer

__all__ = [
    "AllocationService",
    "ServiceError",
    "load_function_source",
    "run_service",
]


class ServiceError(Exception):
    """A request-level failure with a definite HTTP answer.

    Raising one from a handler turns into ``status`` + a JSON body
    ``{"error_class", "message", ...detail}``; see
    :data:`repro.service.config.SERVICE_ERROR_CLASSES`.
    """

    def __init__(
        self,
        status: int,
        error_class: str,
        message: str,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_class = error_class
        self.detail = detail or {}


class LatencyHistogram:
    """Log-bucketed request-latency accounting (O(1) memory).

    Buckets double from 0.25 ms; a percentile reports the upper bound of
    the bucket the target rank lands in (max observed for the last
    bucket), which is the usual operational trade: bounded error, no
    per-request storage.
    """

    #: Upper bounds in milliseconds: 0.25ms .. ~131s, then overflow.
    BOUNDS_MS = tuple(0.25 * (2 ** i) for i in range(20))

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.counts[bisect.bisect_left(self.BOUNDS_MS, ms)] += 1
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def quantile_ms(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        target = max(1, int(q * self.count + 0.999999))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                if i < len(self.BOUNDS_MS):
                    return round(min(self.BOUNDS_MS[i], self.max_ms), 3)
                return round(self.max_ms, 3)
        return round(self.max_ms, 3)

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "p50_ms": self.quantile_ms(0.50),
            "p90_ms": self.quantile_ms(0.90),
            "p99_ms": self.quantile_ms(0.99),
            "max_ms": round(self.max_ms, 3),
        }


#: Bytes the source memo may retain: about 30 times the 0.53 MB of
#: distinct text a 20 s perfbench ``serve_mixed`` run submits.  A bound
#: on bytes rather than entries keeps the ceiling independent of
#: ``max_body_bytes``.
SOURCE_MEMO_BYTES = 16 << 20

#: What one memo entry costs besides its canonical text: the digest key,
#: the name and fingerprint strings and the objects around them (470
#: bytes measured with tracemalloc on CPython 3.11).  Charging it keeps
#: many tiny texts from outgrowing the bound.
SOURCE_ENTRY_BYTES = 512


class SourceMemo:
    """LRU map from (sha256 of a submitted text, ``lang``) to the
    :class:`~repro.batch.engine.CanonicalSource` its parse produced.

    Parsing, MiniLang compilation and validation are pure functions of
    (text, lang), so a hit is as valid as the first parse.  Only
    successful parses are stored: a bad text is parsed again and fails
    the same way.  Entries are evicted least recently used first once
    the memory of their texts plus :data:`SOURCE_ENTRY_BYTES` each
    exceeds *max_bytes*.  Only the event loop touches the memo, so it
    needs no lock.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple[bytes, str], CanonicalSource]" = (
            OrderedDict()
        )
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(text: str, lang: str) -> Tuple[bytes, str]:
        # surrogatepass: JSON may carry lone surrogates, which plain
        # UTF-8 refuses to encode.
        return (
            hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest(),
            lang,
        )

    def get(self, key: Tuple[bytes, str]) -> Optional[CanonicalSource]:
        source = self._entries.get(key)
        if source is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return source

    def put(self, key: Tuple[bytes, str], source: CanonicalSource) -> None:
        self._entries[key] = source
        self.bytes += _retained_bytes(source)
        while self.bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= _retained_bytes(evicted)

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self.bytes,
        }


def _retained_bytes(source: CanonicalSource) -> int:
    return sys.getsizeof(source.text) + SOURCE_ENTRY_BYTES


@dataclass
class _Entry:
    """One distinct cache key somewhere between admission and response.

    Every concurrent submission of the same key -- same request or not --
    shares this object; ``future`` resolves to the engine's
    :class:`~repro.batch.engine.BatchResult` exactly once.
    """

    key: str
    name: str
    fingerprint: str
    workload: SourceWorkload
    future: asyncio.Future = field(repr=False, default=None)


class AllocationService:
    """The server.  Use as an async context manager::

        async with AllocationService(ServiceConfig()) as service:
            ...  # service.port is bound

    or drive :func:`run_service` from a CLI.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = BatchEngine(batch=self.config.batch, tracer=self.tracer)

        self._server: Optional[asyncio.AbstractServer] = None
        self._engine_exec: Optional[ThreadPoolExecutor] = None
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()

        #: Admission state.  Invariants (all mutated only on the event
        #: loop, so they need no lock): ``len(_pending) <= queue_limit``
        #: always; every pending entry is also in ``_inflight``; an
        #: entry leaves ``_inflight`` in the same dispatcher step that
        #: resolves its future.
        self._pending: deque = deque()
        self._inflight: Dict[str, _Entry] = {}
        self._work = asyncio.Event()
        self._dispatch_gate = asyncio.Event()
        self._dispatch_gate.set()

        self._draining = False
        self._stopping = False
        self._drained = asyncio.Event()
        self._started_mono = time.monotonic()

        # counters
        self._requests: Dict[str, int] = {}
        self._responses: Dict[int, int] = {}
        self._latency: Dict[str, LatencyHistogram] = {}
        self._functions_total = 0
        self._coalesced_total = 0
        self._rejected_total = 0
        self._unadmitted_total = 0
        self._streamed_total = 0
        self._queue_peak = 0
        self._sources = SourceMemo(SOURCE_MEMO_BYTES)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AllocationService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and start the dispatcher."""
        if self._server is not None:
            return
        # One dedicated thread owns every engine call: the engine is not
        # thread-safe, and funneling work through a single thread (plus
        # the engine's own process pool) is the concurrency contract.
        self._engine_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="alloc-engine"
        )
        self._started_mono = time.monotonic()
        self._dispatcher_task = asyncio.ensure_future(self._dispatcher())
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=2048,
            limit=READ_LIMIT,
        )

    async def shutdown(self) -> None:
        """Graceful shutdown: reject new allocations, drain accepted
        work, answer every in-flight request, then release the engine.
        Idempotent; concurrent callers all wait for the same drain."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._dispatch_gate.set()  # a paused dispatcher must still drain
        try:
            await asyncio.wait_for(
                self._drain_work(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            self._abandon_pending()
        self._stopping = True
        self._work.set()
        if self._dispatcher_task is not None:
            await self._dispatcher_task
        # Give connection handlers a moment to flush final responses,
        # then close the listener and whatever connections remain.
        if self._conn_tasks:
            await asyncio.wait(
                list(self._conn_tasks), timeout=self.config.drain_timeout_s
            )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._engine_exec is not None:
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(self._engine_exec, self.engine.close)
            self._engine_exec.shutdown(wait=True)
            self._engine_exec = None
        self._drained.set()

    async def _drain_work(self) -> None:
        while self._pending or self._inflight:
            await asyncio.sleep(0.005)

    def _abandon_pending(self) -> None:
        """Drain timed out: fail whatever is still unresolved."""
        error = TaskError(
            error_class="shutdown",
            message=(
                f"service shut down before this allocation completed "
                f"(drain_timeout_s={self.config.drain_timeout_s})"
            ),
            permanence="transient",
        )
        for entry in list(self._inflight.values()):
            if entry.future is not None and not entry.future.done():
                entry.future.set_result(BatchResult(
                    name=entry.name, fingerprint=entry.fingerprint,
                    record=None, cached=False, source="failed",
                    worker="none", duration=0.0, error=error,
                ))
        self._inflight.clear()
        self._pending.clear()

    # Test/drill hooks: freezing dispatch makes admission states (queue
    # growth, coalescing windows, 429s) deterministic to observe.
    def pause_dispatch(self) -> None:
        self._dispatch_gate.clear()

    def resume_dispatch(self) -> None:
        self._dispatch_gate.set()

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatcher(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            await self._work.wait()
            await self._dispatch_gate.wait()
            if self._stopping and not self._pending:
                return
            batch: List[_Entry] = []
            while self._pending and len(batch) < self.config.max_batch:
                batch.append(self._pending.popleft())
            if not self._pending and not self._stopping:
                self._work.clear()
            if not batch:
                if self._stopping:
                    return
                continue
            workloads = [entry.workload for entry in batch]
            try:
                module = await loop.run_in_executor(
                    self._engine_exec, self.engine.allocate_module, workloads
                )
            except Exception as exc:  # noqa: BLE001 -- every engine
                # failure must resolve the shared futures; coalesced
                # requests across many clients are waiting on them.
                error = task_error_from_exception(exc)
                for entry in batch:
                    self._inflight.pop(entry.key, None)
                    if not entry.future.done():
                        entry.future.set_result(BatchResult(
                            name=entry.name, fingerprint=entry.fingerprint,
                            record=None, cached=False, source="failed",
                            worker="engine", duration=0.0, error=error,
                        ))
            else:
                for entry, result in zip(batch, module.results):
                    self._inflight.pop(entry.key, None)
                    if not entry.future.done():
                        entry.future.set_result(result)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    if exc.discard:
                        # Drain (a bounded slice of) the rejected body so
                        # the error response lands before the close races
                        # a TCP reset against unread bytes.
                        try:
                            await reader.readexactly(
                                min(exc.discard, 256 * 1024)
                            )
                        except (
                            asyncio.IncompleteReadError, ConnectionError
                        ):
                            pass
                    self._count_response(exc.status)
                    writer.write(self._error_bytes(
                        exc.status, "protocol", str(exc), keep_alive=False,
                    ))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                try:
                    await self._dispatch_request(request, writer, keep_alive)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not keep_alive:
                    break
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_request(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        endpoint = {
            "/allocate": "allocate",
            "/metrics": "metrics",
            "/healthz": "healthz",
        }.get(request.path, "other")
        self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
        start = time.monotonic()
        status = 500
        functions = 0
        coalesced = 0
        try:
            if endpoint == "allocate":
                if request.method != "POST":
                    raise ServiceError(
                        405, "method_not_allowed",
                        "use POST for /allocate",
                    )
                status, functions, coalesced = await self._handle_allocate(
                    request, writer, keep_alive
                )
            elif endpoint in ("metrics", "healthz"):
                if request.method != "GET":
                    raise ServiceError(
                        405, "method_not_allowed",
                        f"use GET for /{endpoint}",
                    )
                payload = (
                    self.metrics_payload() if endpoint == "metrics"
                    else self.healthz_payload()
                )
                status = 200
                writer.write(response_bytes(
                    200, _json_bytes(payload), keep_alive=keep_alive,
                ))
                await writer.drain()
            else:
                raise ServiceError(
                    404, "not_found", f"no route for {request.path!r}"
                )
        except ServiceError as exc:
            status = exc.status
            writer.write(self._error_bytes(
                exc.status, exc.error_class, str(exc),
                detail=exc.detail, keep_alive=keep_alive,
            ))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # noqa: BLE001 -- one handler bug must
            # answer 500, not kill the connection loop silently.
            status = 500
            error_class, _ = classify_exception(exc)
            writer.write(self._error_bytes(
                500, "internal", f"[{error_class}] {exc}",
                keep_alive=keep_alive,
            ))
            await writer.drain()
        finally:
            duration = time.monotonic() - start
            self._count_response(status)
            self._latency.setdefault(
                endpoint, LatencyHistogram()
            ).observe(duration)
            if self.tracer.enabled:
                self.tracer.emit(ServiceRequest(
                    endpoint=endpoint, method=request.method, status=status,
                    functions=functions, coalesced=coalesced,
                    duration_ms=round(duration * 1000.0, 3),
                ))

    def _count_response(self, status: int) -> None:
        self._responses[status] = self._responses.get(status, 0) + 1

    def _error_bytes(
        self,
        status: int,
        error_class: str,
        message: str,
        detail: Optional[Dict[str, object]] = None,
        keep_alive: bool = True,
    ) -> bytes:
        body: Dict[str, object] = {
            "error_class": error_class, "message": message,
        }
        if detail:
            body.update(detail)
        extra: Dict[str, str] = {}
        if status in (429, 503):
            extra["Retry-After"] = str(self.config.retry_after_s)
        return response_bytes(
            status, _json_bytes(body), extra_headers=extra or None,
            keep_alive=keep_alive,
        )

    # ------------------------------------------------------------------
    # /allocate
    # ------------------------------------------------------------------
    async def _handle_allocate(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> Tuple[int, int, int]:
        """Returns ``(status, functions, coalesced)`` for accounting."""
        parsed = self._parse_allocate_body(request.body)
        self._check_admission(parsed)
        if self._draining:
            raise ServiceError(
                503, "draining", "service is shutting down; resubmit "
                "to another instance or retry after restart",
            )
        slots = self._admit(parsed)
        functions = len(slots)
        coalesced = sum(1 for _, _, was_inflight in slots if was_inflight)
        self._functions_total += functions
        self._coalesced_total += coalesced
        include_text = _truthy(request.query.get("text"))
        stream = _truthy(request.query.get("stream"))
        if stream:
            self._streamed_total += 1
            chunked = ChunkedWriter(writer, keep_alive=keep_alive)
            for index, (name, entry, was_inflight) in enumerate(slots):
                result = await entry.future
                payload = self._result_payload(
                    name, entry, was_inflight, result, include_text
                )
                payload["index"] = index
                await chunked.write_chunk(_json_bytes(payload) + b"\n")
            await chunked.write_chunk(_json_bytes({
                "done": functions, "coalesced": coalesced,
            }) + b"\n")
            await chunked.finish()
            return 200, functions, coalesced
        results = []
        for name, entry, was_inflight in slots:
            result = await entry.future
            results.append(self._result_payload(
                name, entry, was_inflight, result, include_text
            ))
        body = _json_bytes({
            "results": results,
            "functions": functions,
            "coalesced": coalesced,
        })
        writer.write(response_bytes(200, body, keep_alive=keep_alive))
        await writer.drain()
        return 200, functions, coalesced

    def _parse_allocate_body(
        self, body: bytes
    ) -> List[Tuple[str, SourceWorkload]]:
        """``[(display_name, workload)]`` or a classified 400.

        Per-function parse/compile/validate failures are collected into
        one ``errors`` list (index, stage, taxonomy class) and fail the
        whole request -- allocation of a partially-understood module
        would not be a deterministic function of the submission.
        """
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, "bad_request", f"body is not valid JSON: {exc}"
            )
        if not isinstance(doc, dict) or not isinstance(
            doc.get("functions"), list
        ):
            raise ServiceError(
                400, "bad_request",
                'body must be {"functions": [{"text": ...}, ...]}',
            )
        functions = doc["functions"]
        if not functions:
            raise ServiceError(400, "bad_request", "empty function list")
        if len(functions) > self.config.max_functions:
            raise ServiceError(
                400, "bad_request",
                f"{len(functions)} functions exceeds max_functions="
                f"{self.config.max_functions}",
            )
        out: List[Tuple[str, SourceWorkload]] = []
        errors: List[Dict[str, object]] = []
        for index, spec in enumerate(functions):
            try:
                name, workload = self._build_workload(spec)
            except ServiceError as exc:
                errors.append({
                    "index": index, "stage": "schema",
                    "error_class": exc.error_class, "message": str(exc),
                })
            except Exception as exc:  # noqa: BLE001 -- parser/compiler/
                # validator failures become classified 400 detail.
                error_class, _ = classify_exception(exc)
                errors.append({
                    "index": index, "stage": "parse",
                    "error_class": error_class, "message": str(exc),
                })
            else:
                out.append((name, workload))
        if errors:
            raise ServiceError(
                400, "bad_request",
                f"{len(errors)} of {len(functions)} function(s) failed to "
                "parse", detail={"errors": errors},
            )
        return out

    def _build_workload(self, spec) -> Tuple[str, SourceWorkload]:
        if not isinstance(spec, dict) or not isinstance(
            spec.get("text"), str
        ):
            raise ServiceError(
                400, "bad_request",
                'each function must be {"text": "<ir or minilang>", ...}',
            )
        lang = spec.get("lang", "auto")
        if lang not in ("auto", "ir", "minilang"):
            raise ServiceError(400, "bad_request", f"unknown lang {lang!r}")
        args = spec.get("args") or {}
        arrays = spec.get("arrays") or {}
        if not isinstance(args, dict) or not all(
            isinstance(k, str) and isinstance(v, int)
            and not isinstance(v, bool)
            for k, v in args.items()
        ):
            raise ServiceError(
                400, "bad_request", '"args" must map names to integers'
            )
        if not isinstance(arrays, dict) or not all(
            isinstance(k, str) and isinstance(v, list) and all(
                isinstance(x, int) and not isinstance(x, bool) for x in v
            )
            for k, v in arrays.items()
        ):
            raise ServiceError(
                400, "bad_request",
                '"arrays" must map names to integer lists',
            )
        key = self._sources.key(spec["text"], lang)
        source = self._sources.get(key)
        if source is None:
            source = canonical_source(
                load_function_source(spec["text"], lang)
            )
            self._sources.put(key, source)
        name = spec.get("name")
        if name is not None and not isinstance(name, str):
            raise ServiceError(400, "bad_request", '"name" must be a string')
        workload = SourceWorkload(
            source, dict(args), {k: list(v) for k, v in arrays.items()},
            name=name,
        )
        return workload.label(), workload

    def _check_admission(
        self, parsed: Sequence[Tuple[str, SourceWorkload]]
    ) -> None:
        """Admission control against ``batch.admission_limit``.

        Functions whose deterministic cost estimate
        (:func:`repro.core.budget.estimate_cost`, computed once per text
        and carried on the workload's source) exceeds the configured
        limit fail the whole request with a structured ``413`` -- like
        parse errors, all-or-nothing, so the admit/reject answer is a
        pure function of the submission.  The engine applies the same
        check itself; rejecting here keeps un-admittable work out of the
        queue entirely and gives the client a request-level answer
        instead of a per-function ``admission`` failure.
        """
        limit = self.config.batch.admission_limit
        if limit is None:
            return
        over: List[Dict[str, object]] = []
        for index, (name, workload) in enumerate(parsed):
            cost = workload.source.cost
            if cost > limit:
                over.append({"index": index, "name": name, "cost": cost})
        if over:
            self._unadmitted_total += 1
            raise ServiceError(
                413, "unadmittable",
                f"{len(over)} of {len(parsed)} function(s) exceed the "
                f"admission limit ({limit} estimated cost units)",
                detail={"admission_limit": limit, "functions": over},
            )

    def _admit(
        self, parsed: Sequence[Tuple[str, SourceWorkload]]
    ) -> List[Tuple[str, _Entry, bool]]:
        """Coalesce against in-flight work, then admit atomically.

        Returns one slot per submitted function in submission order:
        ``(display_name, entry, coalesced)`` where ``coalesced`` marks a
        function that attached to an already-created computation (from a
        concurrent request, or a duplicate earlier in this one) instead
        of enqueueing.  If the new entries would push the pending queue
        past ``queue_limit``, *nothing* is enqueued and the request
        fails with 429.
        """
        loop = asyncio.get_event_loop()
        slots: List[Tuple[str, _Entry, bool]] = []
        new_entries: List[_Entry] = []
        local: Dict[str, _Entry] = {}
        for name, workload in parsed:
            _, _, fingerprint, key = self.engine.entry_for(workload)
            if key in local:
                slots.append((name, local[key], True))
            elif key in self._inflight:
                slots.append((name, self._inflight[key], True))
            else:
                entry = _Entry(
                    key=key, name=name, fingerprint=fingerprint,
                    workload=workload, future=loop.create_future(),
                )
                local[key] = entry
                new_entries.append(entry)
                slots.append((name, entry, False))
        if len(self._pending) + len(new_entries) > self.config.queue_limit:
            self._rejected_total += 1
            raise ServiceError(
                429, "overloaded",
                f"pending queue is full ({len(self._pending)}/"
                f"{self.config.queue_limit}); retry after "
                f"{self.config.retry_after_s}s",
                detail={
                    "queue_depth": len(self._pending),
                    "queue_limit": self.config.queue_limit,
                    "retry_after_s": self.config.retry_after_s,
                },
            )
        for entry in new_entries:
            self._inflight[entry.key] = entry
            self._pending.append(entry)
        if new_entries:
            self._queue_peak = max(self._queue_peak, len(self._pending))
            self._work.set()
        return slots

    def _result_payload(
        self,
        name: str,
        entry: _Entry,
        coalesced: bool,
        result: BatchResult,
        include_text: bool,
    ) -> Dict[str, object]:
        record = result.record
        out: Dict[str, object] = {
            "name": name,
            "fingerprint": entry.fingerprint,
            "ok": record is not None,
            "cached": result.cached,
            "source": result.source,
            "worker": result.worker,
            "coalesced": coalesced,
            "degraded": result.degraded,
            "fallback_allocator": result.fallback_allocator,
            "attempts": result.attempts,
            "error": None,
        }
        if result.error is not None:
            out["error"] = {
                "error_class": result.error.error_class,
                "message": result.error.message,
                "permanence": result.error.permanence,
                "attempts": result.error.attempts,
            }
        if record is not None:
            out.update({
                "allocator": record.allocator,
                "blocks": record.blocks,
                "allocated_sha256": record.allocated_sha256,
                "spilled": list(record.spilled),
                "static_costs": dict(record.static_costs),
                "costs": dict(record.costs) if record.costs is not None
                else None,
                "returned": record.returned,
            })
            if include_text:
                out["allocated_text"] = record.allocated_text
        return out

    # ------------------------------------------------------------------
    # /metrics and /healthz
    # ------------------------------------------------------------------
    def metrics_payload(self) -> Dict[str, object]:
        return {
            "engine": self.engine.stats.as_dict(),
            "service": {
                "requests": dict(sorted(self._requests.items())),
                "responses": {
                    str(code): n
                    for code, n in sorted(self._responses.items())
                },
                "functions": self._functions_total,
                "coalesced": self._coalesced_total,
                "rejected": self._rejected_total,
                "unadmitted": self._unadmitted_total,
                "streamed": self._streamed_total,
                "queue": {
                    "depth": len(self._pending),
                    "limit": self.config.queue_limit,
                    "peak": self._queue_peak,
                },
                "inflight_keys": len(self._inflight),
                "sources": self._sources.snapshot(),
                "latency_ms": {
                    endpoint: hist.snapshot()
                    for endpoint, hist in sorted(self._latency.items())
                },
            },
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
        }

    def healthz_payload(self) -> Dict[str, object]:
        pool = self.engine.pool_health()
        stats = self.engine.stats
        if self._draining:
            status = "draining"
        elif bool(pool["broken"]) or (
            bool(pool["running"])
            and int(pool["alive"]) < int(pool["configured"])
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "pool": pool,
            "queue": {
                "depth": len(self._pending),
                "limit": self.config.queue_limit,
            },
            "degradation": {
                "degraded_results": stats.degraded,
                "failures": stats.failures,
                "retries": stats.retries,
                "pool_restarts": stats.pool_restarts,
            },
            "config": describe_config(self.config),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
        }


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _truthy(value: Optional[str]) -> bool:
    return value not in (None, "", "0", "false", "no")


# ----------------------------------------------------------------------
# blocking entry point (the CLI's `repro serve`)
# ----------------------------------------------------------------------
def run_service(
    config: Optional[ServiceConfig] = None,
    tracer: Optional[NullTracer] = None,
    out=None,
    ready=None,
) -> None:
    """Serve until SIGINT/SIGTERM, then drain gracefully.

    *ready*, when given, is called with the bound port once the socket is
    listening (tests use it; operators read the startup line).
    """
    import signal
    import sys

    out = out or sys.stderr

    async def _main() -> None:
        service = AllocationService(config, tracer=tracer)
        await service.start()
        print(
            f"allocation service listening on "
            f"http://{service.config.host}:{service.port} "
            f"(workers={service.config.batch.batch_workers}, "
            f"queue_limit={service.config.queue_limit})",
            file=out, flush=True,
        )
        if ready is not None:
            ready(service.port)
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("draining in-flight allocations ...", file=out, flush=True)
        await service.shutdown()
        print("service stopped", file=out, flush=True)

    asyncio.run(_main())
