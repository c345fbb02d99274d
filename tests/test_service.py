"""The allocation service: HTTP protocol, coalescing, backpressure,
error classification, health, and graceful shutdown.

The load-bearing properties, each pinned by a test here:

* served results are byte-identical to direct ``allocate_module`` output
  (the service adds routing, never allocation semantics);
* concurrent identical submissions produce exactly one engine miss
  (cross-request coalescing keyed by the engine's own cache key);
* a full queue answers a deterministic ``429`` and enqueues *nothing*
  (all-or-nothing admission);
* malformed bodies answer classified ``400``s, never ``500``s, and never
  reach the engine;
* ``/healthz`` observes pool death and recovery (driven by the PR-5
  fault-injection plan and by killing a worker directly);
* graceful shutdown drains every accepted request to a real response.

Tests run the real server on a loopback ephemeral port through the real
client -- no in-process shortcuts -- inside ``asyncio.run`` (the suite
does not assume pytest-asyncio).  ``pause_dispatch``/``resume_dispatch``
freeze the dispatcher so admission states (queue depth, coalescing
windows, 429s) are deterministic to observe.
"""

import asyncio
import collections
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro.batch.engine as engine_module
import repro.batch.worker as worker_module
import repro.minilang as minilang_module
import repro.pipeline as pipeline_module
import repro.service.server as server_module
from repro.batch import BatchConfig, synthetic_module
from repro.batch.engine import canonical_source
from repro.batch.faultinject import ENV_VAR
from repro.ir import format_function
from repro.pipeline import allocate_module, load_function_source
from repro.service import (
    SERVICE_ERROR_CLASSES,
    AllocationService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.http import (
    ProtocolError,
    read_request,
    read_response,
    request_bytes,
    response_bytes,
)
from repro.service.server import LatencyHistogram


def service_config(**kwargs) -> ServiceConfig:
    batch_kwargs = kwargs.pop("batch_kwargs", {})
    batch_kwargs.setdefault("batch_workers", 0)
    batch_kwargs.setdefault("simulate", True)
    return ServiceConfig(batch=BatchConfig(**batch_kwargs), **kwargs)


def run(coro):
    return asyncio.run(coro)


async def wait_until(predicate, timeout=10.0, interval=0.002):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError(f"condition not met within {timeout}s")


async def raw_roundtrip(port: int, data: bytes, rest: bool = False):
    """Send *data*, read one response.  With *rest*, also read until the
    server closes and return ``(response, bytes after it)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        response = await read_response(reader)
        if rest:
            return response, await reader.read()
        return response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def memo_counters(svc) -> dict:
    return svc.metrics_payload()["service"]["sources"]


ML_ADD = "func f(n) { return n + 2; }"


def ml_source(i: int) -> str:
    """Distinct small MiniLang functions, one per *i*."""
    return (
        f"func k{i}(n) {{ var s = {i}; var j = 0; "
        f"while (j < n) {{ s = s + j * {i + 1}; j = j + 1; }} "
        f"return s; }}"
    )


# ----------------------------------------------------------------------
# protocol layer
# ----------------------------------------------------------------------
class TestHttpProtocol:
    def test_request_roundtrip_and_keepalive_eof(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(request_bytes(
                "POST", "/allocate?stream=1&text=1", "h", b'{"x": 1}'
            ))
            reader.feed_eof()
            req = await read_request(reader, 1024)
            assert req.method == "POST"
            assert req.path == "/allocate"
            assert req.query == {"stream": "1", "text": "1"}
            assert req.body == b'{"x": 1}'
            assert req.keep_alive
            # clean EOF between keep-alive requests parses as None
            assert await read_request(reader, 1024) is None

        run(main())

    def test_connection_close_and_http10_semantics(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
                b"GET / HTTP/1.0\r\n\r\n"
                b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            )
            reader.feed_eof()
            assert (await read_request(reader, 0)).keep_alive is False
            assert (await read_request(reader, 0)).keep_alive is False
            assert (await read_request(reader, 0)).keep_alive is True

        run(main())

    def test_protocol_errors_carry_http_status(self):
        async def parse(raw: bytes, max_body: int = 64):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader, max_body)

        async def main():
            with pytest.raises(ProtocolError) as exc:
                await parse(b"NONSENSE\r\n\r\n")
            assert exc.value.status == 400
            with pytest.raises(ProtocolError) as exc:
                await parse(b"GET / HTTP/2\r\n\r\n")
            assert exc.value.status == 505
            with pytest.raises(ProtocolError) as exc:
                await parse(
                    b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                )
            assert exc.value.status == 413
            assert exc.value.discard == 100
            with pytest.raises(ProtocolError) as exc:
                await parse(
                    b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
            assert exc.value.status == 400

        run(main())

    def test_over_long_lines_are_protocol_400s(self):
        """A line past the reader's own buffer limit makes
        ``StreamReader.readline`` raise ``ValueError``; one within it
        but past the line bound fails by length.  Both are a 400 that
        names the line that was too long."""
        async def parse(raw: bytes, limit: int):
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader, 64)

        async def main():
            long = b"a" * 10_000
            cases = [
                (b"GET /" + long + b" HTTP/1.1\r\n\r\n", 1024,
                 "request line too long"),
                (b"GET / HTTP/1.1\r\nX-Big: " + long + b"\r\n\r\n", 1024,
                 "header line too long"),
                (b"GET /" + long + b" HTTP/1.1\r\n\r\n", 1 << 20,
                 "request line too long"),
                (b"GET / HTTP/1.1\r\nX-Big: " + long + b"\r\n\r\n",
                 1 << 20, "header line too long"),
            ]
            for raw, limit, message in cases:
                with pytest.raises(ProtocolError) as exc:
                    await parse(raw, limit)
                assert (exc.value.status, str(exc.value)) == (400, message)

        run(main())

    def test_transfer_encoding_requests_are_411(self):
        async def parse(raw: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader, 1024)

        async def main():
            for headers in (
                b"Transfer-Encoding: chunked\r\n",
                b"Content-Length: 5\r\nTransfer-Encoding: chunked\r\n",
            ):
                with pytest.raises(ProtocolError) as exc:
                    await parse(
                        b"POST / HTTP/1.1\r\n" + headers
                        + b"\r\n5\r\nhello\r\n0\r\n\r\n"
                    )
                assert exc.value.status == 411

        run(main())

    def test_response_roundtrip_fixed_and_chunked(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(response_bytes(429, b'{"a": 1}'))
            # hand-built chunked response: two chunks then terminator
            reader.feed_data(
                b"HTTP/1.1 200 OK\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
            )
            reader.feed_eof()
            fixed = await read_response(reader)
            assert fixed.status == 429
            assert json.loads(fixed.body) == {"a": 1}
            chunked = await read_response(reader)
            assert chunked.status == 200
            assert chunked.chunks == (b"hello", b" world")
            assert chunked.body == b"hello world"

        run(main())


class TestLatencyHistogram:
    def test_quantiles_and_snapshot(self):
        hist = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 200):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 10
        assert snap["p50_ms"] <= snap["p99_ms"] <= snap["max_ms"]
        assert snap["p50_ms"] <= 2.0   # nine 1ms observations
        assert snap["p99_ms"] >= 100.0  # the 200ms outlier bucket
        assert snap["max_ms"] == pytest.approx(200.0)

    def test_empty_histogram_is_zeros(self):
        snap = LatencyHistogram().snapshot()
        assert snap == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }


# ----------------------------------------------------------------------
# /allocate
# ----------------------------------------------------------------------
class TestAllocate:
    def test_single_function_allocates_and_simulates(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate_text(
                        ML_ADD, name="f", args={"n": 3}
                    )
                    assert reply.status == 200
                    (res,) = reply.data["results"]
                    assert res["ok"] and res["name"] == "f"
                    assert res["returned"] == [5]
                    assert res["allocator"] == "hierarchical"
                    assert res["source"] == "computed"
                    assert res["error"] is None
                    assert re.fullmatch(
                        r"[0-9a-f]{64}", res["allocated_sha256"]
                    )

        run(main())

    def test_served_results_match_direct_allocate_module(self):
        """The parity contract: the service is a transport, not a second
        allocator.  Same workloads direct vs served -> identical
        fingerprints, hashes, spill sets and simulated costs, both when
        the service parses the texts and when it resubmits them from its
        source memo (the second request, which also returns the text)."""
        workloads = synthetic_module(6, seed=5)
        direct = allocate_module(
            workloads, batch=BatchConfig(batch_workers=0, simulate=True)
        )
        specs = [
            {
                "text": format_function(w.fn),
                "name": w.label(),
                "args": dict(w.args),
                "arrays": {k: list(v) for k, v in w.arrays.items()},
            }
            for w in workloads
        ]

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate(specs)
                    assert reply.status == 200
                    hits = memo_counters(svc)["hits"]
                    again = await client.allocate(specs, include_text=True)
                    assert again.status == 200
                    assert memo_counters(svc)["hits"] - hits == len(specs)
                    return reply.data["results"], again.data["results"]

        served, resubmitted = run(main())
        for results in (served, resubmitted):
            assert [r["name"] for r in results] == [r.name for r in direct]
            for payload, result in zip(results, direct):
                record = result.record
                assert payload["ok"]
                assert payload["fingerprint"] == result.fingerprint
                assert payload["allocated_sha256"] == record.allocated_sha256
                assert payload["blocks"] == record.blocks
                assert payload["spilled"] == list(record.spilled)
                assert payload["static_costs"] == dict(record.static_costs)
                assert payload["costs"] == dict(record.costs)
                assert payload["returned"] == record.returned
        for payload, result in zip(resubmitted, direct):
            assert payload["allocated_text"] == result.record.allocated_text

    def test_include_text_returns_allocated_program(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    bare = await client.allocate([{"text": ML_ADD}])
                    full = await client.allocate(
                        [{"text": ML_ADD}], include_text=True
                    )
                    assert "allocated_text" not in bare.data["results"][0]
                    text = full.data["results"][0]["allocated_text"]
                    assert "start=" in text  # textual IR came back

        run(main())

    def test_second_request_hits_shared_cache(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    first = await client.allocate_text(ML_ADD, args={"n": 1})
                    warm = await client.allocate_text(ML_ADD, args={"n": 1})
                    assert first.data["results"][0]["cached"] is False
                    res = warm.data["results"][0]
                    assert res["cached"] is True and res["source"] == "memory"
                    assert (
                        res["allocated_sha256"]
                        == first.data["results"][0]["allocated_sha256"]
                    )
                assert svc.engine.stats.computed == 1
                assert svc.engine.stats.cache_hits == 1

        run(main())

    def test_streaming_yields_one_line_per_function_in_order(self):
        async def main():
            specs = [{"text": ml_source(i), "args": {"n": 4}}
                     for i in range(5)]
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate(specs, stream=True)
                    assert reply.status == 200
                    *lines, done = reply.lines
                    assert len(lines) == 5
                    assert [ln["index"] for ln in lines] == list(range(5))
                    assert [ln["name"] for ln in lines] == [
                        f"k{i}" for i in range(5)
                    ]
                    assert all(ln["ok"] for ln in lines)
                    assert done == {"done": 5, "coalesced": 0}

        run(main())


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_submissions_one_engine_miss(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    tasks = [
                        asyncio.ensure_future(
                            client.allocate_text(ML_ADD, args={"n": 9})
                        )
                        for _ in range(8)
                    ]
                    # all eight admitted: one real entry, seven attached
                    await wait_until(lambda: svc._coalesced_total == 7)
                    assert len(svc._inflight) == 1
                    assert len(svc._pending) == 1
                    svc.resume_dispatch()
                    replies = await asyncio.gather(*tasks)
                    hashes = set()
                    coalesced_flags = []
                    for reply in replies:
                        assert reply.status == 200
                        (res,) = reply.data["results"]
                        assert res["ok"]
                        hashes.add(res["allocated_sha256"])
                        coalesced_flags.append(res["coalesced"])
                    assert len(hashes) == 1
                    assert sorted(coalesced_flags) == [False] + [True] * 7
                # the whole burst cost exactly one engine miss
                assert svc.engine.stats.computed == 1
                assert svc.engine.stats.functions == 1

        run(main())

    def test_only_duplicates_coalesce_across_requests(self):
        async def main():
            f1, f2, f3 = (ml_source(i) for i in (1, 2, 3))
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    first = asyncio.ensure_future(
                        client.allocate([{"text": f1}, {"text": f2}])
                    )
                    await wait_until(lambda: len(svc._inflight) == 2)
                    second = asyncio.ensure_future(
                        client.allocate([{"text": f2}, {"text": f3}])
                    )
                    await wait_until(lambda: len(svc._inflight) == 3)
                    svc.resume_dispatch()
                    reply_a, reply_b = await asyncio.gather(first, second)
                    flags_a = [r["coalesced"]
                               for r in reply_a.data["results"]]
                    flags_b = [r["coalesced"]
                               for r in reply_b.data["results"]]
                    assert flags_a == [False, False]
                    assert flags_b == [True, False]  # f2 rode along
                assert svc.engine.stats.computed == 3  # f1, f2, f3

        run(main())

    def test_duplicates_within_one_request_share_an_entry(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate(
                        [{"text": ML_ADD, "name": "a"},
                         {"text": ML_ADD, "name": "b"}]
                    )
                    first, dup = reply.data["results"]
                    assert (first["coalesced"], dup["coalesced"]) == (
                        False, True,
                    )
                    assert (
                        first["allocated_sha256"] == dup["allocated_sha256"]
                    )
                assert svc.engine.stats.computed == 1

        run(main())


# ----------------------------------------------------------------------
# source memo
# ----------------------------------------------------------------------
def count_calls(monkeypatch, targets) -> collections.Counter:
    """Wrap ``(module, attribute)`` pairs with call counters, at the
    names their callers look them up under."""
    calls: collections.Counter = collections.Counter()

    def wrap(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{attr}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module, attr in targets:
        wrap(module, attr)
    return calls


class TestSourceMemo:
    def test_memo_hit_parses_compiles_validates_and_formats_nothing(
        self, monkeypatch
    ):
        ir_text = format_function(load_function_source(ml_source(7)))
        specs = [
            {"text": ML_ADD, "args": {"n": 1}},
            {"text": ir_text, "args": {"n": 2}},
        ]
        calls = count_calls(monkeypatch, [
            (pipeline_module, "parse_function"),
            (minilang_module, "compile_source"),
            (pipeline_module, "validate_function"),
            (engine_module, "format_function"),
            (engine_module, "parse_function"),
            (worker_module, "format_function"),
        ])

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    first = await client.allocate(specs)
                    assert first.status == 200
                    # every wrapper sits where the code looks it up
                    assert sorted(calls) == sorted([
                        "repro.pipeline.parse_function",
                        "repro.minilang.compile_source",
                        "repro.pipeline.validate_function",
                        "repro.batch.engine.format_function",
                        "repro.batch.engine.parse_function",
                        "repro.batch.worker.format_function",
                    ])
                    calls.clear()
                    second = await client.allocate(specs)
                    assert second.status == 200
                    assert dict(calls) == {}
                    assert memo_counters(svc)["hits"] == len(specs)
                    assert [r["cached"] for r in second.data["results"]] == [
                        True, True,
                    ]

        run(main())

    def test_failed_parses_are_not_memoized(self):
        specs = [
            {"text": "func broken("},
            {"text": "func f() start=e\nnonsense"},
            # a lone surrogate: valid JSON, but not encodable as UTF-8
            {"text": "func f(n) { return n; } \ud800"},
        ]

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    first = await client.allocate(specs)
                    second = await client.allocate(specs)
                    assert first.status == second.status == 400
                    assert first.data["errors"] == second.data["errors"]
                    assert [e["error_class"] for e in first.data["errors"]] == [
                        "parse", "parse", "parse",
                    ]
                    assert "unexpected character" in (
                        first.data["errors"][2]["message"]
                    )
                    assert memo_counters(svc) == {
                        "hits": 0, "misses": 6, "entries": 0, "bytes": 0,
                    }

        run(main())

    def test_request_fields_stay_per_request(self):
        """The memo answers for the text alone: name, args and arrays
        are read from each request."""
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    named = [
                        await client.allocate(
                            [{"text": ML_ADD, "args": {"n": 1}, **extra}]
                        )
                        for extra in ({"name": "a"}, {"name": "b"}, {})
                    ]
                    assert [r.data["results"][0]["name"] for r in named] == [
                        "a", "b", "f",
                    ]
                    assert [
                        r.data["results"][0]["cached"] for r in named
                    ] == [False, True, True]
                    # different simulator inputs: a different cache key
                    other = await client.allocate(
                        [{"text": ML_ADD, "args": {"n": 4}}]
                    )
                    (res,) = other.data["results"]
                    assert (res["cached"], res["returned"]) == (False, [6])
                    assert svc.engine.stats.computed == 2
                    # a memoized text does not skip the schema checks
                    bad = await client.allocate(
                        [{"text": ML_ADD, "args": {"n": "three"}}]
                    )
                    assert bad.status == 400
                    assert bad.data["errors"] == [{
                        "index": 0, "stage": "schema",
                        "error_class": "bad_request",
                        "message": '"args" must map names to integers',
                    }]
                    memo = memo_counters(svc)
                    assert (memo["hits"], memo["misses"]) == (3, 1)
                    assert memo["entries"] == 1

        run(main())

    def test_lang_is_part_of_the_key(self):
        ir_text = format_function(load_function_source(ML_ADD))

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    replies = [
                        await client.allocate([{"text": ir_text, **lang}])
                        for lang in ({"lang": "ir"}, {}, {"lang": "ir"})
                    ]
                    assert [r.status for r in replies] == [200] * 3
                    assert len({
                        r.data["results"][0]["allocated_sha256"]
                        for r in replies
                    }) == 1
                    memo = memo_counters(svc)
                    assert (memo["hits"], memo["misses"]) == (1, 2)
                    assert memo["entries"] == 2

        run(main())

    def test_bound_evicts_least_recently_used(self, monkeypatch):
        a, b, c = (ml_source(i) for i in (1, 2, 3))
        sizes = [
            server_module._retained_bytes(
                canonical_source(load_function_source(text))
            )
            for text in (a, b, c)
        ]
        assert 3 * min(sizes) > 2 * max(sizes)  # two fit, three do not
        monkeypatch.setattr(server_module, "SOURCE_MEMO_BYTES", 2 * max(sizes))
        calls = count_calls(
            monkeypatch, [(server_module, "load_function_source")]
        )

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    parsed = []
                    for text in (a, b, a, c, a, b):
                        before = sum(calls.values())
                        reply = await client.allocate([{"text": text}])
                        assert reply.status == 200
                        parsed.append(sum(calls.values()) - before)
                    # a was used after b, so c evicted b; b's resubmission
                    # is parsed again and evicts c
                    assert parsed == [1, 1, 0, 1, 0, 1]
                    memo = memo_counters(svc)
                    assert memo["entries"] == 2
                    assert memo["bytes"] <= 2 * max(sizes)

        run(main())


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_returns_deterministic_429(self):
        async def main():
            config = service_config(queue_limit=2, retry_after_s=7)
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    filler = asyncio.ensure_future(client.allocate(
                        [{"text": ml_source(1)}, {"text": ml_source(2)}]
                    ))
                    await wait_until(lambda: len(svc._pending) == 2)
                    rejected = await client.allocate(
                        [{"text": ml_source(3)}]
                    )
                    assert rejected.status == 429
                    assert rejected.data["error_class"] == "overloaded"
                    assert rejected.data["queue_limit"] == 2
                    assert rejected.headers["retry-after"] == "7"
                    svc.resume_dispatch()
                    assert (await filler).status == 200
                    # capacity freed: the same submission now succeeds
                    retried = await client.allocate(
                        [{"text": ml_source(3)}]
                    )
                    assert retried.status == 200
                assert svc._rejected_total == 1

        run(main())

    def test_admission_is_all_or_nothing(self):
        async def main():
            config = service_config(queue_limit=3)
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    filler = asyncio.ensure_future(client.allocate(
                        [{"text": ml_source(1)}, {"text": ml_source(2)}]
                    ))
                    await wait_until(lambda: len(svc._pending) == 2)
                    # two new functions, one free slot: rejected whole,
                    # nothing admitted, cache not half-warmed
                    rejected = await client.allocate(
                        [{"text": ml_source(3)}, {"text": ml_source(4)}]
                    )
                    assert rejected.status == 429
                    assert len(svc._pending) == 2
                    assert len(svc._inflight) == 2
                    # one new function still fits
                    fits = asyncio.ensure_future(
                        client.allocate([{"text": ml_source(3)}])
                    )
                    await wait_until(lambda: len(svc._pending) == 3)
                    svc.resume_dispatch()
                    replies = await asyncio.gather(filler, fits)
                    assert [r.status for r in replies] == [200, 200]

        run(main())

    def test_coalesced_work_needs_no_queue_slot(self):
        async def main():
            config = service_config(queue_limit=1)
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    first = asyncio.ensure_future(
                        client.allocate([{"text": ML_ADD}])
                    )
                    await wait_until(lambda: len(svc._pending) == 1)
                    # queue is full, but an identical submission attaches
                    # to the in-flight entry instead of being rejected
                    rider = asyncio.ensure_future(
                        client.allocate([{"text": ML_ADD}])
                    )
                    await wait_until(lambda: svc._coalesced_total == 1)
                    svc.resume_dispatch()
                    reply_a, reply_b = await asyncio.gather(first, rider)
                    assert reply_a.status == reply_b.status == 200
                    assert reply_b.data["results"][0]["coalesced"] is True
                assert svc._rejected_total == 0

        run(main())


# ----------------------------------------------------------------------
# malformed input: classified 400s, never 500s
# ----------------------------------------------------------------------
class TestBadRequests:
    def _serve(self, **kwargs):
        return AllocationService(service_config(**kwargs))

    def test_malformed_bodies_are_classified_400s(self):
        bad_bodies = [
            b"{nope",                                # not JSON
            b"[]",                                   # not an object
            b'{"functions": {}}',                    # wrong container
            b'{"functions": []}',                    # empty module
            b'{"functions": [42]}',                  # not a spec
            b'{"functions": [{"name": "f"}]}',       # missing text
            b'{"functions": [{"text": 7}]}',         # text not a string
        ]

        async def main():
            async with self._serve() as svc:
                for body in bad_bodies:
                    response = await raw_roundtrip(svc.port, request_bytes(
                        "POST", "/allocate", "t", body
                    ))
                    payload = json.loads(response.body)
                    assert response.status == 400, body
                    assert payload["error_class"] == "bad_request", body
                # nothing malformed ever reached the engine
                assert svc.engine.stats.functions == 0

        run(main())

    def test_unparseable_functions_report_taxonomy_classes(self):
        async def main():
            async with self._serve() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate([
                        {"text": "func broken("},          # MiniLang error
                        {"text": "func f() start=e\nnonsense"},  # IR error
                        {"text": ML_ADD, "args": {"n": "three"}},
                        {"text": ML_ADD, "lang": "klingon"},
                    ])
                    assert reply.status == 400
                    errors = reply.data["errors"]
                    assert [e["index"] for e in errors] == [0, 1, 2, 3]
                    assert errors[0]["error_class"] == "parse"
                    assert errors[1]["error_class"] == "parse"
                    assert errors[2]["error_class"] == "bad_request"
                    assert errors[3]["error_class"] == "bad_request"

        run(main())

    def test_one_bad_function_rejects_whole_request_without_allocating(self):
        async def main():
            async with self._serve() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate([
                        {"text": ML_ADD},         # fine on its own
                        {"text": "func oops {"},  # broken
                    ])
                    assert reply.status == 400
                    assert len(reply.data["errors"]) == 1
                # the good function was NOT allocated: a 400 is free
                assert svc.engine.stats.functions == 0
                assert svc.engine.stats.computed == 0

        run(main())

    def test_routing_and_protocol_errors(self):
        async def main():
            async with self._serve(max_body_bytes=256) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    lost = await client.request("GET", "/nope")
                    assert (lost.status, lost.data["error_class"]) == (
                        404, "not_found",
                    )
                    wrong = await client.request("GET", "/allocate")
                    assert (wrong.status, wrong.data["error_class"]) == (
                        405, "method_not_allowed",
                    )
                    wrong2 = await client.request("POST", "/metrics")
                    assert wrong2.status == 405
                big = await raw_roundtrip(svc.port, request_bytes(
                    "POST", "/allocate", "t", b"x" * 1000
                ))
                assert big.status == 413
                assert json.loads(big.body)["error_class"] == "protocol"
                old = await raw_roundtrip(
                    svc.port, b"GET /healthz HTTP/2\r\n\r\n"
                )
                assert old.status == 505

        run(main())

    def test_over_long_lines_get_a_400_response(self):
        """Lines past asyncio's default 64 KiB reader limit are still
        answered: connections read with ``READ_LIMIT``."""
        long = b"a" * (100 * 1024)

        async def main():
            async with self._serve() as svc:
                for raw, message in (
                    (b"GET /" + long + b" HTTP/1.1\r\n",
                     "request line too long"),
                    (b"GET /healthz HTTP/1.1\r\nX-Big: " + long + b"\r\n",
                     "header line too long"),
                ):
                    response = await raw_roundtrip(svc.port, raw)
                    assert response.status == 400
                    assert json.loads(response.body) == {
                        "error_class": "protocol", "message": message,
                    }

        run(main())

    def test_transfer_encoding_request_gets_one_411(self):
        """A chunked body is refused, not read as empty: its bytes must
        never be parsed as a second request on the connection."""
        body = json.dumps({"functions": [{"text": ML_ADD}]}).encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)

        async def main():
            async with self._serve() as svc:
                for headers in (
                    b"Transfer-Encoding: chunked\r\n",
                    b"Transfer-Encoding: chunked\r\n"
                    b"Content-Length: %d\r\n" % len(chunked),
                ):
                    response, rest = await raw_roundtrip(
                        svc.port,
                        b"POST /allocate HTTP/1.1\r\nHost: t\r\n"
                        + headers + b"\r\n" + chunked,
                        rest=True,
                    )
                    assert response.status == 411
                    assert response.headers["connection"] == "close"
                    assert json.loads(response.body)["error_class"] == (
                        "protocol"
                    )
                    assert rest == b""  # exactly one response
                assert svc.engine.stats.functions == 0

        run(main())

    def test_too_many_functions_is_rejected_up_front(self):
        async def main():
            async with self._serve(max_functions=2) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate(
                        [{"text": ml_source(i)} for i in range(3)]
                    )
                    assert reply.status == 400
                    assert "max_functions" in reply.data["message"]
                assert svc.engine.stats.functions == 0

        run(main())

    def test_error_classes_are_the_documented_set(self):
        """Every error class a test above observed is in the public
        table SERVICE.md documents."""
        for error_class in (
            "bad_request", "unadmittable", "overloaded", "draining",
            "shutdown", "not_found", "method_not_allowed", "protocol",
            "internal",
        ):
            assert error_class in SERVICE_ERROR_CLASSES


def _oversized_source(width: int = 150) -> str:
    """A MiniLang function whose estimate_cost is far over any small
    admission limit (width variables all live into one reduction)."""
    decls = " ".join(f"var v{i} = {i};" for i in range(width))
    uses = " + ".join(f"v{i}" for i in range(width))
    return f"func big(n) {{ {decls} return {uses}; }}"


class TestCostAdmission:
    def test_over_limit_function_is_413_unadmittable(self):
        async def main():
            config = service_config(batch_kwargs={"admission_limit": 500})
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    ok = await client.allocate_text(
                        ML_ADD, name="small", args={"n": 1}
                    )
                    assert ok.status == 200  # small work still admitted
                    reply = await client.allocate(
                        [{"text": _oversized_source(), "name": "big"}]
                    )
                    assert reply.status == 413
                    assert reply.data["error_class"] == "unadmittable"
                    assert reply.data["admission_limit"] == 500
                    (over,) = reply.data["functions"]
                    assert over["name"] == "big" and over["cost"] > 500
                    # All-or-nothing: one oversized function rejects the
                    # whole request, and the small one never half-warms
                    # the cache under a new name.
                    mixed = await client.allocate([
                        {"text": ML_ADD, "name": "small2"},
                        {"text": _oversized_source(), "name": "big2"},
                    ])
                    assert mixed.status == 413
                    (over2,) = mixed.data["functions"]
                    assert over2["name"] == "big2" and over2["index"] == 1
                    metrics = await client.metrics()
                    assert metrics.data["service"]["unadmitted"] == 2

        run(main())

    def test_rejection_is_deterministic_across_resubmission(self):
        """The resubmission is decoded from the source memo, and its
        carried cost estimate yields a byte-identical 413."""
        body = json.dumps(
            {"functions": [{"text": _oversized_source(), "name": "big"}]}
        ).encode()

        async def main():
            config = service_config(batch_kwargs={"admission_limit": 500})
            async with AllocationService(config) as svc:
                replies = [
                    await raw_roundtrip(svc.port, request_bytes(
                        "POST", "/allocate", "t", body
                    ))
                    for _ in range(2)
                ]
                assert [r.status for r in replies] == [413, 413]
                assert replies[0].body == replies[1].body
                assert memo_counters(svc)["hits"] == 1

        run(main())


# ----------------------------------------------------------------------
# /metrics and /healthz
# ----------------------------------------------------------------------
class TestObservability:
    def test_metrics_projects_engine_stats_and_latency(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    await client.allocate([{"text": ML_ADD}])
                    await client.allocate([{"text": ML_ADD}])  # warm
                    reply = await client.metrics()
                    assert reply.status == 200
                    engine = reply.data["engine"]
                    assert engine["functions"] == 2
                    assert engine["computed"] == 1
                    assert engine["hits"] == 1
                    service = reply.data["service"]
                    assert service["requests"]["allocate"] == 2
                    assert service["responses"]["200"] >= 2
                    assert service["functions"] == 2
                    assert service["queue"]["limit"] == 1024
                    hist = service["latency_ms"]["allocate"]
                    assert hist["count"] == 2
                    assert 0 < hist["p50_ms"] <= hist["p99_ms"]

        run(main())

    def test_metrics_reports_source_memo(self):
        specs = [{"text": ml_source(i)} for i in range(3)]

        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    await client.allocate(specs)
                    before = (await client.metrics()).data["service"]
                    await client.allocate(specs)
                    after = (await client.metrics()).data["service"]
                    assert sorted(after["sources"]) == [
                        "bytes", "entries", "hits", "misses",
                    ]
                    assert before["sources"]["hits"] == 0
                    assert after["sources"]["hits"] == len(specs)
                    assert after["sources"]["misses"] == len(specs)
                    assert after["sources"]["entries"] == len(specs)
                    assert after["sources"]["bytes"] > 0

        run(main())

    def test_healthz_ok_inline(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.healthz()
                    assert reply.status == 200
                    assert reply.data["status"] == "ok"
                    assert reply.data["pool"]["running"] is False
                    assert reply.data["config"]["queue_limit"] == 1024
                    assert reply.data["degradation"]["failures"] == 0

        run(main())

    def test_healthz_observes_injected_pool_kill(self, monkeypatch):
        """The PR-5 fault plan kills a pooled worker mid-task; the
        engine restarts the pool and retries, and /healthz surfaces the
        restart while the allocation still succeeds."""
        monkeypatch.setenv(ENV_VAR, json.dumps([
            {"task": 0, "attempt": 0, "action": "kill"},
        ]))

        async def main():
            config = service_config(batch_kwargs={
                "batch_workers": 1, "retry_backoff_s": 0.0,
            })
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    reply = await client.allocate(
                        [{"text": ml_source(1)}, {"text": ml_source(2)}]
                    )
                    assert reply.status == 200
                    assert all(r["ok"] for r in reply.data["results"])
                    health = await client.healthz()
                    assert health.data["status"] == "ok"  # recovered
                    degradation = health.data["degradation"]
                    assert degradation["pool_restarts"] == 1
                    assert degradation["retries"] >= 1
                    assert health.data["pool"]["restarts"] == 1

        run(main())

    def test_healthz_flips_to_degraded_when_worker_dies(self):
        """Kill the (idle) pool worker directly: /healthz reports
        degraded; the next allocation restarts the pool and health
        returns to ok."""
        async def main():
            config = service_config(batch_kwargs={
                "batch_workers": 1, "retry_backoff_s": 0.0,
            })
            async with AllocationService(config) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    await client.allocate([{"text": ml_source(1)}])
                    for process in list(
                        svc.engine._pool._processes.values()
                    ):
                        process.terminate()
                        process.join()
                    degraded = await client.healthz()
                    assert degraded.data["status"] == "degraded"
                    assert degraded.data["pool"]["alive"] == 0
                    # next miss trips BrokenProcessPool -> pool restart
                    reply = await client.allocate([{"text": ml_source(2)}])
                    assert reply.status == 200
                    assert reply.data["results"][0]["ok"]
                    recovered = await client.healthz()
                    assert recovered.data["status"] == "ok"
                    assert recovered.data["pool"]["restarts"] >= 1

        run(main())


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_drain_answers_inflight_and_rejects_new(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                client = ServiceClient("127.0.0.1", svc.port)
                # hold the drain open under our control
                release = asyncio.Event()
                original_drain = svc._drain_work

                async def gated_drain():
                    await release.wait()
                    await original_drain()

                svc._drain_work = gated_drain
                svc.pause_dispatch()
                inflight = asyncio.ensure_future(
                    client.allocate([{"text": ML_ADD}])
                )
                await wait_until(lambda: len(svc._inflight) == 1)
                shutdown = asyncio.ensure_future(svc.shutdown())
                await wait_until(lambda: svc._draining)
                # already-accepted work is answered (shutdown re-opened
                # the dispatch gate), even while the drain is held open
                reply = await inflight
                assert reply.status == 200
                assert reply.data["results"][0]["ok"]
                # but new submissions are turned away as draining
                rejected = await client.allocate([{"text": ml_source(9)}])
                assert rejected.status == 503
                assert rejected.data["error_class"] == "draining"
                assert rejected.headers["retry-after"] == "1"
                health = await client.healthz()
                assert health.data["status"] == "draining"
                await client.close()
                release.set()
                await shutdown

        run(main())

    def test_shutdown_drops_no_accepted_responses(self):
        async def main():
            async with AllocationService(service_config()) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    svc.pause_dispatch()
                    tasks = [
                        asyncio.ensure_future(
                            client.allocate([{"text": ml_source(i)}])
                        )
                        for i in range(10)
                    ]
                    await wait_until(lambda: len(svc._inflight) == 10)
                    # shutdown races the responses -- every accepted
                    # request must still get a real 200
                    shutdown = asyncio.ensure_future(svc.shutdown())
                    replies = await asyncio.gather(*tasks)
                    assert [r.status for r in replies] == [200] * 10
                    assert all(
                        r.data["results"][0]["ok"] for r in replies
                    )
                    await shutdown
                assert svc.engine.stats.computed == 10

        run(main())

    def test_drain_timeout_fails_leftovers_with_shutdown_class(self):
        class StuckGate(asyncio.Event):
            """set() is a no-op so shutdown cannot re-open dispatch;
            force() is the real set, used to let the dispatcher exit."""

            def set(self) -> None:
                pass

            def force(self) -> None:
                super().set()

        async def main():
            config = service_config(drain_timeout_s=0.2)
            async with AllocationService(config) as svc:
                svc._dispatch_gate = StuckGate()
                client = ServiceClient("127.0.0.1", svc.port)
                stuck = asyncio.ensure_future(
                    client.allocate([{"text": ML_ADD}])
                )
                await wait_until(lambda: len(svc._inflight) == 1)
                shutdown = asyncio.ensure_future(svc.shutdown())
                # past drain_timeout_s the future is failed, the request
                # answered with a structured shutdown error, not dropped
                reply = await stuck
                assert reply.status == 200
                (res,) = reply.data["results"]
                assert res["ok"] is False
                assert res["error"]["error_class"] == "shutdown"
                await client.close()
                svc._dispatch_gate.force()
                await shutdown

        run(main())

    def test_shutdown_is_idempotent(self):
        async def main():
            svc = AllocationService(service_config())
            await svc.start()
            await asyncio.gather(svc.shutdown(), svc.shutdown())
            await svc.shutdown()

        run(main())


# ----------------------------------------------------------------------
# the CLI front door
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_serve_starts_answers_and_drains_on_sigterm(self):
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listening line, got {line!r}"
            port = int(match.group(1))

            async def poke():
                async with ServiceClient("127.0.0.1", port) as client:
                    reply = await client.allocate_text(
                        ML_ADD, args={"n": 5}
                    )
                    assert reply.status == 200
                    assert reply.data["results"][0]["returned"] == [7]
                    health = await client.healthz()
                    assert health.data["status"] == "ok"

            run(poke())
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "draining" in stdout and "service stopped" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
