"""Run ``repro serve`` in this process for the serve_mixed workload.

    python3 perfbench/serve_child.py --report PATH --trace 0|1 -- <serve args>

With ``--trace 1`` the engine and service layers are wrapped (see
:mod:`spans`) before the service starts.  Either way the service
samples the host's speed (:mod:`hostspeed`) while idle.  When the
service stops (SIGTERM drains it), a JSON report is written to PATH: the
process's peak RSS, its fastest reference sample and, when traced, its
spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import spans  # noqa: E402


class ServerTrace:
    """Spans of one service process, plus what ties engine batches to the
    requests whose functions they carry."""

    def __init__(self) -> None:
        self.recorder = spans.SpanRecorder()
        #: id(workload) -> request spans waiting on it.
        self.requesters = {}
        #: (start, functions) of every engine batch.
        self.batch_sizes = []

    def install(self) -> None:
        rec = self.recorder
        rec.wrap_all(spans.ENGINE_LAYERS)
        rec.wrap_all(spans.SERVER_LAYERS)
        rec.wrap("repro.service.server", "read_request", "http.read",
                 wrapper=self._read)
        rec.wrap("repro.service.server", "AllocationService._admit",
                 "server.admit", wrapper=self._admit)
        rec.wrap("repro.service.server", "BatchEngine.allocate_module",
                 "server.engine", wrapper=self._engine)

    @staticmethod
    def _read(rec, original, layer):
        async def read_request(reader, max_body):
            # Start the span once the request's first bytes are buffered:
            # idle keep-alive time between requests belongs to no layer.
            # (StreamReader has no public peek, hence the private wait.)
            if not reader._buffer and not reader.at_eof() and (
                reader.exception() is None
            ):
                await reader._wait_for_data("read_request")
            span, token = rec.open(layer)
            try:
                return await original(reader, max_body)
            finally:
                rec.close(span, token)

        return read_request

    def _admit(self, rec, original, layer):
        def _admit(service, parsed):
            span, token = rec.open(layer)
            try:
                slots = original(service, parsed)
            finally:
                rec.close(span, token)
            for _name, entry, _coalesced in slots:
                self.requesters.setdefault(id(entry.workload), []).append(
                    span[1]
                )
            return slots

        return _admit

    def _engine(self, rec, original, layer):
        def allocate_module(engine, workloads):
            span, token = rec.open(layer)
            try:
                return original(engine, workloads)
            finally:
                rec.close(span, token)
                self.batch_sizes.append((span[3], len(workloads)))
                linked = set()
                for workload in workloads:
                    linked.update(self.requesters.pop(id(workload), ()))
                linked.discard(None)
                rec.links[span[0]] = sorted(linked)

        return allocate_module


def sample_host_when_idle(host: hostspeed.HostSpeed) -> None:
    """Sample the reference task after every tenth answered request, if
    no allocation is queued or running: the load generator spaces its
    requests far enough apart that the sample delays none of them."""
    from repro.service.server import AllocationService

    original = AllocationService._dispatch_request
    answered = 0

    async def _dispatch_request(service, *args, **kwargs):
        nonlocal answered
        try:
            return await original(service, *args, **kwargs)
        finally:
            answered += 1
            if answered % 10 == 0 and not (
                service._pending or service._inflight
            ):
                host.sample()

    AllocationService._dispatch_request = _dispatch_request


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    trace = ServerTrace() if args.trace else None
    if trace is not None:
        trace.install()
    host = hostspeed.HostSpeed()
    sample_host_when_idle(host)
    from repro.cli import main as repro_main

    try:
        code = repro_main(["serve", *serve_args])
    finally:
        report = {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "host_best_s": host.best_s,
            "host_samples": host.samples,
        }
        if trace is not None:
            report["spans"] = trace.recorder.spans
            report["links"] = trace.recorder.links
            report["batch_sizes"] = trace.batch_sizes
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
