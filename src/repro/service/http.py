"""Minimal HTTP/1.1 over ``asyncio`` streams.

The allocation service speaks a deliberately small slice of HTTP --
request line + headers + ``Content-Length`` bodies in, fixed-length or
chunked responses out, keep-alive by default -- implemented directly on
``asyncio.StreamReader``/``StreamWriter``.  No framework, no thread-per-
connection ``http.server``: the service's concurrency model is one event
loop multiplexing thousands of sockets while a single engine thread does
the CPU work, and the protocol layer must not get in the way of that.

Both sides live here so the server, the client (:mod:`.client`), the
tests and the load bench all parse bytes with the same code:

* :func:`read_request` / :func:`response_bytes` -- server side;
* :func:`request_bytes` / :func:`read_response` -- client side (handles
  ``Content-Length`` and ``chunked`` bodies, which is how streaming
  ``/allocate`` responses arrive);
* :class:`ChunkedWriter` -- incremental chunked response bodies.

Protocol violations raise :class:`ProtocolError` carrying the HTTP
status the server should answer with (400 malformed, 411 a
``Transfer-Encoding`` request body, 413 too large, 505 bad version); the
server maps it to a structured JSON error body and closes the
connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import asyncio

#: Upper bounds that keep one misbehaving client from holding the loop.
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINE = 8192
MAX_HEADERS = 128

#: StreamReader limit for the server's connections (must exceed the line
#: bounds, so that an over-long line is answered with a 400 instead of
#: overrunning the reader's buffer).
READ_LIMIT = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class ProtocolError(Exception):
    """A malformed or oversized request; ``status`` is the HTTP answer.

    ``discard`` is how many request-body bytes are still unread on the
    connection: an over-limit body (413) fails before the body is read,
    and the server drains (a bounded amount of) it before responding so
    the client reliably sees the error instead of a connection reset.
    """

    def __init__(self, status: int, message: str, discard: int = 0) -> None:
        super().__init__(message)
        self.status = status
        self.discard = discard


@dataclass
class Request:
    """One parsed request.  ``query`` keeps the last value per key."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass
class Response:
    """One parsed response (client side)."""

    status: int
    headers: Dict[str, str]
    body: bytes
    chunks: Tuple[bytes, ...] = field(default_factory=tuple)

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(
    reader: asyncio.StreamReader, limit: int, what: str = "header line"
) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:
        # The line overran the reader's own buffer limit.
        raise ProtocolError(400, f"{what} too long")
    if len(line) > limit:
        raise ProtocolError(400, f"{what} too long")
    return line


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, MAX_HEADER_LINE)
        if line in (b"\r\n", b"\n", b""):
            return headers
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(400, "too many headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise ProtocolError(400, "undecodable header")
        if not _:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()


async def read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Optional[Request]:
    """Parse one request off *reader*; ``None`` on a clean EOF (the
    client closed a keep-alive connection between requests).

    Bodies are read by ``Content-Length`` only.  A request that names a
    ``Transfer-Encoding`` fails with 411: its body cannot be delimited,
    and reading it as empty would parse its bytes as the next request.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(505, f"unsupported version {version}")
    headers = await _read_headers(reader)
    if "transfer-encoding" in headers:
        raise ProtocolError(
            411, "Transfer-Encoding request bodies are not supported; "
            "send Content-Length",
        )
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length {length_text!r}")
    if length < 0:
        raise ProtocolError(400, "negative Content-Length")
    if length > max_body:
        raise ProtocolError(
            413, f"body of {length} bytes exceeds limit of {max_body}",
            discard=length,
        )
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def _header_block(
    status: int,
    headers: Mapping[str, str],
    keep_alive: bool,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    lines.append(
        "Connection: " + ("keep-alive" if keep_alive else "close")
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """A complete fixed-length response."""
    headers: Dict[str, str] = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
    }
    if extra_headers:
        headers.update(extra_headers)
    return _header_block(status, headers, keep_alive) + body


class ChunkedWriter:
    """Incremental ``Transfer-Encoding: chunked`` response body.

    Used by the streaming ``/allocate`` path: one chunk per per-function
    result line, written (and drained) as each allocation completes, so a
    client sees results before the whole module is done.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        extra_headers: Optional[Mapping[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        self._writer = writer
        headers: Dict[str, str] = {
            "Content-Type": content_type,
            "Transfer-Encoding": "chunked",
        }
        if extra_headers:
            headers.update(extra_headers)
        writer.write(_header_block(status, headers, keep_alive))

    async def write_chunk(self, data: bytes) -> None:
        if not data:
            return
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        self._writer.write(data)
        self._writer.write(b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
def request_bytes(
    method: str,
    path: str,
    host: str,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """A complete request (always offers keep-alive)."""
    headers: Dict[str, str] = {
        "Host": host,
        "Content-Length": str(len(body)),
    }
    if body:
        headers["Content-Type"] = content_type
    if extra_headers:
        headers.update(extra_headers)
    lines = [f"{method} {path} HTTP/1.1"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_chunked(reader: asyncio.StreamReader) -> Tuple[bytes, ...]:
    chunks = []
    while True:
        size_line = await _read_line(reader, MAX_HEADER_LINE)
        if not size_line:
            raise ProtocolError(400, "truncated chunked body")
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError:
            raise ProtocolError(400, f"bad chunk size {size_line!r}")
        if size == 0:
            await _read_line(reader, MAX_HEADER_LINE)  # trailing CRLF
            return tuple(chunks)
        chunks.append(await reader.readexactly(size))
        await reader.readexactly(2)  # chunk CRLF


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Parse one response off *reader* (fixed-length or chunked).

    For chunked responses ``chunks`` preserves the server's chunk
    boundaries (the streaming protocol is one NDJSON line per chunk) and
    ``body`` is their concatenation.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE, "status line")
    if not line:
        raise ProtocolError(400, "connection closed before status line")
    parts = line.decode("latin-1").strip().split(maxsplit=2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(400, f"malformed status line {line!r}")
    status = int(parts[1])
    headers = await _read_headers(reader)
    if headers.get("transfer-encoding", "").lower() == "chunked":
        chunks = await _read_chunked(reader)
        return Response(status, headers, b"".join(chunks), chunks)
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return Response(status, headers, body)
