"""HTTP/1.1 framing for the serving daemon, its client and its supervisor.

The daemon reads a request with :func:`read_request` and answers with
:func:`response`; :class:`~repro.serve.client.ServeClient` and the
supervisor write a request with :func:`request` and read the answer with
:func:`read_response`.  One subset of HTTP, read and written here only:

* HTTP/1.1 and HTTP/1.0.  A connection persists by its version's
  default (1.1: unless ``Connection: close``; 1.0: only with
  ``Connection: keep-alive``).
* A request body is framed by ``Content-Length`` alone.  A request with
  a ``Transfer-Encoding`` is refused (411): its chunks, unread, would be
  taken for the next request on the connection.
* A line is at most :data:`MAX_LINE` bytes and a message carries at most
  :data:`MAX_HEADERS` header fields, the limits the stdlib's HTTP server
  enforced.
* A response is one buffer, so it leaves in one write: with
  ``TCP_NODELAY`` on, a kept-alive exchange never waits out the peer's
  delayed ACK.
* A request that breaks these rules raises :class:`WireError`, which
  carries the status and the JSON ``{"error": ...}`` body that answer
  it (:func:`refusal`).  The server closes the connection after such an
  answer, since it cannot tell where the next request starts.
"""

from __future__ import annotations

import json
import time
from http import HTTPStatus
from typing import BinaryIO, Callable, NamedTuple, Optional

__all__ = [
    "MAX_HEADERS",
    "MAX_LINE",
    "Request",
    "Response",
    "WireError",
    "read_request",
    "read_response",
    "refusal",
    "request",
    "response",
]

#: Longest request, status or header line read, in bytes.
MAX_LINE = 65536
#: Most header fields one message may carry.
MAX_HEADERS = 100

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
#: The last ``Date`` value built, with the second it names.
_date = (-1, "")


class WireError(Exception):
    """A message that breaks the framing rules.

    ``status`` and ``payload`` are the answer a server gives a request
    that raised it; a client reading a response treats it as a torn
    exchange.
    """

    def __init__(self, status: int, error: str, **extra) -> None:
        super().__init__(extra.get("detail", error))
        self.status = status
        self.payload = {"error": error, **extra}


class Request(NamedTuple):
    method: str
    target: str
    version: str
    #: Field names lower-cased; a repeated field's values joined by ", ".
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


class Response(NamedTuple):
    status: int
    body: bytes
    keep_alive: bool


# -- reading -------------------------------------------------------------


def _read_headers(rfile: BinaryIO) -> dict[str, str]:
    """The header block up to its empty line."""
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise WireError(431, "header_line_too_long", max_bytes=MAX_LINE)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise WireError(
                400, "truncated_head", detail="end of stream inside the headers"
            )
        count += 1
        if count > MAX_HEADERS:
            raise WireError(431, "too_many_headers", max_headers=MAX_HEADERS)
        text = line.decode("latin-1")
        name, colon, value = text.partition(":")
        # Whitespace before the colon, or a folded continuation line, is
        # refused (RFC 9112 §5.1): proxies disagree on what it means.
        if not colon or not name or name != name.strip():
            raise WireError(
                400, "bad_header", detail=f"not a header field: {text[:64]!r}"
            )
        name = name.lower()
        value = value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    value = headers.get("connection")
    if not value:
        return version == "HTTP/1.1"
    tokens = {token.strip() for token in value.lower().split(",")}
    if version == "HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


def read_request(
    rfile: BinaryIO, max_body: int, wfile: Optional[BinaryIO] = None
) -> Optional[Request]:
    """Read one request; None at end of stream before its first byte.

    Args:
        rfile: the connection's buffered reader.
        max_body: largest body read; a longer one is refused (413)
            before any of it is read.
        wfile: where to send ``100 Continue`` to a client that waits for
            it before sending its body (curl does, for large bodies).

    Raises:
        WireError: the request breaks the framing rules.
        OSError: the socket timed out or failed.
    """
    line = rfile.readline(MAX_LINE + 1)
    if line in (b"\r\n", b"\n"):
        # A stray empty line before a request is ignored (RFC 9112 §2.2).
        line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise WireError(414, "request_line_too_long", max_bytes=MAX_LINE)
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise WireError(
            400,
            "bad_request_line",
            detail=f"expected 'METHOD target HTTP/1.1', got {line[:64]!r}",
        )
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise WireError(
            505,
            "http_version_not_supported",
            detail=f"{version[:16]} is not served; send HTTP/1.1 or HTTP/1.0",
        )
    headers = _read_headers(rfile)
    if "transfer-encoding" in headers:
        raise WireError(
            411,
            "length_required",
            detail="a request body is framed by Content-Length; "
            "Transfer-Encoding is not accepted",
        )
    body = b""
    length = headers.get("content-length")
    if length is not None:
        size = _content_length(length, max_body)
        if (
            size
            and wfile is not None
            and version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = rfile.read(size)
        if len(body) < size:
            raise WireError(
                400,
                "truncated_body",
                detail=f"end of stream after {len(body)} of {size} body bytes",
            )
    return Request(
        method, target, version, headers, body, _keep_alive(version, headers)
    )


def _content_length(value: str, max_body: int) -> int:
    if not (value.isascii() and value.isdigit()):
        raise WireError(
            400,
            "bad_content_length",
            detail=f"Content-Length must be a byte count, not {value[:32]!r}",
        )
    # Compare lengths first: int() refuses a string of 4 300+ digits.
    if len(value.lstrip("0")) > len(str(max_body)) or int(value) > max_body:
        raise WireError(413, "body_too_large", max_bytes=max_body)
    return int(value)


def read_response(
    rfile: BinaryIO, on_head: Optional[Callable[[], object]] = None
) -> Response:
    """Read one response: a body framed by ``Content-Length``, else by
    the end of the stream (which also ends the connection).

    ``on_head`` runs after the headers and before the body.

    Raises:
        ConnectionResetError: the stream ended before the response's
            first byte — the peer closed the connection and never
            answered the request.
        ConnectionError: the socket failed before the status line.
        WireError: anything else went wrong: a malformed response, or
            the stream failing or ending inside it.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        raise ConnectionResetError("connection closed before a response")
    try:
        parts = line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/1.")
            or len(parts[1]) != 3
            or not parts[1].isdigit()
        ):
            raise WireError(502, "bad_status_line", detail=repr(line[:64]))
        version = parts[0].decode("ascii", "replace")
        headers = _read_headers(rfile)
        if on_head is not None:
            on_head()
        if "transfer-encoding" in headers:
            raise WireError(
                502, "bad_framing", detail="chunked responses are not read"
            )
        keep_alive = _keep_alive(version, headers)
        length = headers.get("content-length")
        if length is None:
            body = rfile.read()
            keep_alive = False
        else:
            if not (length.isascii() and length.isdigit()):
                raise WireError(502, "bad_content_length", detail=length[:32])
            size = int(length)
            body = rfile.read(size)
            if len(body) < size:
                raise WireError(
                    502,
                    "truncated_response",
                    detail=f"{len(body)} of {size} body bytes",
                )
    except OSError as error:
        raise WireError(502, "truncated_response", detail=str(error)) from error
    return Response(int(parts[1]), body, keep_alive)


# -- writing -------------------------------------------------------------


def _http_date() -> str:
    """The ``Date`` value (RFC 9110 §5.6.7), formatted at most once a
    second."""
    global _date
    second = int(time.time())
    if second != _date[0]:
        t = time.gmtime(second)
        _date = (
            second,
            f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT",
        )
    return _date[1]


def response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    connection: Optional[str] = None,
    retry_after_s: float = 0.0,
) -> bytes:
    """One whole response, status line to body, as one buffer.

    ``connection`` is the ``Connection`` header's value, if any
    (``"close"`` when the server closes after this response).
    """
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Server: repro-serve/1.0\r\nDate: {_http_date()}\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
    )
    if retry_after_s > 0:
        head += f"Retry-After: {max(1, round(retry_after_s))}\r\n"
    if connection:
        head += f"Connection: {connection}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def refusal(error: WireError) -> bytes:
    """The answer to a request that raised ``error``; it closes the
    connection."""
    body = json.dumps(error.payload).encode("utf-8")
    return response(error.status, body, connection="close")


def request(
    method: str,
    target: str,
    host: str,
    body: Optional[bytes] = None,
    headers: Optional[dict[str, str]] = None,
) -> bytes:
    """One whole request as one buffer; ``body`` None sends none (and no
    ``Content-Length``).

    Raises:
        ValueError: a header value holds a line break.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    for name, value in (headers or {}).items():
        if "\r" in value or "\n" in value:
            raise ValueError(f"header {name!r} holds a line break")
        head += f"{name}: {value}\r\n"
    if body is None:
        return (head + "\r\n").encode("latin-1")
    return (head + f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body
