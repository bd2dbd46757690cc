"""Minimal client for the prediction serving daemon.

Used by the test suite, the load generator and examples: one synchronous
request per call over one persistent HTTP/1.1 connection, framed by
:mod:`repro.serve.wire`; structured rejections surfaced as
:class:`~repro.errors.ServeRejectedError` so a caller backs off on the
daemon's own ``retry_after_s`` hint instead of parsing response bodies,
and a statement the daemon cannot compile as the non-retryable
:class:`~repro.errors.ServeBadStatementError`.

Transport failures get the same treatment: a connection refused, reset
or timed out (the signature of a supervisor restarting its child) is a
typed :class:`~repro.errors.ServeUnavailableError` carrying a
``retry_after_s`` hint — never a bare ``OSError`` the caller has to
pattern-match.  The one exception is a *kept* connection the daemon
closed while it sat idle (idle timeout, restart): that is found out on
the next request, before any response byte, and costs one silent
reconnect.
"""

from __future__ import annotations

import json
import socket
from typing import Optional

from repro.analysis.sanitizer import make_lock
from repro.errors import (
    ServeBadStatementError,
    ServeError,
    ServeRejectedError,
    ServeUnavailableError,
)
from repro.serve import wire

__all__ = ["ServeClient"]

#: Linux only; elsewhere the client simply leaves ACK timing alone.
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class _Connection:
    """One socket to the daemon, with no-delay on, and its buffered
    reader."""

    __slots__ = ("sock", "rfile")

    def __init__(self, address: tuple[str, int], timeout_s: float) -> None:
        self.sock = socket.create_connection(address, timeout=timeout_s)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = self.sock.makefile("rb")
        except OSError:
            self.sock.close()
            raise

    def quickack(self) -> None:
        # A peer that writes header and body separately with Nagle on
        # (Python's stock HTTP server does) holds the body back until the
        # header is ACKed, and on a kept connection that ACK is delayed
        # ~40 ms: send it now.
        self.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class ServeClient:
    """Synchronous JSON client for one daemon address.

    Keeps one connection open between calls (with ``TCP_NODELAY`` on);
    :meth:`close` or a ``with`` block releases it.  Safe to share
    between threads: a caller takes the kept
    connection for the length of its request, and one that finds it
    taken uses a connection of its own, so callers never wait on each
    other — but only sequential calls reuse a connection, so a load
    generator gives each sender thread its own client.

    Args:
        host: daemon host.
        port: daemon port.
        timeout_s: default per-request socket timeout (override per
            call with ``timeout``).
        client_id: admission-control identity sent with every request
            (``X-Repro-Client``); defaults to the daemon seeing the
            peer address.
        retry_after_s: backoff hint attached to
            :class:`ServeUnavailableError` when the daemon cannot be
            reached at all (no response to take a hint from).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        client_id: Optional[str] = None,
        retry_after_s: float = 0.5,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.client_id = client_id
        self.retry_after_s = float(retry_after_s)
        self._kept: Optional[_Connection] = None
        self._kept_lock = make_lock("serve.client.kept")

    def close(self) -> None:
        """Close the kept connection (a later call opens a new one)."""
        connection = self._swap_kept(None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def _swap_kept(
        self, connection: Optional[_Connection]
    ) -> Optional[_Connection]:
        """Put ``connection`` in the kept slot; returns what was there."""
        with self._kept_lock:
            kept, self._kept = self._kept, connection
        return kept

    def _unavailable(self, error: Exception) -> ServeUnavailableError:
        cause = error if isinstance(error, OSError) else None
        return ServeUnavailableError(
            f"daemon unreachable at {self.host}:{self.port} "
            f"({type(error).__name__}: {error})",
            retry_after_s=self.retry_after_s,
            cause=cause,
        )

    def _exchange(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        headers: dict,
        timeout: Optional[float],
    ) -> tuple[int, bytes]:
        """One request/response on the kept connection (or a new one)."""
        timeout_s = self.timeout_s if timeout is None else float(timeout)
        message = wire.request(
            method, path, f"{self.host}:{self.port}", payload, headers
        )
        connection = self._swap_kept(None)
        # A connection kept from an earlier call may have been closed by
        # the daemon since; only then is a dead connection worth a
        # second try.
        reused = connection is not None
        while True:
            try:
                if connection is None:
                    connection = _Connection((self.host, self.port), timeout_s)
                else:
                    connection.sock.settimeout(timeout_s)
                connection.sock.sendall(message)
                response = wire.read_response(
                    connection.rfile,
                    connection.quickack if _TCP_QUICKACK is not None else None,
                )
            except (OSError, wire.WireError) as error:
                if connection is not None:
                    connection.close()
                    connection = None
                # Reset, broken pipe or end-of-stream where the status
                # line should be: the daemon closed the idle connection
                # and never answered this request.  Send it again, once.
                if reused and isinstance(error, ConnectionError):
                    reused = False
                    continue
                # Refused (no listener), reset (child died mid-request),
                # timeout, or a torn response: the supervisor-restart
                # signature.  Surface it typed, with a backoff hint.
                raise self._unavailable(error) from error
            if response.keep_alive:
                displaced = self._swap_kept(connection)
                if displaced is not None:
                    displaced.close()
            else:
                connection.close()
            return response.status, response.body

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> tuple[int, dict]:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        status, raw = self._exchange(method, path, payload, headers, timeout)
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            document = {"raw": raw.decode("utf-8", "replace")}
        return status, document

    def _request_text(
        self, method: str, path: str, timeout: Optional[float] = None
    ) -> tuple[int, str]:
        status, raw = self._exchange(method, path, None, {}, timeout)
        return status, raw.decode("utf-8")

    @staticmethod
    def _raise_for(status: int, document: dict) -> None:
        if status in (429, 503, 504):
            raise ServeRejectedError(
                document.get("error", "rejected"),
                status=status,
                retry_after_s=float(document.get("retry_after_s", 0.0)),
                payload=document,
            )
        if status == 400 and document.get("error") == "bad_statement":
            raise ServeBadStatementError(
                document.get("detail", "bad statement"),
                position=document.get("position"),
                payload=document,
            )
        raise ServeError(
            f"daemon answered {status}: {document.get('error', document)}"
        )

    # -- forecasting -----------------------------------------------------

    def forecast(
        self,
        sql: str,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Predict one statement; returns the decoded success payload.

        Args:
            sql: the statement.
            deadline_ms: end-to-end budget shipped to the daemon; a
                spent budget comes back as a structured 504.
            timeout: per-call socket timeout override.

        Raises:
            ServeRejectedError: structured rejection (429/503/504) with
                the daemon's retry hints attached.
            ServeBadStatementError: the statement does not parse or bind
                (400 ``bad_statement``); retrying cannot help.
            ServeUnavailableError: the daemon could not be reached
                (refused/reset/timeout — e.g. a supervisor restart).
            ServeError: any other non-200 answer.
        """
        body: dict = {"sql": sql}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        status, document = self._request(
            "POST", "/v1/forecast", body, timeout=timeout
        )
        if status != 200:
            self._raise_for(status, document)
        return document

    def forecast_batch(
        self,
        sqls: list[str],
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Predict many statements in one request (one micro-batch)."""
        body: dict = {"sqls": list(sqls)}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        status, document = self._request(
            "POST", "/v1/forecast_batch", body, timeout=timeout
        )
        if status != 200:
            self._raise_for(status, document)
        return document

    def try_forecast(
        self,
        sql: str,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> tuple[int, dict]:
        """Non-raising variant: returns ``(status, payload)`` as-is.

        Transport failures still raise :class:`ServeUnavailableError` —
        there is no status code to return when nothing answered.
        """
        body: dict = {"sql": sql}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/forecast", body, timeout=timeout)

    # -- admin / introspection -------------------------------------------

    def health(self, timeout: Optional[float] = None) -> dict:
        status, document = self._request_text("GET", "/healthz", timeout=timeout)
        if status != 200:
            raise ServeError(f"healthz answered {status}")
        return json.loads(document)

    def status(self) -> dict:
        status, document = self._request("GET", "/admin/status")
        if status != 200:
            self._raise_for(status, document)
        return document

    def metrics_text(self) -> str:
        status, text = self._request_text("GET", "/metrics")
        if status != 200:
            raise ServeError(f"/metrics answered {status}")
        return text

    def reload(self, artifact: Optional[str] = None) -> dict:
        body = {"artifact": artifact} if artifact else {}
        status, document = self._request("POST", "/admin/reload", body)
        if status != 200:
            raise ServeError(
                f"reload failed ({status}): {document.get('detail', document)}"
            )
        return document
