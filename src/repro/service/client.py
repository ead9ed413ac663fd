"""Blocking stdlib client for the betweenness query service.

A thin convenience over :mod:`http.client` so the CLI (``repro-betweenness
query`` / ``cache``) and scripts can talk to a running service without any
third-party HTTP dependency.  Every method returns the decoded JSON payload;
non-2xx responses raise :class:`ServiceError` carrying the server's
``error`` message and status code.

Connections persist: each thread using a :class:`ServiceClient` gets its own
HTTP/1.1 connection, opened by its first request and reused by the next ones.
Opening one closes those of threads that have finished;
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes them all.
A request leaves in one write (``HTTPConnection.request`` makes two, waking
the server twice); ``http.client.HTTPResponse`` reads the answer.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response (or transport failure) from the service."""

    def __init__(self, message: str, *, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talks JSON-over-HTTP to one :class:`~repro.service.BetweennessService`.

    Safe to share between threads: each thread has its own connection.  A
    request on a *reused* connection that fails before the response's status
    line arrives (the server closed the idle connection, or restarted) is sent
    once more on a fresh connection; every other transport failure raises
    :class:`ServiceError`.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8321, *, timeout: float = 600.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._connections: Dict[threading.Thread, http.client.HTTPConnection] = {}

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection this client opened; a later request reconnects."""
        with self._lock:
            connections, self._connections = self._connections, {}
        for conn in connections.values():
            conn.close()

    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (a new one after :meth:`close`)."""
        thread = threading.current_thread()
        conn = self._connections.get(thread)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            with self._lock:
                finished = [t for t in self._connections if not t.is_alive()]
                stale = [self._connections.pop(t) for t in finished]
                self._connections[thread] = conn
            for old in stale:
                old.close()
        return conn

    def _exchange(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One HTTP exchange on this thread's connection: ``(status, raw body)``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        message = (head + "\r\n").encode("latin-1") + (body or b"")
        while True:
            conn = self._connection()
            reused = conn.sock is not None
            try:
                try:
                    if not reused:
                        conn.connect()  # sets TCP_NODELAY
                    conn.sock.sendall(message)
                    response = http.client.HTTPResponse(conn.sock, method=method)
                    response.begin()
                except ConnectionError:
                    conn.close()
                    if reused:
                        continue  # a stale connection: no response byte arrived
                    raise
                raw = response.read()
                if response.will_close:
                    conn.close()
                return response.status, raw
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise ServiceError(
                    f"cannot reach service at http://{self.host}:{self.port}: {exc}"
                ) from None

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Dict[str, object]:
        """One HTTP exchange; returns the decoded JSON body."""
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self._exchange(method, path, body)
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise ServiceError(
                f"non-JSON response from service (HTTP {status})", status=status
            ) from None
        if status >= 400:
            message = decoded.get("error") if isinstance(decoded, dict) else None
            raise ServiceError(message or f"HTTP {status}", status=status)
        return decoded

    def request_text(self, method: str, path: str) -> str:
        """One HTTP exchange; returns the raw response body as text.

        The path for non-JSON endpoints — ``/metrics`` is Prometheus text,
        which :meth:`request` would reject as malformed JSON.
        """
        status, raw = self._exchange(method, path)
        if status >= 400:
            raise ServiceError(f"HTTP {status}", status=status)
        return raw.decode("utf-8", errors="replace")

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """The Prometheus text exposition (``GET /metrics``), verbatim."""
        return self.request_text("GET", "/metrics")

    def backends(self) -> Dict[str, object]:
        return self.request("GET", "/v1/backends")

    def stats(self) -> Dict[str, object]:
        return self.request("GET", "/v1/stats")

    def query(self, **fields) -> Dict[str, object]:
        """Submit a query (fields per the ``/v1/query`` schema)."""
        return self.request("POST", "/v1/query", payload=fields)

    def job(self, job_id: str) -> Dict[str, object]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cache_evict(
        self,
        checksum: Optional[str] = None,
        *,
        key: Optional[str] = None,
        all: bool = False,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        if checksum is not None:
            payload["checksum"] = checksum
        if key is not None:
            payload["key"] = key
        if all:
            payload["all"] = True
        return self.request("POST", "/v1/cache/evict", payload=payload)

    def wait_for_job(
        self,
        job_id: str,
        *,
        poll_seconds: float = 0.2,
        timeout: Optional[float] = None,
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> Dict[str, object]:
        """Poll a job until it finishes; returns the final status payload.

        ``on_progress`` receives each *new* progress event at most once as it
        appears in the polled status — the client-side view of the progress
        stream the workers emit.  The server keeps only the tail of the event
        stream (a 64-event ring buffer) but reports the monotonic
        ``num_events`` total, so new events keep flowing after the buffer
        wraps; events that scrolled out of the buffer between two polls are
        skipped, never re-delivered.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        seen = 0
        while True:
            status = self.job(job_id)
            progress = status.get("progress", [])
            total = int(status.get("num_events", len(progress)))
            if on_progress is not None and total > seen:
                for event in progress[-min(total - seen, len(progress)):] if progress else []:
                    on_progress(event)
            seen = max(seen, total)
            if status.get("status") in ("done", "error"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")
            time.sleep(poll_seconds)
