"""Minimal asyncio JSON-over-HTTP server for betweenness queries.

Built directly on :func:`asyncio.start_server` — no ``http.server``, no
third-party framework — because the protocol surface is tiny: every endpoint
speaks one JSON object per request/response.  The endpoints (full
request/response schemas in ``docs/serving.md``):

==========================  ====================================================
``GET  /healthz``           liveness + version
``GET  /v1/backends``       the backend registry as JSON
``POST /v1/query``          submit a query; cache hit -> 200 immediately,
                            ``wait=true`` -> 200 when done, else 202 + job id
``GET  /v1/jobs``           live and recent job rows (no result payloads)
``GET  /v1/jobs/<id>``      one job row: status, progress events, result
``GET  /v1/cache``          cached result entries (metadata only)
``POST /v1/cache/evict``    evict by checksum / key / everything
``GET  /v1/stats``          counters: hits, misses, dedups, inflight
``GET  /metrics``           Prometheus text exposition (the only non-JSON
                            endpoint): cache/job counters, per-endpoint
                            request latency histograms, sampling throughput
==========================  ====================================================

The long-run story is the almost-asynchronous epoch design of the paper
carried to the serving layer: a slow estimation never blocks the event loop
(it runs in the job manager's local workers or in external workers), and
clients that did not ask to wait poll ``/v1/jobs/<id>``, seeing the progress
events the sampler emits epoch by epoch — the worker writes them into the
job's store row, so every job endpoint answers from the row alone.

Connections are persistent.  One connection serves HTTP/1.1 requests one
after another until the client sends ``Connection: close`` (or speaks
HTTP/1.0 without ``Connection: keep-alive``), a response is an error (4xx or
5xx: the rest of the client's input is then read and discarded for a moment,
so the client sees the response rather than a reset), or it sits idle for
:data:`KEEPALIVE_IDLE_SECONDS`.  :meth:`BetweennessService.stop` closes idle
connections itself; a busy one closes after its response.  Every close is
a socket shutdown first (see :func:`_hang_up`).  A request with
more than :data:`MAX_HEADER_COUNT` header lines or :data:`MAX_HEADER_BYTES`
header bytes gets 431.  ``repro_http_connections_total`` on ``/metrics``
counts accepted connections, so reuse is observable.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs

from repro.core.result import BetweennessResult
from repro.obs import metrics as obs_metrics
from repro.service.cache import ResultCache
from repro.service.jobs import MAX_FINISHED_JOBS, JobManager
from repro.service.schema import QueryRequest, SchemaError, result_payload
from repro.service.store import FINISHED_STATES, LIVE_STATES, QuotaExceeded
from repro.store import StoreFormatError

__all__ = ["BetweennessService", "run_server"]

#: Largest accepted request body; queries are small, so anything bigger is
#: a client bug (or abuse) and gets 413.
MAX_BODY_BYTES = 1 << 20

#: Most header lines, and most header bytes, one request may send; more is
#: abuse (queries carry a handful of headers) and gets 431.
MAX_HEADER_COUNT = 100
MAX_HEADER_BYTES = 1 << 16
_HEADERS_TOO_LARGE = (
    f"request headers over {MAX_HEADER_COUNT} lines or {MAX_HEADER_BYTES} bytes"
)

#: Seconds a persistent connection may wait for its next request line before
#: the server closes it.
KEEPALIVE_IDLE_SECONDS = 30.0

#: After an error response the server half-closes and discards the client's
#: unread input for at most this long: closing with unread input would send a
#: TCP reset that can destroy the response before the client reads it.
_LINGER_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Encoded:
    """A response body already encoded: ``/metrics`` text, a cache hit's JSON."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str = "application/json") -> None:
        self.body = body
        self.content_type = content_type


#: Content type of the Prometheus text exposition format 0.0.4.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoint label values for the request metrics.  Everything else (404
#: probes, scanners) collapses into ``"other"`` so label cardinality stays
#: bounded no matter what clients throw at the socket.
_KNOWN_ENDPOINTS = (
    "/healthz",
    "/metrics",
    "/v1/backends",
    "/v1/query",
    "/v1/jobs",
    "/v1/cache",
    "/v1/cache/evict",
    "/v1/stats",
)


def _hang_up(writer: asyncio.StreamWriter) -> None:
    """Close a connection so that the client sees EOF.

    The socket is shut down before it is closed: a local worker re-forked
    while the connection was open holds a copy of its descriptor, and closing
    only ours would send no FIN, so the client's next request on the
    connection would wait for an answer that never comes.  A shutdown drops
    unsent bytes, which is why :meth:`BetweennessService._handle` makes every
    ``drain()`` wait for the whole response.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already reset by the client, or closed
    writer.close()


def _endpoint_label(path: str) -> str:
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    if path in _KNOWN_ENDPOINTS:
        return path
    return "other"


class BetweennessService:
    """The query service: one :class:`JobManager` behind an asyncio socket.

    Construction is cheap and does not bind the port; :meth:`start` does.
    Keyword arguments are :class:`~repro.service.jobs.JobManager`'s (cache,
    catalog, store, dispatch, quota, resources, local workers), plus
    ``cache_dir`` (a :class:`ResultCache` there) and ``host``/``port``
    (``port=0`` binds an ephemeral port, reported via :attr:`port` — how
    tests and the smoke script avoid collisions).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8321,
        cache: Optional[ResultCache] = None,
        cache_dir=None,
        **manager_kwargs,
    ) -> None:
        self.host = host
        self.port = port
        if cache is None:
            cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()
        self.jobs = JobManager(cache=cache, **manager_kwargs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_seconds = self.jobs.metrics.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request latency by endpoint",
            labelnames=("endpoint",),
        )
        self._http_requests = self.jobs.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status code",
            labelnames=("endpoint", "status"),
        )
        self._http_inflight = self.jobs.metrics.gauge(
            "repro_http_requests_inflight", "HTTP requests currently being handled"
        )
        self._http_connections = self.jobs.metrics.counter(
            "repro_http_connections_total", "TCP connections accepted"
        )
        #: Connections waiting for their next request, with their handler
        #: tasks: the ones :meth:`stop` closes itself.
        self._idle: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections; resolves :attr:`port`.

        Serving turns the gated sampling instrumentation on: a process that
        exposes ``/metrics`` wants the kernel counters behind it, and the
        ~ns-per-batch cost is noise next to socket handling.

        Crash recovery runs first: jobs a previous coordinator left queued
        (or holding an expired/dead-pid lease) in the durable store are
        adopted, and the local workers are forked — before the socket is
        bound, so none of them holds a copy of it.
        """
        obs_metrics.enable_metrics()
        self._stopping = False
        await self.jobs.resume_pending()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then calls :meth:`stop`.

        Not ``Server.serve_forever``: cancelled, that waits for every
        connection to close (Python >= 3.12) before :meth:`stop` could close
        the idle ones.
        """
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    async def stop(self) -> None:
        """Stop accepting, close idle connections, shut the job manager down.

        A connection in the middle of a request closes after its response.
        Idle ones are closed here: on Python >= 3.12 ``wait_closed`` waits for
        every connection, so an idle keep-alive client would hold it forever.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            idle = list(self._idle.items())
            for writer, _task in idle:
                _hang_up(writer)
            if idle:
                await asyncio.wait([task for _writer, task in idle], timeout=1.0)
            await self._server.wait_closed()
            self._server = None
        self.jobs.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: requests one after another until it closes."""
        self._http_connections.inc()
        # drain() then returns only once the whole response has reached the
        # kernel, so a hang-up between requests never cuts one short.
        writer.transport.set_write_buffer_limits(0)
        try:
            while not self._stopping and await self._exchange(reader, writer):
                pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # the client hung up mid-exchange; their loss
        finally:
            _hang_up(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read one request and answer it; returns whether the connection stays open."""
        keep_alive = False
        try:
            request = await self._read_request(reader, writer)
            if request is None:
                return False  # closed by the client, the idle limit or stop()
            method, target, body, keep_alive = request
            status, payload = await self._handle_request(method, target, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 - never kill the acceptor
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        keep_alive = keep_alive and status < 400
        if not isinstance(payload, _Encoded):
            payload = _Encoded(json.dumps(payload).encode())
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {payload.content_type}\r\n"
            f"Content-Length: {len(payload.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode()
        writer.write(head + payload.body)
        await writer.drain()
        if status >= 400:
            await self._linger(reader, writer)
        return keep_alive

    async def _await_closable(self, writer: asyncio.StreamWriter, awaitable, seconds: float):
        """Await a read that :meth:`stop`, or ``seconds`` passing, may end by closing."""
        timer = asyncio.get_running_loop().call_later(seconds, _hang_up, writer)
        self._idle[writer] = asyncio.current_task()
        try:
            return await awaitable
        finally:
            timer.cancel()
            self._idle.pop(writer, None)

    async def _linger(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close after an error, then discard input until the client closes."""
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        await self._await_closable(writer, discard(), _LINGER_SECONDS)

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """``(method, target, body, keep_alive)`` of the next request, ``None`` at EOF."""
        line = await self._await_closable(
            writer, reader.readline(), KEEPALIVE_IDLE_SECONDS
        )
        if not line:
            return None
        request_line = line.decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        count = size = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # one line longer than the stream limit
                raise _HttpError(431, _HEADERS_TOO_LARGE) from None
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            size += len(line)
            if count > MAX_HEADER_COUNT or size > MAX_HEADER_BYTES:
                raise _HttpError(431, _HEADERS_TOO_LARGE)
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "invalid Content-Length") from None
        if length < 0:
            raise _HttpError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
        version = version.upper()
        if version == "HTTP/1.1":
            keep_alive = "close" not in tokens
        else:
            keep_alive = version == "HTTP/1.0" and "keep-alive" in tokens
        return method, target, body, keep_alive

    async def _handle_request(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[dict, _Encoded]]:
        path, _, query = target.partition("?")
        method = method.upper()
        # Per-endpoint request metrics.  Timing starts after the request is
        # parsed (socket read time is the client's, not the handler's) and the
        # status is recorded in the finally so error paths count too — a 404
        # storm or a failing route must be visible on /metrics, not hidden by
        # an early raise.
        endpoint = _endpoint_label(path)
        status = 500
        started = time.perf_counter()
        self._http_inflight.inc()
        try:
            status, payload = await self._route(method, path, body, query)
            return status, payload
        except _HttpError as exc:
            status = exc.status
            raise
        finally:
            self._http_inflight.dec()
            self._http_seconds.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )
            self._http_requests.labels(endpoint=endpoint, status=str(status)).inc()

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> Tuple[int, Union[dict, _Encoded]]:
        if path == "/healthz" and method == "GET":
            from repro import __version__

            return 200, {"ok": True, "version": __version__}
        if path == "/v1/backends" and method == "GET":
            return 200, self._backends_payload()
        if path == "/v1/query":
            if method != "POST":
                raise _HttpError(405, "use POST /v1/query")
            return await self._query(self._json_body(body))
        if path == "/v1/jobs" and method == "GET":
            store = self.jobs.store
            rows = store.list(states=LIVE_STATES) + store.list(
                states=FINISHED_STATES, limit=MAX_FINISHED_JOBS
            )
            return 200, {
                "jobs": [record.as_dict() for record in rows],
                "store": store.counts(),
            }
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path[len("/v1/jobs/") :], query)
        if path == "/v1/cache" and method == "GET":
            entries = self.jobs.cache.entries()
            return 200, {
                "cache_dir": str(self.jobs.cache.cache_dir),
                "entries": [entry.as_dict() for entry in entries],
            }
        if path == "/v1/cache/evict":
            if method != "POST":
                raise _HttpError(405, "use POST /v1/cache/evict")
            return self._evict(self._json_body(body))
        if path == "/v1/stats" and method == "GET":
            return 200, self.jobs.stats()
        if path == "/metrics" and method == "GET":
            from repro.obs.metrics import render_metrics

            # One merged exposition: the manager's service/HTTP metrics plus
            # the process-global registry (kernel counters — including those
            # merged back from worker processes).  Store/hot-tier gauges are
            # sampled right before the render, not kept live.
            self.jobs.refresh_metrics()
            text = render_metrics(self.jobs.metrics, obs_metrics.REGISTRY)
            return 200, _Encoded(text.encode(), _PROMETHEUS_CONTENT_TYPE)
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _backends_payload() -> dict:
        from repro.api import list_backends

        fields = (
            "name", "exact", "supports_threads", "supports_processes",
            "supports_refinement", "supports_updates", "cost_hint", "description",
        )
        return {
            "backends": [
                {field: getattr(spec, field) for field in fields} for spec in list_backends()
            ]
        }

    async def _query(self, payload: dict) -> Tuple[int, Union[dict, _Encoded]]:
        try:
            request = QueryRequest.from_dict(payload)
        except SchemaError as exc:
            raise _HttpError(400, str(exc)) from None
        try:
            outcome = await self.jobs.submit(request)
        except FileNotFoundError as exc:
            raise _HttpError(404, str(exc)) from None
        except QuotaExceeded as exc:
            # Admission control, not an error in the request: the tenant is
            # over its in-flight/queued budget and should back off and retry.
            raise _HttpError(429, str(exc)) from None
        except (StoreFormatError, ValueError, OSError) as exc:
            raise _HttpError(400, f"{type(exc).__name__}: {exc}") from None

        if outcome.served_from_cache:
            (entry, result), k, scores = outcome.answer, request.k, request.include_scores

            def build() -> bytes:
                return json.dumps({
                    "status": "done",
                    "served_from_cache": True,
                    "graph_checksum": outcome.checksum,
                    "cache_entry": entry.key,
                    "cached_eps": entry.eps,
                    "cached_delta": entry.delta,
                    "job_id": None,
                    "result": result_payload(result, k, include_scores=scores),
                }).encode()

            # The answer keeps the body for its next hit, unless it carries the scores.
            return 200, _Encoded(build() if scores else outcome.answer.body(k, build))

        job = outcome.job
        if not request.wait:
            return 202, {
                "status": outcome.status,
                "served_from_cache": False,
                "deduplicated": outcome.deduplicated,
                "graph_checksum": outcome.checksum,
                "job_id": job.id,
                "poll": f"/v1/jobs/{job.id}",
            }
        try:
            result = await asyncio.shield(job.future)
        except Exception as exc:  # noqa: BLE001 - job failure -> structured error
            raise _HttpError(500, f"job {job.id} failed: {exc}") from None
        return 200, {
            "status": "done",
            "served_from_cache": False,
            "refined_from": job.kwargs.get("refined_from"),
            "updated_from": job.kwargs.get("updated_from"),
            "deduplicated": outcome.deduplicated,
            "graph_checksum": outcome.checksum,
            "job_id": job.id,
            "result": result_payload(
                result, request.k, include_scores=request.include_scores
            ),
        }

    def _job_status(self, job_id: str, query: str = "") -> Tuple[int, dict]:
        """One job's polling payload: its durable store row.

        The row answers for everything — state, progress, result, timestamps,
        attempts, refine/update source — whether or not this process ever
        tracked the job (it may have finished before a restart, or belong to
        another coordinator or an external worker); a live job of this
        process adds its ``num_waiters``.
        """
        record = self.jobs.store.get(job_id)
        if record is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        request = QueryRequest.from_dict(record.request)
        # k / include_scores only shape the response and never split a job, so
        # a deduplicated poller may want a different shape than the request
        # that created the job: ?k=25&include_scores=true override it.
        params = parse_qs(query)
        k = request.k
        if "k" in params:
            try:
                k = int(params["k"][-1])
            except ValueError:
                raise _HttpError(400, f"invalid k {params['k'][-1]!r}") from None
            if k < 0:
                raise _HttpError(400, "k must be non-negative")
        include_scores = request.include_scores
        if "include_scores" in params:
            include_scores = params["include_scores"][-1].lower() in ("1", "true", "yes")
        payload = record.as_dict()
        job = self.jobs.get_job(record.job_id)
        if job is not None:
            payload["num_waiters"] = job.num_waiters
        if record.state == "done" and record.result is not None:
            payload["result"] = result_payload(
                BetweennessResult.from_json(record.result),
                k,
                include_scores=include_scores,
            )
        return 200, payload

    def _evict(self, payload: dict) -> Tuple[int, dict]:
        checksum = payload.get("checksum")
        key = payload.get("key")
        if checksum is None and key is None and payload.get("all") is not True:
            raise _HttpError(
                400, "specify 'checksum', 'key', or 'all': true to clear the cache"
            )
        removed = self.jobs.cache.evict(checksum, key=key)
        return 200, {"evicted": removed}


def run_server(*, announce=print, **service_kwargs) -> None:
    """Blocking entry point used by ``repro-betweenness serve``.

    Runs a :class:`BetweennessService` built from ``service_kwargs`` until
    interrupted (Ctrl-C); ``announce`` receives one line with the bound
    address once the socket is listening.  ``dispatch="external"`` turns
    this process into a pure coordinator: it enqueues into ``store`` and
    separate ``python -m repro.service.worker`` processes do the sampling.
    """

    async def _main() -> None:
        service = BetweennessService(**service_kwargs)
        await service.start()
        stats = service.jobs.stats()
        announce(
            f"repro betweenness service listening on "
            f"http://{service.host}:{service.port} "
            f"(dispatch={stats['dispatch']}, worker_mode={stats['worker_mode']}, "
            f"max_workers={stats['max_workers']}, "
            f"store: {stats['store_path']}, result cache: {stats['cache_dir']})"
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
