"""What one service request costs before any lookup: connection, probe, resolve.

A cached answer is a microsecond lookup, so the per-request plumbing around
it is the latency.  These tests pin the three pieces that keep it small and
the rules that keep them correct:

* **Persistent connections.**  One client opens one connection per thread
  (counted by ``repro_http_connections_total``), reconnects once when a reused
  connection turns out stale, never when a response had started, and
  ``stop()`` does not wait for idle clients.  ``Connection: close``, HTTP/1.0
  without keep-alive and every error response end the connection; a request
  with too many header lines gets 431.
* **Warm queries on the loop.**  A query whose spec is in the catalog's
  memo and whose answer is in the hot tier makes no executor call; any other
  submission reads the disk in exactly one.
* **A stat-checked resolve.**  A repeated graph spec is answered from the
  catalog's memo, and every kind of change to its files gives today's
  answer, never the remembered one.
* **Warm bodies.**  A cache hit's response is encoded once per hot slot and
  ``k`` and is byte for byte the JSON of the response dict; whatever drops
  the slot (a settle, an eviction, the TTL) drops the body with it.  The
  client sends each request in one write on a ``TCP_NODELAY`` socket.

Plus the worker's artifacts: the checkpoint is moved (not copied) into the
cache and the result JSON is built once.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from fixture_graphs import path_graph, star_graph

from repro.core.result import BetweennessResult
from repro.service import (
    BetweennessService,
    HotTier,
    JobManager,
    QueryRequest,
    ResultCache,
    ServiceClient,
    ServiceError,
)
from repro.service import server as server_module
from repro.service.schema import result_payload
from repro.store import GraphCatalog
from repro.store import catalog as catalog_module
from repro.store import read_header, write_rcsr
from repro.store.format import atomic_replace, header_checksum

EDGES = "0 1\n1 2\n2 0\n2 3\n3 4\n"


def write_graph(path, text=EDGES):
    path.write_text(text)
    return path


def fake_estimator(graph, *, callbacks=None, **kwargs):
    """Instant stand-in for ``estimate_betweenness``."""
    return BetweennessResult(
        scores=np.linspace(0.0, 0.5, 5),
        num_samples=40,
        eps=kwargs.get("eps"),
        delta=kwargs.get("delta"),
        omega=80,
        vertex_diameter=4,
        backend="sequential",
    )


class Running:
    """A service on its own event-loop thread, driven by blocking clients."""

    def __init__(self, tmp_path, port: int = 0, worker_mode: str = "thread") -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service = BetweennessService(
            port=port,
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode=worker_mode,
            estimator=fake_estimator if worker_mode == "thread" else None,
        )
        self.call(self.service.start())
        self.port = self.service.port

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=30.0)

    def stop(self) -> None:
        self.call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()

    def connections(self) -> int:
        """``repro_http_connections_total`` as the server counts it (no request needed)."""
        return int(self.service._http_connections.value)


@pytest.fixture()
def running(tmp_path):
    handle = Running(tmp_path)
    yield handle
    if not handle.loop.is_closed():
        handle.stop()


def metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} not in /metrics")


def read_response(sock: socket.socket) -> bytes:
    """One HTTP response (head + Content-Length body) from a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"EOF inside the response head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        body += sock.recv(65536)
    return head


def read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def raw(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10.0)


# --------------------------------------------------------------------- #
# Persistent connections
# --------------------------------------------------------------------- #
class TestPersistentConnections:
    def test_queries_from_one_client_share_one_connection(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            answers = [client.query(graph=str(graph), eps=0.1, seed=1) for _ in range(6)]
            client.health()
            text = client.metrics()
        assert answers[0]["served_from_cache"] is False
        assert all(answer["served_from_cache"] for answer in answers[1:])
        assert metric(text, "repro_http_connections_total") == 1

    def test_threads_share_one_client(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        errors = []
        served = []

        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            client.query(graph=str(graph), eps=0.1, seed=1)  # the entry the threads hit

            def work() -> None:
                try:
                    for _ in range(5):
                        served.append(client.query(graph=str(graph), eps=0.1, seed=1))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert errors == []
        assert len(served) == 40 and all(r["served_from_cache"] for r in served)
        # One connection per thread: the main thread's plus eight.
        assert running.connections() == 9

    def test_a_finished_threads_connection_closes_when_another_opens(self, running):
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            first = threading.Thread(target=client.health)
            first.start()
            first.join(timeout=30.0)
            (finished,) = client._connections.values()
            assert finished.sock is not None
            client.health()
            assert finished.sock is None
            assert list(client._connections) == [threading.current_thread()]

    def test_request_after_server_restart_succeeds(self, tmp_path):
        first = Running(tmp_path)
        port = first.port
        with ServiceClient(first.service.host, port, timeout=30.0) as client:
            assert client.health()["ok"] is True
            first.stop()
            second = Running(tmp_path, port=port)
            try:
                # The kept connection died with the first server: the client
                # finds it stale before any response byte and reconnects once.
                assert client.health()["ok"] is True
                assert second.connections() == 1
            finally:
                second.stop()

    def test_idle_limit_closes_and_the_client_reconnects(
        self, running, monkeypatch
    ):
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_SECONDS", 0.1)
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            client.health()  # its connection now waits under the 0.1 s limit
            time.sleep(0.5)
            assert not running.service._idle  # the server closed it
            assert client.health()["ok"] is True
        assert running.connections() == 2

    def test_idle_close_reaches_the_client_after_the_pool_forked(
        self, tmp_path, monkeypatch
    ):
        """A worker forked while a connection was open shares its socket; the
        idle close must still reach the client, or its next request hangs."""
        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_SECONDS", 0.1)
        graph = write_graph(tmp_path / "g.txt")
        handle = Running(tmp_path, worker_mode="process")
        try:
            with ServiceClient(handle.service.host, handle.port, timeout=5.0) as client:
                # The cold query starts the process pool while its connection is open.
                answer = client.query(
                    graph=str(graph), eps=0.2, seed=1, algorithm="sequential", wait=True
                )
                assert answer["served_from_cache"] is False
                time.sleep(0.5)
                started = time.monotonic()
                assert client.health()["ok"] is True
                assert time.monotonic() - started < 1.0
            assert handle.connections() == 2
        finally:
            handle.stop()

    def test_stop_returns_promptly_while_a_connection_idles(self, running):
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            client.health()
            started = time.monotonic()
            running.stop()
            assert time.monotonic() - started < 1.0

    def test_close_releases_and_a_later_request_reconnects(self, running):
        client = ServiceClient(running.service.host, running.port, timeout=30.0)
        client.health()
        client.close()
        assert client.health()["ok"] is True
        client.close()
        assert running.connections() == 2

    def test_no_retry_once_the_response_started(self):
        """A reused connection dying mid-response is an error, not a retry."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        accepted = []

        def serve() -> None:
            conn, _ = listener.accept()
            accepted.append(conn)
            with conn:
                conn.recv(65536)
                body = b'{"ok": true}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")
            listener.settimeout(1.0)
            try:
                accepted.append(listener.accept()[0])  # a retry would land here
            except OSError:
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", port, timeout=10.0) as client:
                assert client.health() == {"ok": True}
                with pytest.raises(ServiceError, match="cannot reach service"):
                    client.health()
            thread.join(timeout=5.0)
        finally:
            listener.close()
            for conn in accepted:
                conn.close()
        assert len(accepted) == 1

    def test_a_request_is_one_write_on_a_nodelay_socket(self, running, tmp_path, monkeypatch):
        graph = write_graph(tmp_path / "g.txt")
        writes, sockets = [], []
        create_connection = socket.create_connection

        class Recording:
            """A socket that records each call that writes to it."""

            def __init__(self, sock):
                self._sock = sock

            def __getattr__(self, name):
                return getattr(self._sock, name)

            def send(self, data, *args):
                writes.append(bytes(data))
                return self._sock.send(data, *args)

            def sendall(self, data, *args):
                writes.append(bytes(data))
                return self._sock.sendall(data, *args)

        def recording(*args, **kwargs):
            sockets.append(create_connection(*args, **kwargs))
            return Recording(sockets[-1])

        monkeypatch.setattr(socket, "create_connection", recording)
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            for _ in range(3):
                client.query(graph=str(graph), eps=0.1, seed=1)
            client.health()
            assert len(sockets) == 1
            assert sockets[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        assert len(writes) == 4  # one per request, head and body together
        for write in writes[:3]:
            head, _, body = write.partition(b"\r\n\r\n")
            assert head.startswith(b"POST /v1/query HTTP/1.1\r\n")
            assert json.loads(body)["graph"] == str(graph)
            assert b"Content-Length: %d" % len(body) in head
        assert writes[3].startswith(b"GET /healthz HTTP/1.1\r\n")
        assert writes[3].endswith(b"\r\n\r\n")


class TestConnectionClose:
    def test_connection_close_request_gets_close_and_eof(self, running):
        with raw(running.port) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            response = read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in response

    def test_http10_request_gets_close_and_eof(self, running):
        with raw(running.port) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            response = read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in response

    def test_http10_keep_alive_and_http11_stay_open(self, running):
        with raw(running.port) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            assert b"\r\nConnection: keep-alive" in read_response(sock)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert b"\r\nConnection: keep-alive" in read_response(sock)
        assert running.connections() == 1

    def test_error_response_closes(self, running):
        with raw(running.port) as sock:
            sock.sendall(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            response = read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 404 ")
        assert b"\r\nConnection: close\r\n" in response

    def test_ten_thousand_header_lines_get_431(self, running):
        filler = b"".join(b"X-Filler-%d: v\r\n" % i for i in range(10_000))
        with raw(running.port) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + filler + b"\r\n")
            response = read_to_eof(sock)
        assert response.startswith(b"HTTP/1.1 431 ")
        assert b"\r\nConnection: close\r\n" in response
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            assert client.health()["ok"] is True


# --------------------------------------------------------------------- #
# Warm bodies: a hit's encoded response, kept in its hot slot
# --------------------------------------------------------------------- #
class TestWarmBodies:
    @pytest.fixture()
    def clock(self, running):
        """Drive the service's hot tier by hand: TTL 10 s."""
        now = {"now": 0.0}
        running.service.jobs.cache.hot = HotTier(8, 10.0, clock=lambda: now["now"])
        return now

    @staticmethod
    def ask(client, graph, *, k=5, include_scores=False, **accuracy):
        """A query's raw response body (it must be a cache hit unless ``wait``)."""
        payload = {"graph": str(graph), "k": k, "include_scores": include_scores, **accuracy}
        status, body = client._exchange("POST", "/v1/query", json.dumps(payload).encode())
        assert status == 200, body
        return body

    @staticmethod
    def expected(running, checksum, entry_eps, k, include_scores):
        """``json.dumps`` of the response dict a cache hit on the entry at ``entry_eps`` had."""
        cache = ResultCache(running.service.jobs.cache.cache_dir, hot_entries=0)
        entry = next(e for e in cache.entries(checksum) if e.eps == entry_eps)
        return json.dumps({
            "status": "done",
            "served_from_cache": True,
            "graph_checksum": checksum,
            "cache_entry": entry.key,
            "cached_eps": entry.eps,
            "cached_delta": entry.delta,
            "job_id": None,
            "result": result_payload(cache.load(entry), k, include_scores=include_scores),
        }).encode()

    def encoded(self, running):
        return running.service.jobs.cache.hot.stats()["encoded_bodies"]

    def test_hit_bytes_are_the_response_json(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            cold = json.loads(self.ask(client, graph, eps=0.1, seed=1, wait=True))
            assert cold["served_from_cache"] is False
            checksum = cold["graph_checksum"]
            for k in (0, 5, 5 + 3):
                for include_scores in (False, True):
                    expected = self.expected(running, checksum, 0.1, k, include_scores)
                    for _ in range(2):  # the first hit encodes, the second reads the slot
                        body = self.ask(client, graph, k=k, include_scores=include_scores, eps=0.1)
                        assert body == expected
        # One encode per slot and k; bodies with the scores are never kept.
        assert self.encoded(running) == 3
        ((_stamp, answer),) = running.service.jobs.cache.hot._entries.values()
        assert sorted(answer.bodies) == [0, 5, 8]

    def test_primed_and_dominated_queries_each_get_their_entry(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            checksum = json.loads(self.ask(client, graph, eps=0.05, seed=1, wait=True))["graph_checksum"]
            self.ask(client, graph, eps=0.1, delta=0.05, seed=2, wait=True)
            for _ in range(3):
                primed = self.ask(client, graph, eps=0.05, seed=1)
                dominated = self.ask(client, graph, eps=0.2, delta=0.3)
                assert primed == self.expected(running, checksum, 0.05, 5, False)
                assert dominated == self.expected(running, checksum, 0.1, 5, False)
        assert self.encoded(running) == 2

    def test_a_settle_drops_the_body_with_its_answer(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            checksum = json.loads(self.ask(client, graph, eps=0.05, seed=1, wait=True))["graph_checksum"]
            loose = dict(eps=0.3, delta=0.5)
            assert self.ask(client, graph, **loose) == self.expected(running, checksum, 0.05, 5, False)
            # Not dominated by the first entry (its delta 0.1 is too loose), and
            # looser in eps: once settled, it wins for the loose query.
            self.ask(client, graph, eps=0.3, delta=0.05, seed=2, wait=True)
            assert self.ask(client, graph, **loose) == self.expected(running, checksum, 0.3, 5, False)
        assert self.encoded(running) == 2

    def test_an_eviction_drops_the_body_with_its_answer(self, running, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            checksum = json.loads(self.ask(client, graph, eps=0.05, seed=1, wait=True))["graph_checksum"]
            self.ask(client, graph, eps=0.3, delta=0.05, seed=2, wait=True)
            loose = dict(eps=0.3, delta=0.5)
            assert self.ask(client, graph, **loose) == self.expected(running, checksum, 0.3, 5, False)
            expected = self.expected(running, checksum, 0.05, 5, False)
            key = next(e.key for e in running.service.jobs.cache.entries(checksum) if e.eps == 0.3)
            assert client.cache_evict(checksum, key=key) == {"evicted": 1}
            assert self.ask(client, graph, **loose) == expected

    def test_an_expired_slot_drops_the_body_with_its_answer(self, running, tmp_path, clock):
        graph = write_graph(tmp_path / "g.txt")
        with ServiceClient(running.service.host, running.port, timeout=30.0) as client:
            checksum = json.loads(self.ask(client, graph, eps=0.05, seed=1, wait=True))["graph_checksum"]
            loose = dict(eps=0.3, delta=0.5)
            first = self.expected(running, checksum, 0.05, 5, False)
            assert self.ask(client, graph, **loose) == first
            # Another process writes an entry that wins for the loose query:
            # this process's slot (and its body) stays until the TTL ends.
            other = ResultCache(running.service.jobs.cache.cache_dir)
            request = QueryRequest(graph=str(graph), eps=0.3, delta=0.05, seed=2)
            other.put(checksum, request, fake_estimator(None, eps=0.3, delta=0.05))
            clock["now"] = 5.0
            assert self.ask(client, graph, **loose) == first
            clock["now"] = 11.0
            assert self.ask(client, graph, **loose) == self.expected(running, checksum, 0.3, 5, False)
        assert self.encoded(running) == 2

    def test_a_body_past_the_slot_budget_is_not_kept(self, tmp_path, monkeypatch):
        from repro.service import cache as cache_module

        cache = ResultCache(tmp_path / "results")
        cache.put("crc32:aa", QueryRequest(graph="g", eps=0.1), fake_estimator(None, eps=0.1, delta=0.1))
        answer = cache.find("crc32:aa", family="adaptive-sampling", eps=0.1, delta=0.1)
        monkeypatch.setattr(cache_module, "SLOT_BODY_BYTES", 10)
        assert answer.body(1, lambda: b"0123456789") == b"0123456789"
        assert answer.body(2, lambda: b"x") == b"x"  # over the budget: built per call
        assert answer.body(2, lambda: b"y") == b"y"
        assert answer.bodies == {1: b"0123456789"}
        assert cache.hot.stats()["encoded_bodies"] == 3

    def test_threads_sharing_an_answer_count_every_encode(self, tmp_path):
        import sys

        cache = ResultCache(tmp_path / "results")
        cache.put("crc32:aa", QueryRequest(graph="g", eps=0.1), fake_estimator(None, eps=0.1, delta=0.1))
        answer = cache.find("crc32:aa", family="adaptive-sampling", eps=0.1, delta=0.1)
        builds, lock = [], threading.Lock()

        def build(k):
            with lock:
                builds.append(k)
            return b"%d" % k

        def work():
            for k in range(300):
                assert answer.body(k, lambda: build(k)) == b"%d" % k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answer.bodies) == list(range(300))
        assert cache.hot.stats()["encoded_bodies"] == len(builds) >= 300


# --------------------------------------------------------------------- #
# Warm queries on the loop, everything else in one hop
# --------------------------------------------------------------------- #
class TestWarmQueriesOnTheLoop:
    @pytest.fixture()
    def manager(self, tmp_path):
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
            estimator=fake_estimator,
        )
        yield manager
        manager.close()

    @staticmethod
    def drive(manager, scenario):
        """Run ``scenario(ask)``; ``ask(spec)`` submits a query, awaits its
        job, and returns the outcome and the executor calls ``submit`` made."""

        async def main():
            loop = asyncio.get_running_loop()
            hops = []
            run_in_executor = loop.run_in_executor

            def counting(executor, func, *args):
                if executor is None:
                    hops.append(func)
                return run_in_executor(executor, func, *args)

            loop.run_in_executor = counting

            async def ask(spec, eps=0.1):
                hops.clear()
                request = QueryRequest(graph=str(spec), eps=eps, seed=1, algorithm="sequential")
                outcome = await manager.submit(request)
                made = list(hops)
                if outcome.job is not None:
                    await outcome.job.future
                assert all(hop == manager._probe for hop in made)
                return outcome, len(made)

            return await scenario(ask)

        return asyncio.run(main())

    @staticmethod
    async def warm(ask, spec):
        """Run the first query and the one that remembers its spec and answer."""
        first, hops = await ask(spec)
        assert not first.served_from_cache and hops == 1
        second, hops = await ask(spec)
        assert second.served_from_cache and hops == 1
        return first.checksum

    def test_a_warm_hit_makes_no_executor_call(self, manager, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(ask):
            checksum = await self.warm(ask, graph)
            return checksum, [await ask(graph) for _ in range(3)]

        checksum, hits = self.drive(manager, scenario)
        assert [(outcome.served_from_cache, hops) for outcome, hops in hits] == [(True, 0)] * 3
        assert all(outcome.checksum == checksum for outcome, _ in hits)
        assert hits[0][0].answer[1].num_samples == 40
        counters = manager.counters
        assert counters["loop_hits"] == 3 and counters["cache_hits"] == 4
        assert counters["queries"] == 5 and counters["cache_misses"] == 1
        assert manager.stats()["loop_hits"] == 3
        # Resolve and checksum share one memo entry per graph spec.
        assert list(manager.catalog._memo) == [(os.getcwd(), str(graph))]

    def test_a_changed_source_file(self, manager, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(ask):
            before = await self.warm(ask, graph)
            write_graph(graph, EDGES + "4 5\n")
            return before, await ask(graph)

        before, (outcome, hops) = self.drive(manager, scenario)
        assert hops == 1 and not outcome.served_from_cache
        assert outcome.checksum != before
        assert outcome.checksum == GraphCatalog(tmp_path / "fresh-cache").checksum(str(graph))

    def test_an_atomically_replaced_container(self, manager, tmp_path):
        path = write_rcsr(path_graph(5), tmp_path / "p.rcsr")

        async def scenario(ask):
            before = await self.warm(ask, path)
            write_rcsr(star_graph(5), path)  # same size, a new inode
            return before, await ask(path)

        before, (outcome, hops) = self.drive(manager, scenario)
        assert hops == 1 and not outcome.served_from_cache
        assert outcome.checksum != before
        assert outcome.checksum == header_checksum(read_header(path))

    def test_an_expired_hot_entry(self, manager, tmp_path):
        from repro.service import HotTier

        graph = write_graph(tmp_path / "g.txt")
        clock = {"now": 0.0}
        manager.cache.hot = HotTier(8, 10.0, clock=lambda: clock["now"])

        async def scenario(ask):
            await self.warm(ask, graph)
            clock["now"] = 11.0
            return [await ask(graph) for _ in range(2)]

        (expired, hops), (again, again_hops) = self.drive(manager, scenario)
        assert expired.served_from_cache and hops == 1  # from the disk, in the hop
        assert again.served_from_cache and again_hops == 0
        assert expired.answer[1].num_samples == again.answer[1].num_samples == 40

    def test_an_evicted_cache(self, manager, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(ask):
            await self.warm(ask, graph)
            manager.cache.evict()
            return await ask(graph)

        outcome, hops = self.drive(manager, scenario)
        assert hops == 1 and not outcome.served_from_cache
        assert outcome.job is not None and manager.counters["completed"] == 2

    def test_a_registered_name_and_an_unseen_spec(self, manager, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        other = write_graph(tmp_path / "h.txt", EDGES + "4 5\n")

        async def scenario(ask):
            await self.warm(ask, graph)
            manager.catalog.register("social", manager.catalog.resolve(str(graph)))
            return [await ask("social") for _ in range(3)], await ask(other)

        named, (unseen, unseen_hops) = self.drive(manager, scenario)
        # A name is never remembered: every query on it resolves in the hop.
        assert [(outcome.served_from_cache, hops) for outcome, hops in named] == [(True, 1)] * 3
        assert unseen_hops == 1 and not unseen.served_from_cache
        assert manager.counters["loop_hits"] == 0

    def test_the_second_query_reads_no_header_and_no_sidecar(self, manager, tmp_path, monkeypatch):
        """The first query's conversion is remembered: the second one's hop
        (which fills the hot tier) skips the resolution's file reads."""
        graph = write_graph(tmp_path / "g.txt")
        reads = []
        for name in ("read_header", "_read_sidecar"):
            real = getattr(catalog_module, name)
            monkeypatch.setattr(
                catalog_module, name, lambda path, name=name, real=real: reads.append(name) or real(path)
            )

        async def scenario(ask):
            first, first_hops = await ask(graph)
            assert reads and not first.served_from_cache and first_hops == 1
            assert manager.catalog.memoized(str(graph)) == (
                manager.catalog.rcsr_path_for(graph), first.checksum
            )
            reads.clear()
            return await ask(graph)

        second, hops = self.drive(manager, scenario)
        assert second.served_from_cache and hops == 1
        assert reads == []

    def test_a_first_touch_conversion_never_runs_on_the_loop(self, manager, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        threads = []
        convert = manager.catalog.convert
        manager.catalog.convert = lambda *a, **k: threads.append(threading.get_ident()) or convert(*a, **k)

        async def scenario(ask):
            loop_thread = threading.get_ident()
            await self.warm(ask, graph)
            await ask(graph)
            return loop_thread

        loop_thread = self.drive(manager, scenario)
        assert threads and loop_thread not in threads


# --------------------------------------------------------------------- #
# The stat-checked resolve
# --------------------------------------------------------------------- #
class TestResolveMemo:
    @pytest.fixture()
    def catalog(self, tmp_path):
        return GraphCatalog(tmp_path / "graph-cache")

    def test_repeat_reads_no_header_and_no_sidecar(
        self, catalog, tmp_path, monkeypatch
    ):
        graph = write_graph(tmp_path / "g.txt")
        first = catalog.checksum(str(graph))  # converts and remembers
        headers, sidecars = [], []
        real_header, real_sidecar = catalog_module.read_header, catalog_module._read_sidecar
        monkeypatch.setattr(
            catalog_module,
            "read_header",
            lambda path: headers.append(path) or real_header(path),
        )
        monkeypatch.setattr(
            catalog_module,
            "_read_sidecar",
            lambda path: sidecars.append(path) or real_sidecar(path),
        )
        assert catalog.resolve_checksum(str(graph)) == (catalog.rcsr_path_for(graph), first)
        assert catalog.memoized(str(graph)) == (catalog.rcsr_path_for(graph), first)
        assert headers == [] and sidecars == []  # the container's stamp stands in

    def test_a_first_conversion_is_remembered(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        assert catalog.memoized(str(graph)) is None
        path, checksum = catalog.resolve_checksum(str(graph))
        assert path == catalog.rcsr_path_for(graph)
        assert catalog.memoized(str(graph)) == (path, checksum)

    def test_a_source_touched_during_its_conversion_is_not_remembered(
        self, catalog, tmp_path, monkeypatch
    ):
        graph = write_graph(tmp_path / "g.txt")
        convert = catalog.convert

        def touching(*args, **kwargs):
            report = convert(*args, **kwargs)
            mtime = graph.stat().st_mtime_ns
            os.utime(graph, ns=(mtime + 10**9, mtime + 10**9))  # rewritten meanwhile
            return report

        monkeypatch.setattr(catalog, "convert", touching)
        catalog.resolve_checksum(str(graph))
        assert catalog.memoized(str(graph)) is None
        assert catalog._memo == {}

    def remembered(self, catalog, graph):
        catalog.checksum(str(graph))
        return catalog.checksum(str(graph))

    def test_source_rewritten_with_a_new_size(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        before = self.remembered(catalog, graph)
        write_graph(graph, EDGES + "4 5\n")
        after = catalog.checksum(str(graph))
        assert after != before
        assert after == GraphCatalog(tmp_path / "fresh-cache").checksum(str(graph))

    def test_source_rewritten_same_size_new_mtime(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        before = self.remembered(catalog, graph)
        mtime = graph.stat().st_mtime_ns
        write_graph(graph, EDGES.replace("3 4", "1 4"))
        os.utime(graph, ns=(mtime + 10**9, mtime + 10**9))
        after = catalog.checksum(str(graph))
        assert after != before
        assert after == GraphCatalog(tmp_path / "fresh-cache").checksum(str(graph))

    def test_force_reconversion_is_seen(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        before = self.remembered(catalog, graph)
        # Same size, same mtime: only the forced re-conversion can notice.
        stat = graph.stat()
        write_graph(graph, EDGES.replace("3 4", "1 4"))
        os.utime(graph, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert catalog.checksum(str(graph)) == before  # the catalog's own rule agrees
        catalog.convert(graph, force=True)
        after = catalog.checksum(str(graph))
        assert after != before
        assert after == GraphCatalog(tmp_path / "fresh-cache").checksum(str(graph))

    def test_rcsr_spec_rewritten(self, catalog, tmp_path):
        path = write_rcsr(path_graph(5), tmp_path / "p.rcsr")
        before = self.remembered(catalog, path)
        write_rcsr(path_graph(6), path)
        assert catalog.checksum(str(path)) != before

    @staticmethod
    def replace_keeping_size_and_mtime(path, data):
        """Replace ``path`` as every container writer does (``atomic_replace``),
        then give it the old mtime back: only the inode tells the files apart."""
        stat = path.stat()
        assert len(data) == stat.st_size
        with atomic_replace(path) as tmp:
            tmp.write_bytes(data)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_ino != stat.st_ino

    def test_rcsr_spec_replaced_with_the_same_size_and_mtime(self, catalog, tmp_path):
        path = write_rcsr(path_graph(5), tmp_path / "p.rcsr")
        other = write_rcsr(star_graph(5), tmp_path / "s.rcsr").read_bytes()
        before = self.remembered(catalog, path)
        self.replace_keeping_size_and_mtime(path, other)
        assert catalog.memoized(str(path)) is None
        after = catalog.checksum(str(path))
        assert after != before
        assert after == GraphCatalog(tmp_path / "fresh-cache").checksum(str(path))

    def test_container_of_a_text_spec_replaced(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        before = self.remembered(catalog, graph)
        rcsr = catalog.rcsr_path_for(graph)
        cycle = write_graph(tmp_path / "c.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n")
        other = GraphCatalog(tmp_path / "other-cache").resolve(str(cycle)).read_bytes()
        self.replace_keeping_size_and_mtime(rcsr, other)
        assert header_checksum(read_header(rcsr)) != before
        assert catalog.memoized(str(graph)) is None
        # The sidecar no longer matches the container: the catalog re-converts.
        assert catalog.checksum(str(graph)) == before
        assert header_checksum(read_header(rcsr)) == before

    def test_deleted_source_raises(self, catalog, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        self.remembered(catalog, graph)
        graph.unlink()
        with pytest.raises(FileNotFoundError):
            catalog.resolve(str(graph))
        with pytest.raises(FileNotFoundError):
            catalog.checksum(str(graph))


# --------------------------------------------------------------------- #
# The worker's artifacts
# --------------------------------------------------------------------- #
class TestWorkerArtifacts:
    def test_put_moves_the_snapshot(self, tmp_path):
        from repro.session import write_snapshot

        cache = ResultCache(tmp_path / "results")
        snapshot = tmp_path / "results" / ".job-1.snap"
        snapshot.parent.mkdir(parents=True)
        write_snapshot(snapshot, {"kind": "test"}, {"counts": np.zeros(5)})
        inode = snapshot.stat().st_ino
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        entry = cache.put("crc32:aa", request, fake_estimator("g", eps=0.1, delta=0.1),
                          snapshot=snapshot)
        stored = cache.snapshot_path(entry)
        assert not snapshot.exists()
        assert stored.stat().st_ino == inode

    def test_job_leaves_no_checkpoint_and_its_entry_refines(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(30)) + "0 15\n")
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
        )

        def request(eps):
            return QueryRequest(graph=str(graph), eps=eps, delta=0.2, seed=1,
                                algorithm="sequential")

        async def scenario():
            first = await manager.submit(request(0.3))
            await first.job.future
            leftovers = list((tmp_path / "results").glob(".job-*"))
            second = await manager.submit(request(0.1))
            await second.job.future
            return first, leftovers, manager.store.get(second.job.id)

        try:
            first, leftovers, row = asyncio.run(scenario())
        finally:
            manager.close()
        assert leftovers == []
        assert list((tmp_path / "results").glob(".job-*")) == []
        entry = next(e for e in manager.cache.entries(first.checksum) if e.eps == 0.3)
        assert row.kwargs["refined_from"] == entry.key

    def test_result_json_is_built_once(self, tmp_path, monkeypatch):
        calls = []
        to_json = BetweennessResult.to_json
        monkeypatch.setattr(
            BetweennessResult, "to_json", lambda self: calls.append(1) or to_json(self)
        )
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
            estimator=fake_estimator,
        )
        graph = write_graph(tmp_path / "g.txt")

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
            return await outcome.job.future

        try:
            asyncio.run(scenario())
        finally:
            manager.close()
        assert len(calls) == 1
