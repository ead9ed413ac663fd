"""Durability tests: the job store, crash recovery and multi-worker draining.

The acceptance property of the durable store is brutal and specific:
**SIGKILL-ing a worker mid-job never loses the job**.  The lease expires,
another worker re-queues and completes it, and — because estimations are
deterministic in the request's seed — the replacement's result is
bit-identical to what the dead worker would have produced.  That exact
scenario runs here with real OS processes and ``kill -9``.

Around it: unit tests of the :class:`~repro.service.store.JobStore` protocol
(atomic enqueue-dedup, lease claiming, owner-guarded completion, heartbeat
expiry, poison caps, retention) driven by an injected fake clock so no test
sleeps its way to a deadline; coordinator crash recovery
(:meth:`~repro.service.jobs.JobManager.resume_pending`); tenant admission
control; and the external-dispatch path end to end through the HTTP service
with a real :class:`~repro.service.worker.StoreWorker` draining the store.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.result import BetweennessResult
from repro.service import (
    BetweennessService,
    JobManager,
    JobStore,
    QueryRequest,
    QuotaExceeded,
    ResultCache,
    ServiceClient,
    StoreWorker,
    TenantQuota,
)
from repro.service.store import DEFAULT_MAX_ATTEMPTS
from repro.store import GraphCatalog

TRIANGLE_PLUS_TAIL = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]


def write_graph(path, edges=TRIANGLE_PLUS_TAIL):
    path.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    return path


def make_request(graph, **overrides) -> QueryRequest:
    fields = {"graph": str(graph), "eps": 0.3, "delta": 0.2,
              "algorithm": "sequential", "seed": 7}
    fields.update(overrides)
    return QueryRequest(**fields)


def enqueue_request(store: JobStore, catalog: GraphCatalog, request: QueryRequest,
                    **kwargs):
    """What a coordinator does, minus the asyncio: resolve + enqueue."""
    path = catalog.resolve(request.graph)
    checksum = catalog.checksum(path)
    record, created = store.enqueue(
        key=request.job_key(checksum),
        tenant=request.tenant,
        request=request.as_dict(),
        checksum=checksum,
        graph_path=str(path),
        **kwargs,
    )
    return record, created


#: The jobs table as the store's first schema created it (no progress
#: columns); a store file from then must still open and run.
FIRST_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL,
    tenant         TEXT NOT NULL DEFAULT 'default',
    state          TEXT NOT NULL CHECK (state IN
                       ('queued','running','done','failed','cancelled')),
    request        TEXT NOT NULL,
    checksum       TEXT NOT NULL,
    graph_path     TEXT NOT NULL,
    kwargs         TEXT NOT NULL DEFAULT '{}',
    attempts       INTEGER NOT NULL DEFAULT 0,
    lease_owner    TEXT,
    lease_deadline REAL,
    created_at     REAL NOT NULL,
    started_at     REAL,
    finished_at    REAL,
    result         TEXT,
    error          TEXT
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_live_key
    ON jobs(key) WHERE state IN ('queued', 'running');
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, created_at, id);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant, state);
"""


class FakeClock:
    """Injectable time source: leases expire by assignment, not by sleeping."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    store = JobStore(tmp_path / "jobs.sqlite3", lease_seconds=10.0, clock=clock)
    yield store
    store.close()


def dead_worker_id(prefix: str) -> str:
    """A :func:`default_worker_id`-shaped owner on this host whose pid is dead."""
    return f"{prefix}:{socket.gethostname()}:999999999:beef"


def fake_job(store, key="k1", tenant="default", **kwargs):
    record, created = store.enqueue(
        key=key,
        tenant=tenant,
        request={"graph": "g", "eps": 0.1, "delta": 0.1},
        checksum="abc",
        graph_path="/nonexistent.rcsr",
        **kwargs,
    )
    return record, created


# --------------------------------------------------------------------- #
# Store protocol (fake clock, no subprocesses)
# --------------------------------------------------------------------- #
class TestJobStore:
    def test_enqueue_then_claim_round_trip(self, store):
        record, created = fake_job(store, kwargs={"resume_from": "/snap"})
        assert created and record.state == "queued" and record.attempts == 0
        assert record.job_id == f"job-{record.id}"
        assert record.kwargs == {"resume_from": "/snap"}

        claimed = store.claim("w1")
        assert claimed.id == record.id
        assert claimed.state == "running"
        assert claimed.lease_owner == "w1"
        assert claimed.attempts == 1
        assert claimed.lease_deadline == pytest.approx(store.clock() + 10.0)
        assert store.claim("w2") is None  # nothing else queued

    def test_live_key_dedup_is_atomic_and_lifts_after_finish(self, store):
        first, created1 = fake_job(store)
        second, created2 = fake_job(store)
        assert created1 and not created2
        assert second.id == first.id  # joined, not duplicated

        claimed = store.claim("w1")
        still, created3 = fake_job(store)  # running also blocks re-enqueue
        assert not created3 and still.id == first.id

        assert store.complete(claimed.id, "w1", json.dumps({"ok": True}))
        fresh, created4 = fake_job(store)
        assert created4 and fresh.id != first.id  # finished rows don't dedup

    def test_claim_is_fifo(self, store, clock):
        a, _ = fake_job(store, key="a")
        clock.advance(1.0)
        b, _ = fake_job(store, key="b")
        assert store.claim("w").id == a.id
        assert store.claim("w").id == b.id

    def test_heartbeat_extends_lease(self, store, clock):
        record, _ = fake_job(store)
        claimed = store.claim("w1")
        clock.advance(8.0)
        assert store.heartbeat(claimed.id, "w1")
        refreshed = store.get_by_rowid(claimed.id)
        assert refreshed.lease_deadline == pytest.approx(clock() + 10.0)
        # Wrong owner cannot touch the lease.
        assert not store.heartbeat(claimed.id, "imposter")

    def test_expired_lease_requeues_and_next_worker_wins(self, store, clock):
        record, _ = fake_job(store)
        store.claim("w1", lease_seconds=5.0)
        clock.advance(5.1)
        requeued, poisoned = store.requeue_expired()
        assert (requeued, poisoned) == (1, 0)
        row = store.get_by_rowid(record.id)
        assert row.state == "queued" and row.lease_owner is None
        assert row.attempts == 1  # the failed attempt stays on the record

        taken = store.claim("w2")
        assert taken.attempts == 2
        # The dead worker's late heartbeat and completion are both rejected.
        assert not store.heartbeat(record.id, "w1")
        assert not store.complete(record.id, "w1", "{}")
        assert store.complete(record.id, "w2", json.dumps({"winner": "w2"}))
        final = store.get_by_rowid(record.id)
        assert final.state == "done" and json.loads(final.result) == {"winner": "w2"}

    def test_live_lease_is_not_requeued(self, store, clock):
        fake_job(store)
        store.claim("w1", lease_seconds=5.0)
        clock.advance(4.9)
        assert store.requeue_expired() == (0, 0)

    def test_poison_cap_fails_crash_looping_job(self, store, clock):
        record, _ = fake_job(store)
        for _ in range(2):
            store.claim("w", lease_seconds=1.0)
            clock.advance(1.1)
            assert store.requeue_expired(max_attempts=3) == (1, 0)
        store.claim("w", lease_seconds=1.0)  # attempts now 3
        clock.advance(1.1)
        requeued, poisoned = store.requeue_expired(max_attempts=3)
        assert (requeued, poisoned) == (0, 1)
        row = store.get_by_rowid(record.id)
        assert row.state == "failed"
        assert "lease expired" in row.error and "3" in row.error

    def test_fail_records_error_and_releases_key(self, store):
        record, _ = fake_job(store)
        store.claim("w1")
        assert store.fail(record.id, "w1", "RuntimeError: boom")
        row = store.get_by_rowid(record.id)
        assert row.state == "failed" and row.error == "RuntimeError: boom"
        _, created = fake_job(store)  # key is free again
        assert created

    def test_cancel_only_touches_queued_jobs(self, store):
        record, _ = fake_job(store)
        assert store.cancel(record.id)
        assert store.get_by_rowid(record.id).state == "cancelled"
        running, _ = fake_job(store, key="k2")
        store.claim("w1")
        assert not store.cancel(running.id)  # running: cannot recall the worker

    def test_get_accepts_external_job_ids(self, store):
        record, _ = fake_job(store)
        assert store.get(record.job_id).id == record.id
        assert store.get(record.id).id == record.id
        assert store.get("job-999") is None
        assert store.get("not-a-job") is None

    def test_counts_and_tenant_counts(self, store):
        fake_job(store, key="a", tenant="alice")
        fake_job(store, key="b", tenant="alice")
        fake_job(store, key="c", tenant="bob")
        store.claim("w1")
        counts = store.counts()
        assert counts["queued"] == 2 and counts["running"] == 1
        tenants = store.tenant_counts()
        assert tenants["alice"]["queued"] + tenants["alice"]["running"] == 2
        assert tenants["bob"] == {"queued": 1, "running": 0}

    def test_prune_finished_keeps_newest(self, store, clock):
        for i in range(5):
            record, _ = fake_job(store, key=f"k{i}")
            store.claim("w")
            clock.advance(1.0)
            store.complete(record.id, "w", "{}")
        live, _ = fake_job(store, key="live")  # queued rows are never pruned
        removed = store.prune_finished(keep=2)
        assert removed == 3
        remaining = store.list()
        finished = [r for r in remaining if r.state == "done"]
        assert len(finished) == 2
        assert {r.key for r in finished} == {"k3", "k4"}  # newest survive
        assert store.get_by_rowid(live.id).state == "queued"

    def test_prune_finished_is_exact_past_a_thousand_rows(self, store, clock):
        """Done, failed and cancelled rows share one retention order: newest
        ``finished_at`` first, equal stamps broken by the newer id."""
        for i in range(1_010):
            record, _ = fake_job(store, key=f"k{i}")
            if i % 7 == 0:
                store.cancel(record.id)
            else:
                store.claim("w")
                if i % 5 == 0:
                    store.fail(record.id, "w", "boom")
                else:
                    store.complete(record.id, "w", "{}")
            if i % 2:
                clock.advance(1.0)  # pairs of rows share a finished_at
        live, _ = fake_job(store, key="live")
        finished = [r for r in store.list() if r.state != "queued"]
        newest = sorted(finished, key=lambda r: (r.finished_at, r.id))[-1_001:]
        assert store.prune_finished(keep=1_001) == 9
        assert store.prune_finished(keep=1_001) == 0
        kept = [r for r in store.list() if r.state != "queued"]
        assert [r.id for r in kept] == sorted(r.id for r in newest)
        assert store.get_by_rowid(live.id).state == "queued"
        assert store.prune_finished(keep=0) == 1_001
        assert store.counts()["queued"] == 1

    def test_store_from_the_first_schema_gains_progress_columns(self, tmp_path):
        """A store file created before the progress columns existed: opening
        it adds them, keeps every existing value, and its row runs to done."""
        import sqlite3

        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        request = make_request(graph, seed=4)
        path = catalog.resolve(request.graph)
        checksum = catalog.checksum(path)
        store_path = tmp_path / "jobs.sqlite3"
        old = sqlite3.connect(store_path)
        old.executescript(FIRST_SCHEMA)
        old.execute(
            "INSERT INTO jobs (key, tenant, state, request, checksum, graph_path,"
            " kwargs, created_at) VALUES (?, 'team-a', 'queued', ?, ?, ?, '{}', 12.5)",
            (request.job_key(checksum), json.dumps(request.as_dict()), checksum, str(path)),
        )
        old.commit()
        (before,) = old.execute("SELECT * FROM jobs").fetchall()
        old.close()

        store = JobStore(store_path)
        try:
            (opened,) = store._conn().execute("SELECT * FROM jobs").fetchall()
            assert opened == before + ("[]", 0, None)  # new columns last, defaulted
            worker = StoreWorker(store, cache=ResultCache(tmp_path / "results"))
            assert worker.run(max_jobs=1) == 1
            row = store.get_by_rowid(before[0])
        finally:
            store.close()
        assert row.state == "done" and row.result is not None
        phases = [event["phase"] for event in row.progress]
        assert phases[-1] == "done" and row.num_events == len(phases)
        assert (row.key, row.tenant, row.request, row.checksum, row.graph_path,
                row.kwargs, row.created_at) == (
            before[1], "team-a", request.as_dict(), checksum, str(path), {}, 12.5)

    def test_store_survives_reopen(self, tmp_path, clock):
        first = JobStore(tmp_path / "jobs.sqlite3", clock=clock)
        record, _ = fake_job(first)
        first.close()
        second = JobStore(tmp_path / "jobs.sqlite3", clock=clock)
        try:
            row = second.get_by_rowid(record.id)
            assert row.state == "queued" and row.request["graph"] == "g"
        finally:
            second.close()


# --------------------------------------------------------------------- #
# StoreWorker pull loop (in-process, real estimations)
# --------------------------------------------------------------------- #
class TestStoreWorker:
    def test_worker_drains_queue_and_populates_cache(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        store = JobStore(tmp_path / "jobs.sqlite3")
        cache = ResultCache(tmp_path / "results")
        try:
            r1, _ = enqueue_request(store, catalog, make_request(graph, seed=1))
            r2, _ = enqueue_request(store, catalog, make_request(graph, seed=2))
            worker = StoreWorker(store, cache=cache, poll_seconds=0.01)
            completed = worker.run(max_jobs=2)
            assert completed == 2 and worker.jobs_failed == 0

            for record in (r1, r2):
                row = store.get_by_rowid(record.id)
                assert row.state == "done"
                result = BetweennessResult.from_json(row.result)
                assert result.num_samples > 0
            # The cache now answers both seeds without sampling.
            found = cache.find(r1.checksum, family="adaptive-sampling",
                               eps=0.3, delta=0.2)
            assert found is not None
        finally:
            store.close()

    def test_estimation_error_fails_the_row(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        try:
            record, _ = fake_job(store)  # graph_path does not exist
            worker = StoreWorker(store, cache=ResultCache(tmp_path / "results"))
            worker.run(max_jobs=1)
            row = store.get_by_rowid(record.id)
            assert row.state == "failed"
            assert worker.jobs_failed == 1 and worker.jobs_done == 0
        finally:
            store.close()

    def test_idle_worker_exits_on_max_idle(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        try:
            worker = StoreWorker(store, cache=ResultCache(tmp_path / "results"),
                                 poll_seconds=0.01)
            started = time.monotonic()
            assert worker.run(max_idle_seconds=0.1) == 0
            assert time.monotonic() - started < 5.0
        finally:
            store.close()


# --------------------------------------------------------------------- #
# The headline property: SIGKILL mid-job loses nothing
# --------------------------------------------------------------------- #
def _spawn_worker(store_path, cache_dir, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.worker",
         "--store", str(store_path), "--cache-dir", str(cache_dir),
         "--poll-seconds", "0.05", *extra],
        env=env,
        stdout=subprocess.DEVNULL,
    )


def _wait_until(predicate, *, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(message)


class TestCrashRecovery:
    def test_sigkilled_worker_never_loses_the_job(self, tmp_path):
        """Worker 1 claims the job and dies to SIGKILL mid-run; worker 2
        re-queues the expired lease, completes the job, and produces the
        bit-identical result the dead worker would have."""
        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        store_path = tmp_path / "jobs.sqlite3"
        cache_dir = tmp_path / "results"
        store = JobStore(store_path)
        request = make_request(graph, seed=1234)
        victim = survivor = None
        try:
            record, _ = enqueue_request(store, catalog, request)

            # Worker 1: claims immediately, then holds (heartbeating) for far
            # longer than the test — a deterministic window to kill it in.
            victim = _spawn_worker(
                store_path, cache_dir,
                "--lease-seconds", "0.5", "--hold-seconds", "60",
            )
            _wait_until(
                lambda: store.get_by_rowid(record.id).state == "running",
                timeout=30.0, message="worker 1 never claimed the job",
            )
            victim.kill()  # SIGKILL: no cleanup, no final heartbeat
            victim.wait(timeout=10.0)

            # The job is now a running row with a dead owner.  Worker 2's
            # normal poll loop must recover and finish it.
            survivor = _spawn_worker(
                store_path, cache_dir,
                "--lease-seconds", "5", "--max-jobs", "1",
                "--max-idle-seconds", "30",
            )
            _wait_until(
                lambda: store.get_by_rowid(record.id).state == "done",
                timeout=60.0, message="worker 2 never completed the job",
            )
            survivor.wait(timeout=30.0)

            row = store.get_by_rowid(record.id)
            assert row.attempts == 2  # one doomed claim + one successful
            assert row.error is None

            # Bit-identical to a direct same-seed run: determinism is what
            # makes "just re-run it" a correct recovery strategy.
            from repro.api import estimate_betweenness

            recovered = BetweennessResult.from_json(row.result)
            direct = estimate_betweenness(
                row.graph_path, algorithm=request.algorithm,
                eps=request.eps, delta=request.delta, seed=request.seed,
            )
            assert np.array_equal(recovered.scores, direct.scores)
            assert recovered.num_samples == direct.num_samples
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)
            store.close()

    def test_pool_coordinator_restart_resumes_queued_jobs(self, tmp_path):
        """A coordinator that died after enqueueing (rows queued, nobody
        running them) is replaced; the successor adopts and completes them."""
        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        store = JobStore(tmp_path / "jobs.sqlite3")
        record, _ = enqueue_request(store, catalog, make_request(graph, seed=9))

        calls = []

        def estimator(graph_path, *, callbacks=None, **kwargs):
            calls.append(kwargs)
            rng = np.random.default_rng(kwargs.get("seed", 0))
            return BetweennessResult(scores=rng.random(5), num_samples=50,
                                     eps=kwargs["eps"], delta=kwargs["delta"],
                                     omega=200, num_epochs=1,
                                     phase_seconds={"total": 0.001},
                                     backend="sequential")

        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=catalog,
            store=store,
            worker_mode="thread",
            estimator=estimator,
        )

        async def scenario():
            adopted = await manager.resume_pending()
            job = manager.get_job(record.job_id)
            await job.future
            return adopted, job

        adopted, job = asyncio.run(scenario())
        manager.close()
        assert adopted == 1
        assert job.num_waiters == 0
        assert calls and calls[0]["seed"] == 9
        row = JobStore(tmp_path / "jobs.sqlite3").get_by_rowid(record.id)
        assert row.state == "done" and row.result is not None

    @pytest.mark.parametrize("prefix", ["local", "worker"])
    def test_dead_local_pool_claim_is_reclaimed(self, tmp_path, clock, prefix):
        """A row still 'running' under a dead process's lease on this host —
        a coordinator's local worker or an external worker, killed before its
        lease expired — is re-queued on restart without waiting out the lease."""
        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        store = JobStore(tmp_path / "jobs.sqlite3")
        record, _ = enqueue_request(store, catalog, make_request(graph, seed=3))
        # Forge the dead worker's claim: no process has pid 999999999, and
        # the lease deadline is far in the future.
        dead_owner = dead_worker_id(prefix)
        store._conn().execute(
            "UPDATE jobs SET state='running', lease_owner=?, lease_deadline=?"
            " WHERE id=?",
            (dead_owner, time.time() + 3600.0, record.id),
        )

        def estimator(graph_path, *, callbacks=None, **kwargs):
            rng = np.random.default_rng(kwargs.get("seed", 0))
            return BetweennessResult(scores=rng.random(5), num_samples=50,
                                     eps=kwargs["eps"], delta=kwargs["delta"],
                                     omega=200, num_epochs=1,
                                     phase_seconds={"total": 0.001},
                                     backend="sequential")

        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=catalog,
            store=store,
            worker_mode="thread",
            estimator=estimator,
        )

        async def scenario():
            adopted = await manager.resume_pending()
            job = manager.get_job(record.job_id)
            await job.future
            return adopted

        adopted = asyncio.run(scenario())
        manager.close()
        assert adopted == 1
        final = JobStore(tmp_path / "jobs.sqlite3").get_by_rowid(record.id)
        assert final.state == "done"

    def test_job_that_keeps_killing_workers_is_poisoned(self, store, clock):
        """A job whose every worker dies does not spin or sit queued: each
        dead claim is released at once (no lease runs out on the fake clock),
        and the attempts cap fails the job."""
        record, _ = fake_job(store)
        for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
            assert store.claim(dead_worker_id("local")).attempts == attempt
            expected = (0, 1) if attempt == DEFAULT_MAX_ATTEMPTS else (1, 0)
            assert store.requeue_expired() == expected
        row = store.get_by_rowid(record.id)
        assert row.state == "failed" and str(DEFAULT_MAX_ATTEMPTS) in row.error
        assert store.claim("w") is None


# --------------------------------------------------------------------- #
# External dispatch through the HTTP service
# --------------------------------------------------------------------- #
class TestExternalDispatch:
    def test_service_enqueues_and_external_worker_completes(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        store = JobStore(tmp_path / "jobs.sqlite3", lease_seconds=5.0)
        cache = ResultCache(tmp_path / "results")

        async def main():
            service = BetweennessService(
                port=0,
                cache=cache,
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=store,
                dispatch="external",
                poll_seconds=0.05,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=30.0)
            worker = StoreWorker(store, cache=cache, poll_seconds=0.02)
            thread = threading.Thread(
                target=worker.run, kwargs={"max_jobs": 1}, daemon=True
            )
            try:
                fields = {"graph": str(graph), "eps": 0.3, "delta": 0.2,
                          "algorithm": "sequential", "seed": 5}
                submitted = await asyncio.to_thread(
                    client.query, **fields, wait=False
                )
                assert submitted["status"] == "queued"
                thread.start()
                status = await asyncio.to_thread(
                    client.wait_for_job, submitted["job_id"],
                    poll_seconds=0.05, timeout=60.0,
                )
                # Identical repeat: now a pure cache hit, no second job.
                again = await asyncio.to_thread(client.query, **fields)
                # The poll above reads the store row; the coordinator counts
                # the job when its own watcher next reads it (poll_seconds).
                for _ in range(100):
                    stats = await asyncio.to_thread(client.stats)
                    if stats["completed"]:
                        break
                    await asyncio.sleep(0.05)
                # A row this coordinator never tracked (enqueued directly,
                # completed by the worker) must still answer a poll from the
                # store — with the same "status" key in-memory jobs use.
                request = make_request(graph, eps=0.25, seed=11)
                record, _ = enqueue_request(store, service.jobs.catalog, request)
                StoreWorker(store, cache=cache, poll_seconds=0.02).run(max_jobs=1)
                foreign = await asyncio.to_thread(
                    client.request, "GET", f"/v1/jobs/{record.job_id}"
                )
                return status, again, stats, foreign
            finally:
                thread.join(timeout=30.0)
                client.close()
                await service.stop()

        status, again, stats, foreign = asyncio.run(main())
        assert foreign["status"] == "done" and foreign["state"] == "done"
        assert foreign["result"]["num_samples"] > 0
        assert status["status"] == "done"
        assert status["result"]["num_samples"] > 0
        assert again["served_from_cache"] is True
        assert stats["dispatch"] == "external"
        assert stats["store"]["done"] == 1
        assert stats["completed"] == 1


# --------------------------------------------------------------------- #
# Tenant admission control
# --------------------------------------------------------------------- #
class TestTenantQuota:
    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_inflight=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued=-1)
        assert TenantQuota().unlimited

    def test_over_quota_rejected_and_counted(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        hold = threading.Event()

        def estimator(graph_path, *, callbacks=None, **kwargs):
            assert hold.wait(timeout=30.0)
            return BetweennessResult(scores=np.zeros(5), num_samples=50,
                                     eps=kwargs["eps"], delta=kwargs["delta"],
                                     omega=200, num_epochs=1,
                                     phase_seconds={"total": 0.001},
                                     backend="sequential")

        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            store=JobStore(tmp_path / "jobs.sqlite3"),
            worker_mode="thread",
            estimator=estimator,
            quota=TenantQuota(max_inflight=1),
        )

        async def scenario():
            first = await manager.submit(
                QueryRequest(graph=str(graph), eps=0.1, seed=1, tenant="alice")
            )
            # Same tenant, different job: over max_inflight=1.
            with pytest.raises(QuotaExceeded) as excinfo:
                await manager.submit(
                    QueryRequest(graph=str(graph), eps=0.1, seed=2, tenant="alice")
                )
            # A different tenant is not starved by alice's backlog...
            other = await manager.submit(
                QueryRequest(graph=str(graph), eps=0.1, seed=3, tenant="bob")
            )
            # ...and joining alice's *identical* in-flight job is free:
            # dedup happens before admission, quotas meter work not answers.
            joined = await manager.submit(
                QueryRequest(graph=str(graph), eps=0.1, seed=1, tenant="alice")
            )
            manager.refresh_metrics()  # pin the per-tenant gauges while live
            hold.set()
            await first.job.future
            await other.job.future
            # With the queue drained, alice is admitted again (eps tighter
            # than anything cached, so this is real work, not a cache hit).
            after = await manager.submit(
                QueryRequest(graph=str(graph), eps=0.05, seed=4, tenant="alice")
            )
            await after.job.future
            return excinfo.value, joined

        exc, joined = asyncio.run(scenario())
        # Idle tenants must be zeroed on refresh, not hold their last live
        # count forever (tenant_counts() only reports live states).
        gauge = manager.metrics.gauge(
            "repro_store_tenant_live_jobs", labelnames=("tenant",)
        )
        assert gauge.labels(tenant="alice").value > 0  # pinned while live
        manager.refresh_metrics()
        assert gauge.labels(tenant="alice").value == 0
        assert gauge.labels(tenant="bob").value == 0
        manager.close()
        assert exc.tenant == "alice" and exc.limit == 1 and exc.current == 1
        assert joined.deduplicated
        assert manager.counters["quota_rejected"] == 1
        assert manager.counters["completed"] == 3

    def test_a_job_claimed_while_admission_counts_is_counted_once(self, tmp_path):
        """A worker claims the tenant's queued job right after admission's
        first read of the store: the job moves from queued to running, and
        must still count as one live job, not as one of each."""
        graph = write_graph(tmp_path / "g.txt")
        store = JobStore(tmp_path / "jobs.sqlite3")
        racer = JobStore(tmp_path / "jobs.sqlite3")  # another worker's connection
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            store=store,
            dispatch="external",  # no local worker: the racer is the only one
            quota=TenantQuota(max_inflight=2),
        )
        claimed = []

        class Rows(list):
            def fetchone(self):
                return self[0] if self else None

        class ClaimAfterFirstCount:
            """This thread's store connection; the racer claims right after the first count it reads."""

            def __init__(self, conn):
                self.conn = conn

            def __getattr__(self, name):
                return getattr(self.conn, name)

            def execute(self, sql, *params):
                cursor = self.conn.execute(sql, *params)
                if "COUNT(*)" not in sql or claimed:
                    return cursor
                rows = Rows(cursor.fetchall())
                claimed.append(racer.claim("racer"))
                return rows

        async def scenario():
            first = await manager.submit(QueryRequest(graph=str(graph), eps=0.1, seed=1, tenant="alice"))
            store._local.conn = ClaimAfterFirstCount(store._conn())
            try:
                # One live job, so under max_inflight=2 the second is admitted.
                second = await manager.submit(QueryRequest(graph=str(graph), eps=0.1, seed=2, tenant="alice"))
            finally:
                store._local.conn = store._local.conn.conn
            counts = store.counts()
            # End both jobs, so that no job loop outlives the event loop.
            racer.fail(first.job.store_id, "racer", "released")
            store.cancel(second.job.store_id)
            await asyncio.gather(first.job.future, second.job.future, return_exceptions=True)
            return first.job.store_id, counts

        try:
            first_id, counts = asyncio.run(scenario())
        finally:
            manager.close()
            racer.close()
        assert [record.id for record in claimed] == [first_id]  # the race did happen
        assert (counts["queued"], counts["running"]) == (1, 1)
        assert manager.counters["quota_rejected"] == 0

    def test_http_429(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        hold = threading.Event()

        def estimator(graph_path, *, callbacks=None, **kwargs):
            assert hold.wait(timeout=30.0)
            return BetweennessResult(scores=np.zeros(5), num_samples=50,
                                     eps=kwargs["eps"], delta=kwargs["delta"],
                                     omega=200, num_epochs=1,
                                     phase_seconds={"total": 0.001},
                                     backend="sequential")

        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=JobStore(tmp_path / "jobs.sqlite3"),
                worker_mode="thread",
                estimator=estimator,
                quota=TenantQuota(max_inflight=1),
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=30.0)
            try:
                first = await asyncio.to_thread(
                    client.query, graph=str(graph), eps=0.1, seed=1,
                    tenant="alice", wait=False,
                )
                from repro.service.client import ServiceError

                with pytest.raises(ServiceError) as excinfo:
                    await asyncio.to_thread(
                        client.query, graph=str(graph), eps=0.1, seed=2,
                        tenant="alice", wait=False,
                    )
                hold.set()
                await asyncio.to_thread(
                    client.wait_for_job, first["job_id"],
                    poll_seconds=0.05, timeout=30.0,
                )
                return excinfo.value
            finally:
                hold.set()
                client.close()
                await service.stop()

        error = asyncio.run(main())
        assert error.status == 429
        assert "alice" in str(error)
