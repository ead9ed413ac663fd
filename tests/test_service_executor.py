"""One way to run a job in every dispatch mode, and every job settled from its row.

Every job is claimed and run by :meth:`repro.service.worker.StoreWorker.run`:
``dispatch="pool"`` starts that loop in forked local worker processes (or
threads), ``dispatch="external"`` leaves it to ``repro.service.worker``
processes.  These tests pin what that promises: the modes are the same
computation with the same artifacts; progress is written into the job row by
every worker — local process, local thread or external — so the first poll
after a job settles holds all of it, and a restarted service serves it too;
cache-write failures and kernel counters reach the coordinator through the
row, each sample counted once; a SIGKILLed local worker is replaced and its
job still ends ``done``; a job whose lease is lost ends ``done`` in the
*store*; a worker's one heartbeat thread beats every job, leaks no
connection, keeps a held job's lease and writes the row at its tick, not at
every event; a job starts no thread; thread workers share one mapped graph;
and a poll
answered from the row honours ``?k=`` / ``include_scores=``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.api import estimate_betweenness
from repro.core.result import BetweennessResult
from repro.graph.generators import barabasi_albert
from repro.graph.io import write_edge_list
from repro.obs import metrics as obs_metrics
from repro.service import (
    BetweennessService,
    JobManager,
    JobStore,
    QueryRequest,
    ResultCache,
    ServiceClient,
    StoreWorker,
)
from repro.store import GraphCatalog

QUERY = {"eps": 0.1, "delta": 0.2, "algorithm": "sequential", "seed": 5}

#: The phases a sequential run reports, in order of first appearance.
PHASES = ["diameter", "calibration", "adaptive_sampling", "done"]


def first_phases(progress):
    """The distinct phases of a progress list, in order of first appearance."""
    return list(dict.fromkeys(event["phase"] for event in progress))


@pytest.fixture()
def graph(tmp_path):
    path = tmp_path / "ba.txt"
    write_edge_list(barabasi_albert(60, 2, seed=4), path)
    return path


def fake_result(**kwargs) -> BetweennessResult:
    rng = np.random.default_rng(kwargs.get("seed", 0))
    return BetweennessResult(
        scores=rng.random(5), num_samples=50, eps=kwargs["eps"], delta=kwargs["delta"],
        omega=200, num_epochs=1, phase_seconds={"total": 0.001}, backend="sequential",
    )


def run_one(tmp_path, name, graph, *, dispatch, **manager_kwargs):
    """Run QUERY through a fresh manager; returns (row, manager, checksum)."""
    cache = ResultCache(tmp_path / f"{name}-results")
    manager = JobManager(
        cache=cache,
        catalog=GraphCatalog(tmp_path / "graph-cache"),
        store=JobStore(tmp_path / f"{name}-jobs.sqlite3"),
        dispatch=dispatch,
        poll_seconds=0.02,
        **manager_kwargs,
    )

    async def scenario():
        outcome = await manager.submit(QueryRequest(graph=str(graph), **QUERY))
        if dispatch == "external":
            worker = StoreWorker(manager.store, cache=cache, poll_seconds=0.02)
            drain = asyncio.to_thread(worker.run, max_jobs=1)
            await asyncio.gather(outcome.job.future, drain)
        else:
            await outcome.job.future
        return outcome

    try:
        outcome = asyncio.run(scenario())
        row = manager.store.get(outcome.job.id)
    finally:
        manager.close()
    return row, manager, outcome.checksum


class TestOneExecutor:
    def test_pool_and_external_are_the_same_computation(self, tmp_path, graph):
        rows = {}
        for name, kwargs in (
            ("pool", {"dispatch": "pool", "worker_mode": "process"}),
            ("thread", {"dispatch": "pool", "worker_mode": "thread"}),
            ("external", {"dispatch": "external"}),
        ):
            row, manager, checksum = run_one(tmp_path, name, graph, **kwargs)
            cache = manager.cache
            assert row.state == "done" and row.attempts == 1
            # Every mode writes the whole run's progress into the row.
            assert first_phases(row.progress) == PHASES
            assert row.num_events == len(row.progress)
            payload = json.loads(row.result)
            assert payload["num_samples"] > 0 and len(payload["scores"]) == 60
            rows[name] = json.dumps(payload["scores"])
            (entry,) = cache.entries(checksum)
            assert entry.has_snapshot
            refinable = cache.find_refinable(
                checksum, family="adaptive-sampling", eps=0.05, delta=0.2, seed=5
            )
            assert refinable is not None and refinable[0].key == entry.key
            # The worker's temporary checkpoint is gone; only the entry remains.
            assert not list(cache.cache_dir.glob(".job-*"))
        assert rows["pool"] == rows["external"] == rows["thread"]

    @pytest.mark.parametrize("worker_mode", ["process", "thread"])
    def test_pool_progress_reaches_the_job_endpoint(self, tmp_path, graph, worker_mode):
        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                worker_mode=worker_mode,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=60.0)
            try:
                submitted = await asyncio.to_thread(
                    client.query, graph=str(graph), **QUERY, wait=False
                )
                status = await asyncio.to_thread(
                    client.wait_for_job, submitted["job_id"], poll_seconds=0.05, timeout=60.0
                )
                metrics = await asyncio.to_thread(client.metrics)
                return status, metrics
            finally:
                client.close()
                await service.stop()

        status, metrics = asyncio.run(main())
        assert status["status"] == "done" and status["state"] == "done"
        # The first poll that sees the job settled already holds every event.
        assert first_phases(status["progress"]) == PHASES
        assert status["progress"][-1]["phase"] == "done"
        assert status["num_events"] == len(status["progress"])
        # The worker's kernel counters made it back to this process's /metrics.
        samples = [
            float(line.rpartition(" ")[2])
            for line in metrics.splitlines()
            if line.startswith("repro_kernel_samples_total")
        ]
        assert samples and max(samples) > 0

    def test_process_pool_reports_cache_write_failure(self, tmp_path, graph):
        # A *file* where the graph's entry directory should be: the put fails
        # in the pool process; the coordinator must still hear about it.
        catalog = GraphCatalog(tmp_path / "graph-cache")
        checksum = catalog.checksum(catalog.resolve(str(graph)))
        (tmp_path / "pool-results").mkdir()
        (tmp_path / "pool-results" / checksum.replace(":", "-")).write_text("not a directory")
        row, manager, _checksum = run_one(
            tmp_path, "pool", graph, dispatch="pool", worker_mode="process"
        )
        assert row.state == "done"
        assert manager.counters["cache_write_failures"] == 1
        assert manager.counters["failed"] == 0
        assert row.progress[-1]["phase"] == "cache-write-failed"
        assert not list(manager.cache.cache_dir.glob(".job-*"))

    def test_sigkilled_local_worker_is_replaced(self, tmp_path, graph, monkeypatch):
        """A forked local worker dies to SIGKILL mid-job.  The coordinator
        forks a replacement, the dead pid hands the row on at once, and that
        job and the next cold query both end ``done``, bit-identical to
        undisturbed runs."""
        estimate = StoreWorker._estimate

        def hold_first_attempt(self, record, *args):
            if record.attempts == 1 and record.request["seed"] == QUERY["seed"]:
                time.sleep(60.0)  # the window to kill the worker in
            return estimate(self, record, *args)

        # Patched before the fork, so the local workers inherit it.
        monkeypatch.setattr(StoreWorker, "_estimate", hold_first_attempt)
        older = {child.pid for child in multiprocessing.active_children()}

        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=JobStore(tmp_path / "jobs.sqlite3"),
                worker_mode="process",
                poll_seconds=0.05,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=60.0)
            try:
                submitted = await asyncio.to_thread(
                    client.query, graph=str(graph), **QUERY, wait=False
                )
                job_id = submitted["job_id"]
                for _ in range(600):
                    if service.jobs.store.get(job_id).state == "running":
                        break
                    await asyncio.sleep(0.05)
                (victim,) = [
                    child for child in multiprocessing.active_children()
                    if child.pid not in older
                ]
                os.kill(victim.pid, signal.SIGKILL)
                first = await asyncio.to_thread(
                    client.wait_for_job, job_id, poll_seconds=0.05, timeout=60.0
                )
                await asyncio.to_thread(client.cache_evict, all=True)
                second = await asyncio.to_thread(
                    client.query, graph=str(graph), **{**QUERY, "seed": 6},
                    include_scores=True,
                )
                return first, second, service.jobs.store.get(job_id)
            finally:
                client.close()
                await service.stop()

        first, second, row = asyncio.run(main())
        assert first["status"] == "done" and row.attempts == 2
        assert second["status"] == "done" and second["served_from_cache"] is False
        recovered = BetweennessResult.from_json(row.result)
        for seed, scores in ((5, recovered.scores), (6, second["result"]["scores"])):
            direct = estimate_betweenness(
                row.graph_path, algorithm=QUERY["algorithm"], eps=QUERY["eps"],
                delta=QUERY["delta"], seed=seed,
            )
            assert np.array_equal(np.asarray(scores), direct.scores)


def spawn_worker(store_path, cache_dir):
    """A ``python -m repro.service.worker`` process draining ``store_path``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.worker", "--store", str(store_path),
         "--cache-dir", str(cache_dir), "--poll-seconds", "0.05"],
        env=env,
        stdout=subprocess.DEVNULL,
    )


class TestKernelCountersInTheRow:
    @pytest.mark.parametrize("mode", ["process", "thread", "external"])
    def test_every_sample_is_counted_once(self, tmp_path, graph, mode):
        """``repro_kernel_samples_total`` equals the finished jobs' samples,
        whether a worker process wrote its counters into the row or a thread
        worker counted into the coordinator's registry itself."""
        obs_metrics.REGISTRY.clear()
        store_path, cache_dir = tmp_path / "jobs.sqlite3", tmp_path / "results"
        if mode == "external":
            kwargs = {"dispatch": "external"}
        else:
            kwargs = {"worker_mode": mode}

        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(cache_dir),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=JobStore(store_path),
                poll_seconds=0.05,
                **kwargs,
            )
            await service.start()
            worker = spawn_worker(store_path, cache_dir) if mode == "external" else None
            client = ServiceClient(service.host, service.port, timeout=60.0)
            try:
                samples = 0
                for seed in (1, 2, 3):
                    await asyncio.to_thread(client.cache_evict, all=True)
                    answer = await asyncio.to_thread(
                        client.query, graph=str(graph), **{**QUERY, "seed": seed}
                    )
                    assert answer["served_from_cache"] is False
                    samples += answer["result"]["num_samples"]
                return samples, await asyncio.to_thread(client.metrics)
            finally:
                if worker is not None:
                    worker.terminate()
                    worker.wait(timeout=30.0)
                client.close()
                await service.stop()

        samples, metrics = asyncio.run(main())
        assert kernel_samples(metrics) == samples > 0

    def test_workers_outnumbering_cores_run_each_job_once(self, tmp_path, graph):
        """More forked workers than cores race for every enqueue (each ring
        wakes them all): every job is claimed once and its samples counted
        once, whichever queries the cache answers meanwhile."""
        obs_metrics.REGISTRY.clear()
        queries = [{**QUERY, "seed": seed, "eps": 0.3 - 0.01 * seed} for seed in range(12)]

        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=JobStore(tmp_path / "jobs.sqlite3"),
                max_workers=(os.cpu_count() or 1) + 2,
                poll_seconds=0.05,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=60.0)
            loop = asyncio.get_running_loop()
            try:
                # The clients' own threads: the service's executor stays free.
                with ThreadPoolExecutor(6) as clients:
                    answers = await asyncio.wait_for(asyncio.gather(*(
                        loop.run_in_executor(
                            clients, functools.partial(client.query, graph=str(graph), **query)
                        )
                        for query in queries
                    )), timeout=120.0)
                metrics = await asyncio.to_thread(client.metrics)
                return answers, service.jobs.store.list(), metrics
            finally:
                client.close()
                await service.stop()

        answers, rows, metrics = asyncio.run(main())
        assert all(answer["status"] == "done" for answer in answers)
        assert {(row.state, row.attempts) for row in rows} == {("done", 1)}
        assert len(rows) == sum(not answer["served_from_cache"] for answer in answers)
        samples = sum(json.loads(row.result)["num_samples"] for row in rows)
        assert kernel_samples(metrics) == samples > 0


def kernel_samples(metrics: str) -> float:
    """``repro_kernel_samples_total`` of a ``/metrics`` page."""
    (counted,) = [
        float(line.rpartition(" ")[2])
        for line in metrics.splitlines()
        if line.startswith("repro_kernel_samples_total ")
    ]
    return counted


class TestProgressInTheRow:
    """Progress is written into the job row, so the job endpoint serves it
    whoever ran the job — an external worker included — and after a restart,
    together with the row's refine source."""

    def serve(self, tmp_path, scenario, **service_kwargs):
        """Run ``scenario(client, service)`` against a service on the test's store."""

        async def main():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                store=JobStore(tmp_path / "jobs.sqlite3"),
                poll_seconds=0.02,
                **service_kwargs,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=60.0)
            try:
                return await scenario(client, service)
            finally:
                client.close()
                await service.stop()

        return asyncio.run(main())

    @staticmethod
    def drain(service):
        """One external worker draining the service's store (the caller awaits it)."""
        worker = StoreWorker(service.jobs.store, cache=service.jobs.cache, poll_seconds=0.02)
        return asyncio.to_thread(worker.run, max_jobs=1)

    def test_external_worker_progress_reaches_the_job_endpoint(self, tmp_path, graph):
        async def scenario(client, service):
            submitted = await asyncio.to_thread(
                client.query, graph=str(graph), **QUERY, wait=False
            )
            assert await self.drain(service) == 1
            return await asyncio.to_thread(client.job, submitted["job_id"])

        status = self.serve(tmp_path, scenario, dispatch="external")
        assert status["status"] == "done"
        assert first_phases(status["progress"]) == PHASES
        assert status["num_events"] >= 4

    def test_wait_for_job_streams_external_progress(self, tmp_path, graph):
        async def scenario(client, service):
            submitted = await asyncio.to_thread(
                client.query, graph=str(graph), **QUERY, wait=False
            )
            events = []
            status, _ = await asyncio.gather(
                asyncio.to_thread(
                    client.wait_for_job, submitted["job_id"], poll_seconds=0.02,
                    timeout=60.0, on_progress=events.append,
                ),
                self.drain(service),
            )
            return status, events

        status, events = self.serve(tmp_path, scenario, dispatch="external")
        assert status["status"] == "done"
        assert first_phases(events) == PHASES
        assert events[-1]["phase"] == "done"

    def test_job_list_is_the_store_rows(self, tmp_path, graph):
        """``GET /v1/jobs`` lists rows this coordinator never tracked: one an
        external worker finished and one still queued, without result payloads."""

        async def scenario(client, service):
            store, catalog = service.jobs.store, service.jobs.catalog
            path = catalog.resolve(str(graph))
            checksum = catalog.checksum(path)
            for seed in (1, 2):
                request = QueryRequest(graph=str(graph), **{**QUERY, "seed": seed})
                store.enqueue(
                    key=request.job_key(checksum), tenant="default",
                    request=request.as_dict(), checksum=checksum, graph_path=str(path),
                )
            assert await self.drain(service) == 1
            return await asyncio.to_thread(client.request, "GET", "/v1/jobs")

        listing = self.serve(tmp_path, scenario, dispatch="external")
        queued, done = listing["jobs"]  # live rows first, then finished ones
        assert (queued["state"], done["state"]) == ("queued", "done")
        assert done["has_result"] and "result" not in done
        assert first_phases(done["progress"]) == PHASES
        assert listing["store"]["done"] == listing["store"]["queued"] == 1

    def test_restarted_service_serves_progress_and_refine_source(self, tmp_path, graph):
        async def refine(client, service):
            await asyncio.to_thread(client.query, graph=str(graph), **{**QUERY, "eps": 0.3})
            refined = await asyncio.to_thread(client.query, graph=str(graph), **QUERY)
            return refined, await asyncio.to_thread(client.job, refined["job_id"])

        async def poll(client, service):
            return await asyncio.to_thread(client.job, refined["job_id"])

        refined, before = self.serve(tmp_path, refine, worker_mode="thread")
        after = self.serve(tmp_path, poll, dispatch="external")
        assert refined["refined_from"] is not None
        assert after["refined_from"] == before["refined_from"] == refined["refined_from"]
        assert after["progress"] == before["progress"]
        assert after["progress"][-1]["phase"] == "done"
        assert after["num_events"] == before["num_events"] == len(after["progress"])


class TestSettleFromTheRow:
    def test_pool_job_requeued_under_it_ends_done_in_the_store(self, tmp_path, graph):
        """The lease expires mid-run and a janitor re-queues the row: the pool
        must run it again until the *row* is done, not just resolve the future."""
        now = [1000.0]
        store = JobStore(tmp_path / "jobs.sqlite3", clock=lambda: now[0])
        started, release = threading.Event(), threading.Event()
        calls = []

        def estimator(graph_path, *, callbacks=None, **kwargs):
            calls.append(kwargs["seed"])
            started.set()
            assert release.wait(timeout=30.0)
            return fake_result(**kwargs)

        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            store=store,
            worker_mode="thread",
            estimator=estimator,
            lease_seconds=60.0,  # first heartbeat after 20 s: none during the test
            poll_seconds=3600.0,  # the job loop's janitor passes once, at its start
        )
        # The test owns the janitor: a pass of it in its executor thread between
        # the clock jump and the test's own requeue_expired would take the row.
        janitor_passes = []
        real_janitor = manager._janitor

        async def janitor():
            await real_janitor()
            janitor_passes.append(now[0])

        manager._janitor = janitor

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), **QUERY))
            assert await asyncio.to_thread(started.wait, 30.0)
            while not janitor_passes:
                await asyncio.sleep(0.005)
            now[0] += 61.0  # past the lease
            assert store.requeue_expired() == (1, 0)
            assert store.get(outcome.job.id).state == "queued"
            release.set()
            result = await asyncio.wait_for(outcome.job.future, timeout=30.0)
            return outcome.job, result

        try:
            job, result = asyncio.run(scenario())
            row = store.get(job.id)
        finally:
            manager.close()
        assert row.state == "done" and row.attempts == 2
        assert calls == [5, 5]
        assert janitor_passes == [1000.0]  # before the lease ran out, and only then
        assert result.scores.tolist() == json.loads(row.result)["scores"]
        assert manager.counters["completed"] == 1 and manager.counters["failed"] == 0

    def test_store_backed_poll_honours_k_and_include_scores(self, tmp_path, graph):
        """A finished row polled through a *fresh* service on the same store
        (a restart) is shaped by the poll's own ``?k=`` / ``include_scores=``."""
        store_path = tmp_path / "jobs.sqlite3"
        cache = ResultCache(tmp_path / "results")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        request = QueryRequest(graph=str(graph), **QUERY, k=7)
        path = catalog.resolve(request.graph)
        checksum = catalog.checksum(path)
        with_store = JobStore(store_path)
        record, _ = with_store.enqueue(
            key=request.job_key(checksum), tenant=request.tenant,
            request=request.as_dict(), checksum=checksum, graph_path=str(path),
        )
        assert StoreWorker(with_store, cache=cache).run(max_jobs=1) == 1
        with_store.close()

        async def main():
            service = BetweennessService(
                port=0, cache=cache, catalog=catalog, store=JobStore(store_path),
                dispatch="external",
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=30.0)
            try:
                assert service.jobs.get_job(record.job_id) is None
                url = f"/v1/jobs/{record.job_id}"
                plain = await asyncio.to_thread(client.request, "GET", url)
                shaped = await asyncio.to_thread(
                    client.request, "GET", url + "?k=2&include_scores=true"
                )
                return plain, shaped
            finally:
                client.close()
                await service.stop()

        plain, shaped = asyncio.run(main())
        assert plain["status"] == "done" and len(plain["result"]["top"]) == 7
        assert "scores" not in plain["result"]
        assert len(shaped["result"]["top"]) == 2
        assert len(shaped["result"]["scores"]) == 60


def enqueue_seeds(store, tmp_path, graph, seeds):
    """One QUERY job per seed on ``graph``; returns the converted ``.rcsr`` path."""
    catalog = GraphCatalog(tmp_path / "graph-cache")
    path = catalog.resolve(str(graph))
    checksum = catalog.checksum(path)
    for seed in seeds:
        request = QueryRequest(graph=str(graph), **{**QUERY, "seed": seed})
        store.enqueue(
            key=request.job_key(checksum), tenant="default",
            request=request.as_dict(), checksum=checksum, graph_path=str(path),
        )
    return path


def quick_estimator(graph_path, *, callbacks=None, **kwargs):
    return fake_result(**kwargs)


class TestHeartbeatConnections:
    def test_long_jobs_share_one_beat_thread_and_leak_nothing(self, tmp_path, graph):
        """A worker's one heartbeat thread beats every job longer than a tick;
        its SQLite connection closes when ``run`` returns, and the store's
        connections and this process's descriptors stay bounded across jobs."""
        store = JobStore(tmp_path / "jobs.sqlite3")
        enqueue_seeds(store, tmp_path, graph, range(6))
        beats = set()
        heartbeat = store.heartbeat

        def counting_heartbeat(job_id, *args, **kwargs):
            beats.add((threading.current_thread(), job_id))
            return heartbeat(job_id, *args, **kwargs)

        store.heartbeat = counting_heartbeat
        worker = StoreWorker(
            store,
            cache=ResultCache(tmp_path / "results"),
            lease_seconds=0.15,
            hold_seconds=0.2,  # longer than two ticks (lease/3): every job beats
        )
        worker.run(max_jobs=1)  # warm-up: this thread's connection, imports, the mapped graph
        connections = len(store._connections)
        descriptors = len(os.listdir("/proc/self/fd"))
        beats.clear()
        assert worker.run(max_jobs=6) == 6  # the warm-up's job counts: five more ran
        threads = {thread for thread, _job in beats}
        assert len(threads) == 1 and len({job for _thread, job in beats}) == 5
        assert not threads.pop().is_alive()
        assert len(store._connections) == connections
        assert len(os.listdir("/proc/self/fd")) <= descriptors
        store.close()


class TestOneBeatThread:
    """``run`` starts the worker's heartbeat thread and joins it; jobs only
    register with it."""

    def test_jobs_start_no_thread(self, tmp_path, graph, monkeypatch):
        store = JobStore(tmp_path / "jobs.sqlite3")
        enqueue_seeds(store, tmp_path, graph, range(5))
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        worker = StoreWorker(store, cache=ResultCache(tmp_path / "results"), estimator=quick_estimator)
        try:
            assert worker.run(max_jobs=5) == 5
        finally:
            store.close()
        assert started == ["repro-worker-heartbeat"]

    def test_a_held_job_keeps_its_lease(self, tmp_path, graph):
        """Held past its lease several times over, a job is renewed at the
        tick: no ``requeue_expired`` meanwhile takes it, and it ends ``done``
        on its first attempt."""
        store = JobStore(tmp_path / "jobs.sqlite3")
        enqueue_seeds(store, tmp_path, graph, [5])
        worker = StoreWorker(
            store, cache=ResultCache(tmp_path / "results"), lease_seconds=0.3,
            poll_seconds=0.05, hold_seconds=1.0, estimator=quick_estimator,
        )
        janitor = JobStore(store.path)
        requeued, done = [], threading.Event()

        def sweep():
            while not done.is_set():
                requeued.append(janitor.requeue_expired())
                time.sleep(0.02)

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        try:
            assert worker.run(max_jobs=1) == 1
        finally:
            done.set()
            sweeper.join(timeout=10.0)
            janitor.close()
        (row,) = store.list()
        store.close()
        assert row.state == "done" and row.attempts == 1
        assert len(requeued) > 10 and set(requeued) == {(0, 0)}

    def test_stop_ends_the_beat_thread(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        worker = StoreWorker(store, cache=ResultCache(tmp_path / "results"), poll_seconds=0.05)
        before = set(threading.enumerate())
        runner = threading.Thread(target=worker.run, daemon=True)
        runner.start()
        deadline = time.monotonic() + 10.0
        beat = None
        while beat is None and time.monotonic() < deadline:
            beat = next(
                (t for t in set(threading.enumerate()) - before if t.name == "repro-worker-heartbeat"), None
            )
            time.sleep(0.01)
        assert beat is not None and beat.is_alive()
        worker.stop()
        runner.join(timeout=10.0)
        store.close()
        assert not runner.is_alive() and not beat.is_alive()


class TestThreadWorkersShareTheMappedGraph:
    def test_two_thread_workers_on_one_mapped_graph(self, tmp_path, graph, monkeypatch):
        """Two thread workers run six jobs on one graph, mapped once and
        shared: each result is the one a lone facade call computes."""
        import repro.store.catalog as catalog_module
        from repro.store import load_graph

        store = JobStore(tmp_path / "jobs.sqlite3")
        path = enqueue_seeds(store, tmp_path, graph, range(6))
        shared = load_graph(path)
        opened = []
        real_open = catalog_module.open_rcsr
        monkeypatch.setattr(
            catalog_module, "open_rcsr", lambda *a, **k: opened.append(a) or real_open(*a, **k)
        )
        cache = ResultCache(tmp_path / "results")
        workers = [StoreWorker(store, cache=cache, poll_seconds=0.05) for _ in range(2)]
        runners = [
            threading.Thread(target=w.run, kwargs={"max_idle_seconds": 0.5}, daemon=True) for w in workers
        ]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120.0)
        rows = store.list()
        store.close()
        assert sum(w.jobs_done for w in workers) == 6 and opened == []
        assert load_graph(path) is shared
        for row in rows:
            expected = estimate_betweenness(str(path), **{**QUERY, "seed": row.request["seed"]})
            assert row.state == "done"
            assert json.loads(row.result)["scores"] == expected.scores.tolist()


class TestHeartbeatCadence:
    """The beat thread ticks every ``min(poll_seconds, lease/3)`` and writes
    only when the ring holds unwritten events or the lease is due: a job
    shorter than a tick touches its row at claim and complete alone, and a
    longer one streams its progress at the tick."""

    @staticmethod
    def enqueue(store, tmp_path, graph, seed=5):
        catalog = GraphCatalog(tmp_path / "graph-cache")
        path = catalog.resolve(str(graph))
        checksum = catalog.checksum(path)
        request = QueryRequest(graph=str(graph), **{**QUERY, "seed": seed})
        record, _ = store.enqueue(
            key=request.job_key(checksum), tenant="default",
            request=request.as_dict(), checksum=checksum, graph_path=str(path),
        )
        return record

    @staticmethod
    def counting(store):
        beats = []
        heartbeat = store.heartbeat
        store.heartbeat = lambda *args, **kwargs: beats.append(kwargs["progress"]) or heartbeat(*args, **kwargs)
        return beats

    def test_a_job_shorter_than_a_tick_never_beats(self, tmp_path, graph):
        from repro.util.progress import ProgressEvent

        store = JobStore(tmp_path / "jobs.sqlite3")
        record = self.enqueue(store, tmp_path, graph)
        beats = self.counting(store)

        def estimator(graph_path, *, callbacks=None, **kwargs):
            for epoch in range(5):  # about 0.1 s in all, well inside one 2 s tick
                callbacks(ProgressEvent("adaptive_sampling", epoch=epoch, num_samples=10 * epoch))
                time.sleep(0.02)
            return fake_result(**kwargs)

        worker = StoreWorker(
            store, cache=ResultCache(tmp_path / "results"), poll_seconds=2.0, estimator=estimator
        )
        try:
            assert worker.run(max_jobs=1) == 1
            row = store.get(record.job_id)
        finally:
            store.close()
        assert beats == []
        # The events still reach the row, with the completion.
        assert row.state == "done" and row.num_events == 5

    def test_a_longer_job_streams_progress_at_the_tick(self, tmp_path, graph):
        from repro.util.progress import ProgressEvent

        store = JobStore(tmp_path / "jobs.sqlite3")
        record = self.enqueue(store, tmp_path, graph)
        beats = self.counting(store)
        seen = []

        def estimator(graph_path, *, callbacks=None, **kwargs):
            # One event per step, then wait (at most 10 s) until the row shows
            # it: about one tick (50 ms) per step, about three ticks in all.
            for epoch in range(1, 4):
                callbacks(ProgressEvent("adaptive_sampling", epoch=epoch, num_samples=10 * epoch))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    row = store.get(record.job_id)
                    if row.num_events >= epoch:
                        seen.append((row.state, row.num_events))
                        break
                    time.sleep(0.01)
            return fake_result(**kwargs)

        worker = StoreWorker(
            store, cache=ResultCache(tmp_path / "results"), poll_seconds=0.05, estimator=estimator
        )
        try:
            assert worker.run(max_jobs=1) == 1
            row = store.get(record.job_id)
        finally:
            store.close()
        assert seen == [("running", 1), ("running", 2), ("running", 3)]
        # The beats carried the events as they came (a renewal, due after 5 s, adds none).
        assert sorted({progress[1] for progress in beats}) == [1, 2, 3]
        assert row.state == "done" and row.num_events == 3
