"""Job coordination: dedup, quotas and cached execution over a durable store.

The :class:`JobManager` is the service's brain; the HTTP layer on top of it
is a thin translation.  One query flows through it as:

1. **Resolve** — the graph spec goes through the shared
   :class:`~repro.store.GraphCatalog` (text inputs convert into the graph
   cache on first touch; a repeated spec whose files have not changed is
   answered from the catalog's stat-checked memo) and comes back as an
   ``.rcsr`` path plus its content checksum.
2. **Cache probe** — the :class:`~repro.service.cache.ResultCache` is scanned
   for an entry that *dominates* the request (same graph checksum, same
   algorithm family, eps'/delta' at least as tight; exact entries dominate
   everything).  Repeated probes short-circuit in the cache's in-memory
   TTL+LRU hot tier; either way a hit answers with zero sampling.  A
   near-miss (same adaptive family and seed, tighter-than-cached eps/delta)
   whose entry carries a session checkpoint becomes a *refine* job instead of
   a cold one, and a graph recorded as a *mutation* of a cached parent
   becomes an *update* job (:mod:`repro.evolve`), exactly as before.
   Resolve and probe are one blocking call (:meth:`JobManager._probe`) in
   one executor hop, so a first-touch conversion never stalls the event loop.
3. **Dedup** — an identical request (same
   :meth:`~repro.service.schema.QueryRequest.job_key`) already in flight is
   joined, not re-run — whether it is in flight in *this* process or, via the
   store's live-key index, in any other coordinator sharing the store.
4. **Admit** — per-tenant quotas (:class:`TenantQuota`): a tenant over its
   max in-flight or max queued jobs is rejected with
   :class:`~repro.service.store.QuotaExceeded` (HTTP 429) *before* the job
   exists, so one hot tenant cannot starve the queue for everyone.
5. **Enqueue** — the job becomes a row in the SQLite-backed
   :class:`~repro.service.store.JobStore`.  From here on it survives this
   process: a crashed coordinator's jobs are re-run on restart
   (:meth:`JobManager.resume_pending`) or picked up by external workers.
6. **Execute** — one executor for both dispatch modes:
   :class:`~repro.service.worker.StoreWorker` claims the row, heartbeats its
   lease, runs the estimation and finishes the row; its heartbeat thread
   writes the progress events into the row as they arrive.  With
   ``dispatch="pool"`` (default) the manager hands the row id to its worker
   pool (process pool by default; thread pool for tests), whose worker claims
   that row *by id*; with ``dispatch="external"`` N worker processes
   (``python -m repro.service.worker``) drain the store.
7. **Store** — the worker writes the finished result to the result cache
   (with the session checkpoint when the backend supports refinement) and
   the full result JSON to the job row — the durable copy that answers polls
   after every process restarts.

The row is the job.  This process keeps, per live job, only what a row
cannot hold — a :class:`Job` handle with the awaitable future and the
waiter count — and one loop per job (:meth:`JobManager._drive`) reads the
row until it is terminal, then :meth:`JobManager._settle` resolves the
future from it and drops the handle.
"""

from __future__ import annotations

import asyncio
import functools
import os
import socket
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.core.result import BetweennessResult
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import CacheEntry, ResultCache
from repro.service.dominance import algorithm_family
from repro.service.schema import QueryRequest
from repro.service.store import FINISHED_STATES, JobRecord, JobStore, QuotaExceeded
from repro.service.worker import MAX_EVENTS, StoreWorker
from repro.store import GraphCatalog

__all__ = ["Job", "JobManager", "MAX_EVENTS", "SubmitOutcome", "TenantQuota"]

#: How many of the newest finished rows ``GET /v1/jobs`` lists next to the live ones.
MAX_FINISHED_JOBS = 256

#: Default finished rows kept in the durable store.
STORE_RETENTION = 1000

WORKER_MODES = ("process", "thread")
DISPATCH_MODES = ("pool", "external")

#: Lease given to pool-claimed jobs.  The pool worker heartbeats every
#: ``lease/3`` while the estimation runs, so the lease only expires when the
#: coordinator actually died — at which point a restart's
#: :meth:`JobManager.resume_pending` (or any external worker's
#: ``requeue_expired``) recovers the job.
POOL_LEASE_SECONDS = 15.0

#: The service counters, in the order ``stats()`` reports them.  Each becomes
#: a ``repro_service_<key>_total`` counter on the manager's registry; the
#: :attr:`JobManager.counters` mapping view keeps the historical dict-of-int
#: shape on top of them.
_COUNTER_KEYS = (
    ("queries", "Queries received by the job manager"),
    ("cache_hits", "Queries answered straight from the result cache"),
    ("cache_misses", "Queries that required sampling"),
    ("cache_refines", "Jobs that refined a cached session checkpoint"),
    ("cache_updates", "Jobs that incrementally updated a cached parent session"),
    ("deduplicated", "Queries joined onto an identical in-flight job"),
    ("quota_rejected", "Queries rejected by per-tenant admission control"),
    ("completed", "Jobs finished successfully"),
    ("failed", "Jobs finished with an error"),
    ("cache_write_failures", "Results computed but not persisted to the cache"),
)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``None`` = unlimited).

    ``max_inflight`` caps a tenant's total live jobs (queued + running);
    ``max_queued`` caps the queued backlog alone — a tighter knob that lets a
    tenant keep workers busy but not hoard the queue.  Limits are counted
    against the durable store, so they hold across every coordinator sharing
    it.  Cache hits and dedup joins are free: quotas meter *work*.
    """

    max_inflight: Optional[int] = None
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_inflight", "max_queued"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise ValueError(f"{name} must be a positive integer or None")

    @property
    def unlimited(self) -> bool:
        return self.max_inflight is None and self.max_queued is None

    def as_dict(self) -> Dict[str, Optional[int]]:
        return {"max_inflight": self.max_inflight, "max_queued": self.max_queued}


#: The pool process's :class:`StoreWorker`, built once by :func:`_pool_init`.
_POOL_WORKER: Optional[StoreWorker] = None


def _pool_init(store_path, cache_dir, options) -> None:
    """Pool-process initializer: open the store and the cache once per process."""
    global _POOL_WORKER
    _POOL_WORKER = StoreWorker(store_path, cache=ResultCache(cache_dir), **options)


def _pool_execute(row_id: int, collect_metrics: bool):
    """Pool-process entry point: run one row (its progress goes into the row).

    Returns ``(StoreWorker.execute's outcome, metrics_snapshot)``.  When
    ``collect_metrics`` the worker's process-global registry is cleared before
    the run and its snapshot shipped back, so the parent can ``merge()`` the
    kernel counters (samples, batches) of every worker into its own registry
    — worker processes have no other channel back to ``/metrics``.  The
    registry is a pure transport buffer here: nothing else in the worker reads
    it, so clearing per job keeps the snapshot equal to this job's delta even
    when the pool reuses the process.
    """
    if collect_metrics:
        obs_metrics.REGISTRY.clear()
        obs_metrics.enable_metrics()
    outcome = _POOL_WORKER.execute(row_id)
    return outcome, obs_metrics.REGISTRY.snapshot() if collect_metrics else None


@dataclass
class Job:
    """The live handle of one store row: only what the row cannot hold.

    State, attempts, timestamps, progress, result, error and the refine/update
    source are all read from the row (:attr:`store_id`); this adds the
    awaitable future and the waiter count, and leaves the manager once the
    job settles.
    """

    id: str
    key: str
    checksum: str
    #: Row id in the durable store (``id`` is ``job-<store_id>``).
    store_id: int
    future: "asyncio.Future[BetweennessResult]" = field(repr=False)
    num_waiters: int = 1


@dataclass(frozen=True)
class SubmitOutcome:
    """What :meth:`JobManager.submit` decided for one request."""

    checksum: str
    served_from_cache: bool = False
    deduplicated: bool = False
    job: Optional[Job] = None
    result: Optional[BetweennessResult] = None
    cache_entry: Optional[CacheEntry] = None


class JobManager:
    """Owns the cache, the durable store and the worker pool (see module docs).

    Parameters
    ----------
    cache, catalog:
        Shared :class:`ResultCache` / :class:`~repro.store.GraphCatalog`;
        fresh defaults (honouring ``$REPRO_RESULT_CACHE`` /
        ``$REPRO_GRAPH_CACHE``) when omitted.
    store:
        The durable :class:`JobStore` (or a path to its SQLite file).
        Defaults to ``jobs.sqlite3`` inside the result-cache directory, so
        every coordinator and worker sharing the cache shares the queue.
    dispatch:
        ``"pool"`` (default): this manager's worker pool claims and executes
        its jobs.  ``"external"``: jobs are only enqueued; separate
        ``python -m repro.service.worker`` processes drain the store and the
        manager watches the rows.
    resources:
        :class:`~repro.api.Resources` handed to every estimation.
    worker_mode:
        ``"process"`` (default; one estimation per pool process) or
        ``"thread"``.  Pool dispatch only.
    max_workers:
        Concurrent estimations in pool dispatch.
    quota:
        Per-tenant :class:`TenantQuota` admission limits (default: none).
    lease_seconds:
        Claim lifetime for pool-dispatched jobs (heartbeated while running).
    poll_seconds:
        Store poll interval for watched (external/foreign) jobs.
    store_retention:
        Finished rows kept in the store.
    estimator:
        Thread-mode only: the :class:`StoreWorker` ``estimator`` seam tests
        use to count sampling runs.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        catalog: Optional[GraphCatalog] = None,
        store=None,
        dispatch: str = "pool",
        resources=None,
        worker_mode: str = "process",
        max_workers: int = 1,
        quota: Optional[TenantQuota] = None,
        lease_seconds: float = POOL_LEASE_SECONDS,
        poll_seconds: float = 0.25,
        store_retention: int = STORE_RETENTION,
        estimator: Optional[Callable[..., BetweennessResult]] = None,
    ) -> None:
        if worker_mode not in WORKER_MODES:
            raise ValueError(f"worker_mode must be one of {WORKER_MODES}, got {worker_mode!r}")
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}")
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if estimator is not None and worker_mode == "process":
            raise ValueError("a custom estimator requires worker_mode='thread'")
        if estimator is not None and dispatch == "external":
            raise ValueError("a custom estimator requires dispatch='pool'")
        self.cache = cache if cache is not None else ResultCache()
        self.catalog = catalog if catalog is not None else GraphCatalog()
        if isinstance(store, JobStore):
            self.store = store
        elif store is not None:
            self.store = JobStore(Path(store), lease_seconds=lease_seconds)
        else:
            try:
                self.store = JobStore(
                    self.cache.cache_dir / "jobs.sqlite3", lease_seconds=lease_seconds
                )
            except (OSError, sqlite3.Error):
                # The cache directory is unusable (same failure the cache
                # write path tolerates).  Durability degrades to a private
                # ephemeral store rather than refusing to serve — an
                # explicitly configured ``store`` still fails loudly above.
                import tempfile

                self.store = JobStore(
                    Path(tempfile.mkdtemp(prefix="repro-jobs-")) / "jobs.sqlite3",
                    lease_seconds=lease_seconds,
                )
        self._dispatch = dispatch
        self._worker_mode = worker_mode
        self._max_workers = max_workers
        self._quota = quota if quota is not None else TenantQuota()
        self._lease_seconds = float(lease_seconds)
        self._poll_seconds = float(poll_seconds)
        self._store_retention = int(store_retention)
        self._executor = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The live jobs' handles, by job key (the in-process dedup index).
        self._inflight: Dict[str, Job] = {}
        #: Lease identity of this coordinator's pool claims; encodes host and
        #: pid so :meth:`resume_pending` can recognise (and reclaim) rows a
        #: dead local coordinator left behind.
        self.worker_id = f"pool:{socket.gethostname()}:{os.getpid()}"
        #: The executor of thread-mode pool jobs (pool processes build their
        #: own from the same arguments, see :func:`_pool_init`).
        self._worker = StoreWorker(
            self.store,
            cache=self.cache,
            worker_id=self.worker_id,
            lease_seconds=self._lease_seconds,
            resources=resources,
            estimator=estimator,
        )
        #: Per-manager metrics registry: the counters below plus the job
        #: latency histogram and in-flight gauge.  The server renders it next
        #: to the process-global :data:`repro.obs.metrics.REGISTRY` on
        #: ``GET /metrics``.  These service counters are the source of truth
        #: for :meth:`stats`, so they increment unconditionally (not gated on
        #: ``REPRO_METRICS`` — they sit on the asyncio control path, far off
        #: the sampling hot loop).
        self.metrics = MetricsRegistry()
        self._counter_metrics = {
            key: self.metrics.counter(f"repro_service_{key}_total", help)
            for key, help in _COUNTER_KEYS
        }
        self._inflight_gauge = self.metrics.gauge(
            "repro_service_inflight_jobs", "Jobs currently queued or running"
        )
        self._job_seconds = self.metrics.histogram(
            "repro_service_job_duration_seconds",
            "Wall-clock duration of finished estimation jobs",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0),
        )
        self._job_samples = self.metrics.counter(
            "repro_service_job_samples_total",
            "Shortest-path samples drawn by finished jobs",
        )
        self._samples_per_second = self.metrics.gauge(
            "repro_service_samples_per_second",
            "Sampling throughput of the most recently finished job",
        )
        self._store_jobs_gauge = self.metrics.gauge(
            "repro_store_jobs",
            "Jobs in the durable store by state",
            labelnames=("state",),
        )
        self._tenant_live_gauge = self.metrics.gauge(
            "repro_store_tenant_live_jobs",
            "Live (queued+running) store jobs by tenant",
            labelnames=("tenant",),
        )
        self._hot_counters = {
            key: self.metrics.counter(
                f"repro_cache_hot_{key}_total", f"Hot-tier result cache {key}"
            )
            for key in ("hits", "misses", "evictions")
        }
        self._hot_entries_gauge = self.metrics.gauge(
            "repro_cache_hot_entries", "Results currently held in the hot tier"
        )
        self._hot_seen = {key: 0 for key in self._hot_counters}
        self._tenants_seen: set = set()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _count(self, key: str) -> None:
        """Increment one service counter (atomic: one lock per registry)."""
        self._counter_metrics[key].inc()

    @property
    def counters(self) -> Dict[str, int]:
        """The service counters as the historical ``{name: int}`` mapping."""
        return {key: int(metric.value) for key, metric in self._counter_metrics.items()}

    def _observe_finished(self, record: JobRecord, result: BetweennessResult) -> None:
        """Record duration/throughput metrics of one finished job."""
        if record.started_at is None or record.finished_at is None:
            return
        seconds = max(0.0, record.finished_at - record.started_at)
        self._job_seconds.observe(seconds)
        num_samples = int(result.num_samples)
        if num_samples > 0:
            self._job_samples.inc(num_samples)
            if seconds > 0:
                self._samples_per_second.set(num_samples / seconds)

    def refresh_metrics(self) -> None:
        """Bring the store/hot-tier gauges up to date (cheap; called before
        every ``/metrics`` render and ``stats()``)."""
        for state, count in self.store.counts().items():
            self._store_jobs_gauge.labels(state=state).set(count)
        live = self.store.tenant_counts()
        # Tenants that went idle drop out of tenant_counts(); without the
        # explicit zero their gauge would hold its last nonzero value forever.
        for tenant in self._tenants_seen.difference(live):
            self._tenant_live_gauge.labels(tenant=tenant).set(0)
        for tenant, states in live.items():
            self._tenant_live_gauge.labels(tenant=tenant).set(sum(states.values()))
        self._tenants_seen.update(live)
        hot = self.cache.hot_stats()
        for key, counter in self._hot_counters.items():
            delta = int(hot[key]) - self._hot_seen[key]
            if delta > 0:
                counter.inc(delta)
                self._hot_seen[key] += delta
        self._hot_entries_gauge.set(int(hot["entries"]))

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _probe(self, request: QueryRequest) -> tuple:
        """Blocking: every disk read a submission needs, in one executor hop.

        Returns ``(graph_path, checksum, hit, refinable, update)``: the graph
        spec resolved through the catalog, the cache entry that dominates the
        request (``None`` on a miss) and, on a miss, the sources a new job may
        start from.  *refinable* is a cached adaptive run with the same seed,
        too loose for the request but carrying a session checkpoint, so it is
        refined instead of recomputed from zero.  *update* is found only when
        there is nothing to refine: the catalog's lineage says the graph is a
        recorded mutation of a cached parent, whose update-refinable
        checkpoint then serves via restore + invalidate + re-sample
        (:mod:`repro.evolve`).  Custom-estimator seams have a pinned keyword
        signature, so the update probe is skipped for them.
        """
        path, checksum = self.catalog.resolve_checksum(request.graph)
        family = algorithm_family(request.algorithm)
        bounds = {"family": family, "eps": request.eps, "delta": request.delta}
        hit = self.cache.find(checksum, **bounds)
        refinable = update = None
        if hit is None and family == "adaptive-sampling":
            refinable = self.cache.find_refinable(checksum, seed=request.seed, **bounds)
            if refinable is None and self._worker.estimator is None:
                update = self._find_update(checksum, request)
        return str(path), checksum, hit, refinable, update

    def _admit(self, tenant: str) -> None:
        """Per-tenant admission control; raises :class:`QuotaExceeded`.

        Counted against the durable store, so the limits hold across every
        coordinator sharing it.  Runs synchronously on the event loop — the
        check must share one loop step with the dedup probe and the enqueue
        (SQLite on local disk is microseconds; an ``await`` here would let
        two concurrent submits both pass the limit).
        """
        if self._quota.unlimited:
            return
        queued = self.store.live_count(tenant, "queued")
        if self._quota.max_queued is not None and queued >= self._quota.max_queued:
            self._count("quota_rejected")
            raise QuotaExceeded(
                f"tenant {tenant!r} has {queued} queued jobs"
                f" (max_queued={self._quota.max_queued}); retry later",
                tenant=tenant,
                limit=self._quota.max_queued,
                current=queued,
            )
        if self._quota.max_inflight is not None:
            live = queued + self.store.live_count(tenant, "running")
            if live >= self._quota.max_inflight:
                self._count("quota_rejected")
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {live} jobs in flight"
                    f" (max_inflight={self._quota.max_inflight}); retry later",
                    tenant=tenant,
                    limit=self._quota.max_inflight,
                    current=live,
                )

    async def submit(self, request: QueryRequest) -> SubmitOutcome:
        """Decide how a request is served: cache, an existing job, or a new one."""
        self._loop = asyncio.get_running_loop()
        self._count("queries")
        graph_path, checksum, hit, refinable, update = await self._loop.run_in_executor(
            None, self._probe, request
        )
        if hit is not None:
            entry, result = hit
            self._count("cache_hits")
            return SubmitOutcome(
                checksum=checksum,
                served_from_cache=True,
                result=result,
                cache_entry=entry,
            )
        self._count("cache_misses")

        # The dedup decision, the quota check and the store insertion below
        # share one event-loop step (no awaits between them), or two identical
        # concurrent requests both pass the check and sample twice.
        key = request.job_key(checksum)
        existing = self._inflight.get(key)
        if existing is not None:
            existing.num_waiters += 1
            self._count("deduplicated")
            return SubmitOutcome(checksum=checksum, deduplicated=True, job=existing)

        # New work for this process: admission control, then the atomic
        # enqueue.  Both are synchronous (see _admit) — no awaits until the
        # job is registered in _inflight.
        self._admit(request.tenant)

        # refined_from / updated_from only describe the job to pollers; the
        # worker forwards resume_from, update_from and graph_delta alone.
        kwargs: Dict[str, object] = {}
        if refinable is not None:
            entry, snapshot_path = refinable
            kwargs["refined_from"] = entry.key
            kwargs["resume_from"] = str(snapshot_path)
        elif update is not None:
            parent_checksum, _entry, snapshot_path, delta_payload = update
            kwargs["updated_from"] = parent_checksum
            kwargs["update_from"] = snapshot_path
            kwargs["graph_delta"] = delta_payload

        record, created = self.store.enqueue(
            key=key,
            tenant=request.tenant,
            request=request.as_dict(),
            checksum=checksum,
            graph_path=graph_path,
            kwargs=kwargs,
        )
        if refinable is not None:
            self._count("cache_refines")
        elif update is not None:
            self._count("cache_updates")
        if not created:
            self._count("deduplicated")
        # A row another coordinator already owns (dedup across processes) is
        # watched, like every row under external dispatch.
        job = self._track(record, run_here=created and self._dispatch == "pool")
        return SubmitOutcome(checksum=checksum, job=job)

    def _track(self, record: JobRecord, *, run_here: bool, num_waiters: int = 1) -> Job:
        """Register a live store row in this process and drive it to its end."""
        job = Job(
            id=record.job_id,
            key=record.key,
            checksum=record.checksum,
            store_id=record.id,
            future=self._loop.create_future(),
            num_waiters=num_waiters,
        )
        # Errors must reach pollers even when no submitter awaits the future.
        job.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[job.key] = job
        self._inflight_gauge.set(len(self._inflight))
        asyncio.ensure_future(self._drive(job, run_here))
        return job

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _find_update(
        self, checksum: str, request: QueryRequest
    ) -> Optional[Tuple[str, CacheEntry, str, dict]]:
        """Blocking: lineage probe + parent-cache scan for an update source.

        Returns ``(parent_checksum, entry, snapshot_path, delta_payload)``
        when the requested graph descends from a cached parent whose entry is
        update-refinable (adaptive family, matching seed, checkpoint with a
        sample log), else ``None`` — a missing or malformed lineage record
        included: the query then runs cold.
        """
        try:
            parent_checksum, graph_delta = self.catalog.parent_delta(checksum)
        except LookupError:
            return None
        found = self.cache.find_update_refinable(
            parent_checksum,
            family="adaptive-sampling",
            eps=request.eps,
            delta=request.delta,
            seed=request.seed,
        )
        if found is None:
            return None
        entry, snapshot_path = found
        return parent_checksum, entry, str(snapshot_path), graph_delta.as_dict()

    def _ensure_workers(self):
        if self._executor is not None:
            return self._executor
        if self._worker_mode == "process":
            from concurrent.futures import ProcessPoolExecutor

            from repro.kernels import compiled

            compiled.load()  # before the first fork: pool workers inherit the library
            options = {
                "worker_id": self.worker_id,
                "lease_seconds": self._lease_seconds,
                "resources": self._worker.resources,
            }
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                initializer=_pool_init,
                initargs=(self.store.path, self.cache.cache_dir, options),
            )
        else:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers, thread_name_prefix="repro-service-worker"
            )
        return self._executor

    def _settle(self, job: Job, record: Optional[JobRecord]) -> None:
        """Finish a job from its terminal store row — the one way a job ends."""
        self._inflight.pop(job.key, None)
        self._inflight_gauge.set(len(self._inflight))
        self.store.prune_finished(keep=self._store_retention)
        error = None
        if record is None:
            error = "RuntimeError: job row vanished from the store"
        elif record.state != "done":
            error = record.error or f"job {record.state}"
        else:
            try:
                result = BetweennessResult.from_json(record.result)
            except Exception as exc:  # noqa: BLE001 - corrupt row payload
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self._count("failed")
            if not job.future.cancelled():
                job.future.set_exception(RuntimeError(error))
            return
        # The worker wrote the cache entry through its own ResultCache; it may
        # change which entry wins for requests on this graph, so this
        # process's hot-tier verdicts are dropped.
        self.cache.hot.invalidate(job.checksum)
        self._count("completed")
        self._observe_finished(record, result)
        if not job.future.cancelled():
            job.future.set_result(result)

    async def _drive(self, job: Job, run_here: bool) -> None:
        """The one loop per job: read the row, act on it, until it settles.

        A terminal row settles the job.  A queued row this coordinator runs
        (pool dispatch) goes to the pool, whose worker claims it by id and
        finishes it in the store — queued again afterwards means its lease
        was lost mid-run, so it goes back.  Anything else (a row for external
        workers, or one somebody else holds) is watched; the watcher is also
        the janitor, so a coordinator with no workers of its own still
        recovers crashed workers' jobs for the survivors.
        """
        loop = asyncio.get_running_loop()
        while True:
            record = self.store.get_by_rowid(job.store_id)
            if record is None or record.state in FINISHED_STATES:
                return self._settle(job, record)
            if run_here and record.state == "queued":
                await self._execute(job)
                continue
            await loop.run_in_executor(None, self.store.requeue_expired)
            await asyncio.sleep(self._poll_seconds)

    async def _execute(self, job: Job) -> None:
        """Run one attempt of our row on the pool."""
        executor = self._ensure_workers()
        if self._worker_mode == "process":
            call = functools.partial(
                _pool_execute, job.store_id, obs_metrics.metrics_enabled()
            )
        else:

            def call():  # pool threads count into this process's registry
                return self._worker.execute(job.store_id), None

        try:
            outcome, worker_metrics = await asyncio.get_running_loop().run_in_executor(
                executor, call
            )
        except Exception as exc:  # noqa: BLE001 - the pool itself broke
            # No worker will finish this row: fail it if a dead pool process
            # held it, else take it out of the queue — left queued it would
            # go straight back to the broken pool.
            error = f"{type(exc).__name__}: {exc}"
            if not self.store.fail(job.store_id, self.worker_id, error):
                self.store.cancel(job.store_id)
            return
        if worker_metrics:
            # Fold the worker's kernel counters (samples/batches) into this
            # process's global registry — it is what /metrics renders;
            # worker registries die with their processes.
            obs_metrics.REGISTRY.merge(worker_metrics)
        if outcome is not None and outcome[1] is not None:  # (completed, cache_error)
            self._count("cache_write_failures")

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def _requeue_dead_local(self) -> int:
        """Re-queue rows claimed by pool coordinators that died on this host.

        Pool claims encode ``pool:<host>:<pid>``; a row whose owner names
        this host but a dead pid will otherwise sit until its lease expires.
        Returns how many rows were released.
        """
        released = 0
        host = socket.gethostname()
        for record in self.store.list(states=("running",)):
            owner = record.lease_owner or ""
            parts = owner.split(":")
            if len(parts) < 3 or parts[0] != "pool" or parts[1] != host:
                continue
            try:
                pid = int(parts[2])
            except ValueError:
                continue
            if pid == os.getpid() or _pid_alive(pid):
                continue
            released += self.store.release(record.id, owner)
        return released

    async def resume_pending(self) -> int:
        """Adopt jobs a previous (crashed/restarted) process left behind.

        Re-queues expired leases and dead local pool claims, then dispatches
        every queued row this process is not already tracking: pool dispatch
        re-runs them here, external dispatch watches them for the workers.
        Recovered jobs have ``num_waiters == 0`` — their original clients are
        gone — but their results still land in the store and the cache.
        Returns how many jobs were adopted.
        """
        self._loop = asyncio.get_running_loop()
        self.store.requeue_expired()
        self._requeue_dead_local()
        tracked = {job.store_id for job in self._inflight.values()}
        adopted = 0
        for record in self.store.list(states=("queued",)):
            if record.id in tracked:
                continue
            try:
                QueryRequest.from_dict(record.request)
            except Exception:  # noqa: BLE001 - unparseable legacy row
                continue
            self._track(record, run_here=self._dispatch == "pool", num_waiters=0)
            adopted += 1
        return adopted

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def get_job(self, job_id: str) -> Optional[Job]:
        """The live handle of ``job_id`` (``None`` once the job settled)."""
        return next((job for job in self._inflight.values() if job.id == job_id), None)

    def jobs(self) -> Tuple[Job, ...]:
        """The live handles; settled jobs live on in the store alone."""
        return tuple(self._inflight.values())

    def stats(self) -> Dict[str, object]:
        self.refresh_metrics()
        return {
            **self.counters,
            "inflight": len(self._inflight),
            "worker_mode": self._worker_mode,
            "max_workers": self._max_workers,
            "dispatch": self._dispatch,
            "cache_dir": str(self.cache.cache_dir),
            "graph_cache_dir": str(self.catalog.cache_dir),
            "store_path": str(self.store.path),
            "store": self.store.counts(),
            "tenants": self.store.tenant_counts(),
            "quota": self._quota.as_dict(),
            "hot_cache": self.cache.hot_stats(),
        }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.store.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
