"""Job coordination: dedup, quotas and cached execution over a durable store.

The :class:`JobManager` is the service's brain; the HTTP layer on top of it
is a thin translation.  One query flows through it as:

1. **Resolve** — the graph spec goes through the shared
   :class:`~repro.store.GraphCatalog` (text converts into the graph cache on
   first touch; an unchanged repeated spec hits its stat-checked memo) and
   comes back as an ``.rcsr`` path plus its content checksum.
2. **Cache probe** — the :class:`~repro.service.cache.ResultCache` (behind
   its in-memory hot tier) is scanned for an entry that *dominates* the
   request (same graph checksum and algorithm family, eps'/delta' at least
   as tight; exact entries dominate everything): a hit answers with zero
   sampling.  A near-miss (same adaptive family and seed) whose entry
   carries a session checkpoint becomes a *refine* job, and a graph recorded
   as a *mutation* of a cached parent an *update* job (:mod:`repro.evolve`).
   A warm query (memo and hot tier hits) is answered on the event loop;
   anything else is one blocking call (:meth:`JobManager._probe`) in one
   executor hop, so a conversion or a disk scan never stalls the loop.
3. **Dedup** — an identical request (same
   :meth:`~repro.service.schema.QueryRequest.job_key`) already in flight is
   joined, not re-run — whether it is in flight in *this* process or, via the
   store's live-key index, in any other coordinator sharing the store.
4. **Admit** — per-tenant quotas (:class:`TenantQuota`): a tenant over its
   max in-flight or max queued jobs is rejected with
   :class:`~repro.service.store.QuotaExceeded` (HTTP 429) *before* the job
   exists, so one hot tenant cannot starve the queue for everyone.
5. **Enqueue** — the job becomes a row in the SQLite-backed
   :class:`~repro.service.store.JobStore` and survives this process
   (:meth:`JobManager.resume_pending` adopts it after a restart).
6. **Execute** — one way for every job: a
   :class:`~repro.service.worker.StoreWorker` claim loop, woken by the
   store's doorbell, claims the row and runs it (progress goes into the
   row).  ``dispatch="pool"`` (default) starts ``max_workers`` such loops
   once — forked processes, or threads for the custom-estimator seam;
   ``dispatch="external"`` starts none and leaves the store to
   ``python -m repro.service.worker`` processes.
7. **Store** — the worker writes the result to the result cache (with the
   session checkpoint when the backend supports refinement) and its full
   JSON to the job row, the durable copy that answers polls.

The row is the job.  This process keeps, per live job, only what a row
cannot hold — a :class:`Job` handle with the awaitable future and the
waiter count — and one loop per job (:meth:`JobManager._drive`), woken by
the doorbell, reads the row until it is terminal; then
:meth:`JobManager._settle` resolves the future from it and drops the handle.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.result import BetweennessResult
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import CachedAnswer, ResultCache
from repro.service.dominance import algorithm_family
from repro.service.schema import QueryRequest
from repro.service.store import (
    DEFAULT_LEASE_SECONDS,
    FINISHED_STATES,
    Doorbell,
    JobRecord,
    JobStore,
    QuotaExceeded,
    default_worker_id,
)
from repro.service.worker import MAX_EVENTS, StoreWorker, serve
from repro.store import GraphCatalog

__all__ = ["Job", "JobManager", "MAX_EVENTS", "SubmitOutcome", "TenantQuota"]

#: How many of the newest finished rows ``GET /v1/jobs`` lists next to the live ones.
MAX_FINISHED_JOBS = 256

#: Default finished rows kept in the durable store.
STORE_RETENTION = 1000

WORKER_MODES = ("process", "thread")
DISPATCH_MODES = ("pool", "external")

#: Seconds :meth:`JobManager.close` gives a local worker to finish its job.
_JOIN_SECONDS = 5.0

#: The service counters, in the order ``stats()`` reports them.  Each becomes
#: a ``repro_service_<key>_total`` counter on the manager's registry; the
#: :attr:`JobManager.counters` mapping view keeps the historical dict-of-int
#: shape on top of them.
_COUNTER_KEYS = (
    ("queries", "Queries received by the job manager"),
    ("cache_hits", "Queries answered straight from the result cache"),
    ("loop_hits", "Queries answered from memory on the event loop"),
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


def _bounds(request: QueryRequest) -> Dict[str, object]:
    """The result-cache lookup keys of a request: family, eps and delta."""
    return {"family": algorithm_family(request.algorithm), "eps": request.eps, "delta": request.delta}


def _local_worker(store_path, cache_dir, options) -> None:
    """A forked local worker: :func:`serve` on its own store and cache (never
    the inherited connections), stopped by the coordinator, not Ctrl-C."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    cache = ResultCache(cache_dir)
    serve(StoreWorker(store_path, cache=cache, worker_id=default_worker_id("local"), **options))


@dataclass
class Job:
    """The live handle of one store row: only what the row cannot hold.

    State, attempts, timestamps, progress, result and error are all read
    from the row (:attr:`store_id`); this adds the awaitable future and the
    waiter count, and leaves the manager once the job settles.
    """

    id: str
    key: str
    checksum: str
    #: Row id in the durable store (``id`` is ``job-<store_id>``).
    store_id: int
    kwargs: Dict[str, object] = field(repr=False)  # the row's, fixed at enqueue
    future: "asyncio.Future[BetweennessResult]" = field(repr=False)
    num_waiters: int = 1


@dataclass(frozen=True)
class SubmitOutcome:
    """What :meth:`JobManager.submit` decided for one request."""

    checksum: str
    served_from_cache: bool = False
    deduplicated: bool = False
    job: Optional[Job] = None
    #: The job row's status when the request joined it (a worker may be done by now).
    status: Optional[str] = None
    #: A cache hit's ``(entry, result)``, with its encoded response bodies.
    answer: Optional[CachedAnswer] = None


class JobManager:
    """Owns the cache, the durable store and the local workers (see module docs).

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
        ``"pool"`` (default): this manager starts ``max_workers`` local
        workers that drain the store.  ``"external"``: it starts none;
        separate ``python -m repro.service.worker`` processes drain it.
    resources:
        :class:`~repro.api.Resources` handed to every estimation.
    worker_mode:
        ``"process"`` (default; forked local workers) or ``"thread"``.  Pool
        dispatch only.
    max_workers:
        Local workers, i.e. concurrent estimations, in pool dispatch.
    quota:
        Per-tenant :class:`TenantQuota` admission limits (default: none).
    lease_seconds:
        Claim lifetime of the local workers (heartbeated while running).
    poll_seconds:
        Longest wait for a doorbell before the job loops and idle local
        workers re-read the store, and the janitor's period.
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
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
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
        self._poll_seconds = float(poll_seconds)
        self._store_retention = int(store_retention)
        self._estimator = estimator
        #: What every local worker is built with.
        self._options = {
            "lease_seconds": float(lease_seconds),
            "poll_seconds": self._poll_seconds,
            "resources": resources,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The live jobs' handles, by job key (the in-process dedup index).
        self._inflight: Dict[str, Job] = {}
        #: The local workers: ``(process or thread, its stop callable)``.
        self._workers: List[Tuple[object, Callable[[], None]]] = []
        #: This coordinator's doorbell and the future its next ring resolves.
        self._bell: Optional[Doorbell] = None
        self._rung: Optional[asyncio.Future] = None
        self._janitor_due = 0.0
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
        hot = self.cache.hot.stats()
        for key, counter in self._hot_counters.items():
            delta = int(hot[key]) - self._hot_seen[key]
            if delta > 0:
                counter.inc(delta)
                self._hot_seen[key] += delta
        self._hot_entries_gauge.set(int(hot["entries"]))

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _probe(self, request: QueryRequest, resolved: Optional[Tuple[Path, str]] = None) -> tuple:
        """Blocking: every disk read a submission needs, in one executor hop.

        Returns ``(graph_path, checksum, hit, refinable, update)``: the graph
        spec resolved through the catalog (or the memo's answer ``resolved``,
        whose hot lookup just missed), the cache entry that dominates the
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
        path, checksum = resolved or self.catalog.resolve_checksum(request.graph)
        bounds = _bounds(request)
        hit = self.cache.find(checksum, hot=resolved is None, **bounds)
        refinable = update = None
        if hit is None and bounds["family"] == "adaptive-sampling":
            refinable = self.cache.find_refinable(checksum, seed=request.seed, **bounds)
            if refinable is None and self._estimator is None:
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
        # Both live states in one statement: a worker claiming a job between
        # two reads would move it from the queued count into the running one.
        live = self.store.tenant_counts().get(tenant, {})
        limits = [
            ("max_queued", self._quota.max_queued, live.get("queued", 0), "queued jobs"),
            ("max_inflight", self._quota.max_inflight, sum(live.values()), "jobs in flight"),
        ]
        for name, limit, current, what in limits:
            if limit is not None and current >= limit:
                self._count("quota_rejected")
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {current} {what} ({name}={limit}); retry later",
                    tenant=tenant,
                    limit=limit,
                    current=current,
                )

    async def submit(self, request: QueryRequest) -> SubmitOutcome:
        """Decide how a request is served: cache, an existing job, or a new one."""
        self._loop = asyncio.get_running_loop()
        self.start_workers()
        self._count("queries")
        # A few stat calls and a dict lookup: a warm query never leaves the loop.
        resolved = self.catalog.memoized(request.graph)
        hit = resolved and self.cache.find_hot(resolved[1], **_bounds(request))
        if hit:
            self._count("loop_hits")
            checksum = resolved[1]
        else:
            graph_path, checksum, hit, refinable, update = await self._loop.run_in_executor(
                None, self._probe, request, resolved
            )
        if hit is not None:
            self._count("cache_hits")
            return SubmitOutcome(checksum=checksum, served_from_cache=True, answer=hit)
        self._count("cache_misses")

        # The dedup decision, the quota check and the store insertion below
        # share one event-loop step (no awaits between them), or two identical
        # concurrent requests both pass the check and sample twice.
        key = request.job_key(checksum)
        existing = self._inflight.get(key)
        if existing is not None:
            existing.num_waiters += 1
            self._count("deduplicated")
            status = self.store.get_by_rowid(existing.store_id).status
            return SubmitOutcome(checksum, deduplicated=True, job=existing, status=status)

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
            parent_checksum, snapshot_path, delta_payload = update
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
        job = self._track(record)
        return SubmitOutcome(checksum=checksum, job=job, status=record.status)

    def _track(self, record: JobRecord, *, num_waiters: int = 1) -> Job:
        """Register a live store row in this process and drive it to its end."""
        job = Job(
            id=record.job_id,
            key=record.key,
            checksum=record.checksum,
            store_id=record.id,
            kwargs=record.kwargs,
            future=self._loop.create_future(),
            num_waiters=num_waiters,
        )
        # Errors must reach pollers even when no submitter awaits the future.
        job.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[job.key] = job
        self._inflight_gauge.set(len(self._inflight))
        self._listen()
        asyncio.ensure_future(self._drive(job))
        return job

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _find_update(
        self, checksum: str, request: QueryRequest
    ) -> Optional[Tuple[str, str, dict]]:
        """Blocking: lineage probe + parent-cache scan for an update source.

        Returns ``(parent_checksum, snapshot_path, delta_payload)``
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
        return parent_checksum, str(found[1]), graph_delta.as_dict()

    def start_workers(self) -> None:
        """Start the local workers once (none under external dispatch).  The
        service starts them (in :meth:`resume_pending`) before it binds, so
        no fork inherits its sockets."""
        if self._dispatch == "pool" and not self._workers:
            if self._worker_mode == "process":
                from repro.kernels import compiled

                compiled.load()  # before the first fork: the workers inherit it
            self._workers = [self._start_worker() for _ in range(self._max_workers)]

    def _start_worker(self) -> Tuple[object, Callable[[], None]]:
        """One local worker running :meth:`StoreWorker.run`, and its stop callable."""
        if self._worker_mode == "process":
            # Fork, not spawn: a spawned interpreter re-imports numpy and the
            # package (~0.7 s); a fork costs milliseconds.
            process = multiprocessing.get_context("fork").Process(
                target=_local_worker,
                args=(self.store.path, self.cache.cache_dir, self._options),
                daemon=True,
            )
            process.start()
            return process, process.terminate
        worker_id = default_worker_id("local")
        worker = StoreWorker(
            self.store, cache=self.cache, worker_id=worker_id, estimator=self._estimator, **self._options
        )
        thread = threading.Thread(target=worker.run, name="repro-service-worker", daemon=True)
        thread.start()
        return thread, worker.stop

    def _listen(self) -> None:
        """Have each ring of this coordinator's doorbell wake the job loops."""
        if self._bell is None or self._rung.get_loop() is not self._loop:
            self._bell = self._bell or Doorbell(self.store)
            self._rung = self._loop.create_future()
            self._loop.add_reader(self._bell.socket, self._on_ring)

    def _on_ring(self) -> None:
        self._bell.wait(0)  # discard the rings that arrived
        rung, self._rung = self._rung, self._rung.get_loop().create_future()
        rung.set_result(None)

    def _settle(self, job: Job, record: Optional[JobRecord]) -> None:
        """Finish a job from its terminal store row — the one way a job ends."""
        self._inflight.pop(job.key, None)
        self._inflight_gauge.set(len(self._inflight))
        self.store.prune_finished(keep=self._store_retention)
        error = None
        if record is None:
            error = "RuntimeError: job row vanished from the store"
        else:
            if record.metrics:
                # A worker process's kernel counters (samples, batches) for
                # this job; thread workers counted into this registry directly.
                obs_metrics.REGISTRY.merge(record.metrics)
            if any(event.get("phase") == "cache-write-failed" for event in record.progress):
                self._count("cache_write_failures")
            if record.state != "done":
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

    async def _drive(self, job: Job) -> None:
        """The one loop per job: read the row, at each doorbell ring or
        ``poll_seconds``, until it settles.  The loops are also the janitor,
        so even a coordinator without workers recovers crashed workers' jobs.
        """
        loop = asyncio.get_running_loop()
        while True:
            # No await between this read and the wait: no ring falls between.
            record = self.store.get_by_rowid(job.store_id)
            if record is None or record.state in FINISHED_STATES:
                return self._settle(job, record)
            if loop.time() >= self._janitor_due:
                self._janitor_due = loop.time() + self._poll_seconds
                await self._janitor()
                continue
            try:
                await asyncio.wait_for(asyncio.shield(self._rung), self._poll_seconds)
            except asyncio.TimeoutError:
                pass

    async def _janitor(self) -> None:
        """Re-fork dead local workers; requeue dead workers' rows."""
        for index, (worker, _stop) in enumerate(self._workers):
            if not worker.is_alive():  # reaps a dead process: its pid reads dead
                self._workers[index] = self._start_worker()
        await asyncio.get_running_loop().run_in_executor(None, self.store.requeue_expired)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    async def resume_pending(self) -> int:
        """Adopt jobs a previous (crashed/restarted) process left behind.

        Re-queues expired leases and dead workers' claims, tracks every
        queued row this process is not already tracking, then starts the
        local workers.  Recovered jobs have ``num_waiters == 0`` — their
        original clients are gone — but their results still land in the store
        and the cache.  Returns how many jobs were adopted.
        """
        self._loop = asyncio.get_running_loop()
        self.store.requeue_expired()
        tracked = {job.store_id for job in self._inflight.values()}
        adopted = 0
        for record in self.store.list(states=("queued",)):
            if record.id in tracked:
                continue
            try:
                QueryRequest.from_dict(record.request)
            except Exception:  # noqa: BLE001 - unparseable legacy row
                continue
            self._track(record, num_waiters=0)
            adopted += 1
        self.start_workers()
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
            "hot_cache": self.cache.hot.stats(),
        }

    def close(self) -> None:
        """Stop and join the local workers, then close the store (idempotent).

        A worker finishes its current job first; a process still busy after
        :data:`_JOIN_SECONDS` is killed (the dead-pid rule hands its row on).
        """
        workers, self._workers = self._workers, []
        for _worker, stop in workers:
            stop()
        for worker, _stop in workers:
            worker.join(_JOIN_SECONDS)
            if worker.is_alive() and hasattr(worker, "kill"):
                worker.kill()
                worker.join()
        if self._bell is not None:
            self._rung.get_loop().remove_reader(self._bell.socket)
            self._bell.close()
            self._bell = None  # job loops still pending fall back to polling
        self.store.close()
