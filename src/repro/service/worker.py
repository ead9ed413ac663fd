"""The one way a job runs: a worker's claim loop over the durable store.

:meth:`StoreWorker.run` is the only code in the service that claims a
:class:`~repro.service.store.JobStore` row and finishes it: claim the oldest
queued row, keep the lease alive from a heartbeat thread, run the one
``estimate_betweenness`` call of ``repro.service`` with arguments from the
row, persist the result to the shared
:class:`~repro.service.cache.ResultCache` (with a session checkpoint, so the
entry is refinable), and mark the row ``done`` or ``failed`` under the owner
guard.  A missed claim runs ``requeue_expired`` (else once a ``poll_seconds``)
and waits on a store :class:`~repro.service.store.Doorbell`
(``poll_seconds`` at most).  Every worker runs this loop — standalone
processes (scaling out is starting more of them)::

    python -m repro.service.worker --store /path/to/jobs.sqlite3 &

and a coordinator's local workers (:mod:`repro.service.jobs`): forked
processes running :func:`serve` as a standalone worker does, or threads.

The estimator's progress events go into the attempt's ring (the newest
:data:`MAX_EVENTS` plus a total count).  :meth:`StoreWorker.run` starts one
heartbeat thread for its whole life, with which each job only registers: at
its tick it writes the ring into the row with the lease extension once the
job is a tick old and there are new events or the lease is due (a job
shorter than a tick never beats), and ``complete``/``fail`` write the final
ring — the sampling thread never waits on SQLite.  A worker that is its
process's only one (:func:`serve`) also writes the job's kernel counters into
the row, for the coordinator's ``/metrics``.

Crash safety falls out of the lease protocol: a SIGKILLed worker stops
heartbeating, its lease expires (at once on the survivor's host: its pid is
dead), and any survivor's ``requeue_expired`` hands the job on.  Estimations
are deterministic in the request's seed, so the replacement run is
bit-identical (``tests/test_service_durability.py``); a worker that merely
*stalled* past its lease finishes, persists (a second cache write of the
same bytes is idempotent) and lets the owner-guarded ``complete`` decide
whose row it is.

Fault injection: ``hold_seconds`` (CLI ``--hold-seconds``, env
``$REPRO_WORKER_HOLD_SECONDS``) makes the worker sleep *after claiming* a job
while heartbeats keep the lease alive — a deterministic window for tests to
SIGKILL it mid-job.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.service.cache import ResultCache
from repro.service.schema import QueryRequest
from repro.service.store import Doorbell, JobRecord, JobStore, default_worker_id
from repro.store.format import unique_tmp_path

__all__ = ["MAX_EVENTS", "StoreWorker", "main", "serve"]

_HOLD_ENV = "REPRO_WORKER_HOLD_SECONDS"

#: Progress events a job row keeps (ring buffer; ``num_events`` counts all).
MAX_EVENTS = 64


class _EventRing:
    """One attempt's progress: the newest :data:`MAX_EVENTS` events and their
    total count, called with each event by the estimator.  The heartbeat
    thread writes :meth:`snapshot` into the row and keeps the count and time
    of its last write here (at first the claim's; ``None``: lease lost)."""

    def __init__(self) -> None:
        self._events: deque = deque(maxlen=MAX_EVENTS)
        self._count = 0
        self._lock = threading.Lock()
        self.claimed = self.written_at = time.monotonic()
        self.written: Optional[int] = 0

    def __call__(self, event) -> None:
        self.add(event.as_dict())

    def add(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
            self._count += 1

    def snapshot(self) -> Tuple[List[dict], int]:
        with self._lock:
            return list(self._events), self._count


class StoreWorker:
    """Runs claimed :class:`JobStore` rows to completion (see module docs).

    Parameters
    ----------
    store:
        The shared :class:`JobStore` (or a path to its SQLite file).
    cache:
        The :class:`ResultCache` results are persisted into; defaults to the
        directory the store file lives in (coordinator and workers must
        share it for the cache tier to work).
    worker_id:
        Lease identity; defaults to a host/pid-unique id.
    lease_seconds, poll_seconds:
        Claim lifetime and idle back-off between claim attempts.  The
        heartbeat ticks every ``min(poll_seconds, lease_seconds / 3)``.
    resources:
        Optional :class:`~repro.api.Resources` for every estimation.
    hold_seconds:
        Fault-injection hook (see module docstring).
    estimator:
        Replaces :func:`repro.api.estimate_betweenness` — the seam tests use
        to count sampling runs.  Its keyword signature is pinned, so it is
        never asked for a session checkpoint.
    """

    #: Set by :func:`serve`: the process-global metrics registry counts this
    #: worker's jobs alone, so each job's counters can travel in its row.
    ships_metrics = False

    def __init__(
        self,
        store,
        *,
        cache: Optional[ResultCache] = None,
        worker_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
        poll_seconds: float = 0.2,
        resources=None,
        hold_seconds: float = 0.0,
        estimator: Optional[Callable] = None,
    ) -> None:
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.lease_seconds = float(self.store.lease_seconds if lease_seconds is None else lease_seconds)
        self.cache = cache if cache is not None else ResultCache(self.store.path.parent)
        self.worker_id = worker_id or default_worker_id()
        self.poll_seconds = float(poll_seconds)
        self.resources = resources
        self.hold_seconds = float(hold_seconds)
        self.estimator = estimator
        self.jobs_done = 0
        self.jobs_failed = 0
        self._stop = threading.Event()
        self._bell = None
        self._job: Optional[Tuple[int, _EventRing]] = None  # what the heartbeat beats

    def stop(self) -> None:
        """Ask the pull loop to exit after the current job (safe from a signal handler)."""
        self._stop.set()
        bell = self._bell  # run() may drop it meanwhile
        if bell is not None:
            bell.ring()

    # ------------------------------------------------------------------ #
    def run(self, *, max_jobs: Optional[int] = None, max_idle_seconds: Optional[float] = None) -> int:
        """The pull loop; returns how many jobs this worker completed.

        ``max_jobs`` bounds the number of completed/failed jobs (tests,
        drain-and-exit helpers); ``max_idle_seconds`` exits after the queue
        stays empty that long (CI harnesses that should not hang forever).
        """
        idle_since: Optional[float] = None
        # Registered before the first claim: no ring falls between a miss and its wait.
        self._bell = Doorbell(self.store)
        ended = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat, args=(ended,), name="repro-worker-heartbeat", daemon=True
        )
        beat.start()
        requeue_due = 0.0
        try:
            while not self._stop.is_set():
                if max_jobs is not None and self.jobs_done + self.jobs_failed >= max_jobs:
                    break
                record = self.store.claim(self.worker_id, lease_seconds=self.lease_seconds)
                if record is None or time.monotonic() >= requeue_due:
                    # Off the claim path: requeued rows ring the doorbell waited on below.
                    requeue_due = time.monotonic() + self.poll_seconds
                    self.store.requeue_expired()
                if record is None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif max_idle_seconds is not None and now - idle_since >= max_idle_seconds:
                        break
                    self._bell.wait(self.poll_seconds)
                    continue
                idle_since = None
                if self._execute(record):
                    self.jobs_done += 1
                else:
                    self.jobs_failed += 1
        finally:
            bell, self._bell = self._bell, None
            bell.close()
            ended.set()
            beat.join()
        return self.jobs_done

    def _heartbeat(self, ended: threading.Event) -> None:
        """The worker's one beat thread, until ``ended``: at each tick it writes
        the registered job's new events, or renews its lease when due.  A lost
        lease ends that job's beat, not its run (see module docs)."""
        renew = self.lease_seconds / 3.0
        tick = max(0.05, min(self.poll_seconds, renew))
        try:
            while not ended.wait(tick):
                job_id, ring = self._job or (None, None)
                if ring is None or ring.written is None or time.monotonic() - ring.claimed < tick:
                    continue
                progress = ring.snapshot()
                if progress[1] == ring.written and time.monotonic() - ring.written_at < renew:
                    continue
                alive = self.store.heartbeat(
                    job_id, self.worker_id, lease_seconds=self.lease_seconds, progress=progress
                )
                ring.written, ring.written_at = (progress[1] if alive else None), time.monotonic()
        finally:
            self.store.close_thread()

    # ------------------------------------------------------------------ #
    def _execute(self, record: JobRecord) -> bool:
        """Run one claimed row under a live lease; returns whether this
        worker's ``complete`` was the one the store accepted.

        A failed cache write is recorded as a ``cache-write-failed`` progress
        event, which the coordinator counts.
        """
        ships = self.ships_metrics and obs_metrics.metrics_enabled()
        if ships:
            obs_metrics.REGISTRY.clear()  # the registry is this job's transport buffer

        def metrics():
            return obs_metrics.REGISTRY.snapshot() if ships else None

        ring = _EventRing()
        self._job = (record.id, ring)
        # Writer-unique name: the cache directory is shared across processes —
        # a plain ".job-N.snap.tmp" would let two services clobber each
        # other's snapshots and cache one under the other's (seed-keyed!) entry.
        checkpoint = unique_tmp_path(self.cache.cache_dir / f".job-{record.id}.snap")
        try:
            if self.hold_seconds > 0:
                # Fault-injection window: the job is claimed and heartbeating
                # but has not sampled yet — SIGKILL here and the lease-expiry
                # path must recover it (tests/test_service_durability.py).
                time.sleep(self.hold_seconds)
            request = QueryRequest.from_dict(record.request)
            result = self._estimate(record, request, ring, checkpoint)
            # The cache write is best-effort: an unwritable cache must not
            # fail a correctly computed job — the durable copy is the row.
            text = result.to_json()
            try:
                snapshot = checkpoint if checkpoint.is_file() else None
                self.cache.put(record.checksum, request, result, snapshot=snapshot, text=text)
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc}"
                ring.add({"phase": "cache-write-failed", "error": error})
            return self.store.complete(record.id, self.worker_id, text, ring.snapshot(), metrics())
        except Exception as exc:  # noqa: BLE001 - job errors become row state
            error = f"{type(exc).__name__}: {exc}"
            self.store.fail(record.id, self.worker_id, error, ring.snapshot(), metrics())
            return False
        finally:
            self._job = None
            try:  # a cached checkpoint was moved away; this is for failures
                checkpoint.unlink(missing_ok=True)
            except OSError:
                pass

    def _estimate(self, record: JobRecord, request: QueryRequest, callbacks, checkpoint):
        """The service's one estimator call: keyword arguments from the job row."""
        kwargs = {"algorithm": request.algorithm, "eps": request.eps, "delta": request.delta}
        if request.seed is not None:
            kwargs["seed"] = request.seed
        if self.resources is not None:
            kwargs["resources"] = self.resources
        # Coordinator-decided extras: refine/update sources recorded at
        # enqueue time (paths on the shared cache filesystem).
        for key in ("resume_from", "update_from", "graph_delta"):
            if record.kwargs.get(key) is not None:
                kwargs[key] = record.kwargs[key]
        estimate = self.estimator
        if estimate is None:  # a custom estimator's keyword signature is pinned
            from repro.api import estimate_betweenness as estimate

            kwargs["checkpoint_path"] = str(checkpoint)
        return estimate(record.graph_path, callbacks=callbacks, **kwargs)


def serve(worker: StoreWorker, **run_kwargs) -> int:
    """Run ``worker``'s loop as the whole of this process; returns its jobs done.

    What a standalone worker (:func:`main`) and each of a coordinator's
    forked local workers run: SIGTERM stops the loop after the current job,
    and every job's kernel counters travel in its row.
    """
    signal.signal(signal.SIGTERM, lambda *_: worker.stop())
    worker.ships_metrics = True
    return worker.run(**run_kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Drain estimation jobs from a durable JobStore; run N of "
        "these processes against one store to scale the service horizontally "
        "(lease/heartbeat semantics in docs/serving.md).",
    )
    parser.add_argument("--store", required=True, help="path to the jobs.sqlite3 store")
    parser.add_argument(
        "--cache-dir", help="result-cache directory (default: the store's directory)"
    )
    parser.add_argument("--worker-id", help="lease identity (default: auto)")
    parser.add_argument(
        "--lease-seconds",
        type=float,
        help="claim lifetime between heartbeats (default: the store's)",
    )
    parser.add_argument(
        "--poll-seconds",
        type=float,
        default=0.2,
        help="longest idle wait for a doorbell before re-reading the store (default 0.2)",
    )
    parser.add_argument("--max-jobs", type=int, help="exit after this many jobs")
    parser.add_argument(
        "--max-idle-seconds", type=float, help="exit after the queue stays empty this long"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="sampling threads per estimation (Resources.threads, default 1)",
    )
    parser.add_argument(
        "--hold-seconds",
        type=float,
        default=float(os.environ.get(_HOLD_ENV, "0") or 0),
        help=argparse.SUPPRESS,  # fault-injection hook for the durability tests
    )
    args = parser.parse_args(argv)

    resources = None
    if args.threads != 1:
        from repro.api import Resources

        resources = Resources(threads=args.threads)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    worker = StoreWorker(
        args.store,
        cache=cache,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        resources=resources,
        hold_seconds=args.hold_seconds,
    )
    # The coordinator renders these workers' kernel counters on /metrics.
    obs_metrics.enable_metrics()
    print(
        f"repro worker {worker.worker_id} draining {worker.store.path}"
        f" (lease {worker.lease_seconds}s)",
        flush=True,
    )
    done = serve(worker, max_jobs=args.max_jobs, max_idle_seconds=args.max_idle_seconds)
    print(f"repro worker {worker.worker_id} exiting after {done} job(s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
