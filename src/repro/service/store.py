"""Durable SQLite-backed job store: queries survive the process that took them.

The :class:`~repro.service.jobs.JobManager` of PR 4 kept every job in one
asyncio process — a crash lost the queue, and a single hot tenant could fill
the worker pool for everyone.  :class:`JobStore` moves the queue onto disk:

* **One SQLite file, WAL mode.**  Any number of coordinator and worker
  *processes* (or hosts sharing a filesystem that supports POSIX locks) open
  the same store; SQLite's locking plus ``BEGIN IMMEDIATE`` claim
  transactions make job hand-off atomic.  WAL keeps readers (status polls,
  quota counts) unblocked by writers (claims, completions).
* **Job identity is the existing dedup key** — graph checksum + algorithm +
  eps/delta + seed (:meth:`repro.service.schema.QueryRequest.job_key`).  A
  partial unique index over the *live* states makes "enqueue if not already
  queued/running" one atomic INSERT: two coordinators racing the same query
  get the same row back.
* **Lease-based claiming with heartbeat expiry.**  A worker claims the
  oldest queued job inside one transaction, stamping its owner id and a
  lease deadline; while it computes it keeps extending the lease
  (:meth:`JobStore.heartbeat`).  A SIGKILLed worker stops heartbeating, the
  lease expires, and :meth:`JobStore.requeue_expired` flips the job back to
  ``queued`` for the next worker — no job is ever lost to a crash.
  Completion and failure are guarded by the owner id, so a worker that lost
  its lease (it stalled past the deadline and someone else took over) cannot
  clobber the successor's result.
* **States** are ``queued → running → done | failed | cancelled``; a
  ``running`` job whose lease expires goes back to ``queued`` (its
  ``attempts`` counter survives).  Jobs that crash workers repeatedly are
  poisoned into ``failed`` once ``attempts`` reaches the requeue cap, so one
  bad request cannot live-lock the fleet.

The store holds the *request*, the running attempt's progress events (written
by the worker's heartbeat thread) and, once finished, the full result JSON —
the row alone can answer a poll after every process restarts.  Results are also
persisted to the dominance-aware :class:`~repro.service.cache.ResultCache` by
whoever completes the job, so the cache tier stays the fast path.

Fault-injection tests in ``tests/test_service_durability.py`` drive all of
this with real SIGKILLed worker processes; ``scripts/load_smoke.py`` gates
multi-worker throughput in CI.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "JobRecord",
    "JobStore",
    "QuotaExceeded",
    "STATES",
    "LIVE_STATES",
    "FINISHED_STATES",
    "default_worker_id",
]

PathLike = Union[str, Path]

#: One attempt's progress as the worker hands it over: ``(events, num_events)``.
Progress = Tuple[Sequence[dict], int]

#: Every state a stored job can be in.
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States that occupy queue/worker capacity (quota accounting, dedup).
LIVE_STATES = ("queued", "running")

#: Terminal states.
FINISHED_STATES = ("done", "failed", "cancelled")

#: How long a claim lives without a heartbeat before the job is re-queued.
DEFAULT_LEASE_SECONDS = 15.0

#: ``requeue_expired`` poisons a job into ``failed`` once it has been
#: claimed this many times — a job that keeps killing workers must not
#: live-lock the fleet.
DEFAULT_MAX_ATTEMPTS = 5

_SCHEMA = """
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
    error          TEXT,
    progress       TEXT NOT NULL DEFAULT '[]',
    num_events     INTEGER NOT NULL DEFAULT 0
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_live_key
    ON jobs(key) WHERE state IN ('queued', 'running');
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, created_at, id);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant, state);
"""

_COLUMNS = (
    "id", "key", "tenant", "state", "request", "checksum", "graph_path",
    "kwargs", "attempts", "lease_owner", "lease_deadline", "created_at",
    "started_at", "finished_at", "result", "error", "progress", "num_events",
)

#: Columns added after the first schema, as ``ALTER TABLE`` clauses: a store
#: file an older version created gains them when it is opened.
_ADDED_COLUMNS = (
    "progress TEXT NOT NULL DEFAULT '[]'",
    "num_events INTEGER NOT NULL DEFAULT 0",
)


class QuotaExceeded(RuntimeError):
    """A tenant is over its admission-control limit (HTTP 429).

    Raised by the :class:`~repro.service.jobs.JobManager` admission check,
    defined here because the limits are counted against this store.
    """

    def __init__(self, message: str, *, tenant: str, limit: int, current: int) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.limit = limit
        self.current = current


def default_worker_id(prefix: str = "worker") -> str:
    """A worker identity unique across hosts and processes.

    Leases are guarded by this id, so two workers must never share one —
    host + pid + a monotonic-ish suffix keeps ids distinct even when pids
    recycle between a crash and its replacement.
    """
    return f"{prefix}:{socket.gethostname()}:{os.getpid()}:{os.urandom(2).hex()}"


@dataclass(frozen=True)
class JobRecord:
    """One row of the store (immutable snapshot; re-:meth:`JobStore.get` to refresh)."""

    id: int
    key: str
    tenant: str
    state: str
    request: Dict[str, object]
    checksum: str
    graph_path: str
    kwargs: Dict[str, object]
    attempts: int
    lease_owner: Optional[str]
    lease_deadline: Optional[float]
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    result: Optional[str]
    error: Optional[str]
    #: The current attempt's newest progress events (at most ``MAX_EVENTS``).
    progress: List[Dict[str, object]]
    #: How many events the current attempt emitted (the ring keeps the tail).
    num_events: int

    @property
    def job_id(self) -> str:
        """The external job id (``job-<row>``), stable across restarts."""
        return f"job-{self.id}"

    @property
    def status(self) -> str:
        """The polling key clients wait on: ``failed``/``cancelled`` read ``error``."""
        return "error" if self.state in ("failed", "cancelled") else self.state

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary for ``/v1/jobs`` (the result payload is elided)."""
        return {
            "job_id": self.job_id,
            "key": self.key,
            "tenant": self.tenant,
            "state": self.state,
            "status": self.status,
            "request": dict(self.request),
            "graph_checksum": self.checksum,
            "attempts": self.attempts,
            "lease_owner": self.lease_owner,
            "lease_deadline": self.lease_deadline,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "has_result": self.result is not None,
            "error": self.error,
            "progress": list(self.progress),
            "num_events": self.num_events,
            "refined_from": self.kwargs.get("refined_from"),
            "updated_from": self.kwargs.get("updated_from"),
        }


def _row_to_record(row: Sequence) -> JobRecord:
    data = dict(zip(_COLUMNS, row))
    data["request"] = json.loads(data["request"])
    data["kwargs"] = json.loads(data["kwargs"])
    data["progress"] = json.loads(data["progress"])
    return JobRecord(**data)


def _progress_params(progress: Optional[Progress]) -> Tuple:
    """``(events, num_events)`` as the two column values; ``None`` keeps both."""
    if progress is None:
        return None, None
    events, num_events = progress
    return json.dumps(list(events)), int(num_events)


class JobStore:
    """The durable job queue over one SQLite file (see module docstring).

    Parameters
    ----------
    path:
        The database file; parent directories are created.  Every process
        that should share the queue opens the same path.
    lease_seconds:
        Default claim lifetime between heartbeats.
    clock:
        Injectable time source (``time.time``); tests use a fake clock to
        expire leases without sleeping.

    Connections are per-thread (SQLite objects are not thread-safe), created
    lazily and closed by :meth:`close` (or :meth:`close_thread`).  All
    timestamps are ``clock()`` floats (seconds).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        clock=time.time,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.path = Path(path)
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = self._conn()
        conn.executescript(_SCHEMA)
        have = {row[1] for row in conn.execute("PRAGMA table_info(jobs)")}
        for clause in _ADDED_COLUMNS:
            if clause.split()[0] not in have:
                try:
                    conn.execute(f"ALTER TABLE jobs ADD COLUMN {clause}")
                except sqlite3.OperationalError as exc:
                    if "duplicate column" not in str(exc):  # another opener won
                        raise

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=10.0, isolation_level=None, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=10000")
            self._local.conn = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    def close_thread(self) -> None:
        """Close the calling thread's connection, if it opened one.

        Short-lived threads (a job's lease heartbeat) call this on their way
        out; otherwise each would pin a connection until :meth:`close`.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        del self._local.conn
        with self._connections_lock:
            # close() may have swept (and closed) it already.
            if conn in self._connections:
                self._connections.remove(conn)
        conn.close()

    def close(self) -> None:
        """Close every connection this store opened (idempotent)."""
        with self._connections_lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Enqueue / claim / heartbeat / finish
    # ------------------------------------------------------------------ #
    def enqueue(
        self,
        *,
        key: str,
        tenant: str,
        request: Dict[str, object],
        checksum: str,
        graph_path: str,
        kwargs: Optional[Dict[str, object]] = None,
    ) -> Tuple[JobRecord, bool]:
        """Add a job, or join the live one with the same key.

        Returns ``(record, created)``; ``created`` is ``False`` when a
        queued/running job with this ``key`` already exists (cross-process
        deduplication — the caller should watch that job instead).  The
        partial unique index makes the existence check and the insert one
        atomic statement, so two racing coordinators cannot both create it.
        """
        conn = self._conn()
        now = self.clock()
        payload = (
            key,
            tenant,
            json.dumps(request),
            checksum,
            graph_path,
            json.dumps(kwargs or {}),
            now,
        )
        try:
            cursor = conn.execute(
                "INSERT INTO jobs (key, tenant, state, request, checksum,"
                " graph_path, kwargs, created_at)"
                " VALUES (?, ?, 'queued', ?, ?, ?, ?, ?)",
                payload,
            )
        except sqlite3.IntegrityError:
            existing = self._select_one(
                "SELECT * FROM jobs WHERE key = ? AND state IN ('queued','running')"
                " ORDER BY id DESC LIMIT 1",
                (key,),
            )
            if existing is not None:
                return existing, False
            raise
        record = self.get_by_rowid(cursor.lastrowid)
        assert record is not None
        return record, True

    def claim(
        self,
        worker_id: str,
        *,
        job_id: Optional[int] = None,
        lease_seconds: Optional[float] = None,
    ) -> Optional[JobRecord]:
        """Atomically take the oldest queued job (or ``job_id`` specifically).

        Sets ``state='running'``, stamps ``worker_id`` as the lease owner,
        bumps ``attempts``, empties the progress columns for the new attempt,
        and returns the claimed record — or ``None`` when nothing is queued
        (or the requested job is no longer claimable).
        """
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        conn = self._conn()
        now = self.clock()
        conn.execute("BEGIN IMMEDIATE")
        try:
            if job_id is not None:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE id = ? AND state = 'queued'", (job_id,)
                ).fetchone()
            else:
                row = conn.execute(
                    "SELECT id FROM jobs WHERE state = 'queued'"
                    " ORDER BY created_at, id LIMIT 1"
                ).fetchone()
            if row is None:
                conn.execute("ROLLBACK")
                return None
            conn.execute(
                "UPDATE jobs SET state='running', lease_owner=?, lease_deadline=?,"
                " attempts=attempts+1, started_at=COALESCE(started_at, ?),"
                " progress='[]', num_events=0"
                " WHERE id=?",
                (worker_id, now + lease, now, row[0]),
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        return self.get_by_rowid(row[0])

    def heartbeat(
        self,
        job_id: int,
        worker_id: str,
        *,
        lease_seconds: Optional[float] = None,
        progress: Optional[Progress] = None,
    ) -> bool:
        """Extend a claim's lease; ``False`` means the lease was lost.

        ``progress`` — ``(events, num_events)`` — is written in the same
        UPDATE (``None`` leaves the columns alone).  A ``False`` return tells
        the worker its job was re-queued (it stalled past the deadline); its
        :meth:`complete` is rejected unless it wins the row back.
        """
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        cursor = self._conn().execute(
            "UPDATE jobs SET lease_deadline=?, progress=COALESCE(?, progress),"
            " num_events=COALESCE(?, num_events)"
            " WHERE id=? AND lease_owner=? AND state='running'",
            (self.clock() + lease, *_progress_params(progress), job_id, worker_id),
        )
        return cursor.rowcount == 1

    def complete(
        self,
        job_id: int,
        worker_id: str,
        result_json: str,
        progress: Optional[Progress] = None,
    ) -> bool:
        """Mark a claimed job ``done``, storing the full result JSON (and the
        final ``progress``, as in :meth:`heartbeat`).

        Guarded by the lease owner: a worker that lost its lease cannot
        overwrite whatever the successor produced.  Returns whether the
        completion was accepted.
        """
        return self._finish(job_id, worker_id, "done", result_json, None, progress)

    def fail(
        self,
        job_id: int,
        worker_id: str,
        error: str,
        progress: Optional[Progress] = None,
    ) -> bool:
        """Mark a claimed job ``failed`` (estimation raised; deterministic
        errors would fail again, so there is no automatic retry — crashes are
        retried via lease expiry instead)."""
        return self._finish(job_id, worker_id, "failed", None, error, progress)

    def _finish(self, job_id, worker_id, state, result_json, error, progress) -> bool:
        cursor = self._conn().execute(
            "UPDATE jobs SET state=?, result=?, error=?, finished_at=?,"
            " lease_owner=NULL, lease_deadline=NULL,"
            " progress=COALESCE(?, progress), num_events=COALESCE(?, num_events)"
            " WHERE id=? AND lease_owner=? AND state='running'",
            (state, result_json, error, self.clock(), *_progress_params(progress),
             job_id, worker_id),
        )
        return cursor.rowcount == 1

    def release(self, job_id: int, worker_id: str) -> bool:
        """Re-queue a job whose owner is known to be dead, without waiting out
        its lease; owner-guarded like :meth:`complete`."""
        cursor = self._conn().execute(
            "UPDATE jobs SET state='queued', lease_owner=NULL, lease_deadline=NULL"
            " WHERE id=? AND lease_owner=?",
            (job_id, worker_id),
        )
        return cursor.rowcount == 1

    def cancel(self, job_id: int) -> bool:
        """Cancel a job that has not started; running jobs cannot be recalled
        from their worker and finish normally."""
        cursor = self._conn().execute(
            "UPDATE jobs SET state='cancelled', finished_at=?"
            " WHERE id=? AND state='queued'",
            (self.clock(), job_id),
        )
        return cursor.rowcount == 1

    def requeue_expired(
        self, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> Tuple[int, int]:
        """Crash recovery: flip expired-lease running jobs back to ``queued``.

        Jobs already claimed ``max_attempts`` times are poisoned into
        ``failed`` instead (every claim bumped ``attempts``, so repeated
        worker deaths converge).  Returns ``(requeued, poisoned)``.  Every
        worker and coordinator calls this in its poll loop — recovery needs
        any *one* survivor, not a dedicated janitor.
        """
        conn = self._conn()
        now = self.clock()
        conn.execute("BEGIN IMMEDIATE")
        try:
            poisoned = conn.execute(
                "UPDATE jobs SET state='failed', finished_at=?,"
                " error=COALESCE(error, 'lease expired after ' || attempts ||"
                " ' attempts (worker crash loop?)'),"
                " lease_owner=NULL, lease_deadline=NULL"
                " WHERE state='running' AND lease_deadline < ? AND attempts >= ?",
                (now, now, max_attempts),
            ).rowcount
            requeued = conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL,"
                " lease_deadline=NULL"
                " WHERE state='running' AND lease_deadline < ?",
                (now,),
            ).rowcount
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        return requeued, poisoned

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _select_one(self, sql: str, params: Tuple) -> Optional[JobRecord]:
        row = self._conn().execute(sql, params).fetchone()
        return None if row is None else _row_to_record(row)

    def get_by_rowid(self, rowid: int) -> Optional[JobRecord]:
        return self._select_one("SELECT * FROM jobs WHERE id = ?", (rowid,))

    def get(self, job_id: Union[int, str]) -> Optional[JobRecord]:
        """Look a job up by row id or external ``job-<row>`` id."""
        if isinstance(job_id, str):
            if not job_id.startswith("job-"):
                return None
            try:
                job_id = int(job_id[len("job-"):])
            except ValueError:
                return None
        return self.get_by_rowid(job_id)

    def list(
        self,
        *,
        states: Optional[Sequence[str]] = None,
        tenant: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[JobRecord]:
        """Records filtered by state/tenant, oldest first (the newest
        ``limit`` of them when ``limit`` is given)."""
        sql = "SELECT * FROM jobs"
        clauses, params = [], []
        if states:
            clauses.append(f"state IN ({','.join('?' * len(states))})")
            params.extend(states)
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = self._conn().execute(sql, tuple(params)).fetchall()
        return [_row_to_record(row) for row in reversed(rows)]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every state (zero-filled)."""
        out = {state: 0 for state in STATES}
        for state, count in self._conn().execute(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            out[state] = count
        return out

    def tenant_counts(self) -> Dict[str, Dict[str, int]]:
        """``{tenant: {state: count}}`` over the *live* states (quota input)."""
        out: Dict[str, Dict[str, int]] = {}
        for tenant, state, count in self._conn().execute(
            "SELECT tenant, state, COUNT(*) FROM jobs"
            " WHERE state IN ('queued','running') GROUP BY tenant, state"
        ):
            out.setdefault(tenant, {s: 0 for s in LIVE_STATES})[state] = count
        return out

    def live_count(self, tenant: str, state: str) -> int:
        """How many jobs a tenant has in one live state (admission check)."""
        (count,) = self._conn().execute(
            "SELECT COUNT(*) FROM jobs WHERE tenant = ? AND state = ?",
            (tenant, state),
        ).fetchone()
        return count

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def prune_finished(self, *, keep: int = 1000) -> int:
        """Drop all but the newest ``keep`` finished rows; returns how many.

        Finished rows carry full result JSON, so an immortal store would grow
        without bound.
        """
        cursor = self._conn().execute(
            "DELETE FROM jobs WHERE state IN ('done','failed','cancelled')"
            " AND id NOT IN (SELECT id FROM jobs"
            "   WHERE state IN ('done','failed','cancelled')"
            "   ORDER BY finished_at DESC, id DESC LIMIT ?)",
            (int(keep),),
        )
        return cursor.rowcount
