"""Durable SQLite-backed job store: queries survive the process that took them.

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
  ``queued`` for the next worker — no job is ever lost to a crash.  An owner
  on this host whose pid is dead (:func:`default_worker_id` encodes host and
  pid) counts as expired at once, so a killed local worker costs no lease.
  Completion and failure are guarded by the owner id, so a worker that lost
  its lease (it stalled past the deadline and someone else took over) cannot
  clobber the successor's result.
* **States** are ``queued → running → done | failed | cancelled``; a
  ``running`` job whose lease expires goes back to ``queued`` (its
  ``attempts`` counter survives).  Jobs that crash workers repeatedly are
  poisoned into ``failed`` once ``attempts`` reaches the requeue cap, so one
  bad request cannot live-lock the fleet.
* **Doorbells.**  After every commit that changes a row's state (enqueue,
  complete, fail, requeue, cancel) the store sends a datagram to each
  :class:`Doorbell` registered on this host, so idle workers and the
  coordinator re-read rows at once.  A ring carries nothing (the rows stay
  the only source of truth); polling remains the fallback across hosts.

The store holds the *request*, the running attempt's progress events (written
by the worker's heartbeat thread), the kernel counters a worker process
counted for the job and, once finished, the full result JSON — the row alone
can answer a poll after every process restarts.  Results are also persisted
to the :class:`~repro.service.cache.ResultCache` by whoever completes the job.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
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
    "Doorbell",
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
    num_events     INTEGER NOT NULL DEFAULT 0,
    metrics        TEXT
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_live_key
    ON jobs(key) WHERE state IN ('queued', 'running');
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, created_at, id);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant, state);
CREATE INDEX IF NOT EXISTS jobs_finished ON jobs(finished_at, id)
    WHERE state IN ('done', 'failed', 'cancelled');
CREATE TABLE IF NOT EXISTS doorbells (
    host TEXT NOT NULL,
    port INTEGER NOT NULL,
    pid  INTEGER NOT NULL,
    PRIMARY KEY (host, port)
);
"""

_COLUMNS = (
    "id", "key", "tenant", "state", "request", "checksum", "graph_path",
    "kwargs", "attempts", "lease_owner", "lease_deadline", "created_at",
    "started_at", "finished_at", "result", "error", "progress", "num_events",
    "metrics",
)

#: Columns added after the first schema, as ``ALTER TABLE`` clauses: a store
#: file an older version created gains them when it is opened.
_ADDED_COLUMNS = (
    "progress TEXT NOT NULL DEFAULT '[]'",
    "num_events INTEGER NOT NULL DEFAULT 0",
    "metrics TEXT",
)

_HOST = socket.gethostname()


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
    return f"{prefix}:{_HOST}:{os.getpid()}:{os.urandom(2).hex()}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _owner_dead(owner: str) -> bool:
    """Whether a :func:`default_worker_id` owner names this host and a dead pid."""
    parts = owner.split(":")
    return (
        len(parts) == 4 and parts[1] == _HOST and parts[2].isdigit()
        and not _pid_alive(int(parts[2]))
    )


class Doorbell:
    """A loopback UDP socket registered in a :class:`JobStore`, which rings it
    after every commit that changes a row's state (UDP, because an
    ``AF_UNIX`` path under a deep temporary directory can exceed 108 bytes)."""

    def __init__(self, store: "JobStore") -> None:
        self._store = store
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.socket.bind(("127.0.0.1", 0))
        self.port = self.socket.getsockname()[1]
        store._conn().execute(
            "INSERT OR REPLACE INTO doorbells VALUES (?, ?, ?)",
            (_HOST, self.port, os.getpid()),
        )

    def wait(self, timeout: float) -> None:
        """Return at a ring (one that came already counts) or after
        ``timeout`` seconds, discarding every ring so far."""
        select.select([self.socket], [], [], timeout)
        with contextlib.suppress(OSError):  # BlockingIOError: all discarded
            while True:
                self.socket.recv(16, socket.MSG_DONTWAIT)

    def ring(self) -> None:
        """Wake this doorbell's own waiter (a worker asked to stop)."""
        with contextlib.suppress(OSError):  # closed already
            self.socket.sendto(b"\0", ("127.0.0.1", self.port))

    def close(self) -> None:
        """Unregister, then close: the port stays ours until the row is gone."""
        try:
            self._store._conn().execute(
                "DELETE FROM doorbells WHERE host = ? AND port = ?", (_HOST, self.port)
            )
        finally:
            self.socket.close()


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
    #: The kernel counters a worker process counted for the finished attempt
    #: (a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), else ``None``.
    metrics: Optional[Dict[str, dict]] = None

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
    for column in ("request", "kwargs", "progress", "metrics"):
        data[column] = json.loads(data[column]) if data[column] else data[column]
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
        self._ringer: Optional[socket.socket] = None  # the datagram socket _ring sends from
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

    @contextlib.contextmanager
    def _immediate(self):
        """One ``BEGIN IMMEDIATE`` transaction on this thread's connection."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            with contextlib.suppress(sqlite3.Error):
                conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def close_thread(self) -> None:
        """Close the calling thread's connection, if it opened one.

        A thread that ends before the store (a worker's heartbeat) calls this
        on its way out; otherwise it would pin a connection until :meth:`close`.
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
        """Close every connection and socket this store opened (idempotent)."""
        with self._connections_lock:
            conns, self._connections = self._connections, []
            ringer, self._ringer = self._ringer, None
        if ringer is not None:
            ringer.close()
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    def _ring(self, changed: int = 1) -> int:
        """Ring every :class:`Doorbell` on this host if a write ``changed`` a
        row's state; returns ``changed``."""
        if changed:
            ports = self._conn().execute(
                "SELECT port FROM doorbells WHERE host = ?", (_HOST,)
            ).fetchall()
            with self._connections_lock:
                ringer = self._ringer = self._ringer or socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for (port,) in ports:
                with contextlib.suppress(OSError):
                    ringer.sendto(b"\0", ("127.0.0.1", port))
        return changed

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
        # Read the row before ringing: a worker the ring wakes may claim and
        # finish it first, and the caller is owed the row it enqueued.
        record = self.get_by_rowid(cursor.lastrowid)
        self._ring()
        assert record is not None
        return record, True

    def claim(
        self, worker_id: str, *, lease_seconds: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Atomically take the oldest queued job.

        Sets ``state='running'``, stamps ``worker_id`` as the lease owner,
        bumps ``attempts``, empties the progress and metrics columns for the
        new attempt, and returns the claimed record — or ``None`` when nothing
        is queued.
        """
        lease = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        now = self.clock()
        if not self._conn().execute("SELECT 1 FROM jobs WHERE state = 'queued'").fetchone():
            return None  # a miss takes no write lock: idle workers woken at once stay out of the way
        with self._immediate() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued'"
                " ORDER BY created_at, id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state='running', lease_owner=?, lease_deadline=?,"
                " attempts=attempts+1, started_at=COALESCE(started_at, ?),"
                " progress='[]', num_events=0, metrics=NULL"
                " WHERE id=?",
                (worker_id, now + lease, now, row[0]),
            )
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
        metrics: Optional[Dict[str, dict]] = None,
    ) -> bool:
        """Mark a claimed job ``done``, storing the full result JSON (and the
        final ``progress``, as in :meth:`heartbeat`, and the worker process's
        kernel ``metrics`` for the job, if it ships them).

        Guarded by the lease owner: a worker that lost its lease cannot
        overwrite whatever the successor produced.  Returns whether the
        completion was accepted.
        """
        return self._finish(
            job_id, worker_id, "done", result_json, None, progress, metrics
        )

    def fail(
        self,
        job_id: int,
        worker_id: str,
        error: str,
        progress: Optional[Progress] = None,
        metrics: Optional[Dict[str, dict]] = None,
    ) -> bool:
        """Mark a claimed job ``failed`` (estimation raised; deterministic
        errors would fail again, so there is no automatic retry — crashes are
        retried via lease expiry instead)."""
        return self._finish(job_id, worker_id, "failed", None, error, progress, metrics)

    def _finish(self, job_id, worker_id, state, result_json, error, progress, metrics) -> bool:
        cursor = self._conn().execute(
            "UPDATE jobs SET state=?, result=?, error=?, finished_at=?,"
            " lease_owner=NULL, lease_deadline=NULL,"
            " progress=COALESCE(?, progress), num_events=COALESCE(?, num_events),"
            " metrics=?"
            " WHERE id=? AND lease_owner=? AND state='running'",
            (state, result_json, error, self.clock(), *_progress_params(progress),
             None if metrics is None else json.dumps(metrics), job_id, worker_id),
        )
        return self._ring(cursor.rowcount) == 1

    def cancel(self, job_id: int) -> bool:
        """Cancel a job that has not started; running jobs cannot be recalled
        from their worker and finish normally."""
        cursor = self._conn().execute(
            "UPDATE jobs SET state='cancelled', finished_at=?"
            " WHERE id=? AND state='queued'",
            (self.clock(), job_id),
        )
        return self._ring(cursor.rowcount) == 1

    def requeue_expired(
        self, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> Tuple[int, int]:
        """Crash recovery: flip expired-lease running jobs back to ``queued``.

        A lease has expired when its deadline passed or its owner is a dead
        process on this host (one dead-pid rule, for local and external
        workers alike; dead processes' doorbells are dropped too).  Jobs
        claimed ``max_attempts`` times are poisoned into ``failed`` instead,
        so repeated worker deaths converge.  Returns ``(requeued, poisoned)``.
        Every worker and coordinator calls this in its loop — recovery needs
        any *one* survivor, not a dedicated janitor.
        """
        now, conn = self.clock(), self._conn()
        # Read first: a pass with nothing to do takes no write lock.
        leases = conn.execute(
            "SELECT lease_owner, lease_deadline < ? FROM jobs WHERE state='running'", (now,)
        ).fetchall()
        dead = sorted({owner for owner, _ in leases if owner and _owner_dead(owner)})
        pids = conn.execute("SELECT pid FROM doorbells WHERE host = ?", (_HOST,)).fetchall()
        gone = [(_HOST, pid) for (pid,) in pids if not _pid_alive(pid)]
        if not (dead or gone or any(expired for _, expired in leases)):
            return 0, 0
        expired = "state='running' AND (lease_deadline < ? OR lease_owner IN ({}))"
        expired = expired.format(",".join("?" * len(dead)))
        with self._immediate() as conn:
            poisoned = conn.execute(
                "UPDATE jobs SET state='failed', finished_at=?,"
                " error=COALESCE(error, 'lease expired after ' || attempts ||"
                " ' attempts (worker crash loop?)'),"
                " lease_owner=NULL, lease_deadline=NULL"
                f" WHERE {expired} AND attempts >= ?",
                (now, now, *dead, max_attempts),
            ).rowcount
            requeued = conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL,"
                f" lease_deadline=NULL WHERE {expired}",
                (now, *dead),
            ).rowcount
            conn.executemany("DELETE FROM doorbells WHERE host = ? AND pid = ?", gone)
        self._ring(requeued + poisoned)
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
            prefix, _, number = job_id.partition("job-")
            if prefix or not number.isdigit():
                return None
            job_id = int(number)
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

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def prune_finished(self, *, keep: int = 1000) -> int:
        """Drop all but the newest ``keep`` finished rows; returns how many.

        Finished rows carry full result JSON, so an immortal store would grow
        without bound.  Both statements walk the ``jobs_finished`` index alone
        up to the newest row past ``keep``, then delete from it down.
        """
        finished = "FROM jobs INDEXED BY jobs_finished WHERE state IN ('done', 'failed', 'cancelled')"
        edge = self._conn().execute(
            f"SELECT finished_at, id {finished} ORDER BY finished_at DESC, id DESC LIMIT 1 OFFSET ?",
            (int(keep),),
        ).fetchone()
        if edge is None:
            return 0
        return self._conn().execute(f"DELETE {finished} AND (finished_at, id) <= (?, ?)", edge).rowcount
