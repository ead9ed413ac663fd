"""``SocketComm``: the :class:`~repro.mpi.interface.Communicator` ABC over TCP.

The threaded runtime simulates ranks as threads sharing one address space;
this module provides the same collectives across real OS processes (and,
transparently, real hosts) with nothing but the standard library:

* **Framing** — every message is an 8-byte big-endian length prefix followed
  by a pickled tuple.  No third-party serialization; numpy arrays and
  :class:`~repro.core.state_frame.StateFrame` payloads ride through pickle.
* **Rendezvous** — rank 0's process hosts a :class:`SocketHub`; every rank
  (including rank 0 itself) connects to it and says hello with its rank.
  The hub is a *matcher*, not a coordinator: it pairs contributions of the
  same collective and sends results back; all reduction arithmetic reuses
  :func:`repro.mpi.reduce_ops.reduce_op`.
* **Matching** — collectives match by per-communicator per-kind call order,
  exactly like ``ThreadedComm``: the caller assigns a sequence number from a
  local counter, so interleaved non-blocking operations of different kinds
  (``ibarrier`` + ``ireduce``) pair correctly without tags.
* **Non-blocking semantics** — a background receive thread completes
  :class:`_EventRequest` handles as results arrive, giving the same overlap
  behaviour the epoch framework exploits on ``ThreadedComm`` (non-root
  ``ireduce`` completes immediately; root completes on arrival of the
  aggregate).  Blocking waits use events, not spinning.
* **Failure** — a peer that disappears without an orderly goodbye fails every
  outstanding and future collective on all surviving ranks with
  :class:`CommError` naming the lost rank.  The distributed launcher turns
  that into kill-remaining + checkpoint resume.

``run_forked(num_ranks, target)`` is how this repo runs local ranks: rank 0
(and the hub) in the calling process, every other rank a forked child that
inherits the caller's state — graph included — copy-on-write.  :func:`fork_rank`
and :func:`reap`, the two primitives under it, are also how
:func:`repro.dist.launcher.launch_local` starts and stops its ranks.
``run_socket(num_ranks, target)`` mirrors ``run_threaded`` for tests: real
sockets over loopback, ranks as threads of the calling process.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mpi.interface import CommError, Communicator
from repro.mpi.reduce_ops import reduce_op
from repro.mpi.requests import PolledRequest, Request
from repro.obs.metrics import get_registry, metrics_enabled

__all__ = [
    "CommError",
    "SocketComm",
    "SocketHub",
    "bind_listener",
    "fork_rank",
    "reap",
    "run_forked",
    "run_socket",
    "COMM_BYTES_METRIC",
]

_LEN = struct.Struct(">Q")

COMM_BYTES_METRIC = "repro_dist_comm_bytes_total"

WORLD_COMM_ID = 0

# SocketComm.connect: the bounds of one TCP connect attempt, and the pause
# between attempts.
_MAX_ATTEMPT_S = 5.0
_MIN_ATTEMPT_S = 1.0
_RETRY_S = 0.05


# --------------------------------------------------------------------------- #
# framing


def _send_frame(sock: socket.socket, payload: Tuple[Any, ...]) -> int:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(blob)) + blob)
    return _LEN.size + len(blob)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    while n > 0:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[Tuple[Tuple[Any, ...], int]]:
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    blob = _recv_exact(sock, int(length))
    if blob is None:
        return None
    return pickle.loads(blob), _LEN.size + int(length)


# --------------------------------------------------------------------------- #
# hub (lives in rank 0's process)


class _HubCollective:
    """Matching state of one in-flight collective at the hub."""

    __slots__ = ("kind", "op", "root", "count", "accumulator", "contributions", "waiters", "value", "has_value")

    def __init__(self, kind: str, op: str, root: int) -> None:
        self.kind = kind
        self.op = op
        self.root = root
        self.count = 0
        self.accumulator: Any = None
        self.contributions: Dict[int, Any] = {}
        self.waiters: List[int] = []  # member ranks awaiting a bcast value
        self.value: Any = None
        self.has_value = False


def bind_listener(host: str = "127.0.0.1", port: int = 0, *, backlog: int) -> socket.socket:
    """A bound, listening TCP socket for a :class:`SocketHub` to accept on.

    Whoever forks ranks binds this *before* forking and hands it to the hub:
    a connect then queues in the backlog instead of being refused, however
    early the rank is, and no port is probed, released and bound again.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
    except OSError:
        listener.close()
        raise
    return listener


class SocketHub:
    """Rank-0 rendezvous listener and collective matcher.

    Accepts exactly ``size`` connections, then matches ``("coll", ...)``
    messages by ``(comm_id, kind, seq)`` and replies with ``("result", ...)``
    frames.  ``split`` creates child communicator ids here, so sub-communicator
    collectives route through the same connections.  ``listener`` is a socket
    from :func:`bind_listener` to accept on (the hub owns it from then on);
    without one the hub binds ``(host, port)`` itself.
    """

    def __init__(
        self,
        size: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        listener: Optional[socket.socket] = None,
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._size = size
        self._listener = listener if listener is not None else bind_listener(host, port, backlog=size)
        self._listener.settimeout(0.2)
        self._lock = threading.Lock()
        self._conns: Dict[int, Tuple[socket.socket, threading.Lock]] = {}
        self._table: Dict[Tuple[int, str, int], _HubCollective] = {}
        # comm_id -> world ranks indexed by communicator rank
        self._comms: Dict[int, List[int]] = {WORLD_COMM_ID: list(range(size))}
        self._next_comm_id = WORLD_COMM_ID + 1
        self._departed: set = set()
        self._failed: Optional[str] = None
        self._closing = threading.Event()
        self._threads: List[threading.Thread] = []

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "SocketHub":
        accept = threading.Thread(target=self._accept_loop, name="hub-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        return self

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        accepted = 0
        while accepted < self._size and not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            frame = _recv_frame(conn)
            if frame is None:
                conn.close()
                continue
            (msg, _nbytes) = frame
            if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "hello"):
                conn.close()
                continue
            rank = int(msg[1])
            with self._lock:
                self._conns[rank] = (conn, threading.Lock())
                failed = self._failed
            if failed is not None:
                # The world already failed before this rank finished joining;
                # it would otherwise wait forever for an error it never got.
                self._send_to(rank, ("error", failed))
            reader = threading.Thread(
                target=self._reader_loop, args=(rank, conn), name=f"hub-read-{rank}", daemon=True
            )
            reader.start()
            self._threads.append(reader)
            accepted += 1

    def _reader_loop(self, rank: int, conn: socket.socket) -> None:
        orderly = False
        while True:
            try:
                frame = _recv_frame(conn)
            except OSError:
                frame = None
            if frame is None:
                break
            msg, _nbytes = frame
            if msg[0] == "bye":
                orderly = True
                break
            if msg[0] == "coll":
                try:
                    self._on_contribution(*msg[1:])
                except CommError as exc:
                    self._fail_all(str(exc))
                    return
        if orderly:
            with self._lock:
                self._departed.add(rank)
                done = len(self._departed) >= self._size
            if done:
                self.close()
        elif not self._closing.is_set():
            self._fail_all(f"rank {rank} connection lost")

    # ------------------------------------------------------------------ #
    def _send_to(self, world_rank: int, payload: Tuple[Any, ...]) -> None:
        with self._lock:
            entry = self._conns.get(world_rank)
        if entry is None:
            return
        conn, send_lock = entry
        try:
            with send_lock:
                _send_frame(conn, payload)
        except OSError:
            pass

    def _fail_all(self, message: str) -> None:
        with self._lock:
            if self._failed is not None:
                return
            self._failed = message
            ranks = list(self._conns)
        for rank in ranks:
            self._send_to(rank, ("error", message))

    def _on_contribution(
        self,
        comm_id: int,
        kind: str,
        seq: int,
        op: str,
        root: int,
        member_rank: int,
        value: Any,
    ) -> None:
        key = (comm_id, kind, seq)
        with self._lock:
            failed = self._failed
            members = self._comms.get(comm_id)
        if failed is not None:
            # Contributions arriving after the world failed (e.g. from ranks
            # that had not yet joined when _fail_all ran) get the error too.
            if members is not None:
                self._send_to(members[member_rank], ("error", failed))
            return
        with self._lock:
            if members is None:
                raise CommError(f"unknown communicator id {comm_id}")
            entry = self._table.get(key)
            if entry is None:
                entry = self._table[key] = _HubCollective(kind, op, root)
            if entry.op != op or entry.root != root:
                raise CommError(
                    f"collective mismatch at {key}: "
                    f"({entry.kind},{entry.op},{entry.root}) vs ({kind},{op},{root})"
                )
            size = len(members)
            entry.count += 1
            done = entry.count >= size

            if kind in ("reduce", "allreduce"):
                if entry.accumulator is None:
                    entry.accumulator = value
                else:
                    entry.accumulator = reduce_op(op)(entry.accumulator, value)
            elif kind == "bcast":
                if member_rank == root:
                    entry.value = value
                    entry.has_value = True
                else:
                    entry.waiters.append(member_rank)
            elif kind == "gather":
                entry.contributions[member_rank] = value
            elif kind == "split":
                entry.contributions[member_rank] = value
            # barrier carries no payload

            to_send: List[Tuple[int, Tuple[Any, ...]]] = []
            if kind == "bcast" and entry.has_value:
                for waiter in entry.waiters:
                    to_send.append((members[waiter], ("result", comm_id, kind, seq, entry.value)))
                entry.waiters.clear()
            if done:
                del self._table[key]
                if kind == "reduce":
                    to_send.append((members[root], ("result", comm_id, kind, seq, entry.accumulator)))
                elif kind == "allreduce":
                    for r, world in enumerate(members):
                        to_send.append((world, ("result", comm_id, kind, seq, entry.accumulator)))
                elif kind == "gather":
                    ordered = [entry.contributions[r] for r in range(size)]
                    for r, world in enumerate(members):
                        result = ordered if r == root else None
                        to_send.append((world, ("result", comm_id, kind, seq, result)))
                elif kind == "barrier":
                    for world in members:
                        to_send.append((world, ("result", comm_id, kind, seq, None)))
                elif kind == "split":
                    groups: Dict[Any, List[Tuple[Any, int]]] = {}
                    for r in range(size):
                        color, sort_key = entry.contributions[r]
                        groups.setdefault(color, []).append((sort_key, r))
                    for color in sorted(groups, key=repr):
                        group = sorted(groups[color])
                        new_id = self._next_comm_id
                        self._next_comm_id += 1
                        self._comms[new_id] = [members[r] for (_k, r) in group]
                        for new_rank, (_k, r) in enumerate(group):
                            to_send.append(
                                (
                                    members[r],
                                    ("result", comm_id, kind, seq, (new_id, new_rank, len(group))),
                                )
                            )
        for world_rank, payload in to_send:
            self._send_to(world_rank, payload)

    # ------------------------------------------------------------------ #
    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until the hub shut down (every rank said goodbye).

        The hosting process must drain the hub before force-closing it:
        collective results already matched but not yet written to a peer's
        socket would otherwise be lost, failing that peer spuriously.
        """
        return self._closing.wait(timeout)

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn, _lock in conns:
            try:
                conn.close()
            except OSError:
                pass


# --------------------------------------------------------------------------- #
# client side


class _Pending:
    __slots__ = ("event", "value", "has_value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.has_value = False


class _Conn:
    """One process's connection to the hub, shared by all its communicators."""

    def __init__(self, sock: socket.socket, rank: int) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: Dict[Tuple[int, str, int], _Pending] = {}
        self.world_rank = rank
        self.bytes_total = 0
        self.error: Optional[str] = None
        self._closed = False
        self._counter = None
        if metrics_enabled():
            self._counter = get_registry().counter(
                COMM_BYTES_METRIC,
                "Framed bytes sent+received on the distributed socket transport.",
                labelnames=("rank",),
            ).labels(rank=str(rank))
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name=f"comm-recv-{rank}", daemon=True
        )
        self._recv_thread.start()

    # ------------------------------------------------------------------ #
    def _account(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_total += nbytes
        if self._counter is not None:
            self._counter.inc(nbytes)

    def _pending_for(self, key: Tuple[int, str, int]) -> _Pending:
        with self._lock:
            entry = self._pending.get(key)
            if entry is None:
                entry = self._pending[key] = _Pending()
            return entry

    def _recv_loop(self) -> None:
        while True:
            try:
                frame = _recv_frame(self._sock)
            except OSError:
                frame = None
            if frame is None:
                if not self._closed:
                    self._set_error("hub connection lost")
                return
            msg, nbytes = frame
            self._account(nbytes)
            if msg[0] == "result":
                _tag, comm_id, kind, seq, value = msg
                entry = self._pending_for((comm_id, kind, seq))
                entry.value = value
                entry.has_value = True
                entry.event.set()
            elif msg[0] == "error":
                self._set_error(str(msg[1]))
                return

    def _set_error(self, message: str) -> None:
        with self._lock:
            if self.error is None:
                self.error = message
            pending = list(self._pending.values())
        for entry in pending:
            entry.event.set()

    # ------------------------------------------------------------------ #
    def send(self, payload: Tuple[Any, ...]) -> None:
        if self.error is not None:
            raise CommError(self.error)
        try:
            with self._send_lock:
                nbytes = _send_frame(self._sock, payload)
        except OSError as exc:
            self._set_error(f"hub connection lost: {exc}")
            raise CommError(self.error) from None
        self._account(nbytes)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            with self._send_lock:
                _send_frame(self._sock, ("bye", self.world_rank))
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._recv_thread.join(timeout=2.0)


class _EventRequest(Request):
    """Request completed by the receive thread (no spinning while waiting)."""

    def __init__(self, conn: _Conn, pending: _Pending, fetch: Optional[Callable[[Any], Any]] = None) -> None:
        self._conn = conn
        self._pending = pending
        self._fetch = fetch
        self._value: Any = None
        self._done = False

    def _raise_if_failed(self) -> None:
        if self._conn.error is not None:
            raise CommError(self._conn.error)

    def test(self) -> bool:
        if self._done:
            return True
        self._raise_if_failed()
        if self._pending.event.is_set():
            self._finish()
            return True
        return False

    def wait(self, poll_interval: float = 0.0) -> Any:
        del poll_interval  # event-driven; no polling needed
        if not self._done:
            self._pending.event.wait()
            self._raise_if_failed()
            self._finish()
        return self._value

    def _finish(self) -> None:
        value = self._pending.value
        self._value = self._fetch(value) if self._fetch is not None else value
        self._done = True

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("request has not completed; call wait() or test() first")
        return self._value

    @property
    def done(self) -> bool:
        return self._done


class SocketComm(Communicator):
    """TCP implementation of the communicator ABC (see module docstring).

    Collectives match by per-communicator per-kind call order like
    ``ThreadedComm``; all ranks of a communicator must therefore issue the
    same sequence of collectives, which the MPI usage model already requires.
    """

    def __init__(self, conn: _Conn, comm_id: int, rank: int, size: int) -> None:
        self._conn = conn
        self._comm_id = comm_id
        self._rank = rank
        self._size = size
        self._seq: Dict[str, int] = {}
        self._seq_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @classmethod
    def connect(
        cls, host: str, port: int, rank: int, size: int, *, timeout: float = 30.0
    ) -> "SocketComm":
        """Join the world communicator via the rank-0 hub.

        Retries the TCP connect until ``timeout`` seconds have passed: a
        ``dist worker`` started by hand or by ``mpirun`` races the rank-0
        process's hub startup, so its first connects may be refused.  Forked
        ranks never are — their hub's listener is bound before the fork.  An
        attempt is cut at what is left of ``timeout`` (but gets at least a
        second), so a hub that drops SYNs costs ``timeout`` plus at most one
        attempt.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            try:
                sock = socket.create_connection(
                    (host, port), timeout=min(_MAX_ATTEMPT_S, max(left, _MIN_ATTEMPT_S))
                )
                break
            except OSError:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise CommError(
                        f"could not reach rendezvous hub at {host}:{port} after {timeout}s"
                    ) from None
                time.sleep(min(_RETRY_S, left))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        _send_frame(sock, ("hello", int(rank)))
        conn = _Conn(sock, int(rank))
        return cls(conn, WORLD_COMM_ID, int(rank), int(size))

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def _next_seq(self, kind: str) -> int:
        with self._seq_lock:
            seq = self._seq.get(kind, 0)
            self._seq[kind] = seq + 1
            return seq

    def _post(self, kind: str, *, op: str = "", root: int = 0, value: Any = None) -> _Pending:
        """Register the pending slot, then send the contribution."""
        seq = self._next_seq(kind)
        pending = self._conn._pending_for((self._comm_id, kind, seq))
        self._conn.send(("coll", self._comm_id, kind, seq, op, root, self._rank, value))
        return pending

    def _post_fire_and_forget(self, kind: str, *, op: str, root: int, value: Any) -> None:
        seq = self._next_seq(kind)
        self._conn.send(("coll", self._comm_id, kind, seq, op, root, self._rank, value))

    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self.ibarrier().wait()

    def ibarrier(self) -> Request:
        pending = self._post("barrier")
        return _EventRequest(self._conn, pending)

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        return self.ireduce(value, op=op, root=root).wait()

    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        if self._rank == root:
            pending = self._post("reduce", op=op, root=root, value=value)
            return _EventRequest(self._conn, pending)
        # Non-root contributions complete immediately, like ThreadedComm:
        # the epoch loop keeps sampling while the wire does its work.
        self._post_fire_and_forget("reduce", op=op, root=root, value=value)
        return PolledRequest(lambda: True)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        pending = self._post("allreduce", op=op, value=value)
        return _EventRequest(self._conn, pending).wait()

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        return self.ibcast(value, root=root).wait()

    def ibcast(self, value: Any = None, root: int = 0) -> Request:
        if self._rank == root:
            self._post_fire_and_forget("bcast", op="bcast", root=root, value=value)
            return PolledRequest(lambda: True, lambda: value)
        pending = self._post("bcast", op="bcast", root=root)
        return _EventRequest(self._conn, pending)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        pending = self._post("gather", op="gather", root=root, value=value)
        return _EventRequest(self._conn, pending).wait()

    def split(self, color: Any, key: int = 0) -> "SocketComm":
        pending = self._post("split", op="split", value=(color, int(key)))
        new_id, new_rank, new_size = _EventRequest(self._conn, pending).wait()
        return SocketComm(self._conn, new_id, new_rank, new_size)

    # ------------------------------------------------------------------ #
    def communication_bytes(self) -> int:
        """Actual framed bytes sent + received by this process."""
        return self._conn.bytes_total

    def close(self) -> None:
        """Orderly goodbye; after this no collective may be issued."""
        self._conn.close()

    def __repr__(self) -> str:
        return f"SocketComm(rank={self._rank}, size={self._size}, comm_id={self._comm_id})"


# --------------------------------------------------------------------------- #
# ranks as forked processes


def _start_on_own_cpu(rank: int) -> None:
    """Scheduler hint, not a pin: move to the ``rank``-th allowed CPU, then allow all again.

    Forked by a process that was CPU-bound until a moment ago, the ranks of a
    small world land together on a CPU their parent is not on, and the kernel
    takes about a second to spread them (``docs/distributed.md``, "Where
    forked ranks start"); an exec'd worker hid that behind its import time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[rank % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:  # a sandbox may refuse; the kernel's own placement stands
        pass


def _forked_main(rank: int, target: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    _start_on_own_cpu(rank)
    # The child is a copy of the forking thread: without this its registry
    # snapshot would ship the parent's counters home once per rank.  (Its
    # span stack was emptied at the fork, see repro.obs.trace.)
    get_registry().clear()
    target(*args)


def fork_rank(
    target: Callable[..., Any], *args: Any, rank: int
) -> multiprocessing.process.BaseProcess:
    """Start ``target(*args)`` as rank ``rank`` in a forked child; returns its ``Process``.

    The child starts where the caller is — modules imported, graph loaded or
    mapped, closures intact — so nothing is pickled, re-imported or re-opened,
    but with zeroed metrics, no open spans and on a CPU of its own
    (:func:`_start_on_own_cpu`).  ``multiprocessing``'s fork context flushes
    stdio before the fork and leaves the child through ``os._exit``, so
    buffered output is not written twice and the caller's ``atexit`` handlers
    never run there.  Exit code 0 means ``target`` returned, 1 that it raised
    (traceback on stderr), ``-N`` signal ``N``.  Pair every call with
    :func:`reap`.
    """
    from repro.kernels import compiled

    compiled.load()  # built and checked once, here: every rank inherits the library
    proc = multiprocessing.get_context("fork").Process(
        target=_forked_main, args=(rank, target, args), name=f"repro-rank-{rank}"
    )
    proc.start()
    return proc


def reap(procs: List[multiprocessing.process.BaseProcess], *, grace: float = 0.0) -> None:
    """Leave no child behind: wait ``grace`` seconds in all, SIGKILL what still runs, collect."""
    deadline = time.monotonic() + grace
    for proc in procs:
        proc.join(max(deadline - time.monotonic(), 0.0))
        if proc.is_alive():
            proc.kill()
        proc.join()


def _forked_rank(
    host: str, port: int, rank: int, size: int, target: Callable[[SocketComm, int], Any]
) -> None:
    comm = SocketComm.connect(host, port, rank, size)
    target(comm, rank)
    comm.gather(get_registry().snapshot() if metrics_enabled() else None, root=0)
    # Goodbye only after success: a rank that raises leaves without one, and
    # the hub tells the others "rank r connection lost".
    comm.close()


def run_forked(num_ranks: int, target: Callable[[SocketComm, int], Any]) -> Any:
    """Run ``target(comm, rank)`` on ``num_ranks`` processes; returns rank 0's result.

    Rank 0 and the hub run here, in the caller, so whatever ``target`` closes
    over (progress callbacks, open spans) and its result never cross a process
    edge; ranks ``1 .. num_ranks-1`` are children from :func:`fork_rank`,
    whose metrics are merged into this process's registry at the end.  A rank
    that raises or is killed fails the world — the survivors' pending and
    later collectives raise :class:`CommError` naming it — and every child is
    reaped before this returns or raises.
    """
    hub = SocketHub(num_ranks)  # listening from here on: no connect is refused
    procs: List[multiprocessing.process.BaseProcess] = []
    grace = 0.0
    try:
        for rank in range(1, num_ranks):
            procs.append(fork_rank(_forked_rank, hub.host, hub.port, rank, num_ranks, target, rank=rank))
        # Accepting only now keeps the hub's threads and connections out of
        # the children.
        hub.start()
        _start_on_own_cpu(0)
        comm = SocketComm.connect(hub.host, hub.port, 0, num_ranks)
        try:
            result = target(comm, 0)
            for snapshot in comm.gather(None, root=0)[1:]:
                if snapshot:
                    get_registry().merge(snapshot)
        finally:
            comm.close()
        grace = 10.0  # the others are past their last collective; let them say goodbye
        return result
    finally:
        reap(procs, grace=grace)
        hub.close()


# --------------------------------------------------------------------------- #
# in-process harness (tests / conformance suite)


def run_socket(
    num_ranks: int,
    target: Callable[[SocketComm, int], Any],
    *,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``target(comm, rank)`` on ``num_ranks`` ranks over real sockets.

    Mirrors :func:`repro.mpi.threaded.run_threaded`: ranks are threads of the
    calling process, but every collective crosses the loopback TCP stack
    through a real :class:`SocketHub`.  A rank that raises fails the world —
    the other ranks' pending and later collectives raise :class:`CommError`
    instead of waiting for it — and the first exception is re-raised.
    """
    hub = SocketHub(num_ranks).start()
    results: List[Any] = [None] * num_ranks
    errors: List[BaseException] = []  # in order of occurrence

    def body(rank: int) -> None:
        comm = None
        try:
            comm = SocketComm.connect(hub.host, hub.port, rank, num_ranks)
            results[rank] = target(comm, rank)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            errors.append(exc)
            hub._fail_all(f"rank {rank} raised {exc!r}")
        finally:
            if comm is not None:
                comm.close()

    threads = [
        threading.Thread(target=body, args=(r,), name=f"sock-rank-{r}", daemon=True)
        for r in range(num_ranks)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
            if t.is_alive():
                raise TimeoutError(f"socket rank {t.name} did not finish within {timeout}s")
    finally:
        hub.close()
    if errors:
        raise errors[0]
    return results
