"""``SocketComm``: the :class:`~repro.mpi.interface.Communicator` ABC over TCP.

The collectives themselves live in :mod:`repro.mpi.hub` - one matcher, one
client - and this module is their TCP link, built on the standard library only:

* **Framing** — every message is an 8-byte big-endian length prefix followed
  by a pickled tuple.  No third-party serialization; numpy arrays and
  :class:`~repro.core.state_frame.StateFrame` payloads ride through pickle.
* **Rendezvous** — rank 0's process hosts a :class:`SocketHub` and takes its
  seat in process (:meth:`SocketHub.seat`, a :class:`~repro.mpi.hub.LocalLink`).
  Every other rank connects and says hello with its rank; the hub greets each
  connection with a bounded wait, seats only a free rank in ``[0, size)``,
  and feeds the seated ranks' contributions to its
  :class:`~repro.mpi.hub.Matcher`, which sends the results back.
* **Client** — :class:`SocketComm` is :class:`~repro.mpi.hub.HubComm` over the
  host's seat or a :class:`_Conn`, whose background receive thread fills the
  result slots as results arrive.
* **Failure** — a peer that disappears without an orderly goodbye fails every
  outstanding and future collective on all surviving ranks with
  :class:`CommError` naming the lost rank.  The distributed launcher turns
  that into kill-remaining + checkpoint resume.

``run_forked(num_ranks, target)`` is how this repo runs local ranks: rank 0
(and the hub) in the calling process, every other rank a forked child that
inherits the caller's state — graph included — copy-on-write.  :func:`fork_rank`
and :func:`reap`, the two primitives under it, are also how
:func:`repro.dist.launcher.launch_local` starts and stops its ranks.
``run_socket(num_ranks, target)`` mirrors ``run_threaded`` for tests: the
same hosted world, rank 0 on the seat and every other rank over loopback TCP,
with ranks as threads of the calling process.
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

from repro.mpi.hub import HubComm, Link, LocalLink, Matcher, run_in_threads
from repro.mpi.interface import CommError
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

# SocketHub: how long a new connection has to say hello.
_HELLO_S = 10.0

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
    """Rank-0 rendezvous listener and framing around the world's :class:`Matcher`.

    The hosting process takes rank 0's seat with :meth:`seat`.  Every
    accepted connection gets a thread that waits at most ``_HELLO_S`` for a
    ``("hello", rank)`` frame naming a free seat in ``[0, size)`` and closes
    anything else uncounted; a greeted connection's thread then feeds its
    ``("coll", ...)`` frames to the matcher until the rank says goodbye.
    Accepting stops once all ``size`` seats are taken.  ``listener`` is a
    socket from :func:`bind_listener` to accept on (the hub owns it from then
    on); without one the hub binds ``(host, port)`` itself.
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
        self._conns: Dict[int, Callable[[Tuple[Any, ...]], None]] = {}  # seated rank -> its delivery
        self._socks: List[socket.socket] = []
        self._matcher = Matcher(size, self._send_to)
        self._departed: set = set()
        self._closing = threading.Event()

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "SocketHub":
        threading.Thread(target=self._accept_loop, name="hub-accept", daemon=True).start()
        return self

    def seat(self) -> "SocketComm":
        """Rank 0, the hosting process, on a link that owns no socket; take it before :meth:`start`."""
        link = LocalLink(self._matcher.contribute, on_close=lambda: self._depart(0))
        link.counter = _bytes_counter(0)
        with self._lock:
            if 0 in self._conns:
                raise ValueError("seat 0 is taken")
            self._conns[0] = link.deliver
        return SocketComm(link, 0, self._size)

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            with self._lock:
                if len(self._conns) >= self._size:
                    return
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), name="hub-conn", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        rank = self._greet(conn)
        if rank is None:
            conn.close()
            return
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
                self._matcher.contribute(msg[1:])
        if orderly:
            self._depart(rank)
        elif not self._closing.is_set():
            self._matcher.fail(f"rank {rank} connection lost")

    def _depart(self, rank: int) -> None:
        """``rank`` said goodbye; the hub closes itself after the last one."""
        with self._lock:
            self._departed.add(rank)
            done = len(self._departed) >= self._size
        if done:
            self.close()

    def _greet(self, conn: socket.socket) -> Optional[int]:
        """The rank of a timely, well-formed hello for a free seat; ``None`` for anything else."""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(_HELLO_S)
            frame = _recv_frame(conn)
            conn.settimeout(None)
        except Exception:  # noqa: BLE001 - silence, a reset or garbage: not a rank
            return None
        msg = frame[0] if frame is not None else None
        if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "hello"):
            return None
        rank = msg[1]
        if type(rank) is not int or not 0 <= rank < self._size:
            return None
        send_lock = threading.Lock()

        def send(payload: Tuple[Any, ...]) -> None:
            try:
                with send_lock:
                    _send_frame(conn, payload)
            except OSError:
                pass

        with self._lock:
            if rank in self._conns or self._closing.is_set():
                return None
            self._conns[rank] = send
            self._socks.append(conn)
        failed = self._matcher.failed
        if failed is not None:
            # The world already failed before this rank finished joining;
            # it would otherwise wait forever for an error it never got.
            send(("error", failed))
        return rank

    def _send_to(self, world_rank: int, payload: Tuple[Any, ...]) -> None:
        with self._lock:
            send = self._conns.get(world_rank)
        if send is not None:
            send(payload)

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
            socks = list(self._socks)
            self._conns.clear()
            self._socks.clear()
        for conn in socks:
            try:
                conn.close()
            except OSError:
                pass


# --------------------------------------------------------------------------- #
# client side


def _bytes_counter(rank: int):
    """Rank ``rank``'s :data:`COMM_BYTES_METRIC` series, when metrics are on."""
    if not metrics_enabled():
        return None
    return get_registry().counter(
        COMM_BYTES_METRIC,
        "Framed bytes sent+received on the distributed socket transport.",
        labelnames=("rank",),
    ).labels(rank=str(rank))


class _Conn(Link):
    """One process's connection to the hub, shared by all its communicators."""

    def __init__(self, sock: socket.socket, rank: int) -> None:
        super().__init__()
        self.world_rank = rank
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        self.counter = _bytes_counter(rank)
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name=f"comm-recv-{rank}", daemon=True
        )
        self._recv_thread.start()

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
            self.deliver(msg)
            if msg[0] == "error":
                return

    def send(self, payload: Tuple[Any, ...]) -> None:
        self.raise_if_failed()
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


class SocketComm(HubComm):
    """The shared :class:`~repro.mpi.hub.HubComm` client over a TCP connection to the hub, or its seat."""

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
        return cls(conn, int(rank), int(size))

    def __repr__(self) -> str:
        return f"SocketComm(rank={self._rank}, size={self._size})"


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
    import encodings.idna  # noqa: F401 - connect's getaddrinfo imports it, once here, not per rank
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

    The hub and rank 0, on its in-process seat, run here, in the caller, so
    whatever ``target`` closes over (progress callbacks, open spans) and its
    result never cross a process edge; ranks ``1 .. num_ranks-1`` are children from :func:`fork_rank`,
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
        # Seating and accepting only now keeps the hub's threads and
        # connections out of the children.
        comm = hub.seat()
        hub.start()
        _start_on_own_cpu(0)
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
    """Run ``target(comm, rank)`` on ``num_ranks`` ranks of a hosted socket world.

    Mirrors :func:`repro.mpi.threaded.run_threaded` with ranks as threads of
    the calling process, wired as :func:`run_forked` wires processes: rank 0
    takes the hub's in-process seat and every other rank's collectives cross
    the loopback TCP stack.  A rank that raises fails the world — the other
    ranks' pending and later collectives raise :class:`CommError` instead of
    waiting for it — and the first exception is re-raised.
    """
    hub = SocketHub(num_ranks)
    seat = hub.seat()
    hub.start()

    def join(rank: int) -> SocketComm:
        return seat if rank == 0 else SocketComm.connect(hub.host, hub.port, rank, num_ranks)

    try:
        return run_in_threads(num_ranks, target, join, hub._matcher.fail, timeout)
    finally:
        hub.close()
