"""The one collective matcher, and the communicator every multi-rank transport runs.

Algorithms 1 and 2 need ``ireduce``, ``ibarrier`` and ``ibcast`` on the one
world communicator, with one set of semantics; they are defined once, here:

* :class:`Matcher` pairs the contributions of one world's collectives.  A
  contribution is ``(kind, seq, op, root, rank, value)`` and matches by
  ``(kind, seq)``: the caller numbers its collectives per kind, so
  interleaved non-blocking operations of different kinds (``ibarrier`` +
  ``ireduce``) pair correctly without tags.  Results leave as ``("result",
  kind, seq, value)``, failures as ``("error", message)``, through the
  transport's ``deliver(rank, message)``.  Any fault while matching - ranks
  that disagree on op or root, a rank or root outside the world - fails the
  whole world with :class:`CommError`.
* :class:`HubComm` is the :class:`~repro.mpi.interface.Communicator` each
  rank holds.  It posts contributions over a :class:`Link` and waits on
  requests the link resolves: a non-root ``ireduce`` and the root's
  ``ibcast`` complete at once (the epoch loop keeps sampling while the link
  does its work), everything else when its result arrives.  Blocking waits
  use events, not spinning.

A transport is a link between the two.  :class:`LocalLink`, the one
in-process link, calls the matcher in the contributing thread and has its
results delivered directly: every rank of :mod:`repro.mpi.threaded` holds
one, and so does rank 0, seated in the process hosting a
:class:`~repro.dist.socketcomm.SocketHub`, whose other ranks frame over TCP.
It counts :func:`framed_payload_bytes` per contribution and per result, as
a socket would frame them.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.state_frame import SparseFrame, StateFrame
from repro.mpi.interface import CommError, Communicator
from repro.mpi.reduce_ops import reduce_op
from repro.mpi.requests import CompletedRequest, Request

__all__ = [
    "FRAME_HEADER_BYTES", "HubComm", "Link", "LocalLink", "Matcher", "framed_payload_bytes",
    "run_in_threads",
]

#: Length prefix of one socket-transport frame (see ``repro.dist.socketcomm``).
FRAME_HEADER_BYTES = 8

Key = Tuple[str, int]
Message = Tuple[Any, ...]


def _payload_bytes(value: Any) -> int:
    """Approximate wire size of a collective payload.

    Sizes are derived structurally — ``nbytes`` for arrays (and anything
    array-like that exposes it), buffer lengths for bytes, recursion for
    containers — so that accounting the traffic of a reduction never
    serializes a multi-gigabyte array just to measure it.  ``pickle.dumps``
    remains only as the last resort for exotic scalar payloads.
    """
    if isinstance(value, (StateFrame, SparseFrame)):
        return value.serialized_bytes()
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (bool, int, float)) or value is None:
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_payload_bytes(k) + _payload_bytes(v) for k, v in value.items())
    try:
        return len(pickle.dumps(value))
    except Exception:  # pragma: no cover - exotic payloads
        return 64


def framed_payload_bytes(value: Any) -> int:
    """Framed wire size of one collective payload on the socket path.

    The in-process transport frames nothing, so :func:`_payload_bytes`
    deliberately ignores framing.  Real transports don't: every message the
    socket communicator puts on a TCP stream carries a
    :data:`FRAME_HEADER_BYTES` length prefix in front of the payload.  Byte
    accounting that compares the in-process link against real transport
    (or estimates for an mpi4py run) must use this framed figure, or the
    in-process link under-reports every message by the header.
    """
    return FRAME_HEADER_BYTES + _payload_bytes(value)


class _HubCollective:
    """Matching state of one in-flight collective."""

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


class Matcher:
    """Matches the collectives of one world of ``size`` ranks (see module docstring)."""

    def __init__(self, size: int, deliver: Callable[[int, Message], None]) -> None:
        self._deliver = deliver
        self._lock = threading.Lock()
        self._size = size
        self._table: Dict[Key, _HubCollective] = {}
        self.failed: Optional[str] = None

    def fail(self, message: str) -> None:
        """Fail the world: every rank gets ``("error", message)``; the first failure wins."""
        with self._lock:
            if self.failed is not None:
                return
            self.failed = message
        for rank in range(self._size):
            self._deliver(rank, ("error", message))

    def contribute(self, contribution: Tuple[Any, ...]) -> None:
        """Match one contribution and deliver what it completes; never raises."""
        try:
            to_send = self._match(*contribution)
        except CommError as exc:
            self.fail(str(exc))
            return
        except Exception as exc:  # noqa: BLE001 - a fault fails the world, not the caller's thread
            self.fail(f"contribution {contribution[:2]!r} failed: {exc!r}")
            return
        for rank, message in to_send:
            self._deliver(rank, message)

    def _match(self, kind: str, seq: int, op: str, root: int, rank: int, value: Any) -> List[Tuple[int, Message]]:
        key = (kind, seq)
        head = ("result", kind, seq)
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} is outside a world of {self._size}")
        with self._lock:
            if self.failed is not None:
                # Contributions arriving after the world failed (e.g. from ranks
                # that had not yet joined when it failed) get the error too.
                return [(rank, ("error", self.failed))]
            entry = self._table.get(key)
            if entry is None:
                entry = self._table[key] = _HubCollective(kind, op, root)
            if entry.op != op or entry.root != root:
                raise CommError(
                    f"collective mismatch at {key}: "
                    f"({entry.kind},{entry.op},{entry.root}) vs ({kind},{op},{root})"
                )
            entry.count += 1
            if kind == "reduce":
                entry.accumulator = value if entry.count == 1 else reduce_op(op)(entry.accumulator, value)
            elif kind == "bcast":
                if rank == root:
                    entry.value = value
                    entry.has_value = True
                else:
                    entry.waiters.append(rank)
            elif kind == "gather":
                entry.contributions[rank] = value
            # barrier carries no payload

            to_send: List[Tuple[int, Message]] = []
            if kind == "bcast" and entry.has_value:
                to_send += [(waiter, head + (entry.value,)) for waiter in entry.waiters]
                entry.waiters.clear()
            if entry.count < self._size:
                return to_send
            del self._table[key]
            if not 0 <= root < self._size:
                raise ValueError(f"root {root} is outside a world of {self._size}")
            if kind == "reduce":
                to_send.append((root, head + (entry.accumulator,)))
            elif kind == "barrier":
                to_send += [(r, head + (None,)) for r in range(self._size)]
            elif kind == "gather":
                ordered = [entry.contributions[r] for r in range(self._size)]
                to_send += [(r, head + (ordered if r == root else None,)) for r in range(self._size)]
            return to_send


# --------------------------------------------------------------------------- #
# client side


class _Pending:
    """One result slot, set when its result (or the world's failure) arrives."""

    __slots__ = ("event", "value")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None


class Link:
    """One rank's end of a transport: result slots keyed by ``(kind, seq)``.

    A slot is registered before its contribution is sent and leaves the table
    when its result arrives, so a finished collective's result lives only as
    long as the caller holds it.  Transports implement :meth:`send`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[Key, _Pending] = {}
        self.bytes_total = 0
        self.counter: Any = None  # a metrics counter that sees every byte counted
        self.error: Optional[str] = None

    def send(self, message: Message) -> None:
        """Hand ``("coll", *contribution)`` to the matcher."""
        raise NotImplementedError

    def close(self) -> None:
        """The rank's goodbye."""

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise CommError(self.error)

    def expect(self, key: Key) -> _Pending:
        pending = _Pending()
        with self._lock:
            self._pending[key] = pending
        return pending

    def deliver(self, message: Message) -> None:
        """Fill the slot of a ``("result", ...)``, or fail every slot on ``("error", text)``."""
        if message[0] == "error":
            self._set_error(str(message[1]))
            return
        _tag, kind, seq, value = message
        with self._lock:
            pending = self._pending.pop((kind, seq), None)
        if pending is not None:
            pending.value = value
            pending.event.set()

    def _set_error(self, message: str) -> None:
        with self._lock:
            if self.error is None:
                self.error = message
            pending = list(self._pending.values())
        for entry in pending:
            entry.event.set()

    def _account(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_total += nbytes
        if self.counter is not None:
            self.counter.inc(nbytes)


class LocalLink(Link):
    """A rank's link to the matcher ``contribute`` of its own process; ``on_close`` is its goodbye."""

    def __init__(self, contribute: Callable[[Message], None], on_close: Callable[[], None] = lambda: None) -> None:
        super().__init__()
        self._contribute = contribute
        self.close = on_close

    def send(self, message: Message) -> None:
        self.raise_if_failed()
        value = message[-1]
        # A non-root ireduce returns before the root folds its contribution, and
        # the engine then zeroes that frame in place: deposit a copy.
        if isinstance(value, (StateFrame, np.ndarray)):
            value = value.copy()
        self._account(framed_payload_bytes(value))
        self._contribute(message[1:-1] + (value,))
        self.raise_if_failed()  # a mismatch fails the world, this call included

    def deliver(self, message: Message) -> None:
        if message[0] == "result":
            self._account(framed_payload_bytes(message[-1]))
        super().deliver(message)


class _EventRequest(Request):
    """Request completed by its link (no spinning while waiting)."""

    def __init__(self, link: Link, pending: _Pending) -> None:
        self._link = link
        self._pending = pending
        self._value: Any = None
        self._done = False

    def test(self) -> bool:
        if self._done:
            return True
        self._link.raise_if_failed()
        if self._pending.event.is_set():
            self._finish()
            return True
        return False

    def wait(self, poll_interval: float = 0.0) -> Any:
        del poll_interval  # event-driven; no polling needed
        if not self._done:
            self._pending.event.wait()
            self._link.raise_if_failed()
            self._finish()
        return self._value

    def _finish(self) -> None:
        self._value = self._pending.value
        self._done = True

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("request has not completed; call wait() or test() first")
        return self._value

    @property
    def done(self) -> bool:
        return self._done


class HubComm(Communicator):
    """One rank's communicator over a :class:`Link` (see module docstring).

    All ranks of a communicator must issue the same sequence of collectives,
    which the MPI usage model already requires.
    """

    def __init__(self, link: Link, rank: int, size: int) -> None:
        self._link = link
        self._rank = rank
        self._size = size
        self._seq: Dict[str, int] = {}
        self._seq_lock = threading.Lock()

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def _post(self, kind: str, *, op: str = "", root: int = 0, value: Any = None, reply: bool = True) -> Any:
        """Send this rank's contribution; with ``reply``, the request of its result slot."""
        with self._seq_lock:
            seq = self._seq.get(kind, 0)
            self._seq[kind] = seq + 1
        request = _EventRequest(self._link, self._link.expect((kind, seq))) if reply else None
        self._link.send(("coll", kind, seq, op, root, self._rank, value))
        return request

    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self.ibarrier().wait()

    def ibarrier(self) -> Request:
        return self._post("barrier")

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        return self.ireduce(value, op=op, root=root).wait()

    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        self._check(root, op)
        if self._rank == root:
            return self._post("reduce", op=op, root=root, value=value)
        self._post("reduce", op=op, root=root, value=value, reply=False)
        return CompletedRequest()

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        return self.ibcast(value, root=root).wait()

    def ibcast(self, value: Any = None, root: int = 0) -> Request:
        self._check(root)
        if self._rank == root:
            self._post("bcast", op="bcast", root=root, value=value, reply=False)
            return CompletedRequest(value)
        return self._post("bcast", op="bcast", root=root)

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        self._check(root)
        return self._post("gather", op="gather", root=root, value=value).wait()

    def communication_bytes(self) -> int:
        """Bytes this rank's link moved."""
        return self._link.bytes_total

    def close(self) -> None:
        """Orderly goodbye; after this no collective may be issued."""
        self._link.close()


def run_in_threads(
    num_ranks: int,
    target: Callable[[Communicator, int], Any],
    join: Callable[[int], HubComm],
    fail: Callable[[str], None],
    timeout: Optional[float],
) -> List[Any]:
    """Run ``target(join(rank), rank)`` in ``num_ranks`` threads and collect results.

    A rank that raises fails the world through ``fail`` — the other ranks'
    pending and later collectives raise :class:`CommError` instead of waiting
    for it — and the first exception is re-raised in the caller after all
    threads have been joined.  Each rank closes its communicator at the end.
    """
    results: List[Any] = [None] * num_ranks
    errors: List[BaseException] = []  # in order of occurrence

    def body(rank: int) -> None:
        comm = None
        try:
            comm = join(rank)
            results[rank] = target(comm, rank)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            errors.append(exc)
            fail(f"rank {rank} raised {exc!r}")
        finally:
            if comm is not None:
                comm.close()

    threads = [threading.Thread(target=body, args=(r,), name=f"rank-{r}", daemon=True) for r in range(num_ranks)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError(f"{thread.name} did not finish within {timeout}s")
    if errors:
        raise errors[0]
    return results
