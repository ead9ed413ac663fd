"""Threaded in-process MPI runtime.

Every rank is a Python thread, and the collectives are implemented on shared
memory with the same *semantics* as their MPI counterparts.  The threads take
turns under the GIL, so nothing runs an estimation here any more (the facade's
``processes > 1`` forks real processes, :func:`repro.dist.socketcomm.run_forked`);
the runtime is the reference the communicator conformance suite and the
benchmark ladder compare the socket transport against:

* collectives are matched by call order per communicator (the i-th ``ireduce``
  of every rank belongs to the same operation);
* non-blocking collectives complete for a rank as soon as its own
  participation requirements are met (a reduction completes at a non-root rank
  once its contribution has been deposited; at the root only after every
  contribution arrived — slightly stricter than MPI, which is safe);
* reductions use associative/commutative operators from
  :mod:`repro.mpi.reduce_ops`.

The runtime also accounts the framed wire bytes of every reduce/bcast/gather
(:func:`framed_payload_bytes`: the structural payload size plus the 8-byte
length prefix a socket transport would frame it with), which feeds the
communication-volume statistics (Table II's column) and keeps byte totals
comparable across the threaded and socket transports.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.state_frame import StateFrame
from repro.mpi.interface import CommError, Communicator
from repro.mpi.reduce_ops import reduce_op
from repro.mpi.requests import PolledRequest, Request

__all__ = [
    "FRAME_HEADER_BYTES",
    "ThreadedCommWorld",
    "ThreadedComm",
    "framed_payload_bytes",
    "run_threaded",
]

#: Length prefix of one socket-transport frame (see ``repro.dist.socketcomm``).
FRAME_HEADER_BYTES = 8


def _payload_bytes(value: Any) -> int:
    """Approximate wire size of a collective payload.

    Sizes are derived structurally — ``nbytes`` for arrays (and anything
    array-like that exposes it), buffer lengths for bytes, recursion for
    containers — so that accounting the traffic of a reduction never
    serializes a multi-gigabyte array just to measure it.  ``pickle.dumps``
    remains only as the last resort for exotic scalar payloads.
    """
    if isinstance(value, StateFrame):
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

    The in-process transport moves references, so :func:`_payload_bytes`
    deliberately ignores framing.  Real transports don't: every message the
    socket communicator puts on a TCP stream carries a
    :data:`FRAME_HEADER_BYTES` length prefix in front of the payload.  Byte
    accounting that compares the threaded simulation against real transport
    (or estimates for an mpi4py run) must use this framed figure, or the
    simulation under-reports every message by the header.
    """
    return FRAME_HEADER_BYTES + _payload_bytes(value)


class _Collective:
    """Shared state of one in-flight collective operation."""

    __slots__ = ("kind", "op", "root", "accumulator", "contributions", "count", "value", "bytes")

    def __init__(self, kind: str, op: str, root: int) -> None:
        self.kind = kind
        self.op = op
        self.root = root
        self.accumulator: Any = None
        self.contributions: Dict[int, Any] = {}
        self.count = 0
        self.value: Any = None  # bcast value
        self.bytes = 0


class _CommCore:
    """State shared by all ranks of one communicator."""

    def __init__(self, size: int, failure: Optional[List[str]] = None) -> None:
        self.size = size
        self.lock = threading.Lock()
        # Shared by a world and all its splits: non-empty once a rank raised,
        # which fails every pending and later collective with CommError.
        self.failure: List[str] = failure if failure is not None else []
        self.table: Dict[Tuple[str, int], _Collective] = {}
        self.total_bytes = 0
        # Cache of communicator splits so that every rank calling split() with
        # the same call index joins the same sub-communicator cores.
        self.split_table: Dict[int, Dict[int, "_CommCore"]] = {}
        self.split_members: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}


class ThreadedComm(Communicator):
    """Communicator handle of one rank backed by a shared :class:`_CommCore`."""

    def __init__(self, core: _CommCore, rank: int) -> None:
        self._core = core
        self._rank = rank
        self._seq: Dict[str, int] = {}
        self._split_seq = 0

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._core.size

    def communication_bytes(self) -> int:
        with self._core.lock:
            return self._core.total_bytes

    # ------------------------------------------------------------------ #
    def _next_seq(self, kind: str) -> int:
        seq = self._seq.get(kind, 0)
        self._seq[kind] = seq + 1
        return seq

    def _join(self, kind: str, op: str, root: int, value: Any) -> Tuple[_Collective, Tuple[str, int]]:
        """Deposit this rank's contribution to the matching collective."""
        key = (kind, self._next_seq(kind))
        core = self._core
        self._raise_if_failed()
        with core.lock:
            entry = core.table.get(key)
            if entry is None:
                entry = _Collective(kind, op, root)
                core.table[key] = entry
            if entry.op != op or entry.root != root:
                raise RuntimeError(
                    f"collective mismatch at {key}: ranks disagree on op/root "
                    f"({entry.op}/{entry.root} vs {op}/{root})"
                )
            if kind in ("reduce", "allreduce"):
                payload = framed_payload_bytes(value)
                entry.bytes += payload
                core.total_bytes += payload
                contribution = value.copy() if isinstance(value, (StateFrame, np.ndarray)) else value
                if entry.accumulator is None:
                    entry.accumulator = contribution
                else:
                    entry.accumulator = reduce_op(op)(entry.accumulator, contribution)
            elif kind == "bcast":
                if self._rank == root:
                    entry.value = value
                    payload = framed_payload_bytes(value)
                    entry.bytes += payload * max(self.size - 1, 0)
                    core.total_bytes += payload * max(self.size - 1, 0)
            elif kind == "gather":
                payload = framed_payload_bytes(value)
                entry.bytes += payload
                core.total_bytes += payload
                entry.contributions[self._rank] = value
            elif kind == "barrier":
                pass
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown collective kind {kind!r}")
            entry.count += 1
        return entry, key

    def _raise_if_failed(self) -> None:
        if self._core.failure:
            raise CommError(self._core.failure[0])

    def _all_arrived(self, entry: _Collective) -> bool:
        with self._core.lock:
            if entry.count >= self._core.size:
                return True
        self._raise_if_failed()
        return False

    def _root_arrived(self, entry: _Collective) -> bool:
        with self._core.lock:
            if entry.value is not None or entry.count >= self._core.size:
                return True
        self._raise_if_failed()
        return False

    # ------------------------------------------------------------------ #
    # Barrier
    # ------------------------------------------------------------------ #
    def ibarrier(self) -> Request:
        entry, _ = self._join("barrier", "sum", 0, None)
        return PolledRequest(lambda: self._all_arrived(entry))

    def barrier(self) -> None:
        self.ibarrier().wait()

    # ------------------------------------------------------------------ #
    # Reduce
    # ------------------------------------------------------------------ #
    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        entry, _ = self._join("reduce", op, root, value)
        if self._rank == root:
            def fetch() -> Any:
                with self._core.lock:
                    return entry.accumulator
            return PolledRequest(lambda: self._all_arrived(entry), fetch)
        # Non-root ranks complete as soon as their contribution is deposited.
        return PolledRequest(lambda: True)

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        request = self.ireduce(value, op, root)
        result = request.wait()
        return result if self._rank == root else None

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        entry, _ = self._join("allreduce", op, 0, value)
        PolledRequest(lambda: self._all_arrived(entry)).wait()
        with self._core.lock:
            return entry.accumulator

    # ------------------------------------------------------------------ #
    # Broadcast
    # ------------------------------------------------------------------ #
    def ibcast(self, value: Any, root: int = 0) -> Request:
        entry, _ = self._join("bcast", "sum", root, value)
        if self._rank == root:
            return PolledRequest(lambda: True, lambda: value)

        def fetch() -> Any:
            with self._core.lock:
                return entry.value

        return PolledRequest(lambda: self._root_arrived(entry), fetch)

    def bcast(self, value: Any, root: int = 0) -> Any:
        return self.ibcast(value, root).wait()

    # ------------------------------------------------------------------ #
    # Gather
    # ------------------------------------------------------------------ #
    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        entry, _ = self._join("gather", "sum", root, value)
        PolledRequest(lambda: self._all_arrived(entry)).wait()
        if self._rank != root:
            return None
        with self._core.lock:
            return [entry.contributions[r] for r in range(self._core.size)]

    # ------------------------------------------------------------------ #
    # Split
    # ------------------------------------------------------------------ #
    def split(self, color: int, key: int = 0) -> "Communicator":
        """MPI_Comm_split: ranks with the same color form a new communicator,
        ordered by ``(key, old rank)``."""
        core = self._core
        call_index = self._split_seq
        self._split_seq += 1
        with core.lock:
            members = core.split_members.setdefault(call_index, {})
            members.setdefault(color, []).append((key, self._rank))

        # Wait until every rank of the parent communicator registered its color.
        def all_registered() -> bool:
            with core.lock:
                registered = sum(
                    len(v) for v in core.split_members.get(call_index, {}).values()
                )
            if registered >= core.size:
                return True
            self._raise_if_failed()
            return False

        PolledRequest(all_registered).wait()

        with core.lock:
            group = sorted(core.split_members[call_index][color])
            cores_for_call = core.split_table.setdefault(call_index, {})
            if color not in cores_for_call:
                cores_for_call[color] = _CommCore(len(group), core.failure)
            new_core = cores_for_call[color]
            new_rank = [old_rank for _, old_rank in group].index(self._rank)
        return ThreadedComm(new_core, new_rank)


class ThreadedCommWorld:
    """Factory for a world of threaded ranks (the ``MPI_COMM_WORLD`` analogue)."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._core = _CommCore(size)
        self._size = size

    @property
    def size(self) -> int:
        return self._size

    def comm_for_rank(self, rank: int) -> ThreadedComm:
        if not (0 <= rank < self._size):
            raise ValueError(f"rank {rank} out of range [0, {self._size})")
        return ThreadedComm(self._core, rank)

    @property
    def total_bytes(self) -> int:
        with self._core.lock:
            return self._core.total_bytes

    def fail(self, message: str) -> None:
        """Mark the world failed: collectives that cannot complete raise ``CommError``."""
        self._core.failure.append(message)


def run_threaded(
    num_ranks: int,
    target: Callable[[Communicator, int], Any],
    *,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``target(comm, rank)`` in ``num_ranks`` threads and collect results.

    A rank that raises fails the world — the other ranks' pending and later
    collectives raise :class:`~repro.mpi.interface.CommError` instead of
    waiting for it — and the first exception is re-raised in the caller after
    all threads have been joined.
    """
    world = ThreadedCommWorld(num_ranks)
    results: List[Any] = [None] * num_ranks
    errors: List[BaseException] = []  # in order of occurrence

    def runner(rank: int) -> None:
        comm = world.comm_for_rank(rank)
        try:
            results[rank] = target(comm, rank)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            errors.append(exc)
            world.fail(f"rank {rank} raised {exc!r}")

    threads = [threading.Thread(target=runner, args=(rank,), daemon=True) for rank in range(num_ranks)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        if thread.is_alive():
            raise TimeoutError("threaded MPI run did not finish within the timeout")
    if errors:
        raise errors[0]
    return results
