"""Threaded in-process MPI runtime: ranks as threads of one process.

Every rank holds a :class:`ThreadedComm` - the client the socket transport
runs too, :class:`~repro.mpi.hub.HubComm` - over an in-process link that hands
each contribution to the world's one :class:`~repro.mpi.hub.Matcher` in the
contributing thread and resolves the receiving ranks' result slots directly.
The threads take turns under the GIL, so nothing runs an estimation here (the
facade's ``processes > 1`` forks real processes,
:func:`repro.dist.socketcomm.run_forked`); the runtime is the fixture the
communicator conformance suite and the benchmark ladder run the shared
semantics on.

Byte accounting is :func:`framed_payload_bytes` per deposited contribution:
the structural payload size plus the 8-byte length prefix a socket transport
would frame it with, so byte totals stay comparable across transports.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.core.state_frame import StateFrame
from repro.mpi.hub import WORLD_COMM_ID, HubComm, Link, Matcher
from repro.mpi.interface import Communicator

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

    The in-process transport frames nothing, so :func:`_payload_bytes`
    deliberately ignores framing.  Real transports don't: every message the
    socket communicator puts on a TCP stream carries a
    :data:`FRAME_HEADER_BYTES` length prefix in front of the payload.  Byte
    accounting that compares the threaded simulation against real transport
    (or estimates for an mpi4py run) must use this framed figure, or the
    simulation under-reports every message by the header.
    """
    return FRAME_HEADER_BYTES + _payload_bytes(value)


class _LocalLink(Link):
    """A rank's link to its world's matcher, called in the rank's own thread."""

    def __init__(self, matcher: Matcher) -> None:
        super().__init__()
        self._matcher = matcher

    def send(self, message: Tuple[Any, ...]) -> None:
        self.raise_if_failed()
        value = message[-1]
        # A non-root ireduce returns before the root folds its contribution, and
        # the engine then zeroes that frame in place: deposit a copy.
        if isinstance(value, (StateFrame, np.ndarray)):
            value = value.copy()
        self._account(framed_payload_bytes(value))
        self._matcher.contribute(message[1:-1] + (value,))
        self.raise_if_failed()  # a mismatch fails the world, this call included


class ThreadedComm(HubComm):
    """One threaded rank's communicator: :class:`~repro.mpi.hub.HubComm` over an in-process link."""


class ThreadedCommWorld:
    """A world of threaded ranks (the ``MPI_COMM_WORLD`` analogue): one matcher, a link per rank."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._matcher = Matcher(size, lambda rank, message: self._links[rank].deliver(message))
        self._links = [_LocalLink(self._matcher) for _ in range(size)]

    @property
    def size(self) -> int:
        return len(self._links)

    def comm_for_rank(self, rank: int) -> ThreadedComm:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return ThreadedComm(self._links[rank], WORLD_COMM_ID, rank, self.size)

    @property
    def total_bytes(self) -> int:
        return sum(link.bytes_total for link in self._links)

    def fail(self, message: str) -> None:
        """Mark the world failed: collectives that cannot complete raise ``CommError``."""
        self._matcher.fail(message)


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
