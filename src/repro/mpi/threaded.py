"""Threaded in-process MPI runtime: ranks as threads of one process.

Every rank holds a :class:`ThreadedComm` - the client the socket transport
runs too, :class:`~repro.mpi.hub.HubComm` - over a
:class:`~repro.mpi.hub.LocalLink` to the world's one
:class:`~repro.mpi.hub.Matcher`, which counts bytes as a socket would frame
them.  The threads take turns under the GIL, so nothing runs an estimation
here (the facade's ``processes > 1`` forks real processes,
:func:`repro.dist.socketcomm.run_forked`); the runtime is the fixture the
communicator conformance suite and the benchmark ladder run the shared
semantics on.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.mpi.hub import HubComm, LocalLink, Matcher, run_in_threads
from repro.mpi.interface import Communicator

__all__ = ["ThreadedCommWorld", "ThreadedComm", "run_threaded"]


class ThreadedComm(HubComm):
    """One threaded rank's communicator: :class:`~repro.mpi.hub.HubComm` over an in-process link."""


class ThreadedCommWorld:
    """A world of threaded ranks (the ``MPI_COMM_WORLD`` analogue): one matcher, a link per rank."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self._matcher = Matcher(size, lambda rank, message: self._links[rank].deliver(message))
        self._links = [LocalLink(self._matcher.contribute) for _ in range(size)]

    @property
    def size(self) -> int:
        return len(self._links)

    def comm_for_rank(self, rank: int) -> ThreadedComm:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return ThreadedComm(self._links[rank], rank, self.size)

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
    return run_in_threads(num_ranks, target, world.comm_for_rank, world.fail, timeout)
