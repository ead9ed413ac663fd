"""Abstract communicator interface (the subset of MPI used by the paper).

The algorithms in Section IV need exactly these primitives:

* blocking ``bcast`` (a resumed run's header);
* non-blocking ``ibcast`` (the diameter bound, the budget left after each
  check) and ``ireduce`` (calibration, Algorithm 1's epochs), thread 0
  sampling while they are in flight;
* non-blocking ``ibarrier`` + blocking ``reduce`` (the paper's replacement for
  a slow ``MPI_Ireduce``) for Algorithm 2's epochs.

Besides them, ``gather`` collects the per-rank reports and metrics at the
end of a distributed run, and a blocking ``barrier`` lines ranks up for a
timing.  Every reduction sums (``op="sum"``, the one operator of
:func:`~repro.mpi.reduce_ops.reduce_op`), and a value every rank needs
travels by ``reduce`` to rank 0 and ``bcast`` back.

Every collective runs on the one world communicator.  The paper's
node-local/leader split (Section IV-E) pre-aggregates over shared memory;
every multi-rank transport here is a star through rank 0's process, where a
node-local reduction is one more pass through the same hub, so there is no
``split``.

Three implementations live in this repository.  :class:`SelfComm` (below)
is the single rank.  Every multi-rank transport runs one client,
:class:`~repro.mpi.hub.HubComm`, over a link to one collective matcher,
:class:`~repro.mpi.hub.Matcher`: ``SocketComm`` frames it over TCP
(:mod:`repro.dist.socketcomm`; the hub's host rank calls it in process),
``ThreadedComm`` calls it in-process with ranks as threads
(:mod:`repro.mpi.threaded`, the conformance suite's fixture).  ``Mpi4pyComm`` (:mod:`repro.dist.mpi4py_adapter`) maps the
interface onto a real ``mpi4py`` communicator when one is available.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional

from repro.mpi.reduce_ops import reduce_op
from repro.mpi.requests import CompletedRequest, Request

__all__ = ["CommError", "Communicator", "SelfComm"]


class CommError(RuntimeError):
    """A collective failed: protocol mismatch, a lost peer, or a rank that raised."""


class Communicator(abc.ABC):
    """Minimal MPI-style communicator (the collectives in the module docstring).

    An unknown reduction ``op`` or a ``root`` outside the world raises
    ``ValueError`` in the calling rank before anything is posted.
    """

    # -- identity ------------------------------------------------------- #
    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """Rank of the calling process within this communicator."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of processes in this communicator."""

    @property
    def is_root(self) -> bool:
        return self.rank == 0

    # -- collective operations ------------------------------------------ #
    @abc.abstractmethod
    def barrier(self) -> None:
        """Blocking barrier."""

    @abc.abstractmethod
    def ibarrier(self) -> Request:
        """Non-blocking barrier."""

    @abc.abstractmethod
    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        """Blocking reduction; returns the aggregate at ``root``, else ``None``."""

    @abc.abstractmethod
    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        """Non-blocking reduction; the request's result follows :meth:`reduce`."""

    @abc.abstractmethod
    def bcast(self, value: Any, root: int = 0) -> Any:
        """Blocking broadcast of ``value`` from ``root``."""

    @abc.abstractmethod
    def ibcast(self, value: Any, root: int = 0) -> Request:
        """Non-blocking broadcast; the request's result is the broadcast value."""

    @abc.abstractmethod
    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        """Blocking gather; returns the list of per-rank values at ``root``."""

    # -- convenience ------------------------------------------------------ #
    def _check(self, root: int, op: Optional[str] = None) -> None:
        """Reject an unknown reduction ``op`` or a ``root`` outside ``[0, size)``, before posting."""
        if op is not None:
            reduce_op(op)
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} is not a rank of a size-{self.size} communicator")

    def communication_bytes(self) -> int:
        """Total payload bytes moved through this communicator so far.

        Implementations that do not track traffic return 0; the multi-rank
        transports count the framed bytes of their rank's link, which feeds
        the communication-volume column of Table II.
        """
        return 0


class SelfComm(Communicator):
    """The trivial single-rank communicator (``MPI_COMM_SELF``).

    Used for sequential and shared-memory runs of the rank engine.
    """

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    def barrier(self) -> None:
        return None

    def ibarrier(self) -> Request:
        return CompletedRequest()

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        self._check(root, op)
        return value

    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        return CompletedRequest(self.reduce(value, op, root))

    def bcast(self, value: Any, root: int = 0) -> Any:
        self._check(root)
        return value

    def ibcast(self, value: Any, root: int = 0) -> Request:
        return CompletedRequest(self.bcast(value, root))

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        self._check(root)
        return [value]
