"""``mpi4py``-backed communicator behind a capability probe.

The kernel ABI's probe pattern (:mod:`repro.kernels.abi`): try-import, run a
tiny smoke against ``COMM_WORLD``, degrade gracefully.  ``mpi4py`` is never a
hard dependency — containers without an MPI stack (like the default test
image) simply report the transport as unavailable and the socket transport
carries distributed runs.

When available, a program started under ``mpirun``/``srun`` wraps
``COMM_WORLD`` via :func:`world_communicator` on each rank and hands it to
:func:`~repro.parallel.engine.run_rank`; the CLI's ``dist`` commands always
run over the socket transport.

Reductions deliberately go through object-mode ``gather`` + the repository's
own :func:`~repro.mpi.reduce_ops.reduce_op` fold rather than ``MPI.SUM``:
payloads here are :class:`~repro.core.state_frame.StateFrame` and
:class:`~repro.core.state_frame.SparseFrame` objects, and folding them with
the same ``sum`` as every other transport keeps the semantics (and the
tests) identical.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.mpi.interface import Communicator
from repro.mpi.reduce_ops import reduce_op
from repro.mpi.requests import CompletedRequest, PolledRequest, Request
from repro.mpi.hub import framed_payload_bytes

__all__ = ["Mpi4pyComm", "probe_mpi4py", "world_communicator"]

_PROBE_RESULT: Optional[Tuple[bool, str]] = None


def probe_mpi4py() -> Tuple[bool, str]:
    """One-time capability probe: importable *and* a live ``COMM_WORLD``."""
    global _PROBE_RESULT
    if _PROBE_RESULT is not None:
        return _PROBE_RESULT
    try:
        from mpi4py import MPI  # noqa: PLC0415 - probe import
    except Exception as exc:  # pragma: no cover - depends on container
        _PROBE_RESULT = (False, f"mpi4py not importable: {exc}")
        return _PROBE_RESULT
    try:  # pragma: no cover - requires an MPI stack
        comm = MPI.COMM_WORLD
        if comm.Get_size() < 1:
            raise RuntimeError("COMM_WORLD reports no ranks")
        _PROBE_RESULT = (True, f"mpi4py {MPI.Get_version()} available")
    except Exception as exc:  # pragma: no cover
        _PROBE_RESULT = (False, f"mpi4py present but unusable: {exc}")
    return _PROBE_RESULT


class Mpi4pyComm(Communicator):  # pragma: no cover - requires an MPI stack
    """The communicator ABC over an ``mpi4py`` intracommunicator."""

    def __init__(self, comm) -> None:
        self._comm = comm
        self._bytes = 0

    @property
    def rank(self) -> int:
        return self._comm.Get_rank()

    @property
    def size(self) -> int:
        return self._comm.Get_size()

    def _account(self, value: Any) -> None:
        self._bytes += framed_payload_bytes(value)

    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        self._comm.Barrier()

    def ibarrier(self) -> Request:
        req = self._comm.Ibarrier()
        return PolledRequest(lambda: bool(req.Test()))

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Optional[Any]:
        self._check(root, op)
        self._account(value)
        gathered = self._comm.gather(value, root=root)
        if gathered is None:
            return None
        fold = reduce_op(op)
        acc = gathered[0]
        for item in gathered[1:]:
            acc = fold(acc, item)
        return acc

    def ireduce(self, value: Any, op: str = "sum", root: int = 0) -> Request:
        return CompletedRequest(self.reduce(value, op=op, root=root))

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        if self.rank == root:
            self._bytes += framed_payload_bytes(value) * max(self.size - 1, 0)
        return self._comm.bcast(value, root=root)

    def ibcast(self, value: Any = None, root: int = 0) -> Request:
        return CompletedRequest(self.bcast(value, root=root))

    def gather(self, value: Any, root: int = 0) -> Optional[List[Any]]:
        self._account(value)
        return self._comm.gather(value, root=root)

    def communication_bytes(self) -> int:
        """Framed-size estimate of this rank's sent payloads.

        MPI does not expose per-message wire sizes portably, so this uses
        :func:`~repro.mpi.hub.framed_payload_bytes` per contribution —
        comparable with the socket transport's actual accounting.
        """
        return self._bytes


def world_communicator() -> Mpi4pyComm:  # pragma: no cover - requires MPI
    """``COMM_WORLD`` wrapped in the ABC; raises when the probe fails."""
    available, detail = probe_mpi4py()
    if not available:
        raise RuntimeError(f"mpi4py transport unavailable: {detail}")
    from mpi4py import MPI  # noqa: PLC0415

    return Mpi4pyComm(MPI.COMM_WORLD)
