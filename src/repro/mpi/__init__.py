"""MPI substrate: communicator interface, the one collective matcher and its
client (:mod:`repro.mpi.hub`) and the threaded runtime.

A :class:`Communicator` carries what Algorithms 1 and 2 post (``ibcast``,
``ireduce``, ``ibarrier`` + ``reduce``, ``bcast``), plus ``gather`` and
``barrier``; reductions sum, the one operator (:func:`reduce_op`)."""

from repro.mpi.interface import CommError, Communicator, SelfComm
from repro.mpi.requests import Request, CompletedRequest, PolledRequest
from repro.mpi.reduce_ops import reduce_op
from repro.mpi.threaded import ThreadedComm, ThreadedCommWorld, run_threaded

__all__ = [
    "CommError",
    "Communicator",
    "SelfComm",
    "Request",
    "CompletedRequest",
    "PolledRequest",
    "reduce_op",
    "ThreadedComm",
    "ThreadedCommWorld",
    "run_threaded",
]
