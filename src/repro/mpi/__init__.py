"""MPI substrate: communicator interface, the one collective matcher and its
client (:mod:`repro.mpi.hub`) and the threaded runtime."""

from repro.mpi.interface import CommError, Communicator, SelfComm
from repro.mpi.requests import Request, CompletedRequest, PolledRequest
from repro.mpi.reduce_ops import REDUCE_OPS, reduce_op, combine
from repro.mpi.threaded import ThreadedComm, ThreadedCommWorld, run_threaded

__all__ = [
    "CommError",
    "Communicator",
    "SelfComm",
    "Request",
    "CompletedRequest",
    "PolledRequest",
    "REDUCE_OPS",
    "reduce_op",
    "combine",
    "ThreadedComm",
    "ThreadedCommWorld",
    "run_threaded",
]
