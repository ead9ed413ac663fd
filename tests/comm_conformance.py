"""Transport-agnostic Communicator conformance suite.

Every implementation of :class:`repro.mpi.interface.Communicator` must behave
identically under the collectives the epoch framework issues — the threaded
simulation, the distributed socket transport (rank 0 seated in the hub's own
process and the others over TCP, as forked worlds run) with its ranks as
threads and as forked processes, and the degenerate single-rank ``SelfComm``.  This module defines *runners* (how to execute an N-rank body
on a given transport) and the *checks* (the shared semantics); the pytest
parametrization lives in ``test_comm_conformance.py``.

Not named ``test_*`` on purpose: pytest does not collect it, tests import it.
"""

from __future__ import annotations

import signal
import socket
import weakref
from contextlib import contextmanager
from typing import Any, Callable, List

import numpy as np
import pytest

from repro.core.state_frame import SparseFrame, StateFrame
from repro.mpi import CommError, SelfComm, run_threaded
from repro.dist.socketcomm import run_forked, run_socket

Body = Callable[[Any, int], Any]

__all__ = [
    "RUNNERS", "CommRunner", "SelfRunner", "ThreadedRunner", "SocketRunner", "ForkedRunner", "CHECKS",
    "SHARED_MEMORY_CHECKS", "allsum", "pick_free_port",
]


def allsum(comm, value):
    """The sum of ``value`` over the world, on every rank: ``reduce`` to rank 0, ``bcast`` back."""
    return comm.bcast(comm.reduce(value, op="sum", root=0), root=0)


def pick_free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral TCP port that was free at probe time, for a hub address
    that must be named before anything listens on it (``dist worker --port``)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


class CommRunner:
    """Executes an N-rank body on one transport; returns per-rank results."""

    name = "abstract"
    max_ranks = 0
    #: Whether the transport counts communication volume.
    counts_bytes = True
    #: Whether every rank runs in the caller's process, so a body's side
    #: effects on what it closes over are seen by the check.
    shares_memory = True

    def run(self, num_ranks: int, body: Body) -> List[Any]:
        raise NotImplementedError


class SelfRunner(CommRunner):
    name = "self"
    max_ranks = 1
    counts_bytes = False

    def run(self, num_ranks: int, body: Body) -> List[Any]:
        assert num_ranks == 1
        return [body(SelfComm(), 0)]


class ThreadedRunner(CommRunner):
    name = "threaded"
    max_ranks = 16

    def run(self, num_ranks: int, body: Body) -> List[Any]:
        return run_threaded(num_ranks, body, timeout=60.0)


class SocketRunner(CommRunner):
    name = "socket"
    max_ranks = 16

    def run(self, num_ranks: int, body: Body) -> List[Any]:
        return run_socket(num_ranks, body, timeout=60.0)


@contextmanager
def _time_limit(seconds: int):
    """Raise ``TimeoutError`` in the main thread after ``seconds``: a world
    that hangs fails its test instead of the whole run."""

    def expire(signum, frame):
        raise TimeoutError(f"world still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class ForkedRunner(CommRunner):
    """Ranks 1..n-1 are forked processes, as ``run_rank`` runs a local world;
    every rank's result reaches rank 0, in the caller, by one last gather."""

    name = "forked"
    max_ranks = 16
    shares_memory = False

    def run(self, num_ranks: int, body: Body) -> List[Any]:
        def target(comm, rank):
            return comm.gather(body(comm, rank), root=0)

        with _time_limit(60):
            return run_forked(num_ranks, target)


RUNNERS = (SelfRunner(), ThreadedRunner(), SocketRunner(), ForkedRunner())


# --------------------------------------------------------------------------- #
# checks — each takes (runner, num_ranks) and asserts; multi-rank checks are
# skipped by the caller when the runner cannot host that many ranks.


def check_reduce_sum_root0(runner: CommRunner, n: int) -> None:
    results = runner.run(n, lambda comm, rank: comm.reduce(rank + 1, op="sum", root=0))
    assert results[0] == n * (n + 1) // 2
    assert all(r is None for r in results[1:])


def check_reduce_nonzero_root(runner: CommRunner, n: int) -> None:
    root = n - 1
    results = runner.run(n, lambda comm, rank: comm.reduce(rank * 10, op="sum", root=root))
    assert results[root] == 10 * (n - 1) * n // 2
    assert all(r is None for i, r in enumerate(results) if i != root)


def check_bcast(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        return comm.bcast({"data": 99} if rank == 0 else None, root=0)

    assert runner.run(n, body) == [{"data": 99}] * n


def check_bcast_false_value(runner: CommRunner, n: int) -> None:
    results = runner.run(n, lambda comm, rank: comm.bcast(False if rank == 0 else None))
    assert results == [False] * n


def check_bcast_nonzero_root(runner: CommRunner, n: int) -> None:
    root = n - 1

    def body(comm, rank):
        return comm.bcast("payload" if rank == root else None, root=root)

    assert runner.run(n, body) == ["payload"] * n


def check_gather_nonzero_root(runner: CommRunner, n: int) -> None:
    root = n // 2
    results = runner.run(n, lambda comm, rank: comm.gather(rank * rank, root=root))
    assert results[root] == [r * r for r in range(n)]
    assert all(r is None for i, r in enumerate(results) if i != root)


def check_barrier_and_ibarrier(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        comm.barrier()
        comm.ibarrier().wait()
        return True

    assert runner.run(n, body) == [True] * n


def check_sequential_collectives_match_by_order(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        first = allsum(comm, 1)
        second = allsum(comm, rank)
        return (first, second)

    assert runner.run(n, body) == [(n, n * (n - 1) // 2)] * n


def check_ireduce_overlap(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        request = comm.ireduce(rank + 1, op="sum", root=0)
        overlapped = 1 + 1  # sampling would happen here
        value = request.wait()
        return (overlapped, value)

    results = runner.run(n, body)
    assert results[0] == (2, n * (n + 1) // 2)
    assert all(r == (2, None) for r in results[1:])


def check_out_of_order_ibarrier_reduce_interleaving(runner: CommRunner, n: int) -> None:
    """Non-blocking ops of different kinds issued before either completes."""

    def body(comm, rank):
        barrier_req = comm.ibarrier()
        reduce_req = comm.ireduce(np.full(8, float(rank)), op="sum")
        # Complete in the opposite order on odd ranks to stress matching.
        if rank % 2:
            value = reduce_req.wait()
            barrier_req.wait()
        else:
            barrier_req.wait()
            value = reduce_req.wait()
        return None if value is None else float(value.sum())

    results = runner.run(n, body)
    assert results[0] == 8.0 * sum(range(n))
    assert all(r is None for r in results[1:])


def check_state_frame_reduction(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        frame = StateFrame.zeros(n)
        frame.record_sample(np.asarray([rank]))
        return comm.reduce(frame, op="sum", root=0)

    results = runner.run(n, body)
    assert results[0].num_samples == n
    assert list(results[0].counts) == [1.0] * n


def check_sparse_and_dense_frames_sum(runner: CommRunner, n: int) -> None:
    """Frames travel as ``for_wire`` sends them: even ranks touch one counter
    (sparse), odd ranks every counter (dense); the mix reduces to the dense sum."""
    size = 6 * n

    def frame_of(rank: int) -> StateFrame:
        frame = StateFrame.zeros(size)
        frame.record_sample(np.arange(size) if rank % 2 else np.asarray([rank]))
        return frame

    def body(comm, rank):
        sent = frame_of(rank).for_wire()
        return isinstance(sent, SparseFrame), comm.reduce(sent, op="sum", root=0)

    results = runner.run(n, body)
    assert [sparse for sparse, _ in results] == [rank % 2 == 0 for rank in range(n)]
    assert all(total is None for _, total in results[1:])
    dense = StateFrame.zeros(size)
    for rank in range(n):
        dense.add_into(frame_of(rank))
    folded = StateFrame.zeros(size).add_into(results[0][1])
    assert folded.counts.tobytes() == dense.counts.tobytes()
    assert folded.num_samples == dense.num_samples == n


def check_kinds_match_by_their_own_order(runner: CommRunner, n: int) -> None:
    """Collectives pair by (kind, call order of that kind): several of each
    kind in flight at once, waited on in another order, each get their own result."""

    def body(comm, rank):
        requests = [
            comm.ibarrier(),
            comm.ireduce(rank, op="sum"),
            comm.ibcast("first" if rank == 0 else None),
            comm.ibarrier(),
            comm.ireduce(10 * rank, op="sum"),
            comm.ibcast("second" if rank == 0 else None),
        ]
        order = reversed(requests) if rank % 2 else requests
        for request in order:
            request.wait()
        return [request.result() for request in requests[1:3] + requests[4:]]

    total = n * (n - 1) // 2
    results = runner.run(n, body)
    assert results[0] == [total, "first", 10 * total, "second"]
    assert all(r == [None, "first", None, "second"] for r in results[1:])


def check_array_payloads(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        summed = allsum(comm, np.arange(5, dtype=np.float64) * rank)
        sent = comm.bcast(np.full(3, 7.5) if rank == 0 else None)
        return summed.tolist(), sent.tolist()

    expected = ([float(i * n * (n - 1) // 2) for i in range(5)], [7.5] * 3)
    assert runner.run(n, body) == [expected] * n


def check_communication_bytes_positive(runner: CommRunner, n: int) -> None:
    def body(comm, rank):
        comm.reduce(np.zeros(100), op="sum", root=0)
        return comm.communication_bytes()

    results = runner.run(n, body)
    assert all(b >= 100 * 8 for b in results)


def check_rank_exception_fails_the_world(runner: CommRunner, n: int) -> None:
    """A rank that raises must not leave its peers waiting in a collective.

    Their pending and later collectives raise ``CommError`` and the runner
    re-raises the original exception (without the fix: the runner's timeout).
    """

    class RankFailure(Exception):
        pass

    failed_peers = []

    def body(comm, rank):
        if rank == 0:
            raise RankFailure("rank 0 gave up")
        try:
            comm.bcast(None, root=0)  # pending: rank 0 never contributes
        except CommError:
            with pytest.raises(CommError):
                allsum(comm, rank)  # later collectives fail too
            failed_peers.append(rank)
            raise

    with pytest.raises(RankFailure):
        runner.run(n, body)
    assert sorted(failed_peers) == list(range(1, n))


def check_ireduce_buffer_reusable_after_return(runner: CommRunner, n: int) -> None:
    """A non-root rank may overwrite its contribution once ``ireduce`` returns
    (the engine zeroes its aggregate scratch in place); the root folds the
    value as it was at the call."""

    def body(comm, rank):
        buffer = np.full(4, float(rank + 1))
        if rank == 0:
            comm.barrier()  # every other rank has contributed and overwritten its buffer
            return comm.ireduce(buffer, op="sum", root=0).wait()
        comm.ireduce(buffer, op="sum", root=0).wait()
        buffer[:] = -100.0
        comm.barrier()
        return None

    results = runner.run(n, body)
    assert list(results[0]) == [n * (n + 1) / 2] * 4


def check_reduce_results_are_not_retained(runner: CommRunner, n: int) -> None:
    """A finished reduction's result lives only as long as its caller holds it."""

    def body(comm, rank):
        refs = []
        for _ in range(3):
            frame = StateFrame.zeros(64)
            frame.record_sample(np.asarray([rank]))
            result = comm.reduce(frame, op="sum", root=0)
            del frame
            if result is not None:
                refs.append(weakref.ref(result))
                del result
            comm.barrier()
        return [ref() is None for ref in refs]

    results = runner.run(n, body)
    assert results[0] == [True] * 3
    assert all(r == [] for r in results[1:])


def check_bad_root_raises_value_error(runner: CommRunner, n: int) -> None:
    """A root outside ``[0, size)`` raises in the calling rank and posts nothing."""

    def body(comm, rank):
        for call in (
            lambda: comm.reduce(1, root=n),
            lambda: comm.ireduce(1, root=-1),
            lambda: comm.bcast(1, root=n + 3),
            lambda: comm.gather(1, root=n),
        ):
            with pytest.raises(ValueError):
                call()
        comm.barrier()
        return allsum(comm, 1)

    assert runner.run(n, body) == [n] * n


def check_bad_op_raises_value_error(runner: CommRunner, n: int) -> None:
    """An unknown reduction op - any but ``sum`` - raises in the calling rank and posts nothing."""

    def body(comm, rank):
        for call in (
            lambda: comm.reduce(1, op="max"),
            lambda: comm.reduce(1, op="bogus"),
            lambda: comm.ireduce(1, op="bogus", root=n - 1),
        ):
            with pytest.raises(ValueError):
                call()
        return allsum(comm, rank)

    assert runner.run(n, body) == [n * (n - 1) // 2] * n


#: The checks that read what a body changed in the caller's memory.
SHARED_MEMORY_CHECKS = {"rank_exception_fails_the_world"}

#: name -> (check, min_ranks_required)
CHECKS = {
    "reduce_sum_root0": (check_reduce_sum_root0, 1),
    "reduce_nonzero_root": (check_reduce_nonzero_root, 2),
    "bcast": (check_bcast, 1),
    "bcast_false_value": (check_bcast_false_value, 1),
    "bcast_nonzero_root": (check_bcast_nonzero_root, 2),
    "gather_nonzero_root": (check_gather_nonzero_root, 2),
    "barrier_and_ibarrier": (check_barrier_and_ibarrier, 1),
    "sequential_collectives_match_by_order": (check_sequential_collectives_match_by_order, 1),
    "ireduce_overlap": (check_ireduce_overlap, 1),
    "out_of_order_ibarrier_reduce_interleaving": (
        check_out_of_order_ibarrier_reduce_interleaving,
        2,
    ),
    "state_frame_reduction": (check_state_frame_reduction, 2),
    "sparse_and_dense_frames_sum": (check_sparse_and_dense_frames_sum, 1),
    "kinds_match_by_their_own_order": (check_kinds_match_by_their_own_order, 2),
    "array_payloads": (check_array_payloads, 2),
    "communication_bytes_positive": (check_communication_bytes_positive, 2),
    "rank_exception_fails_the_world": (check_rank_exception_fails_the_world, 2),
    "ireduce_buffer_reusable_after_return": (check_ireduce_buffer_reusable_after_return, 2),
    "reduce_results_are_not_retained": (check_reduce_results_are_not_retained, 1),
    "bad_root_raises_value_error": (check_bad_root_raises_value_error, 1),
    "bad_op_raises_value_error": (check_bad_op_raises_value_error, 1),
}
