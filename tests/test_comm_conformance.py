"""Run the shared Communicator conformance checks on every transport.

One parametrized matrix: (transport runner) x (semantic check).  Checks that
need more ranks than a runner can host (``SelfComm`` is single-rank) are
skipped for that runner; mismatch detection is skipped where a transport
cannot observe a mismatch (a single rank cannot disagree with itself).  A
check that reads what the ranks changed in the caller's memory is skipped
where ranks are processes of their own.
"""

from __future__ import annotations

import threading

import pytest

from comm_conformance import CHECKS, RUNNERS, SHARED_MEMORY_CHECKS, ForkedRunner

from repro.dist.socketcomm import CommError, SocketComm, SocketHub, run_socket
from repro.mpi.threaded import ThreadedCommWorld

DEFAULT_RANKS = 4


@pytest.fixture(params=RUNNERS, ids=lambda r: r.name)
def runner(request):
    return request.param


@pytest.mark.parametrize("check_name", sorted(CHECKS))
def test_conformance(runner, check_name):
    check, min_ranks = CHECKS[check_name]
    if runner.max_ranks < min_ranks:
        pytest.skip(f"{runner.name} hosts at most {runner.max_ranks} rank(s)")
    if check_name == "communication_bytes_positive" and not runner.counts_bytes:
        pytest.skip(f"{runner.name} does not count communication")
    if check_name in SHARED_MEMORY_CHECKS and not runner.shares_memory:
        pytest.skip(f"{runner.name} runs ranks in processes of their own")
    num_ranks = max(min_ranks, min(DEFAULT_RANKS, runner.max_ranks))
    check(runner, num_ranks)


# --------------------------------------------------------------------------- #
# Mismatch detection: every transport fails *every* rank of the world with
# CommError.  The threaded world also raises in the offending rank's call, so
# it is exercised with direct sequential calls from one thread.


def test_threaded_mismatch_raises_in_offending_call():
    world = ThreadedCommWorld(2)
    world.comm_for_rank(0).ireduce(1, op="sum", root=0)
    with pytest.raises(RuntimeError, match="mismatch"):
        world.comm_for_rank(1).ireduce(1, op="sum", root=1)


def test_socket_mismatch_fails_all_ranks():
    def body(comm, rank):
        return comm.gather(rank, root=0 if rank == 0 else 1)

    with pytest.raises(CommError, match="mismatch"):
        run_socket(4, body, timeout=30.0)


def test_forked_mismatch_fails_the_world():
    def body(comm, rank):
        return comm.gather(rank, root=0 if rank == 0 else 1)

    with pytest.raises(CommError, match="mismatch"):
        ForkedRunner().run(4, body)


# A contribution the matcher cannot handle - here a root past the world, posted
# below the client's own check as a foreign client could send it - fails the
# world with CommError on every transport.


def test_threaded_matcher_fault_fails_the_world():
    world = ThreadedCommWorld(2)
    pending = world.comm_for_rank(0)._post("reduce", op="sum", root=5, value=1)
    with pytest.raises(CommError, match="failed"):
        world.comm_for_rank(1)._post("reduce", op="sum", root=5, value=1)
    with pytest.raises(CommError, match="failed"):
        pending.wait()


def test_threaded_contribution_from_outside_the_world_fails_it():
    world = ThreadedCommWorld(2)
    stray, other = world.comm_for_rank(1), world.comm_for_rank(0)
    stray._rank = 2  # a rank no seat of the world holds
    with pytest.raises(CommError, match="outside a world of 2"):
        stray.barrier()
    with pytest.raises(CommError, match="outside a world of 2"):
        other.barrier()


def test_threaded_bcast_from_a_root_outside_the_world_fails_it():
    """Every rank waits for a value no rank can send: the world fails instead of hanging."""
    world = ThreadedCommWorld(2)
    pending = world.comm_for_rank(0)._post("bcast", op="bcast", root=5)
    with pytest.raises(CommError, match="root 5"):
        world.comm_for_rank(1)._post("bcast", op="bcast", root=5)
    with pytest.raises(CommError, match="root 5"):
        pending.wait()


def test_socket_matcher_fault_fails_the_world_and_keeps_reading():
    hub = SocketHub(2).start()
    errors = []

    def body(rank):
        comm = SocketComm.connect(hub.host, hub.port, rank, 2)
        try:
            comm._post("reduce", op="sum", root=5, value=1).wait()
        except CommError as exc:
            errors.append(str(exc))
        finally:
            comm.close()

    threads = [threading.Thread(target=body, args=(rank,), daemon=True) for rank in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert len(errors) == 2 and all("failed" in error for error in errors)
        # Both readers lived on to read their rank's goodbye.
        assert hub.wait_closed(timeout=10.0)
    finally:
        hub.close()
