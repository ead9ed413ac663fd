"""Run the shared Communicator conformance checks on every transport.

One parametrized matrix: (transport runner) x (semantic check).  Checks that
need more ranks than a runner can host (``SelfComm`` is single-rank) are
skipped for that runner; mismatch detection is skipped where a transport
cannot observe a mismatch (a single rank cannot disagree with itself).
"""

from __future__ import annotations

import threading

import pytest

from comm_conformance import CHECKS, RUNNERS

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
        world.comm_for_rank(1).ireduce(1, op="max", root=0)


def test_socket_mismatch_fails_all_ranks():
    def body(comm, rank):
        return comm.allreduce(1, op="sum" if rank == 0 else "max")

    with pytest.raises(CommError, match="mismatch"):
        run_socket(4, body, timeout=30.0)


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


def test_socket_comm_bytes_counter_when_metrics_enabled():
    """Framed wire traffic lands on repro_dist_comm_bytes_total{rank}."""
    from repro.dist.socketcomm import COMM_BYTES_METRIC
    from repro.obs import disable_metrics, enable_metrics
    from repro.obs.metrics import get_registry

    enable_metrics()
    try:
        results = run_socket(2, lambda comm, rank: comm.allreduce(rank + 1), timeout=30.0)
        assert results == [3, 3]
        family = get_registry().snapshot()[COMM_BYTES_METRIC]
        assert family["labelnames"] == ["rank"]
        series = {tuple(labels): value for labels, value in family["series"]}
        for rank in ("0", "1"):
            assert series.get((rank,), 0) > 0
    finally:
        disable_metrics()
