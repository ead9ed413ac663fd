"""The hub's host seat: rank 0, in the hub's own process, joins without a socket.

``SocketHub.seat`` gives rank 0 a communicator over the
in-process :class:`~repro.mpi.hub.LocalLink`; ``run_socket``, ``run_forked``
and rank 0 of ``launch_local``/``dist worker`` take it instead of dialling
their own port.
The seat is a seat like any other: a hello for it is refused, it counts its
traffic on its own series, and leaving it is the rank's goodbye.
"""

from __future__ import annotations

import socket
import sys
import threading

import numpy as np
import pytest

from comm_conformance import allsum

from repro.dist.launcher import launch_local
from repro.dist.socketcomm import COMM_BYTES_METRIC, SocketComm, SocketHub, _send_frame, run_forked, run_socket
from repro.graph.generators import barabasi_albert
from repro.mpi.hub import LocalLink
from repro.obs import disable_metrics, enable_metrics, get_registry
from repro.store import write_rcsr

TARGET = dict(eps=0.2, delta=0.1, seed=5, samples_per_check=100, max_samples=1500)


def owns_no_socket(comm) -> bool:
    return isinstance(comm._link, LocalLink) and not any(
        isinstance(value, socket.socket) for value in vars(comm._link).values()
    )


@pytest.fixture(scope="module")
def rcsr(tmp_path_factory):
    path = tmp_path_factory.mktemp("seat") / "ba300.rcsr"
    write_rcsr(barabasi_albert(300, 3, seed=4), path)
    return str(path)


class TestTheSeat:
    def test_a_hello_for_the_taken_seat_is_refused(self):
        hub = SocketHub(2)
        root = hub.seat()
        hub.start()
        stray = socket.create_connection((hub.host, hub.port))
        other = None
        try:
            assert owns_no_socket(root)
            _send_frame(stray, ("hello", 0))
            stray.settimeout(20.0)
            assert stray.recv(1) == b""  # closed by the hub: seat 0 is taken
            other = SocketComm.connect(hub.host, hub.port, 1, 2, timeout=5.0)
            results = []
            thread = threading.Thread(target=lambda: results.append(allsum(other, 2)), daemon=True)
            thread.start()
            results.append(allsum(root, 1))
            thread.join(timeout=20.0)
            assert results == [3, 3]
            other.close()
            root.close()
            assert hub.wait_closed(timeout=10.0)  # the seat's close was rank 0's goodbye
        finally:
            stray.close()
            hub.close()

    def test_a_seat_is_taken_once(self):
        hub = SocketHub(2)
        try:
            hub.seat()
            with pytest.raises(ValueError):
                hub.seat()
        finally:
            hub.close()

    def test_the_seat_counts_its_bytes_on_its_series(self):
        enable_metrics()
        registry = get_registry()
        registry.clear()
        try:
            assert run_socket(2, lambda comm, rank: allsum(comm, rank + 1), timeout=30.0) == [3, 3]
            family = registry.snapshot()[COMM_BYTES_METRIC]
            assert family["labelnames"] == ["rank"]
            series = {tuple(labels): value for labels, value in family["series"]}
            assert series[("0",)] > 0 and series[("1",)] > 0
        finally:
            disable_metrics()
            registry.clear()

    def test_posted_and_delivered_bytes_are_counted_as_framed(self):
        def body(comm, rank):
            comm.reduce(rank)
            return comm.communication_bytes()

        # Rank 0 posts one 8-byte int and is delivered the sum, each behind an 8-byte prefix.
        assert run_socket(2, body, timeout=30.0)[0] == 2 * (8 + 8)

    def test_many_collectives_under_a_short_switch_interval(self):
        """The seat's thread and the hub's connection threads share the
        matcher: more ranks than cores, a thread switch every few bytecodes."""
        rounds, n = 150, 6

        def body(comm, rank):
            total = 0
            for i in range(rounds):
                comm.ibarrier().wait()
                total += allsum(comm, rank + i)
                summed = comm.reduce(np.full(3, float(rank)), root=0)
                assert comm.bcast(None if rank else summed.tolist()) == [n * (n - 1) / 2] * 3
            return total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = run_socket(n, body, timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert results == [sum(r + i for r in range(n) for i in range(rounds))] * n


class TestForkedWorldsSeatRankZero:
    """No process dials a hub it hosts: each ``connect`` appends its rank to
    a file, from whichever process makes it (children inherit the patch)."""

    @pytest.fixture()
    def dialled(self, tmp_path, monkeypatch):
        log = tmp_path / "dialled"
        log.touch()
        real = SocketComm.connect.__func__

        def recording(cls, host, port, rank, size, **kwargs):
            with open(log, "a") as out:
                out.write(f"{rank}\n")
            return real(cls, host, port, rank, size, **kwargs)

        monkeypatch.setattr(SocketComm, "connect", classmethod(recording))
        return lambda: log.read_text().split()

    def test_run_socket(self, dialled):
        def target(comm, rank):
            return owns_no_socket(comm), allsum(comm, rank)

        assert run_socket(2, target, timeout=30.0) == [(True, 1), (False, 1)]
        assert dialled() == ["1"]

    def test_run_forked(self, dialled):
        def target(comm, rank):
            return owns_no_socket(comm), allsum(comm, rank)

        assert run_forked(2, target) == (True, 1)
        assert dialled() == ["1"]

    def test_launch_local(self, rcsr, dialled):
        result = launch_local(rcsr, processes=2, **TARGET)
        assert result["num_processes"] == 2
        assert dialled() == ["1"]
        assert all(report["communication_bytes"] > 0 for report in result["per_rank"])
