"""Local ranks are forked processes: what the fork must and must not carry over.

Both ways of starting local ranks are covered — ``launch_local`` (every rank a
child of the launcher) and the facade's ``processes > 1`` (the caller is rank
0, the others its children, :func:`repro.dist.socketcomm.run_forked`).  Every
test here also runs under :func:`no_child_left_behind`: whatever happens to a
rank, no child of this process may outlive the call that started it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from comm_conformance import allsum, pick_free_port

import repro.api.backends as backends
import repro.dist.driver as driver
from repro import Resources, estimate_betweenness
from repro.core.options import KadabraOptions
from repro.dist.driver import DistWorkerConfig
from repro.dist.launcher import LaunchError, launch_local
from repro.dist.socketcomm import (
    COMM_BYTES_METRIC,
    CommError,
    SocketComm,
    SocketHub,
    _send_frame,
    bind_listener,
    run_forked,
)
from repro.graph.generators import barabasi_albert
from repro.kernels import BatchPathSampler
from repro.obs import disable_metrics, enable_metrics, get_registry
from repro.obs import trace as obs_trace
from repro.store import write_rcsr

SRC = Path(__file__).resolve().parents[1] / "src"
TARGET = dict(eps=0.2, delta=0.1, seed=5, samples_per_check=100, max_samples=1500)


def children_of_this_process() -> set:
    """Pids whose parent is this process — running or zombie."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == os.getpid():
            found.add(int(entry))
    return found


@pytest.fixture(autouse=True)
def no_child_left_behind():
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc to list child processes")
    before = children_of_this_process()
    yield
    assert children_of_this_process() - before == set()


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(120, 3, seed=4)


@pytest.fixture()
def rcsr(tmp_path, graph) -> str:
    path = tmp_path / "g.rcsr"
    write_rcsr(graph, path)
    return str(path)


def facade(graph, algorithm="distributed", **kwargs):
    return estimate_betweenness(
        graph,
        algorithm=algorithm,
        eps=TARGET["eps"],
        delta=TARGET["delta"],
        seed=TARGET["seed"],
        samples_per_check=TARGET["samples_per_check"],
        max_samples_override=TARGET["max_samples"],
        resources=Resources(processes=2),
        **kwargs,
    )


def fail_at_rank_one(monkeypatch, module, how):
    """Make ``module.run_rank`` fail in rank 1 only (forked ranks inherit the patch)."""
    real = module.run_rank

    def run_rank(comm, *args, **kwargs):
        if comm.rank == 1:
            how()
        return real(comm, *args, **kwargs)

    monkeypatch.setattr(module, "run_rank", run_rank)


def raise_error():
    raise RuntimeError("rank 1 is broken")


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestEveryChildIsReaped:
    def test_after_success(self, graph, rcsr):
        assert launch_local(rcsr, processes=2, **TARGET)["restarts"] == 0
        assert facade(graph).scores.size == graph.num_vertices

    def test_launch_after_a_rank_raises(self, rcsr, monkeypatch):
        fail_at_rank_one(monkeypatch, driver, raise_error)
        with pytest.raises(LaunchError, match=r"rank 1 died \(exit 1\)"):
            launch_local(rcsr, processes=2, max_restarts=0, **TARGET)

    def test_launch_after_a_rank_is_killed(self, rcsr, monkeypatch):
        fail_at_rank_one(monkeypatch, driver, kill_self)
        with pytest.raises(LaunchError, match=r"rank 1 died \(exit -9\)"):
            launch_local(rcsr, processes=2, max_restarts=0, **TARGET)

    def test_launch_after_the_deadline(self, rcsr, monkeypatch):
        fail_at_rank_one(monkeypatch, driver, lambda: threading.Event().wait())
        with pytest.raises(LaunchError, match="exceeded"):
            launch_local(rcsr, processes=2, timeout=0.5, **TARGET)

    def test_facade_after_a_rank_raises(self, graph, monkeypatch):
        fail_at_rank_one(monkeypatch, backends, raise_error)
        with pytest.raises(CommError, match="rank 1"):
            facade(graph)

    def test_facade_after_a_rank_is_killed(self, graph, monkeypatch):
        fail_at_rank_one(monkeypatch, backends, kill_self)
        with pytest.raises(CommError, match="rank 1"):
            facade(graph)

    def test_facade_after_the_caller_raises(self, graph):
        def progress(event):
            raise RuntimeError("caller gives up")

        with pytest.raises(RuntimeError, match="caller gives up"):
            facade(graph, callbacks=progress)


class TestForkFromAThreadedProcess:
    def test_launches_complete_beside_a_busy_thread(self, graph, rcsr):
        # The service's asyncio and heartbeat threads are the real case.  This
        # one lives in the metrics registry, whose lock every forked rank
        # takes first thing: forked while the thread holds it, a rank would
        # wait for a thread that does not exist on its side.
        stop = threading.Event()
        counter = get_registry().counter("test_forked_ranks_spins_total")

        def spin():
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=spin, daemon=True)
        thread.start()
        try:
            for _ in range(3):
                assert launch_local(rcsr, processes=2, timeout=60.0, **TARGET)["num_samples"] > 0
                assert facade(graph).num_samples > 0
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestConnectImportsNothing:
    def test_the_idna_codec_is_imported_before_the_fork(self):
        """``SocketComm.connect`` resolves its host with ``getaddrinfo``, which
        imports ``encodings.idna`` on first use: ``fork_rank`` imports it once
        in the launcher, so a rank forked from a process that never resolved
        a host does not import it again."""
        script = (
            "import sys\n"
            "from repro.dist.socketcomm import fork_rank, reap\n"
            "assert 'encodings.idna' not in sys.modules\n"
            "def rank():\n"
            "    if 'encodings.idna' not in sys.modules:\n"
            "        raise SystemExit(3)\n"
            "proc = fork_rank(rank, rank=1)\n"
            "reap([proc], grace=30.0)\n"
            "sys.exit(proc.exitcode)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        completed = subprocess.run([sys.executable, "-c", script], env=env, timeout=120, capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr


class TestWhatTheFacadeStillReports:
    LADDER_KEYS = {"diameter", "calibration", "adaptive_sampling", "ads_sampling", "ads_reduce", "ads_check"}

    def test_phase_seconds_keys(self, graph):
        # bench/ladder.py reads these; Algorithm 1 has no ibarrier to time.
        assert self.LADDER_KEYS | {"ads_ibarrier"} <= set(facade(graph).phase_seconds)
        assert self.LADDER_KEYS <= set(facade(graph, algorithm="mpi-only").phase_seconds)

    def test_progress_stays_in_the_caller_and_each_rank_roots_its_own_spans(self, graph, tmp_path):
        events = []
        trace = tmp_path / "trace.jsonl"
        obs_trace.enable_tracing(str(trace))
        try:
            with obs_trace.span("outer"):
                result = facade(graph, callbacks=events.append)
        finally:
            obs_trace.disable_tracing()
        assert {e.phase for e in events} >= {"diameter", "calibration", "adaptive_sampling"}
        assert result.resources["processes"] == 2
        trees = [json.loads(line) for line in trace.read_text().splitlines()]
        # The caller's tree closes where it was opened; rank 1 started with an
        # empty stack, so its phases are roots of their own rather than
        # children of a copy of "outer" that never closes.
        assert [t["name"] for t in trees if t.get("attrs", {}).get("rank") is None] == ["outer"]
        assert {t["name"] for t in trees if t.get("attrs", {}).get("rank") == 1} == {
            "diameter", "calibration", "adaptive_sampling",
        }


class TestMetricsCountOnlyTheRun:
    @pytest.fixture()
    def dirty_registry(self):
        """Metrics on, and a counter that a forked rank must not send back."""
        enable_metrics()
        registry = get_registry()
        registry.clear()
        registry.counter("test_forked_ranks_before_total").inc(7)
        yield registry
        disable_metrics()
        registry.clear()

    def test_facade(self, graph, dirty_registry):
        result = facade(graph)
        snapshot = dirty_registry.snapshot()
        assert snapshot["test_forked_ranks_before_total"]["series"] == [[[], 7.0]]
        traffic = {tuple(labels): value for labels, value in snapshot[COMM_BYTES_METRIC]["series"]}
        assert traffic[("0",)] > 0 and traffic[("1",)] > 0  # rank 1's came home
        # Every sample either rank drew is counted once, under its kernel too:
        # the planned batches, the overlap batches and the discarded ones.
        drawn = dirty_registry.counter("repro_kernel_samples_total").value
        kernel = BatchPathSampler(graph).kernel_name
        assert drawn == dirty_registry.counter(f"repro_kernel_{kernel}_samples_total").value
        assert drawn >= result.num_samples

    def test_launch(self, rcsr, tmp_path, dirty_registry, monkeypatch):
        # Rank 0 is a child here; have it write down the registry it merged.
        real = driver._worker_body
        seen = tmp_path / "world-metrics.json"

        def worker_body(comm, *args):
            result = real(comm, *args)
            if comm.is_root:
                seen.write_text(json.dumps(get_registry().snapshot()))
            return result

        monkeypatch.setattr(driver, "_worker_body", worker_body)
        launch_local(rcsr, processes=2, **TARGET)
        world = json.loads(seen.read_text())
        assert world["test_forked_ranks_before_total"]["series"] == [[[], 0.0]]
        assert {tuple(labels) for labels, _ in world[COMM_BYTES_METRIC]["series"]} == {("0",), ("1",)}


class TestListenerHandOff:
    def test_connects_queue_until_the_hub_accepts(self):
        listener = bind_listener(backlog=2)
        host, port = listener.getsockname()
        # No hub yet: the connect is queued by the kernel, not refused.
        early = SocketComm.connect(host, port, 1, 2, timeout=0.0)
        hub = SocketHub(2, listener=listener).start()
        try:
            root = SocketComm.connect(host, port, 0, 2, timeout=0.0)
            pending = early.ibarrier()
            root.barrier()
            pending.wait()
            early.close()
            root.close()
            assert hub.wait_closed(timeout=10.0)
        finally:
            hub.close()

    def test_strays_take_no_seat(self):
        """An idle connection, a hello for no rank and a second hello for a
        seated rank are closed uncounted; the world still completes."""
        hub = SocketHub(2).start()
        address = (hub.host, hub.port)
        strays = [socket.create_connection(address) for _ in range(3)]
        idle, bogus, duplicate = strays
        comms = []
        try:
            _send_frame(bogus, ("hello", 7))
            comms.append(SocketComm.connect(*address, 0, 2, timeout=5.0))
            deadline = time.monotonic() + 20.0
            while 0 not in hub._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            _send_frame(duplicate, ("hello", 0))
            comms.append(SocketComm.connect(*address, 1, 2, timeout=5.0))
            results = []
            threads = [
                threading.Thread(target=lambda c=c: results.append(allsum(c, 1)), daemon=True)
                for c in comms
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
            assert results == [2, 2]
            for stray in (bogus, duplicate):
                stray.settimeout(20.0)
                assert stray.recv(1) == b""  # closed by the hub
        finally:
            for stray in strays:
                stray.close()
            for comm in comms:
                comm.close()
            hub.close()

    def test_connect_gives_up_at_its_timeout(self, monkeypatch):
        """A hub that drops SYNs: each attempt hangs, and the deadline counts
        that time too, not only the pauses between attempts."""
        attempt, timeout = 0.3, 0.5
        attempts = []

        def dropped_syn(address, timeout=None):
            attempts.append(timeout)
            time.sleep(attempt)
            raise socket.timeout("timed out")

        monkeypatch.setattr(socket, "create_connection", dropped_syn)
        start = time.monotonic()
        with pytest.raises(CommError, match="could not reach rendezvous hub"):
            SocketComm.connect("127.0.0.1", 9, 1, 2, timeout=timeout)
        assert time.monotonic() - start < timeout + attempt
        assert len(attempts) == 2

    def test_run_forked_returns_rank_zero_and_reaps(self):
        assert run_forked(3, lambda comm, rank: (rank, allsum(comm, rank))) == (0, 3)


class TestRemoteWorkerEntry:
    def test_dist_worker_command_runs_a_rank_end_to_end(self, rcsr, tmp_path, graph):
        # `launch_local` no longer goes through the command line; ranks on
        # other hosts and under mpirun still do.
        out = tmp_path / "result.json"
        port = pick_free_port()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop(driver.FAULT_RANK_ENV, None)
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli",
                    *DistWorkerConfig(
                        graph=rcsr, rank=rank, size=2, port=port, result_path=str(out) if rank == 0 else None,
                        # eps 0.1, not TARGET's 0.2: calibration alone reaches
                        # omega at 0.2, and then no rank samples in the loop.
                        options=KadabraOptions(
                            eps=0.1, seed=TARGET["seed"], samples_per_check=100, max_samples_override=1500
                        ),
                    ).to_argv(),
                ],
                env=env,
            )
            for rank in (1, 0)  # rank 1 first: its connect retries until rank 0's hub is up
        ]
        try:
            assert [worker.wait(timeout=120.0) for worker in workers] == [0, 0]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()
        result = json.loads(out.read_text())
        assert result["num_processes"] == 2
        assert np.asarray(result["scores"]).shape == (graph.num_vertices,)
        assert all(report["local_samples"] > 0 for report in result["per_rank"])

    def test_rank_zero_prints_the_port_it_bound(self, rcsr, tmp_path, graph):
        # The default --port 0: rank 0's hub takes a free port and says which.
        out = tmp_path / "result.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop(driver.FAULT_RANK_ENV, None)

        def argv(rank, port):
            config = DistWorkerConfig(
                graph=rcsr, rank=rank, size=2, port=port, result_path=str(out) if rank == 0 else None,
                options=KadabraOptions(eps=TARGET["eps"], seed=TARGET["seed"], samples_per_check=100,
                                       max_samples_override=1500),
            )
            return [sys.executable, "-m", "repro.cli", *config.to_argv()]

        workers = [subprocess.Popen(argv(0, 0), env=env, stdout=subprocess.PIPE, text=True)]
        try:
            ready, _, _ = select.select([workers[0].stdout], [], [], 60.0)
            assert ready, "rank 0 printed no address within 60 s"
            line = workers[0].stdout.readline()
            assert line.startswith("hub listening on "), line
            host, port = line.split()[-1].rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            workers.append(subprocess.Popen(argv(1, int(port)), env=env))
            assert [worker.wait(timeout=120.0) for worker in workers] == [0, 0]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()
            workers[0].stdout.close()
        assert json.loads(out.read_text())["num_processes"] == 2
