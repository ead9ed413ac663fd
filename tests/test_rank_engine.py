"""The one rank engine (``repro.parallel.engine``) behind every parallel path.

* Bit-identity: one worker (``P = 1, T = 1``) is one computation.  The
  sequential facade and registry runner, the shared-memory, distributed and
  mpi-only backends, ``run_rank`` on ``SelfComm`` and the socket workers
  (both algorithms) give the sequential session's result, stopped at omega,
  pinned by sha256 digests.
* Algorithm 1's invariants through the merged epoch loop on threaded ranks.
* The session runs the engine's one worker, and rank 0's checkpoint state is
  a session.
* Thread 0's overlap loop: whole worker batches per poll with the compiled
  search, one sample per poll otherwise, never seen by ``on_batch``.
* Failure propagation: a sampling thread or a rank that raises ends the run
  in that exception instead of leaving its peers spinning forever.
* The stopping condition stays at rank 0: calibration posts only its reduce,
  and no other rank receives the condition, fresh or resumed.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np
import pytest

from test_scan_on_expand import make_sampler

from repro import Resources, estimate_betweenness
from repro.api import get_backend
from repro.cli import main as cli_main
from repro.core import KadabraOptions, StateFrame, StoppingCondition
from repro.core.stopping import CheckSchedule
from repro.dist.launcher import launch_local
from repro.graph.generators import barabasi_albert
from repro.kernels import WORKER_BATCH, BatchPathSampler, plan_batches
from repro.mpi import CommError, Communicator, SelfComm, run_threaded
from repro.mpi.requests import PolledRequest, Request
from repro.parallel import EpochLength, adaptive_sampling_epochs, run_rank
from repro.parallel.engine import calibration_phase
from repro.session import EstimationSession, SessionCapabilityError, open_session
from repro.store import write_rcsr

TARGET = dict(eps=0.02, delta=0.1, seed=5)

#: sha256(scores as float64 bytes + "num_samples:num_epochs") of the
#: sequential session's run, identical for every one-worker path: 7495
#: samples (= omega) in 9 epochs.
FULL_RUN = ("4f0083eb6bfdb641254c73019eecb3a65ab7fa64527c087d1a1acb1fd9cb6b17", 7495, 9)
#: ... stopped by ``max_epochs=3``: the 200 calibration samples and two blocks.
THREE_EPOCHS = ("6b5da301453bbb43d5d9eca76990282ece7dc13db573a0502028d8784c136ba1", 2200, 3)
#: ... stopped by ``max_epochs=1``: the check at the end of calibration.
ONE_EPOCH = ("686af0603477e1e4f3ac8ff8926ec3c8a1845e3523347d2e6bc057190eb5fffc", 200, 1)
OMEGA = 7495

HANG_TIMEOUT = 30.0


def fingerprint(scores, num_samples, num_epochs):
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(np.asarray(scores, dtype=np.float64)).tobytes())
    digest.update(f"{int(num_samples)}:{int(num_epochs)}".encode())
    return digest.hexdigest(), int(num_samples), int(num_epochs)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(400, 3, seed=3)


@pytest.fixture(scope="module")
def rcsr(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("engine") / "ba400.rcsr"
    write_rcsr(graph, path)
    return str(path)


def facade(algorithm, **resources):
    return lambda graph: estimate_betweenness(
        graph, algorithm=algorithm, resources=Resources(**resources), **TARGET
    )


def self_comm_rank(algorithm):
    return lambda graph: run_rank(SelfComm(), graph, KadabraOptions(**TARGET), algorithm=algorithm)[0]


#: Every in-process way to run one worker.
ONE_WORKER = {
    "sequential": facade("sequential"),
    "sequential-runner": lambda graph: get_backend("sequential").runner(
        graph, KadabraOptions(**TARGET), Resources(), None
    ),
    "shared-memory": facade("shared-memory", threads=1),
    "distributed": facade("distributed", processes=1),
    "mpi-only": facade("mpi-only", processes=1),
    "run_rank-epoch": self_comm_rank("epoch"),
    "run_rank-mpi-only": self_comm_rank("mpi-only"),
}


class TestOneComputationFivePaths:
    @pytest.mark.parametrize("path", list(ONE_WORKER))
    def test_in_process_paths(self, graph, path):
        result = ONE_WORKER[path](graph)
        assert fingerprint(result.scores, result.num_samples, result.num_epochs) == FULL_RUN
        assert result.num_samples <= result.omega == OMEGA

    @pytest.mark.parametrize("algorithm", ["epoch", "mpi-only"])
    def test_three_epoch_run(self, graph, algorithm):
        result, stats = run_rank(
            SelfComm(), graph, KadabraOptions(**TARGET), algorithm=algorithm, max_epochs=3
        )
        assert fingerprint(result.scores, result.num_samples, result.num_epochs) == THREE_EPOCHS
        assert stats.local_samples == 2000 and stats.num_epochs == 3

    @pytest.mark.parametrize("algorithm", ["epoch", "mpi-only"])
    def test_socket_worker_one_epoch(self, rcsr, algorithm):
        """Deterministic whatever the timing: samples thread 0 takes while a
        socket collective is in flight land in the next epoch's frame, which a
        one-epoch run never aggregates."""
        result = launch_local(rcsr, processes=1, algorithm=algorithm, max_epochs=1, **TARGET)
        assert fingerprint(result["scores"], result["num_samples"], result["num_epochs"]) == ONE_EPOCH
        assert result["num_samples"] <= result["omega"] == OMEGA

    @pytest.mark.parametrize("algorithm", ["epoch", "mpi-only"])
    def test_socket_worker_full_run(self, rcsr, algorithm):
        """Socket requests complete asynchronously, so thread 0 sometimes takes
        overlap samples (at the parent commit just the same, and on a loaded
        machine nearly always); such a run has more than 7495 samples and says
        nothing about the RNG streams, so it is repeated a few times.  A run
        without overlap must match bit for bit."""
        for _attempt in range(3):
            result = launch_local(rcsr, processes=1, algorithm=algorithm, **TARGET)
            if result["num_samples"] == FULL_RUN[1]:
                break
        else:
            pytest.skip("every attempt overlapped sampling with a socket collective")
        assert fingerprint(result["scores"], result["num_samples"], result["num_epochs"]) == FULL_RUN
        assert result["num_samples"] <= result["omega"] == OMEGA
        assert result["restarts"] == 0 and result["resumed_from_samples"] == 0


class TestSocketWorkerPhaseBreakdown:
    def test_result_and_cli_report_rank0_phases(self, rcsr, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main(
            ["dist", "run", rcsr, "--processes", "2", "--eps", "0.1", "--seed", "1",
             "--output", str(out), "--top", "0"]
        )
        assert code == 0
        line = next(
            text for text in capsys.readouterr().out.splitlines() if text.startswith("phases at rank 0")
        )
        for word in ("diameter", "calibration", "adaptive", "sampling", "ibarrier", "reduce", "check"):
            assert word in line
        phases = json.loads(out.read_text())["phase_seconds"]
        assert {"diameter", "calibration", "adaptive_sampling", "ads_sampling", "ads_ibarrier",
                "ads_reduce", "ads_check", "ads_broadcast"} <= set(phases)
        assert phases["adaptive_sampling"] >= phases["ads_sampling"] > 0.0


class TestAlgorithm1ThroughTheMergedLoop:
    def test_invariants_on_three_threaded_ranks(self, graph):
        n = graph.num_vertices
        deltas = np.full(n, 0.01)
        condition = StoppingCondition(eps=1e-4, omega=900, delta_l=deltas, delta_u=deltas)
        calibration = StateFrame.zeros(n)
        calibration.num_samples = 100

        def body(comm, rank):
            return adaptive_sampling_epochs(
                comm,
                lambda _t: BatchPathSampler(graph),
                condition,
                [np.random.default_rng(100 + rank)],
                num_threads=1,
                num_vertices=condition.num_vertices,
                grid=EpochLength(40),
                algorithm="mpi-only",
                # Only rank 0's calibration frame enters the aggregate.
                initial_frame=calibration,
            )

        stats = run_threaded(3, body, timeout=60.0)
        aggregated = stats[0].aggregated_frame
        assert all(s.aggregated_frame is None for s in stats[1:])
        assert len({s.num_epochs for s in stats}) == 1
        assert stats[0].stopped_by_omega and aggregated.num_samples >= condition.omega
        sampled = aggregated.num_samples - calibration.num_samples
        # Samples of the final epoch's overlap never reach the aggregate.
        assert 3 * 40 * stats[0].num_epochs <= sampled <= sum(s.local_samples for s in stats)
        assert "ibarrier" not in stats[0].phase_seconds and "reduce" in stats[0].phase_seconds

    def test_mpi_only_takes_one_thread(self, graph):
        deltas = np.full(graph.num_vertices, 0.01)
        condition = StoppingCondition(eps=0.5, omega=100, delta_l=deltas, delta_u=deltas)
        with pytest.raises(ValueError):
            adaptive_sampling_epochs(
                SelfComm(),
                lambda _t: BatchPathSampler(graph),
                condition,
                [np.random.default_rng(t) for t in range(2)],
                num_threads=2,
                num_vertices=condition.num_vertices,
                grid=EpochLength(10),
                algorithm="mpi-only",
            )


class TestOneLoop:
    def test_the_session_runs_the_engine_loop_on_one_thread(self, graph, monkeypatch):
        import repro.parallel.engine as engine

        calls = []

        def spy(comm, sampler_factory, condition, rngs, **kwargs):
            calls.append((comm, kwargs["num_threads"], kwargs["grid"]))
            return adaptive_sampling_epochs(comm, sampler_factory, condition, rngs, **kwargs)

        monkeypatch.setattr(engine, "adaptive_sampling_epochs", spy)
        threads_before = threading.active_count()
        session = open_session(graph, seed=5)
        result = session.run(0.1, 0.1)
        session.refine(0.05, 0.1)
        assert threading.active_count() == threads_before
        assert [(type(comm), threads) for comm, threads, _grid in calls] == [(SelfComm, 1)] * 2
        assert all(isinstance(grid, CheckSchedule) for _comm, _threads, grid in calls)
        assert calls[0][2].omega == result.omega
        # Thread 0's batches fed the sample log, sample for sample.
        assert session.sample_log.num_samples == session.num_samples

    def test_rank_state_checkpoints_as_a_session(self, graph, tmp_path):
        path = tmp_path / "rank0.snap"
        seen = []

        def on_aggregate(state):
            seen.append(state.num_samples)
            state.checkpoint(path)

        options = KadabraOptions(**TARGET)
        result, _ = run_rank(SelfComm(), graph, options, max_epochs=3, on_aggregate=on_aggregate)
        assert len(seen) == 3 and seen[-1] == result.num_samples
        state = EstimationSession.restore(path, graph=graph)
        assert (state.algorithm, state.num_samples, state.omega) == ("distributed", result.num_samples, result.omega)
        assert state.eps is None  # a mid-run state certifies nothing
        assert state.peek().num_samples == result.num_samples
        with pytest.raises(SessionCapabilityError):
            state.refine(0.01, 0.1)
        # Resuming continues from the aggregate, on fresh streams.
        resumed, stats = run_rank(SelfComm(), graph, options, resume=state, max_epochs=1)
        assert resumed.num_samples == result.num_samples + stats.local_samples
        assert resumed.vertex_diameter == result.vertex_diameter


class PendingComm(SelfComm):
    """``SelfComm`` whose non-blocking requests stay pending for ``polls`` tests."""

    def __init__(self, polls):
        super().__init__()
        self.polls = polls

    def _pending(self, value=None):
        left = [self.polls]

        def poll():
            left[0] -= 1
            return left[0] < 0

        return PolledRequest(poll, lambda: value)

    def ibarrier(self):
        return self._pending()

    def ireduce(self, value, op="sum", root=0):
        return self._pending(self.reduce(value, op, root))

    def ibcast(self, value, root=0):
        return self._pending(self.bcast(value, root))


class RecordingSampler:
    """A sampler that remembers the size of every batch it draws."""

    def __init__(self, sampler):
        self.inner = sampler
        self.compiled = sampler.compiled
        self.sizes = []

    def sample_batch(self, count, rng):
        self.sizes.append(count)
        return self.inner.sample_batch(count, rng)


class TestOverlapLoop:
    N0, POLLS, EPOCHS = 40, 3, 3

    @pytest.mark.parametrize("algorithm", ["epoch", "mpi-only"])
    @pytest.mark.parametrize(
        "search, batch", [("compiled", WORKER_BATCH), ("bidirectional", 1)],
        ids=["compiled", "numpy"],
    )
    def test_batches_per_poll(self, graph, monkeypatch, search, batch, algorithm):
        sampler = RecordingSampler(make_sampler(graph, search, monkeypatch))
        deltas = np.full(graph.num_vertices, 0.001)
        never = StoppingCondition(eps=1e-4, omega=10**9, delta_l=deltas, delta_u=deltas)
        seen, folded = [], []
        stats = adaptive_sampling_epochs(
            PendingComm(self.POLLS),
            lambda _t: sampler,
            never,
            [np.random.default_rng(7)],
            num_threads=1,
            num_vertices=never.num_vertices,
            grid=EpochLength(self.N0),
            algorithm=algorithm,
            max_epochs=self.EPOCHS,
            on_batch=lambda b: seen.append(b.num_samples),
            on_aggregate=lambda _epochs, aggregated: folded.append(aggregated.num_samples),
        )
        grid = list(plan_batches(self.N0))
        # Two requests per epoch wait POLLS polls each (ibarrier or ireduce,
        # then ibcast); thread 0 draws one batch per poll into the next frame.
        overlap = 2 * self.POLLS * batch
        assert sampler.sizes == (grid + [batch] * (2 * self.POLLS)) * self.EPOCHS
        assert seen == grid * self.EPOCHS  # on_batch never sees an overlap batch
        # Each frame after the first starts with the previous epoch's overlap.
        assert np.diff([0] + folded).tolist() == [self.N0] + [self.N0 + overlap] * (self.EPOCHS - 1)
        # Every sample recorded in a frame, the discarded last overlap included.
        assert stats.local_samples == sum(sampler.sizes) == folded[-1] + overlap


class Boom(RuntimeError):
    pass


class FailingSampler(BatchPathSampler):
    """Raises from ``sample_batch`` after ``healthy_batches`` good batches."""

    def __init__(self, graph, healthy_batches=3):
        super().__init__(graph)
        self._healthy = healthy_batches

    def sample_batch(self, count, rng):
        if self._healthy == 0:
            raise Boom("sampler broke")
        self._healthy -= 1
        return super().sample_batch(count, rng)


def finishes(target, timeout=HANG_TIMEOUT):
    """Run ``target`` on a daemon thread; return what it raised, or fail on a hang."""
    outcome = []

    def call():
        try:
            target()
            outcome.append(None)
        except BaseException as exc:  # noqa: BLE001 - handed to the assertion
            outcome.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout}s"
    return outcome[0]


class TestFailuresEndTheRun:
    @staticmethod
    def endless_epochs(graph, comm, *, failing_worker):
        """Two sampling threads under a condition that never stops the run."""
        deltas = np.full(graph.num_vertices, 0.001)
        never = StoppingCondition(eps=1e-4, omega=10**9, delta_l=deltas, delta_u=deltas)
        return adaptive_sampling_epochs(
            comm,
            lambda t: (FailingSampler if failing_worker and t == 1 else BatchPathSampler)(graph),
            never,
            [np.random.default_rng(10 * comm.rank + t) for t in range(2)],
            num_threads=2,
            num_vertices=never.num_vertices,
            grid=EpochLength(5),
        )

    def test_sampling_thread_exception_reaches_thread_zero(self, graph):
        threads_before = threading.active_count()
        raised = finishes(lambda: self.endless_epochs(graph, SelfComm(), failing_worker=True))
        assert isinstance(raised, Boom)
        assert threading.active_count() <= threads_before  # every worker was joined

    def test_sampling_thread_exception_on_two_ranks(self, graph):
        def body(comm, rank):
            if rank == 0:
                return self.endless_epochs(graph, comm, failing_worker=True)
            with pytest.raises(CommError, match="rank 0 raised"):
                self.endless_epochs(graph, comm, failing_worker=False)

        raised = finishes(lambda: run_threaded(2, body))
        assert isinstance(raised, Boom)

    def test_rank_exception_fails_the_other_rank(self, graph):
        seen = []

        def body(comm, rank):
            if rank == 0:
                raise Boom("rank 0 broke")
            try:
                comm.bcast(None, root=0)
            except CommError as exc:
                seen.append(str(exc))
                with pytest.raises(CommError):
                    comm.barrier()  # later collectives fail as well
                raise

        raised = finishes(lambda: run_threaded(2, body))
        assert isinstance(raised, Boom)
        assert len(seen) == 1 and "rank 0 raised" in seen[0]

    def test_rank_exception_inside_the_engine(self, graph):
        def body(comm, rank):
            broken = None if rank == 1 else graph  # rank 1 fails on its first touch
            return run_rank(comm, broken, KadabraOptions(**TARGET))

        raised = finishes(lambda: run_threaded(2, body))
        assert isinstance(raised, AttributeError)


class SpyComm(Communicator):
    """Delegates to ``inner``; records the kind of every collective this rank
    posts and every value it gets back."""

    def __init__(self, inner):
        self.inner, self.posted, self.received = inner, [], []

    rank = property(lambda self: self.inner.rank)
    size = property(lambda self: self.inner.size)

    def _call(self, kind, *args):
        self.posted.append(kind)
        out = getattr(self.inner, kind)(*args)
        if kind.startswith("i"):
            return SpyRequest(out, self.received)
        self.received.append(out)
        return out

    def barrier(self):
        return self._call("barrier")

    def ibarrier(self):
        return self._call("ibarrier")

    def reduce(self, value, op="sum", root=0):
        return self._call("reduce", value, op, root)

    def ireduce(self, value, op="sum", root=0):
        return self._call("ireduce", value, op, root)

    def allreduce(self, value, op="sum"):
        return self._call("allreduce", value, op)

    def bcast(self, value=None, root=0):
        return self._call("bcast", value, root)

    def ibcast(self, value=None, root=0):
        return self._call("ibcast", value, root)

    def gather(self, value, root=0):
        return self._call("gather", value, root)

    def communication_bytes(self):
        return self.inner.communication_bytes()


class SpyRequest(Request):
    def __init__(self, inner, received):
        self.inner, self.received = inner, received

    def test(self):
        return self.inner.test()

    def wait(self, poll_interval=0.0):
        self.inner.wait()
        return self.result()

    def result(self):
        value = self.inner.result()
        self.received.append(value)
        return value


def holds_condition(value) -> bool:
    if isinstance(value, StoppingCondition):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (tuple, list)) and any(holds_condition(item) for item in value)


class TestTheConditionStaysAtRankZero:
    def test_calibration_posts_only_its_reduce(self, graph):
        def body(comm, rank):
            spy = SpyComm(comm)
            frame, condition = calibration_phase(
                spy, BatchPathSampler(graph), np.random.default_rng(rank), 100,
                num_vertices=graph.num_vertices, eps=0.1, delta=0.1, omega=1000,
            )
            return spy.posted, frame, condition

        (posted0, frame, condition), (posted1, no_frame, no_condition) = run_threaded(
            2, body, timeout=HANG_TIMEOUT
        )
        assert posted0 == posted1 == ["reduce"]
        assert frame.num_samples == 100 and isinstance(condition, StoppingCondition)
        assert no_frame is None and no_condition is None

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_no_other_rank_receives_it(self, graph, tmp_path, resumed):
        options = KadabraOptions(**TARGET)
        state = None
        if resumed:
            path = tmp_path / "rank0.snap"
            run_rank(SelfComm(), graph, options, max_epochs=2, on_aggregate=lambda s: s.checkpoint(path))
            state = EstimationSession.restore(path, graph=graph)

        def body(comm, rank):
            spy = SpyComm(comm)
            result, _ = run_rank(spy, graph, options, max_epochs=2, resume=state if rank == 0 else None)
            return spy, result

        (root, result), (other, _) = run_threaded(2, body, timeout=HANG_TIMEOUT)
        # The resume header, or the diameter broadcast then calibration's
        # reduce; then the loop's first barrier.
        head = ["bcast", "ibarrier"] if resumed else ["bcast", "bcast", "reduce", "ibarrier"]
        assert root.posted[: len(head)] == other.posted[: len(head)] == head
        assert other.received and not any(holds_condition(value) for value in other.received)
        assert result.num_epochs == 2 and result.num_samples > (state.num_samples if resumed else 0)
