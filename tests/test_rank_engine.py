"""The one rank engine (``repro.parallel.engine``) behind every parallel path.

* Bit-identity: one worker (``P = 1, T = 1``) is one computation.  The
  sequential facade (kept in a checkpointed session or not) and registry
  runner, the shared-memory, distributed and mpi-only backends, ``run_rank``
  on ``SelfComm`` and the socket workers (both algorithms) give the
  sequential session's result, stopped at omega, pinned by sha256 digests;
  the in-process paths also report the same ``extra`` and phases.
* Algorithm 1's invariants through the merged epoch loop on threaded ranks.
* The session runs the engine's one worker, and rank 0's checkpoint state is
  a session.
* Thread 0's overlap loop: whole worker batches per poll with the compiled
  search, one sample per poll otherwise, never seen by ``on_batch``.
* Failure propagation: a sampling thread or a rank that raises ends the run
  in that exception instead of leaving its peers spinning forever.
* The stopping condition stays at rank 0: calibration posts only its reduce,
  and no other rank receives the condition, fresh or resumed.
* Two ranks stop at omega: every rank knows the budget before the loop and
  every draw into a frame takes its count from the rank's counter for that
  epoch, so a P = 2 run ends within P - 1 of omega, a P = 1 run with
  several threads exactly on it, and every overlap cap, the first included,
  follows one formula; thread 0 samples while the
  pre-loop collectives are in flight without moving the calibration frame,
  and a frame travels sparse when few of its counters are nonzero, summing
  to the dense sum bit for bit; a run whose calibration count, or resumed
  aggregate, reaches omega ends there without an epoch or a loop collective.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_scan_on_expand import make_sampler

from repro import Resources, estimate_betweenness
from repro.api import get_backend
from repro.cli import main as cli_main
from repro.core import KadabraOptions, StateFrame, StoppingCondition
from repro.core.state_frame import SparseFrame
from repro.core.stopping import CheckSchedule
from repro.dist.launcher import launch_local
from repro.graph.generators import barabasi_albert
from repro.kernels import WORKER_BATCH, BatchPathSampler, plan_batches
from repro.mpi import CommError, Communicator, SelfComm, run_threaded
from repro.mpi.hub import FRAME_HEADER_BYTES, LocalLink, Matcher
from repro.mpi.requests import PolledRequest, Request
from repro.parallel import EpochGrid, adaptive_sampling_epochs, run_rank
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


def checkpointed(graph):
    with tempfile.TemporaryDirectory() as work:
        return estimate_betweenness(
            graph, algorithm="sequential", checkpoint_path=Path(work) / "kept.snap", **TARGET
        )


def self_comm_rank(algorithm):
    return lambda graph: run_rank(SelfComm(), graph, KadabraOptions(**TARGET), algorithm=algorithm)[0]


#: Every in-process way to run one worker.
ONE_WORKER = {
    "sequential": facade("sequential"),
    "sequential-checkpointed": checkpointed,
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
    @pytest.fixture(scope="class")
    def runner_result(self, graph):
        return ONE_WORKER["sequential-runner"](graph)

    @pytest.mark.parametrize("path", list(ONE_WORKER))
    def test_in_process_paths(self, graph, runner_result, path):
        result = ONE_WORKER[path](graph)
        assert fingerprint(result.scores, result.num_samples, result.num_epochs) == FULL_RUN
        assert result.num_samples <= result.omega == OMEGA
        # One computation, one result: the same statistics and phases.
        assert result.extra == runner_result.extra
        assert "edges_touched" in result.extra
        phases = set(runner_result.phase_seconds)
        if path.endswith("mpi-only"):
            phases.discard("ads_ibarrier")  # Algorithm 1 posts no barrier
        assert set(result.phase_seconds) - {"total"} == phases

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
        n0 = EpochGrid(3, 1, samples_per_check=172).n0

        def body(comm, rank):
            return adaptive_sampling_epochs(
                comm,
                lambda _t: BatchPathSampler(graph),
                condition,
                [np.random.default_rng(100 + rank)],
                num_threads=1,
                num_vertices=condition.num_vertices,
                grid=EpochGrid(comm.size, 1, samples_per_check=172),
                budget=condition.omega - calibration.num_samples,
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
        # Every epoch before the last draws n0 per rank; the last one draws
        # only the budget left.  Samples of the final epoch's overlap never
        # reach the aggregate.
        assert n0 == 40 and 3 * n0 * (stats[0].num_epochs - 1) <= sampled <= sum(s.local_samples for s in stats)
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
                grid=EpochGrid(1, 2, samples_per_check=10),
                budget=condition.omega,
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


class SlowSampler(RecordingSampler):
    """A sampler that sleeps before every batch it draws."""

    SLEEP_S = 0.02

    def sample_batch(self, count, rng):
        time.sleep(self.SLEEP_S)
        return super().sample_batch(count, rng)


class TestOverlapLoop:
    # Every overlap cap follows the budget, which omega = 10**9 keeps far off:
    # thread 0 samples through every poll of both requests of every epoch.
    N0, POLLS, EPOCHS = 100, 3, 3

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
            grid=EpochGrid(1, 1, samples_per_check=self.N0),
            budget=never.omega,
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

    @pytest.mark.parametrize(
        "search, batch", [("compiled", WORKER_BATCH), ("bidirectional", 1)],
        ids=["compiled", "numpy"],
    )
    def test_first_cap_follows_the_formula_of_every_cap(self, graph, monkeypatch, search, batch):
        """Every rank knows the budget before the loop, so the overlap into
        epoch 1's frame is capped as every later one is: far from omega not
        at n0, but by the budget, and it samples through every poll."""
        n0 = 2 * batch + 1  # three batches reach it, the six polls draw six
        sampler = RecordingSampler(make_sampler(graph, search, monkeypatch))
        deltas = np.full(graph.num_vertices, 0.001)
        never = StoppingCondition(eps=1e-4, omega=10**9, delta_l=deltas, delta_u=deltas)
        folded = []
        adaptive_sampling_epochs(
            PendingComm(self.POLLS),
            lambda _t: sampler,
            never,
            [np.random.default_rng(7)],
            num_threads=1,
            num_vertices=never.num_vertices,
            grid=EpochGrid(1, 1, samples_per_check=n0),
            budget=never.omega,
            max_epochs=self.EPOCHS,
            on_aggregate=lambda _epochs, aggregated: folded.append(aggregated.num_samples),
        )
        overlap = [batch] * 2 * self.POLLS
        assert sampler.sizes == (list(plan_batches(n0)) + overlap) * self.EPOCHS
        assert np.diff([0] + folded).tolist() == [n0] + [n0 + len(overlap) * batch] * (self.EPOCHS - 1)
        # Near omega: each cap, the first included, is min(s, max(T * n0, s // 2)),
        # s being each rank's part of R less the coming epoch's reach,
        # P * (the cap that filled its frames + T * n0).
        grid = EpochGrid(2, 1, samples_per_check=1000)  # n0 = 398
        plans = [grid.next_epoch(epoch, 0, left) for epoch, left in enumerate((5000, 4000, 3000, 2000, 1000))]
        assert [cap for _count, _total, cap in plans[:-1]] == [1051, 398, 398, 204]
        assert plans[-1] == (500, 500, 0)  # 2 * (204 + 398) >= 1000: the last epoch

    @pytest.mark.parametrize(
        "search, batch", [("compiled", WORKER_BATCH), ("bidirectional", 1)],
        ids=["compiled", "numpy"],
    )
    def test_overlap_shrinks_with_the_budget(self, graph, monkeypatch, search, batch):
        """Near omega the overlap stops at the budget's cap, so no epoch but
        the last reaches omega, and the last one ends on it: one rank's
        counter holds all of the budget left."""
        n0, polls = batch + 4, 10
        per_epoch = n0 + 2 * polls * batch  # n0 and an overlap batch per poll
        omega = 10 * per_epoch
        sampler = RecordingSampler(make_sampler(graph, search, monkeypatch))
        deltas = np.full(graph.num_vertices, 0.001)
        never = StoppingCondition(eps=1e-4, omega=omega, delta_l=deltas, delta_u=deltas)
        folded = []
        stats = adaptive_sampling_epochs(
            PendingComm(polls),
            lambda _t: sampler,
            never,
            [np.random.default_rng(7)],
            num_threads=1,
            num_vertices=never.num_vertices,
            grid=EpochGrid(1, 1, samples_per_check=n0),
            budget=omega,
            on_aggregate=lambda _epochs, aggregated: folded.append(aggregated.num_samples),
        )
        added = np.diff([0] + folded).tolist()
        assert max(added) == per_epoch  # far from omega: every poll drew
        assert min(added[2:-1]) < per_epoch  # near it: capped
        assert folded[-2] < omega <= folded[-1] < omega + batch
        assert folded[-1] == omega


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
            grid=EpochGrid(comm.size, 2, samples_per_check=5),
            budget=never.omega,
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
        assert posted0 == posted1 == ["ireduce"]
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
        # reduce, both non-blocking so thread 0 samples while they are in
        # flight; then the loop's first barrier.
        head = ["bcast", "ibarrier"] if resumed else ["bcast", "ibcast", "ireduce", "ibarrier"]
        assert root.posted[: len(head)] == other.posted[: len(head)] == head
        assert other.received and not any(holds_condition(value) for value in other.received)
        assert result.num_epochs == 2 and result.num_samples > (state.num_samples if resumed else 0)


#: sha256(counts, delta_l, delta_u as float64 bytes + "num_samples:edges_touched")
#: of rank 0's reduced calibration frame and stopping condition at P = 2,
#: recorded before thread 0 sampled through the pre-loop collectives and
#: before frames travelled sparse.
P2_CALIBRATION = "190d69a66076ebd10b15788a8e81844fe744be44487cb9b8d96bb011135b3af9"


def two_ranks(graph, **kwargs):
    """``run_rank`` on two threaded ranks: (rank 0's result, both ranks' stats)."""
    results = run_threaded(
        2, lambda comm, rank: run_rank(comm, graph, KadabraOptions(**TARGET), **kwargs), timeout=HANG_TIMEOUT
    )
    return results[0][0], [stats for _result, stats in results]


class TestTwoRanksStopAtOmega:
    """The rule does not stop this graph before omega (``FULL_RUN`` draws
    exactly omega), so a run ends where the budget broadcast ends it."""

    #: Each rank's frames of the last epoch hold its share ``ceil(R / P)``
    #: of the budget left, so two ranks pass omega by the rounding, at most
    #: ``P - 1``.
    BOUND = OMEGA + 1

    def test_threaded_ranks(self, graph):
        result, stats = two_ranks(graph)
        assert stats[0].stopped_by_omega
        assert OMEGA <= result.num_samples <= min(1.05 * OMEGA, self.BOUND)

    def test_forked_ranks(self, graph):
        result = facade("distributed", processes=2)(graph)
        assert result.omega == OMEGA
        assert OMEGA <= result.num_samples <= min(1.05 * OMEGA, self.BOUND)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_forked_ranks_with_worker_threads(self, graph, threads):
        result = facade("distributed", processes=2, threads=threads)(graph)
        assert result.omega == OMEGA
        assert OMEGA <= result.num_samples <= self.BOUND

    @pytest.mark.parametrize("forked", [False, True], ids=["threaded", "forked"])
    def test_mpi_only_ranks(self, graph, forked):
        if forked:
            result = facade("mpi-only", processes=2)(graph)
        else:
            result, _stats = two_ranks(graph, algorithm="mpi-only")
        assert OMEGA <= result.num_samples <= self.BOUND

    @pytest.mark.parametrize("threads", [2, 4])
    def test_several_threads_per_rank(self, graph, threads):
        """Worker threads take their batches from the rank's counter as
        thread 0 does, so however fast they sample, the last epoch's frames
        hold the rank's share and the run passes omega by the rounding."""
        for _run in range(3):
            result, stats = two_ranks(graph, threads=threads)
            assert stats[0].stopped_by_omega
            assert OMEGA <= result.num_samples <= self.BOUND

    def test_thread_zero_tops_its_rank_up(self, graph):
        """With worker threads that sleep before every batch, thread 0 draws
        nearly all of each epoch: in the last one it draws until its rank's
        counter is spent, so each rank's frames hold ``ceil(R / P)``."""
        deltas = np.full(graph.num_vertices, 0.01)
        condition = StoppingCondition(eps=1e-4, omega=OMEGA, delta_l=deltas, delta_u=deltas)
        calibration = StateFrame.zeros(graph.num_vertices)
        calibration.num_samples = 200

        def body(comm, rank):
            return adaptive_sampling_epochs(
                comm,
                lambda t: BatchPathSampler(graph) if t == 0 else SlowSampler(BatchPathSampler(graph)),
                condition,
                [np.random.default_rng(10 * rank + t) for t in range(2)],
                num_threads=2,
                num_vertices=graph.num_vertices,
                grid=EpochGrid(comm.size, 2, samples_per_check=300),
                budget=OMEGA - calibration.num_samples,
                initial_frame=calibration,
            )

        for _run in range(3):
            stats = run_threaded(2, body, timeout=HANG_TIMEOUT)
            assert stats[0].stopped_by_omega
            assert OMEGA <= stats[0].aggregated_frame.num_samples <= self.BOUND

    def test_calibration_is_unchanged(self, graph):
        seen = []

        def body(comm, rank):
            hook = (lambda state: seen.append((state._calibration_frame, state._condition))) if rank == 0 else None
            return run_rank(comm, graph, KadabraOptions(**TARGET), max_epochs=1, on_aggregate=hook)

        run_threaded(2, body, timeout=HANG_TIMEOUT)
        frame, condition = seen[0]
        digest = hashlib.sha256()
        for values in (frame.counts, condition.delta_l, condition.delta_u):
            digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        digest.update(f"{frame.num_samples}:{frame.edges_touched}".encode())
        assert digest.hexdigest() == P2_CALIBRATION

    def test_pre_loop_samples_count_toward_epoch_zero(self, graph, monkeypatch):
        """With the diameter broadcast and the calibration reduce pending for
        ``POLLS`` polls each, thread 0 draws one overlap batch per poll before
        the loop, and epoch 0 draws only what ``n0`` leaves over."""
        import repro.parallel.engine as engine

        polls, samplers, folded = 3, [], []
        real = engine.make_sampler

        def recording(*args, **kwargs):
            samplers.append(RecordingSampler(real(*args, **kwargs)))
            return samplers[-1]

        monkeypatch.setattr(engine, "make_sampler", recording)
        options = KadabraOptions(**TARGET)
        # mpi-only on two threads: one sampling thread on the rank-thread slots.
        result, stats = run_rank(
            PendingComm(polls), graph, options, threads=2, algorithm="mpi-only", max_epochs=1,
            on_aggregate=lambda state: folded.append(state.num_samples),
        )
        sampler = samplers[0]
        batch = WORKER_BATCH if sampler.compiled else 1
        calibration = list(plan_batches(200))
        assert sampler.sizes[: polls + len(calibration) + polls] == (
            [batch] * polls + calibration + [batch] * polls
        )
        n0 = options.samples_per_check
        epoch_zero = list(plan_batches(n0 - 2 * polls * batch))
        assert sampler.sizes[2 * polls + len(calibration):][: len(epoch_zero)] == epoch_zero
        assert folded == [200 + n0] and result.num_samples == 200 + n0


class TestCalibrationAtOmega:
    """With eps 0.15 this graph's calibration count is omega (134): a run
    with several workers ends there, on every rank, without an epoch."""

    OPTIONS = dict(eps=0.15, seed=2)

    @pytest.fixture(scope="class")
    def small(self):
        return barabasi_albert(300, 3, seed=9)

    def test_forked_ranks(self, small, tmp_path):
        path = tmp_path / "ba300.rcsr"
        write_rcsr(small, path)
        result = launch_local(str(path), processes=2, **self.OPTIONS)
        assert result["num_samples"] == result["omega"] == 134
        assert result["num_epochs"] == 0

    def test_threaded_ranks_with_two_threads(self, small):
        results = run_threaded(
            2, lambda comm, rank: run_rank(comm, small, KadabraOptions(**self.OPTIONS), threads=2),
            timeout=HANG_TIMEOUT,
        )
        result = results[0][0]
        assert result.num_samples == result.omega == 134
        assert [stats.num_epochs for _result, stats in results] == [0, 0]
        assert results[0][1].stopped_by_omega


class TestTheBudgetIsKnownBeforeTheLoop:
    """Every rank derives ``R0 = omega - tau`` after phase 2, so the first
    epoch is planned from the budget like every later one."""

    #: At eps 0.05 this graph's omega is 1,200 and two workers' n0 is 398.
    OPTIONS = dict(eps=0.05, delta=0.1)
    OMEGA = 1200

    @pytest.fixture(scope="class")
    def ba3000(self):
        return barabasi_albert(3000, 3, seed=3)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_two_forked_ranks_stop_within_a_batch_per_rank(self, ba3000, seed):
        """Before the budget was known before the loop, epoch 1's frames
        filled by up to n0 per rank unchecked and these runs ended at
        1,451-1,499 samples."""
        result = estimate_betweenness(
            ba3000, algorithm="distributed", resources=Resources(processes=2), seed=seed, **self.OPTIONS
        )
        assert result.omega == self.OMEGA and result.extra["samples_per_epoch_n0"] == 398
        assert self.OMEGA <= result.num_samples <= self.OMEGA + 2 * WORKER_BATCH

    @pytest.mark.parametrize("seed", [11, 12])
    def test_two_threads_end_at_omega(self, ba3000, seed):
        """Both threads take their batches from the one counter of their
        epoch, and the last epoch's holds the budget left: the run lands on
        omega exactly, whatever the timing."""
        options = KadabraOptions(seed=seed, **self.OPTIONS)
        result, _stats = run_rank(SelfComm(), ba3000, options, threads=2)
        assert result.omega == self.OMEGA and result.num_samples == self.OMEGA

    @pytest.mark.parametrize("seed", range(11, 23))
    def test_three_threads_end_at_omega(self, ba3000, seed):
        """Worker threads that drew up to a share of their own ended these
        runs 304-624 samples past omega."""
        result = estimate_betweenness(
            ba3000, algorithm="shared-memory", resources=Resources(threads=3), seed=seed, **self.OPTIONS
        )
        assert result.omega == self.OMEGA and result.num_samples == self.OMEGA

    def test_worker_threads_stop_at_their_share(self, ba3000, monkeypatch):
        """A worker thread idles once its epoch's counter is spent: with
        thread 0 slowed by a sleep per batch, epoch 0 still folds at most
        ``R0 + T * WORKER_BATCH`` samples (uncapped workers folded 3,128 of
        R0 = 1,000 in one epoch here)."""
        import repro.parallel.engine as engine

        real = engine.make_sampler
        samplers = iter([lambda *args, **kwargs: SlowSampler(real(*args, **kwargs))])
        monkeypatch.setattr(engine, "make_sampler", lambda *args, **kwargs: next(samplers, real)(*args, **kwargs))
        calibrated, folds = [], []

        def progress(event):
            if event.phase == "calibration":
                calibrated.append(event.num_samples)

        options = KadabraOptions(seed=11, **self.OPTIONS)
        result, _ = run_rank(
            SelfComm(), ba3000, options, threads=3, progress=progress,
            on_aggregate=lambda state: folds.append(state.num_samples),
        )
        (tau,) = calibrated
        budget = self.OMEGA - tau
        assert result.omega == self.OMEGA and budget == 1000
        assert folds[0] - tau <= budget + 3 * WORKER_BATCH

    def test_every_frame_holds_at_most_its_allowance(self, ba3000, monkeypatch):
        """Each plan sets what the rank's frames of its epoch may hold: ``T *
        n0`` in epoch 0, the overlap cap carried in plus ``T * n0`` after it,
        the rank's share of the budget left in the last, which thread 0
        spends.  With thread 0 slowed and every fold held up, the worker
        threads fill each frame as far as they may, yet no epoch's frames
        hold more than that allowance, the run ends at omega, and no sample
        goes into a frame that is never folded.  (With a share per worker
        thread instead, epoch 0's frames held 904 samples here, against ``T *
        n0`` = 696.)"""
        import repro.parallel.engine as engine

        real_sampler, real_plan = engine.make_sampler, engine.EpochGrid.next_epoch
        real_aggregate = engine.FramePool.aggregate_epoch
        samplers = iter([lambda *args, **kwargs: SlowSampler(real_sampler(*args, **kwargs))])
        monkeypatch.setattr(
            engine, "make_sampler", lambda *args, **kwargs: next(samplers, real_sampler)(*args, **kwargs)
        )
        plans, held, calibrated = [], [], []

        def next_epoch(grid, epoch, tau, left):
            plans.append(real_plan(grid, epoch, tau, left))
            return plans[-1]

        def aggregate_epoch(pool, epoch, **kwargs):
            held.append(sum(pool.frame(t, epoch).num_samples for t in range(3)))
            return real_aggregate(pool, epoch, **kwargs)

        def progress(event):
            if event.phase == "calibration":
                calibrated.append(event.num_samples)

        monkeypatch.setattr(engine.EpochGrid, "next_epoch", next_epoch)
        monkeypatch.setattr(engine.FramePool, "aggregate_epoch", aggregate_epoch)
        options = KadabraOptions(seed=11, **self.OPTIONS)
        result, stats = run_rank(
            SelfComm(), ba3000, options, threads=3, progress=progress,
            on_aggregate=lambda state: time.sleep(0.1),
        )
        (tau,) = calibrated
        assert len(held) >= 2 and len(plans) == len(held) + 1 and plans[-1] is None
        cap = 0  # what the overlap may put in epoch 0's frames: the opening counts toward n0
        for (count, total, next_cap), frames in zip(plans, held):
            assert frames <= (total or cap + 3 * count)
            cap = next_cap
        assert held[-1] == plans[-2][1] and cap == 0  # the last epoch: its counter spent, no overlap after
        assert result.num_samples == self.OMEGA
        assert stats.local_samples == result.num_samples - tau

    @pytest.mark.parametrize("algorithm", ["epoch", "mpi-only"])
    def test_a_resumed_run_at_omega_posts_no_loop_collective(self, graph, tmp_path, algorithm):
        path = tmp_path / "done.snap"
        options = KadabraOptions(**TARGET)
        run_rank(SelfComm(), graph, options, on_aggregate=lambda state: state.checkpoint(path))
        state = EstimationSession.restore(path, graph=graph)
        assert state.num_samples >= state.omega == OMEGA

        def body(comm, rank):
            spy = SpyComm(comm)
            result, stats = run_rank(spy, graph, options, algorithm=algorithm, resume=state if rank == 0 else None)
            return spy.posted, result, stats

        (posted0, result, stats0), (posted1, _, stats1) = run_threaded(2, body, timeout=HANG_TIMEOUT)
        assert posted0 == posted1 == ["bcast"]  # the resume header only
        assert stats0.local_samples == stats1.local_samples == 0
        assert stats0.num_epochs == stats1.num_epochs == 0 and stats0.stopped_by_omega
        assert result.num_samples == state.num_samples and result.num_epochs == 0


def random_frame(rng, n, touched):
    frame = StateFrame.zeros(n)
    frame.num_samples = int(rng.integers(0, 1000))
    frame.edges_touched = int(rng.integers(0, 10**6))
    frame.counts[rng.choice(n, size=touched, replace=False)] = rng.integers(1, 1000, size=touched)
    return frame


class TestSparseFrames:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        ranks=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_mix_sums_to_the_dense_sum(self, n, ranks, seed):
        rng = np.random.default_rng(seed)
        frames = [random_frame(rng, n, int(rng.integers(0, n + 1))) for _ in range(ranks)]
        dense = StateFrame.zeros(n)
        for frame in frames:
            dense.add_into(frame)
        wire = [frame.for_wire() for frame in frames]
        for frame, sent in zip(frames, wire):
            sparse = 3 * np.count_nonzero(frame.counts) < n
            assert isinstance(sent, SparseFrame if sparse else StateFrame)

        delivered = []
        matcher = Matcher(ranks, lambda rank, message: delivered.append((rank, message)))
        links = [LocalLink(matcher.contribute) for _ in range(ranks)]
        for rank in rng.permutation(ranks):
            links[rank].send(("coll", "reduce", 0, "sum", 0, int(rank), wire[rank]))
        ((to, (_tag, _kind, _seq, total)),) = delivered
        links[0].deliver(("result", "reduce", 0, total))

        folded = StateFrame.zeros(n).add_into(total)
        assert to == 0 and folded.counts.tobytes() == dense.counts.tobytes()
        assert (folded.num_samples, folded.edges_touched) == (dense.num_samples, dense.edges_touched)
        # Every link counted what it framed: its contribution, and the sum at the root.
        framed = [FRAME_HEADER_BYTES + sent.serialized_bytes() for sent in wire]
        assert [link.bytes_total for link in links] == [
            framed[0] + FRAME_HEADER_BYTES + total.serialized_bytes()
        ] + framed[1:]

    def test_a_sparse_frame_counts_what_it_pickles_to(self, graph):
        frame = StateFrame.zeros(graph.num_vertices)
        frame.record_batch(BatchPathSampler(graph).sample_batch(20, np.random.default_rng(1)))
        sent = frame.for_wire()
        assert isinstance(sent, SparseFrame)
        assert sent.serialized_bytes() == sent.index.nbytes + sent.count.nbytes + 16
        pickled = len(pickle.dumps(sent, protocol=pickle.HIGHEST_PROTOCOL))
        assert sent.serialized_bytes() <= pickled < sent.serialized_bytes() + 512
        assert sent.serialized_bytes() < frame.serialized_bytes()

    def test_two_ranks_ship_sparse_frames(self):
        """Rank 1's traffic: its calibration and epoch frames, each a few
        hundred samples on 3,000 vertices, and the broadcasts it receives."""
        sparse_graph = barabasi_albert(3000, 2, seed=1)
        options = KadabraOptions(eps=0.05, delta=0.1, seed=5)
        results = run_threaded(
            2, lambda comm, rank: run_rank(comm, sparse_graph, options, max_epochs=2), timeout=HANG_TIMEOUT
        )
        other = results[1][1]
        dense = StateFrame.zeros(sparse_graph.num_vertices).serialized_bytes()
        assert other.communication_bytes < (1 + other.num_epochs) * dense / 2
