"""Focused tests of the adaptive-sampling epoch loop (Algorithms 1 & 2).

These exercise the loop function directly (not through the rank engine) so
that failure modes — inconsistent aggregation, missing calibration carry-over,
omega exhaustion, agreement across ranks — are pinned down at the right layer.
Algorithm 1 is the loop's ``algorithm="mpi-only"`` case: one thread per rank
and an overlapped ``ireduce``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state_frame import StateFrame
from repro.core.stopping import StoppingCondition
from repro.kernels import BatchPathSampler
from repro.mpi import SelfComm, run_threaded
from repro.parallel import EpochGrid, adaptive_sampling_epochs


def algorithm1(comm, sampler, condition, rng, *, samples_per_check, initial_frame=None, **kwargs):
    """Algorithm 1 on this rank: the epoch loop's mpi-only case."""
    return adaptive_sampling_epochs(
        comm, lambda _t: sampler, condition, [rng], num_threads=1, num_vertices=condition.num_vertices,
        grid=EpochGrid(comm.size, 1, samples_per_check=samples_per_check),
        budget=condition.omega - (0 if initial_frame is None else initial_frame.num_samples),
        algorithm="mpi-only", initial_frame=initial_frame, **kwargs
    )


def _loose_condition(n, omega=400, eps=0.5):
    deltas = np.full(n, 0.01)
    return StoppingCondition(eps=eps, omega=omega, delta_l=deltas, delta_u=deltas)


def _strict_condition(n, omega=10**7, eps=1e-4):
    deltas = np.full(n, 0.001)
    return StoppingCondition(eps=eps, omega=omega, delta_l=deltas, delta_u=deltas)


class TestAlgorithm1Internals:
    def test_single_rank_terminates_and_aggregates(self, small_social_graph):
        condition = _loose_condition(small_social_graph.num_vertices)
        stats = algorithm1(
            SelfComm(),
            BatchPathSampler(small_social_graph),
            condition,
            np.random.default_rng(0),
            samples_per_check=50,
        )
        assert stats.aggregated_frame is not None
        assert stats.aggregated_frame.num_samples >= 50
        assert stats.num_epochs >= 1
        assert not stats.aggregated_frame.is_empty

    def test_initial_frame_counts_towards_termination(self, small_social_graph):
        n = small_social_graph.num_vertices
        condition = _loose_condition(n, omega=100)
        seed_frame = StateFrame.zeros(n)
        seed_frame.num_samples = 99  # one sample away from omega
        stats = algorithm1(
            SelfComm(),
            BatchPathSampler(small_social_graph),
            condition,
            np.random.default_rng(1),
            samples_per_check=10,
            initial_frame=seed_frame,
        )
        assert stats.stopped_by_omega
        assert stats.num_epochs == 1

    def test_max_epochs_safety(self, small_social_graph):
        condition = _strict_condition(small_social_graph.num_vertices)
        stats = algorithm1(
            SelfComm(),
            BatchPathSampler(small_social_graph),
            condition,
            np.random.default_rng(2),
            samples_per_check=5,
            max_epochs=2,
        )
        assert stats.num_epochs == 2

    def test_multi_rank_aggregate_consistency(self, small_social_graph):
        """The root's aggregate equals the sum of what every rank sampled."""
        n = small_social_graph.num_vertices
        condition = _loose_condition(n, omega=600)

        def body(comm, rank):
            return algorithm1(
                comm,
                BatchPathSampler(small_social_graph),
                condition,
                np.random.default_rng(100 + rank),
                samples_per_check=40,
            )

        stats = run_threaded(3, body)
        total_local = sum(s.local_samples for s in stats)
        aggregated = stats[0].aggregated_frame
        assert aggregated is not None
        # Some locally-taken samples may still sit in the unreduced buffers of
        # the final epoch, so the aggregate can only be smaller or equal.
        assert aggregated.num_samples <= total_local
        assert aggregated.num_samples >= condition.omega or aggregated.num_samples > 0
        # Every rank went through the same number of epochs.
        assert len({s.num_epochs for s in stats}) == 1

    def test_invalid_samples_per_epoch(self, small_social_graph):
        condition = _loose_condition(small_social_graph.num_vertices)
        with pytest.raises(ValueError):
            algorithm1(
                SelfComm(),
                BatchPathSampler(small_social_graph),
                condition,
                np.random.default_rng(0),
                samples_per_check=0,
            )


class TestAlgorithm2Internals:
    def _rngs(self, count, seed=0):
        return [np.random.default_rng(seed + i) for i in range(count)]

    def test_single_rank_multi_thread(self, small_social_graph):
        n = small_social_graph.num_vertices
        condition = _loose_condition(n, omega=500)
        stats = adaptive_sampling_epochs(
            SelfComm(),
            lambda _t: BatchPathSampler(small_social_graph),
            condition,
            self._rngs(3),
            num_threads=3,
            num_vertices=condition.num_vertices,
            grid=EpochGrid(1, 3, samples_per_check=30),
            budget=condition.omega,
        )
        assert stats.aggregated_frame is not None
        assert stats.aggregated_frame.num_samples > 0
        assert stats.local_samples >= stats.aggregated_frame.num_samples
        assert stats.num_epochs >= 1
        assert set(stats.phase_seconds) >= {"sampling", "epoch_transition", "check"}

    def test_across_four_ranks(self, small_social_graph):
        n = small_social_graph.num_vertices
        condition = _loose_condition(n, omega=600)

        def body(comm, rank):
            return adaptive_sampling_epochs(
                comm,
                lambda _t: BatchPathSampler(small_social_graph),
                condition,
                self._rngs(2, seed=10 * rank),
                num_threads=2,
                num_vertices=condition.num_vertices,
                grid=EpochGrid(comm.size, 2, samples_per_check=20),
                budget=condition.omega,
            )

        stats = run_threaded(4, body)
        aggregated = stats[0].aggregated_frame
        assert aggregated is not None
        assert aggregated.num_samples > 0
        assert all(s.aggregated_frame is None for s in stats[1:])
        assert len({s.num_epochs for s in stats}) == 1

    def test_validation(self, small_social_graph):
        condition = _loose_condition(small_social_graph.num_vertices)
        sampler_factory = lambda _t: BatchPathSampler(small_social_graph)  # noqa: E731
        with pytest.raises(ValueError):
            adaptive_sampling_epochs(
                SelfComm(), sampler_factory, condition, self._rngs(1), num_threads=0,
                num_vertices=condition.num_vertices,
                grid=EpochGrid(1, 1, samples_per_check=10), budget=condition.omega,
            )
        with pytest.raises(ValueError):
            adaptive_sampling_epochs(
                SelfComm(), sampler_factory, condition, self._rngs(2), num_threads=2,
                num_vertices=condition.num_vertices,
                grid=EpochGrid(1, 2, samples_per_check=0), budget=condition.omega,
            )
        with pytest.raises(ValueError):
            adaptive_sampling_epochs(
                SelfComm(), sampler_factory, condition, self._rngs(1), num_threads=2,
                num_vertices=condition.num_vertices,
                grid=EpochGrid(1, 1, samples_per_check=10), budget=condition.omega,
            )

    def test_estimates_converge_to_exact(self, small_social_graph):
        from repro.baselines import brandes_betweenness

        exact = brandes_betweenness(small_social_graph).scores
        n = small_social_graph.num_vertices
        condition = _loose_condition(n, omega=4000, eps=0.5)
        stats = adaptive_sampling_epochs(
            SelfComm(),
            lambda _t: BatchPathSampler(small_social_graph),
            condition,
            self._rngs(2, seed=5),
            num_threads=2,
            num_vertices=condition.num_vertices,
            grid=EpochGrid(1, 2, samples_per_check=5000),  # n0 = 1988
            budget=condition.omega,
        )
        estimates = stats.aggregated_frame.betweenness_estimates()
        assert np.max(np.abs(estimates - exact)) < 0.08
