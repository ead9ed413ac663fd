"""Integration tests of the rank engine behind the shared-memory, distributed and mpi-only backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Resources, estimate_betweenness
from repro.baselines import brandes_betweenness
from repro.core import KadabraOptions
from repro.mpi import SelfComm, run_threaded
from repro.parallel import EpochGrid, run_rank
from repro.util.stats import max_abs_error


def shared_memory(graph, options, *, threads):
    return estimate_betweenness(
        graph, algorithm="shared-memory", options=options, resources=Resources(threads=threads)
    )


def distributed(graph, options, *, algorithm="distributed", **resources):
    return estimate_betweenness(
        graph, algorithm=algorithm, options=options, resources=Resources(**resources)
    )


def n0(processes, threads, **kwargs):
    """The epoch length thread 0 draws on a ``processes`` x ``threads`` grid."""
    return EpochGrid(processes, threads, **kwargs).n0


class TestEpochLengthRule:
    def test_single_worker_gets_base(self):
        assert n0(1, 1, samples_per_check=1000) == 1000

    def test_decreases_with_workers(self):
        values = [n0(p, 12, samples_per_check=1000) for p in (1, 2, 4, 8, 16)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_never_below_one(self):
        assert n0(32, 12, samples_per_check=1000) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            n0(0, 1)
        with pytest.raises(ValueError):
            n0(1, 1, samples_per_check=-5)

    @pytest.mark.parametrize(
        "processes, threads, expected",
        [(1, 1, 1000), (1, 2, 398), (2, 1, 398), (2, 12, 15), (4, 6, 15), (16, 24, 1)],
    )
    def test_closed_form(self, processes, threads, expected):
        assert n0(processes, threads, samples_per_check=1000) == expected
        assert expected == max(1, round(1000 * (processes * threads) ** -1.33))

    @pytest.mark.parametrize("workers", [2, 6, 24])
    def test_depends_only_on_worker_count(self, workers):
        values = {n0(p, workers // p) for p in range(1, workers + 1) if workers % p == 0}
        assert len(values) == 1

    def test_base_scales_the_rule(self):
        assert n0(4, 1, samples_per_check=600) == round(600 * 4 ** -1.33) == 95

    def test_only_base_is_tunable(self):
        import inspect

        parameters = inspect.signature(EpochGrid).parameters
        assert list(parameters) == ["ranks", "threads", "samples_per_check"]

    @pytest.mark.parametrize(
        "algorithm, resources, workers",
        [("shared-memory", dict(threads=3), (1, 3)), ("distributed", dict(processes=2), (2, 1))],
    )
    def test_engine_epoch_length_follows_the_rule(
        self, monkeypatch, small_social_graph, quick_options, algorithm, resources, workers
    ):
        import repro.parallel.engine as engine

        calls = []

        class Spy(EpochGrid):
            def __init__(self, ranks, threads, **kwargs):
                calls.append((ranks, threads, kwargs))
                super().__init__(ranks, threads, **kwargs)

        monkeypatch.setattr(engine, "EpochGrid", Spy)
        distributed(small_social_graph, quick_options, algorithm=algorithm, **resources)
        assert calls
        expected_kwargs = dict(samples_per_check=quick_options.samples_per_check)
        assert all(call == (*workers, expected_kwargs) for call in calls)


class TestSharedMemoryKadabra:
    def test_accuracy(self, medium_social_graph, accurate_options):
        exact = brandes_betweenness(medium_social_graph).scores
        result = shared_memory(medium_social_graph, accurate_options, threads=3)
        assert max_abs_error(result.scores, exact) <= accurate_options.eps
        assert result.num_samples > 0
        assert result.num_epochs >= 1

    def test_single_thread(self, small_social_graph, quick_options):
        result = shared_memory(small_social_graph, quick_options, threads=1)
        assert result.num_samples > 0

    def test_phase_breakdown_present(self, small_social_graph, quick_options):
        result = shared_memory(small_social_graph, quick_options, threads=2)
        assert "diameter" in result.phase_seconds
        assert "calibration" in result.phase_seconds
        assert any(key.startswith("ads_") for key in result.phase_seconds)

    def test_trivial_graph(self, quick_options):
        from repro.graph.csr import CSRGraph

        result = shared_memory(CSRGraph.empty(1), quick_options, threads=2)
        assert result.scores.shape == (1,)

    def test_invalid_thread_count(self, small_social_graph, quick_options):
        with pytest.raises(ValueError):
            shared_memory(small_social_graph, quick_options, threads=0)
        with pytest.raises(ValueError):
            run_rank(SelfComm(), small_social_graph, quick_options, threads=0)


class TestDistributedKadabraEpoch:
    def test_accuracy_multiple_ranks(self, medium_social_graph, accurate_options):
        exact = brandes_betweenness(medium_social_graph).scores
        result = distributed(medium_social_graph, accurate_options, processes=3, threads=2)
        assert max_abs_error(result.scores, exact) <= accurate_options.eps

    def test_single_process_path(self, small_social_graph, quick_options):
        result = distributed(small_social_graph, quick_options, processes=1, threads=2)
        assert result.num_samples > 0
        assert result.extra["num_processes"] == 1.0

    def test_four_ranks(self, medium_social_graph, quick_options):
        result = distributed(medium_social_graph, quick_options, processes=4, threads=1)
        assert result.num_samples > 0
        exact = brandes_betweenness(medium_social_graph).scores
        assert max_abs_error(result.scores, exact) <= 3 * quick_options.eps

    def test_metadata(self, small_social_graph, quick_options):
        result = distributed(small_social_graph, quick_options, processes=2, threads=2)
        assert result.omega is not None
        assert result.num_epochs >= 1
        assert result.extra["communication_bytes"] >= 0.0
        assert result.extra["threads_per_process"] == 2.0

    def test_max_epochs_bound(self, small_social_graph):
        options = KadabraOptions(
            eps=0.0005, delta=0.1, seed=3, calibration_samples=50, samples_per_check=10
        )
        results = run_threaded(
            2, lambda comm, rank: run_rank(comm, small_social_graph, options, max_epochs=3)[0]
        )
        assert results[0].num_epochs <= 4
        assert results[1] is None

    def test_deterministic_given_seed(self, small_social_graph, quick_options):
        run = lambda: distributed(small_social_graph, quick_options, processes=1, threads=1)  # noqa: E731
        a, b = run(), run()
        assert np.array_equal(a.scores, b.scores)

    def test_road_network_instance(self, small_road_graph, quick_options):
        exact = brandes_betweenness(small_road_graph).scores
        result = distributed(small_road_graph, quick_options, processes=2, threads=2)
        assert max_abs_error(result.scores, exact) <= 2 * quick_options.eps

    def test_validation(self, small_social_graph, quick_options):
        with pytest.raises(ValueError):
            distributed(small_social_graph, quick_options, processes=0)
        with pytest.raises(ValueError):
            distributed(small_social_graph, quick_options, threads=0)
        with pytest.raises(ValueError):
            run_rank(SelfComm(), small_social_graph, quick_options, algorithm="other")

    def test_trivial_graph(self, quick_options):
        from repro.graph.csr import CSRGraph

        result = distributed(CSRGraph.empty(0), quick_options, processes=2)
        assert result.num_vertices == 0


class TestDistributedKadabraAlgorithm1:
    def test_accuracy(self, medium_social_graph, accurate_options):
        exact = brandes_betweenness(medium_social_graph).scores
        result = distributed(
            medium_social_graph, accurate_options, algorithm="mpi-only", processes=3
        )
        assert max_abs_error(result.scores, exact) <= accurate_options.eps

    def test_single_process(self, small_social_graph, quick_options):
        result = distributed(small_social_graph, quick_options, algorithm="mpi-only", processes=1)
        assert result.num_samples > 0

    def test_agrees_with_epoch_algorithm_on_ranking(self, medium_social_graph, accurate_options):
        epoch = distributed(medium_social_graph, accurate_options, processes=2, threads=2)
        mpi_only = distributed(
            medium_social_graph, accurate_options, algorithm="mpi-only", processes=2
        )
        # Both approximate the same ground truth to within eps, so their scores
        # are within 2 eps of each other, and the vertex one run ranks first
        # scores near the top in the other run.  (Not "the same top vertex":
        # the two best vertices of this graph are 0.009 apart, eps cannot
        # order them.)
        eps = accurate_options.eps
        assert max_abs_error(epoch.scores, mpi_only.scores) <= 2 * eps
        assert epoch.scores[mpi_only.ranking()[0]] >= epoch.scores.max() - 2 * eps
        assert mpi_only.scores[epoch.ranking()[0]] >= mpi_only.scores.max() - 2 * eps
