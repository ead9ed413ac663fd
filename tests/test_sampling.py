"""Unit tests for the shortest-path sampler, kernel by kernel, and RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from test_scan_on_expand import make_sampler
from fixture_graphs import cycle_graph

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.graph.traversal import bfs_distances
from repro.sampling import (
    PathSample,
    derive_seed,
    rng_for_rank_thread,
    sample_vertex_pair,
)

#: The four kernel names, ``bidirectional`` once per search: ``"compiled"``
#: (skipped where no C compiler is) and ``"bidirectional"`` with it forced off.
SEARCHES = ["compiled", "bidirectional", "smallgraph", "unidirectional", "wavefront"]


@pytest.fixture
def sampler_for(monkeypatch):
    return lambda graph, search: make_sampler(graph, search, monkeypatch)


class TestRng:
    def test_rank_thread_streams_deterministic(self):
        a = rng_for_rank_thread(1, rank=2, thread=3, num_threads=8)
        b = rng_for_rank_thread(1, rank=2, thread=3, num_threads=8)
        assert a.integers(0, 2**30) == b.integers(0, 2**30)

    def test_rank_thread_streams_distinct(self):
        a = rng_for_rank_thread(1, rank=0, thread=0, num_threads=2)
        b = rng_for_rank_thread(1, rank=1, thread=0, num_threads=2)
        c = rng_for_rank_thread(1, rank=0, thread=1, num_threads=2)
        values = {g.integers(0, 2**62) for g in (a, b, c)}
        assert len(values) == 3

    def test_rank_thread_validation(self):
        with pytest.raises(ValueError):
            rng_for_rank_thread(0, rank=-1, thread=0, num_threads=1)
        with pytest.raises(ValueError):
            rng_for_rank_thread(0, rank=0, thread=2, num_threads=2)
        with pytest.raises(ValueError):
            rng_for_rank_thread(0, rank=0, thread=0, num_threads=0)

    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_derive_seed_fits_63_bits(self):
        for tags in [(), (0,), (1, 2), (2**40, 7)]:
            assert 0 <= derive_seed(11, *tags) < 2**63
        assert derive_seed(None, 1) >= 0

    def test_rank_thread_stream_ignores_thread_count(self):
        a = rng_for_rank_thread(3, rank=1, thread=2, num_threads=4)
        b = rng_for_rank_thread(3, rank=1, thread=2, num_threads=16)
        assert np.array_equal(a.integers(0, 2**62, size=8), b.integers(0, 2**62, size=8))


class TestPairSampling:
    def test_pairs_are_distinct(self, rng):
        for _ in range(200):
            s, t = sample_vertex_pair(10, rng)
            assert s != t
            assert 0 <= s < 10 and 0 <= t < 10

    def test_pair_distribution_roughly_uniform(self, rng):
        counts = np.zeros((5, 5))
        for _ in range(5000):
            s, t = sample_vertex_pair(5, rng)
            counts[s, t] += 1
        off_diagonal = counts[~np.eye(5, dtype=bool)]
        assert off_diagonal.min() > 0.5 * off_diagonal.mean()

    def test_requires_two_vertices(self, rng):
        with pytest.raises(ValueError):
            sample_vertex_pair(1, rng)


class TestPathSample:
    def test_path_vertices_includes_endpoints(self):
        sample = PathSample(source=0, target=3, connected=True, length=3,
                            internal_vertices=np.array([1, 2]))
        assert list(sample.path_vertices) == [0, 1, 2, 3]

    def test_disconnected_path_vertices_empty(self):
        sample = PathSample(source=0, target=3, connected=False)
        assert sample.path_vertices.size == 0


@pytest.mark.parametrize("search", SEARCHES)
class TestSamplers:
    def test_sampled_path_is_shortest(self, search, sampler_for, small_social_graph, rng):
        sampler = sampler_for(small_social_graph, search)
        for _ in range(40):
            sample = next(sampler.sample_batch(1, rng).iter_samples())
            assert sample.connected
            distances = bfs_distances(small_social_graph, sample.source).distances
            assert sample.length == distances[sample.target]
            path = sample.path_vertices
            assert len(path) == sample.length + 1
            # Consecutive path vertices are adjacent and distances increase by 1.
            for i in range(len(path) - 1):
                assert small_social_graph.has_edge(int(path[i]), int(path[i + 1]))
                assert distances[path[i + 1]] == distances[path[i]] + 1

    def test_adjacent_pair_has_no_internal_vertices(self, search, sampler_for, small_path_graph, rng):
        sampler = sampler_for(small_path_graph, search)
        sample = next(sampler.sample_pairs([3], [4], rng).iter_samples())
        assert sample.connected and sample.length == 1
        assert sample.internal_vertices.size == 0

    def test_path_graph_internal_vertices(self, search, sampler_for, small_path_graph, rng):
        sampler = sampler_for(small_path_graph, search)
        sample = next(sampler.sample_pairs([2], [6], rng).iter_samples())
        assert list(sample.internal_vertices) == [3, 4, 5]

    def test_disconnected_pair(self, search, sampler_for, rng):
        g = CSRGraph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        sampler = sampler_for(g, search)
        sample = next(sampler.sample_pairs([0], [3], rng).iter_samples())
        assert not sample.connected
        assert sample.internal_vertices.size == 0

    def test_same_source_target_rejected(self, search, sampler_for, small_path_graph, rng):
        with pytest.raises(ValueError):
            sampler_for(small_path_graph, search).sample_pairs([2], [2], rng)

    def test_out_of_range_rejected(self, search, sampler_for, small_path_graph, rng):
        with pytest.raises(ValueError):
            sampler_for(small_path_graph, search).sample_pairs([0], [99], rng)

    def test_requires_two_vertices(self, search, sampler_for):
        with pytest.raises(ValueError):
            sampler_for(CSRGraph.empty(1), search)

    def test_edges_touched_accounted(self, search, sampler_for, small_social_graph, rng):
        sampler = sampler_for(small_social_graph, search)
        sample = next(sampler.sample_batch(1, rng).iter_samples())
        assert sample.edges_touched > 0

    def test_edges_touched_within_adjacency(self, search, sampler_for, small_social_graph, rng):
        # Each expanded row is counted once, so the search never reads more
        # adjacency entries than the graph holds; the single-BFS kernel also
        # counts the rows its backward walk reads (target and path vertices).
        sampler = sampler_for(small_social_graph, search)
        degrees = small_social_graph.degrees
        total = small_social_graph.indices.size
        for _ in range(50):
            sample = next(sampler.sample_batch(1, rng).iter_samples())
            walk = [sample.target, *sample.internal_vertices] if sample.connected else []
            bound = total + (int(degrees[walk].sum()) if search == "unidirectional" else 0)
            assert 0 <= sample.edges_touched <= bound


@pytest.mark.parametrize("search", SEARCHES)
class TestSamplerUniformity:
    """The sampled path must be uniform among all shortest paths."""

    def test_even_cycle_two_paths_balanced(self, search, sampler_for, rng):
        g = cycle_graph(8)
        sampler = sampler_for(g, search)
        # Antipodal pair 0-4: exactly two shortest paths (via 1,2,3 or 7,6,5).
        counts = {"upper": 0, "lower": 0}
        trials = 400
        for _ in range(trials):
            sample = next(sampler.sample_pairs([0], [4], rng).iter_samples())
            if 2 in sample.internal_vertices:
                counts["upper"] += 1
            else:
                counts["lower"] += 1
        assert abs(counts["upper"] - trials / 2) < 4 * np.sqrt(trials / 4)

    def test_grid_corner_paths_uniform_over_middle_vertex(self, search, sampler_for, rng):
        # 3x3 grid, corner to corner: 6 shortest paths; 2x2 = 4 of them pass
        # the centre vertex 4, so P(centre on path) = 2/3 under uniformity.
        g = grid_graph(3, 3)
        sampler = sampler_for(g, search)
        trials = 900
        hits = 0
        for _ in range(trials):
            sample = next(sampler.sample_pairs([0], [8], rng).iter_samples())
            if 4 in sample.internal_vertices:
                hits += 1
        expected = trials * 2 / 3
        assert abs(hits - expected) < 4 * np.sqrt(trials * (2 / 3) * (1 / 3))

    def test_unbiased_estimator(self, search, sampler_for, small_social_graph):
        """Averaging indicator vectors approximates exact betweenness."""
        from repro.baselines import brandes_betweenness
        from repro.core.state_frame import StateFrame

        exact = brandes_betweenness(small_social_graph).scores
        rng = np.random.default_rng(3)
        sampler = sampler_for(small_social_graph, search)
        frame = StateFrame.zeros(small_social_graph.num_vertices)
        for _ in range(3000):
            sample = next(sampler.sample_batch(1, rng).iter_samples())
            frame.record_sample(sample.internal_vertices)
        estimate = frame.betweenness_estimates()
        assert np.max(np.abs(estimate - exact)) < 0.05
