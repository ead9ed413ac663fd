"""Micro-benchmarks of the per-sample kernels (the algorithm's inner loop).

Not tied to a specific table/figure, but these kernels determine every
running-time result in the paper: BFS, bidirectional vs. unidirectional
sampling, Brandes iterations and state-frame aggregation.  A sampler draws
only in batches, so the sampling benchmarks time a batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brandes import _single_source_dependencies
from repro.core.state_frame import StateFrame
from repro.graph.traversal import bfs_distances, bfs_with_sigma
from repro.kernels import BatchPathSampler

pytestmark = pytest.mark.benchmark(group="sampling")


def test_bfs_distances(benchmark, social_proxy_graph):
    result = benchmark(lambda: bfs_distances(social_proxy_graph, 0))
    assert result.num_reached == social_proxy_graph.num_vertices


def test_bfs_with_sigma(benchmark, social_proxy_graph):
    result = benchmark(lambda: bfs_with_sigma(social_proxy_graph, 0))
    assert result.sigma is not None and result.sigma[0] == 1.0


def test_bidirectional_sample(benchmark, social_proxy_graph):
    sampler = BatchPathSampler(social_proxy_graph)
    rng = np.random.default_rng(1)
    batch = benchmark(lambda: sampler.sample_batch(1, rng))
    assert batch.sources[0] != batch.targets[0]


def test_unidirectional_sample(benchmark, social_proxy_graph):
    sampler = BatchPathSampler(social_proxy_graph, kernel="unidirectional")
    rng = np.random.default_rng(1)
    batch = benchmark(lambda: sampler.sample_batch(1, rng))
    assert batch.sources[0] != batch.targets[0]


def test_bidirectional_cheaper_than_unidirectional(social_proxy_graph):
    """KADABRA's claim: the bidirectional sampler touches fewer edges."""
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    bi = BatchPathSampler(social_proxy_graph)
    uni = BatchPathSampler(social_proxy_graph, kernel="unidirectional")
    bi_edges = sum(bi.sample_batch(1, rng_a).total_edges_touched for _ in range(50))
    uni_edges = sum(uni.sample_batch(1, rng_b).total_edges_touched for _ in range(50))
    assert bi_edges < uni_edges


def test_bidirectional_sample_road(benchmark, road_proxy_graph):
    sampler = BatchPathSampler(road_proxy_graph)
    rng = np.random.default_rng(2)
    batch = benchmark(lambda: sampler.sample_batch(1, rng))
    assert batch.total_edges_touched > 0


def test_brandes_single_source(benchmark, social_proxy_graph):
    deps = benchmark(lambda: _single_source_dependencies(social_proxy_graph, 0))
    assert deps.shape == (social_proxy_graph.num_vertices,)


def test_state_frame_aggregation(benchmark):
    frames = [StateFrame.zeros(50_000) for _ in range(8)]
    for i, frame in enumerate(frames):
        frame.num_samples = i + 1
        frame.counts[:: i + 1] = 1.0

    def aggregate():
        total = StateFrame.zeros(50_000)
        for frame in frames:
            total.add_into(frame)
        return total

    total = benchmark(aggregate)
    assert total.num_samples == sum(range(1, 9))
