"""Benchmarks of the functional parallel drivers (threaded MPI substrate).

These execute Algorithms 1 and 2 for real (ranks as threads) on proxy graphs,
which is what a user of the library runs on a workstation.  All drivers are
invoked through the :func:`repro.estimate_betweenness` facade, so the
benchmark also covers the registry dispatch path.
"""

from __future__ import annotations

import pytest

from repro.api import Resources, estimate_betweenness

pytestmark = pytest.mark.benchmark(group="parallel")


def test_sequential_kadabra(benchmark, social_proxy_graph, fast_options):
    result = benchmark(
        lambda: estimate_betweenness(social_proxy_graph, algorithm="sequential", options=fast_options)
    )
    assert result.num_samples > 0


def test_shared_memory_kadabra(benchmark, social_proxy_graph, fast_options):
    result = benchmark(
        lambda: estimate_betweenness(
            social_proxy_graph,
            algorithm="shared-memory",
            options=fast_options,
            resources=Resources(threads=4),
        )
    )
    assert result.num_samples > 0


def test_distributed_epoch_kadabra(benchmark, social_proxy_graph, fast_options):
    result = benchmark(
        lambda: estimate_betweenness(
            social_proxy_graph,
            algorithm="distributed",
            options=fast_options,
            resources=Resources(processes=2, threads=2),
        )
    )
    assert result.num_samples > 0


def test_distributed_algorithm1(benchmark, social_proxy_graph, fast_options):
    result = benchmark(
        lambda: estimate_betweenness(
            social_proxy_graph,
            algorithm="mpi-only",
            options=fast_options,
            resources=Resources(processes=2),
        )
    )
    assert result.num_samples > 0
