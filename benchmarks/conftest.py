"""Shared fixtures for the benchmark harness.

The fixtures keep the proxy graphs cached across benchmark rounds so that
pytest-benchmark timing loops measure the algorithm itself and not repeated
graph generation.
"""

from __future__ import annotations

import pytest

from repro.core import KadabraOptions
from repro.graph.generators import barabasi_albert, rmat_graph, road_network_graph


@pytest.fixture(scope="session")
def social_proxy_graph():
    """A small social-network-like proxy (Barabási–Albert)."""
    return barabasi_albert(600, 4, seed=11)


@pytest.fixture(scope="session")
def road_proxy_graph():
    """A small road-network-like proxy (perturbed lattice)."""
    return road_network_graph(28, 28, seed=11)


@pytest.fixture(scope="session")
def rmat_proxy_graph():
    """A small R-MAT proxy graph."""
    return rmat_graph(9, edge_factor=12, seed=11)


@pytest.fixture(scope="session")
def graph_catalog(tmp_path_factory):
    """A binary graph store catalog backed by a per-session cache directory."""
    from repro.store import GraphCatalog

    return GraphCatalog(tmp_path_factory.mktemp("graph-cache"))


@pytest.fixture(scope="session")
def fast_options():
    """KADABRA options sized for benchmark iterations (seconds, not minutes)."""
    return KadabraOptions(
        eps=0.05,
        delta=0.1,
        seed=5,
        calibration_samples=150,
        max_samples_override=2500,
        samples_per_check=200,
    )
