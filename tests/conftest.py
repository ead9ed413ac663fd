"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import path_graph, star_graph

from repro.core import KadabraOptions
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    road_network_graph,
)

collect_ignore_glob = []


@pytest.fixture(autouse=True)
def _isolated_graph_cache(monkeypatch, tmp_path):
    """Point the graph-store cache at a per-test directory.

    Anything resolving graphs through :class:`repro.store.GraphCatalog` (the
    facade with path inputs, the CLI) writes converted
    ``.rcsr`` files to the cache; tests must never touch ``~/.cache``.
    """
    monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "graph-cache"))


@pytest.fixture(scope="session")
def small_social_graph() -> CSRGraph:
    """A small power-law graph (Barabási–Albert), connected by construction."""
    return barabasi_albert(80, 3, seed=42)


@pytest.fixture(scope="session")
def medium_social_graph() -> CSRGraph:
    return barabasi_albert(200, 3, seed=7)


@pytest.fixture(scope="session")
def small_road_graph() -> CSRGraph:
    """A small road-network-like graph (perturbed lattice, high diameter)."""
    return road_network_graph(12, 12, seed=3)


@pytest.fixture(scope="session")
def tiny_grid_graph() -> CSRGraph:
    return grid_graph(4, 5)


@pytest.fixture(scope="session")
def small_path_graph() -> CSRGraph:
    return path_graph(10)


@pytest.fixture(scope="session")
def small_star_graph() -> CSRGraph:
    return star_graph(12)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def quick_options() -> KadabraOptions:
    """Options that keep KADABRA runs to a fraction of a second in tests."""
    return KadabraOptions(
        eps=0.1,
        delta=0.1,
        seed=99,
        calibration_samples=100,
        max_samples_override=1200,
        samples_per_check=100,
    )


@pytest.fixture(scope="session")
def accurate_options() -> KadabraOptions:
    """Options accurate enough to compare against exact betweenness."""
    return KadabraOptions(eps=0.05, delta=0.1, seed=4, calibration_samples=300)
