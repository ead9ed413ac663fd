"""Unit tests for the synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    estimate_disk_radius,
    hyperbolic_graph,
    path_graph,
    star_graph,
    watts_strogatz,
)

from repro.graph.components import is_connected
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    rmat_graph,
    road_network_graph,
)
from repro.graph.traversal import bfs_distances


class TestDeterministicGenerators:
    def test_path_graph(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert bfs_distances(g, 0).eccentricity == 4

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(d == 2 for d in g.degrees)

    def test_cycle_small_degenerates_to_path(self):
        assert cycle_graph(2).num_edges == 1

    def test_star_graph(self):
        g = star_graph(7)
        assert g.num_edges == 6
        assert g.degree(0) == 6

    def test_complete_graph(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert all(d == 5 for d in g.degrees)

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical edges

    def test_grid_graph_periodic(self):
        g = grid_graph(4, 4, periodic=True)
        assert all(d == 4 for d in g.degrees)

    def test_trivial_sizes(self):
        assert path_graph(0).num_vertices == 0
        assert path_graph(1).num_edges == 0
        assert star_graph(1).num_edges == 0
        assert complete_graph(1).num_edges == 0
        assert grid_graph(0, 5).num_vertices == 0

    def test_negative_sizes_rejected(self):
        for fn in (path_graph, cycle_graph, star_graph, complete_graph):
            with pytest.raises(ValueError):
                fn(-1)


class TestRmat:
    def test_size_and_determinism(self):
        a = rmat_graph(8, edge_factor=8, seed=5)
        b = rmat_graph(8, edge_factor=8, seed=5)
        assert a.num_vertices == 256
        assert a == b

    def test_different_seeds_differ(self):
        assert rmat_graph(8, 8, seed=1) != rmat_graph(8, 8, seed=2)

    def test_edge_factor_controls_density(self):
        sparse = rmat_graph(9, edge_factor=4, seed=0)
        dense = rmat_graph(9, edge_factor=16, seed=0)
        assert dense.num_edges > sparse.num_edges

    def test_skewed_degree_distribution(self):
        g = rmat_graph(10, edge_factor=10, seed=3)
        degrees = np.sort(g.degrees)[::-1]
        # Power-law-ish skew: the top vertex has far more than the average.
        assert degrees[0] > 5 * degrees.mean()

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            rmat_graph(4, 4, a=0.5, b=0.5, c=0.5, d=0.5)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            rmat_graph(-1, 4)
        with pytest.raises(ValueError):
            rmat_graph(40, 4)

    def test_zero_edge_factor_rejected(self):
        with pytest.raises(ValueError):
            rmat_graph(4, 0)


class TestHyperbolic:
    def test_size_and_determinism(self):
        a = hyperbolic_graph(400, avg_degree=12, seed=9)
        b = hyperbolic_graph(400, avg_degree=12, seed=9)
        assert a.num_vertices == 400
        assert a == b

    def test_average_degree_in_ballpark(self):
        g = hyperbolic_graph(1500, avg_degree=16, seed=2)
        avg = 2.0 * g.num_edges / g.num_vertices
        assert 16 / 3 <= avg <= 16 * 3

    def test_power_law_tail(self):
        g = hyperbolic_graph(1500, avg_degree=12, gamma=3.0, seed=4)
        degrees = np.sort(g.degrees)[::-1]
        assert degrees[0] > 4 * degrees.mean()

    def test_radius_estimate_monotone_in_degree(self):
        assert estimate_disk_radius(1000, 10) > estimate_disk_radius(1000, 50)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_graph(100, avg_degree=10, gamma=1.5)

    def test_trivial_sizes(self):
        assert hyperbolic_graph(0, avg_degree=10).num_vertices == 0
        assert hyperbolic_graph(1, avg_degree=10).num_edges == 0


class TestRoadNetwork:
    def test_connected_and_sparse(self):
        g = road_network_graph(20, 20, seed=1)
        assert is_connected(g)
        avg_degree = 2.0 * g.num_edges / g.num_vertices
        assert avg_degree < 4.0

    def test_high_diameter(self):
        g = road_network_graph(20, 20, seed=1)
        assert bfs_distances(g, 0).eccentricity > 10

    def test_deterministic(self):
        assert road_network_graph(10, 10, seed=5) == road_network_graph(10, 10, seed=5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_lattice_connected_and_sparse(self, seed):
        g = road_network_graph(12, 12, seed=seed)
        assert is_connected(g)
        assert 2.0 * g.num_edges / g.num_vertices < 4.0

    def test_integration_instance_size(self):
        # The roadNet-PA stand-in of the end-to-end tests.
        assert road_network_graph(12, 12, seed=2).num_vertices == 131

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            road_network_graph(5, 5, deletion_probability=1.5)
        with pytest.raises(ValueError):
            road_network_graph(5, 5, shortcut_fraction=-0.1)


class TestRandomModels:
    def test_gnm_exact_edge_count(self):
        g = erdos_renyi_gnm(50, 120, seed=0)
        assert g.num_vertices == 50
        assert g.num_edges == 120

    def test_gnm_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_gnm(5, 100)

    def test_gnp_density(self):
        g = erdos_renyi_gnp(200, 0.05, seed=1)
        expected = 0.05 * 200 * 199 / 2
        assert 0.5 * expected <= g.num_edges <= 1.5 * expected

    def test_gnp_extremes(self):
        assert erdos_renyi_gnp(50, 0.0, seed=0).num_edges == 0
        assert erdos_renyi_gnp(10, 1.0, seed=0).num_edges == 45

    def test_barabasi_albert_connected(self):
        g = barabasi_albert(150, 3, seed=2)
        assert is_connected(g)
        assert g.num_edges >= 3 * (150 - 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_barabasi_albert_dense_and_connected(self, seed):
        g = barabasi_albert(913, 7, seed=seed)
        assert g.num_vertices == 913
        assert is_connected(g)
        assert 2.0 * g.num_edges / g.num_vertices > 8.0

    def test_barabasi_albert_invalid(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 5)
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)

    def test_watts_strogatz_degree(self):
        g = watts_strogatz(100, 4, 0.0, seed=0)
        assert all(d == 4 for d in g.degrees)

    def test_watts_strogatz_rewiring_changes_graph(self):
        ring = watts_strogatz(100, 4, 0.0, seed=1)
        rewired = watts_strogatz(100, 4, 0.5, seed=1)
        assert ring != rewired

    def test_watts_strogatz_invalid(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1)
        with pytest.raises(ValueError):
            watts_strogatz(10, 4, 1.5)
        with pytest.raises(ValueError):
            watts_strogatz(4, 6, 0.1)
