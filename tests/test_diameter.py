"""Unit tests for the diameter algorithms and bounds."""

from __future__ import annotations

import pytest

networkx = pytest.importorskip("networkx")

from fixture_graphs import cycle_graph, path_graph, star_graph
from oracles import exact_diameter, ifub_diameter, to_networkx, two_sweep_lower_bound

from repro.diameter import (
    DiameterEstimate,
    double_sweep_estimate,
    vertex_diameter_upper_bound,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    road_network_graph,
)


def _nx_diameter(graph: CSRGraph) -> int:
    return networkx.diameter(to_networkx(graph))


class TestExactDiameter:
    def test_path(self):
        assert exact_diameter(path_graph(17)) == 16

    def test_cycle(self):
        assert exact_diameter(cycle_graph(10)) == 5

    def test_star(self):
        assert exact_diameter(star_graph(9)) == 2

    def test_grid(self):
        assert exact_diameter(grid_graph(4, 6)) == 8

    def test_matches_networkx_on_social(self, small_social_graph):
        assert exact_diameter(small_social_graph) == _nx_diameter(small_social_graph)

    def test_empty_and_singleton(self):
        assert exact_diameter(CSRGraph.empty(0)) == 0
        assert exact_diameter(CSRGraph.empty(1)) == 0

    def test_disconnected_uses_largest_component_diameter(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        assert exact_diameter(g) == 2


class TestIfub:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(23),
            lambda: cycle_graph(14),
            lambda: grid_graph(5, 7),
            lambda: barabasi_albert(120, 3, seed=1),
            lambda: road_network_graph(10, 10, seed=2),
        ],
    )
    def test_matches_exact(self, graph_factory):
        graph = graph_factory()
        assert ifub_diameter(graph) == exact_diameter(graph)

    def test_explicit_start_vertex(self, small_social_graph):
        assert ifub_diameter(small_social_graph, start=0) == exact_diameter(small_social_graph)

    def test_empty(self):
        assert ifub_diameter(CSRGraph.empty(0)) == 0


class TestBounds:
    def test_two_sweep_is_lower_bound(self, small_social_graph, small_road_graph):
        for graph in (small_social_graph, small_road_graph):
            assert two_sweep_lower_bound(graph, seed=0) <= exact_diameter(graph)

    def test_two_sweep_exact_on_trees(self):
        # A path is a tree: the double sweep is exact there.
        assert two_sweep_lower_bound(path_graph(31), seed=1) == 30

    def test_double_sweep_brackets_exact(self, small_social_graph, small_road_graph):
        for graph in (small_social_graph, small_road_graph):
            estimate = double_sweep_estimate(graph, seed=0)
            exact = exact_diameter(graph)
            assert estimate.lower <= exact <= estimate.upper

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            DiameterEstimate(lower=5, upper=3)
        assert DiameterEstimate(4, 4).is_exact

    def test_vertex_diameter_upper_bound_is_valid(self, small_social_graph, small_road_graph):
        for graph in (small_social_graph, small_road_graph):
            vd_bound = vertex_diameter_upper_bound(graph, seed=0)
            # The true vertex diameter is (edge diameter + 1).
            assert vd_bound >= exact_diameter(graph) + 1

    def test_vertex_diameter_trivial_graphs(self):
        assert vertex_diameter_upper_bound(CSRGraph.empty(0)) == 0
        single_edge = CSRGraph.from_edges([(0, 1)])
        assert vertex_diameter_upper_bound(single_edge) >= 2

    def test_empty_graph_bounds(self):
        estimate = double_sweep_estimate(CSRGraph.empty(0))
        assert estimate.lower == estimate.upper == 0
        assert two_sweep_lower_bound(CSRGraph.empty(0)) == 0
