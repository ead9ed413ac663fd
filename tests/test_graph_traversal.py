"""Unit tests for the BFS kernels (distances, sigma counts, parents)."""

from __future__ import annotations

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from oracles import bfs_tree_parents, farthest_vertex, to_networkx

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_with_sigma,
    eccentricity,
)


def _nx_distances(graph: CSRGraph, source: int) -> np.ndarray:
    lengths = networkx.single_source_shortest_path_length(to_networkx(graph), source)
    out = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    for v, d in lengths.items():
        out[v] = d
    return out


class TestBFSDistances:
    def test_path_graph_distances(self, small_path_graph):
        result = bfs_distances(small_path_graph, 0)
        assert list(result.distances) == list(range(10))

    def test_star_graph_distances(self, small_star_graph):
        result = bfs_distances(small_star_graph, 0)
        assert result.distances[0] == 0
        assert np.all(result.distances[1:] == 1)

    def test_matches_networkx_on_social_graph(self, small_social_graph):
        for source in (0, 3, 17):
            ours = bfs_distances(small_social_graph, source).distances
            theirs = _nx_distances(small_social_graph, source)
            assert np.array_equal(ours, theirs)

    def test_matches_networkx_on_grid(self, tiny_grid_graph):
        ours = bfs_distances(tiny_grid_graph, 0).distances
        theirs = _nx_distances(tiny_grid_graph, 0)
        assert np.array_equal(ours, theirs)

    def test_disconnected_vertices_unreached(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=4)
        result = bfs_distances(g, 0)
        assert result.distances[1] == 1
        assert result.distances[2] == UNREACHED
        assert result.num_reached == 2

    def test_out_of_range_source_rejected(self, small_path_graph):
        with pytest.raises(ValueError):
            bfs_distances(small_path_graph, 100)

    def test_levels_partition_reached_vertices(self, small_social_graph):
        result = bfs_distances(small_social_graph, 0, keep_levels=True)
        assert result.levels is not None
        concatenated = np.sort(np.concatenate(result.levels))
        assert np.array_equal(concatenated, np.arange(small_social_graph.num_vertices))

    def test_eccentricity_path(self, small_path_graph):
        assert bfs_distances(small_path_graph, 0).eccentricity == 9
        assert eccentricity(small_path_graph, 5) == 5


class TestBFSSigma:
    def test_sigma_source_is_one(self, small_social_graph):
        result = bfs_with_sigma(small_social_graph, 0)
        assert result.sigma[0] == 1.0

    def test_sigma_counts_match_networkx(self, small_social_graph):
        nxg = to_networkx(small_social_graph)
        for source in (0, 5):
            result = bfs_with_sigma(small_social_graph, source)
            # networkx: count shortest paths via all_shortest_paths on a few targets.
            for target in (10, 20, 40):
                if result.distances[target] < 0:
                    continue
                expected = sum(1 for _ in networkx.all_shortest_paths(nxg, source, target))
                assert result.sigma[target] == pytest.approx(expected)

    def test_sigma_on_cycle(self):
        from fixture_graphs import cycle_graph

        g = cycle_graph(6)
        result = bfs_with_sigma(g, 0)
        # The antipodal vertex of an even cycle has two shortest paths.
        assert result.sigma[3] == 2.0
        assert result.sigma[1] == 1.0

    def test_sigma_grid_corner(self):
        g = grid_graph(3, 3)
        result = bfs_with_sigma(g, 0)
        # Opposite corner of a 3x3 grid: C(4, 2) = 6 shortest paths.
        assert result.sigma[8] == 6.0


class TestBFSTreeParents:
    def test_parents_are_one_level_up(self, small_social_graph):
        distances, parents = bfs_tree_parents(small_social_graph, 0)
        for v in range(small_social_graph.num_vertices):
            if v == 0:
                assert parents[v] == 0
            elif distances[v] > 0:
                assert distances[parents[v]] == distances[v] - 1
                assert small_social_graph.has_edge(v, int(parents[v]))

    def test_unreachable_parents_minus_one(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        distances, parents = bfs_tree_parents(g, 0)
        assert parents[2] == -1
        assert distances[2] == UNREACHED


class TestFarthestVertex:
    def test_farthest_on_path(self, small_path_graph):
        vertex, distance = farthest_vertex(small_path_graph, 0)
        assert vertex == 9
        assert distance == 9

    def test_farthest_on_star(self, small_star_graph):
        _, distance = farthest_vertex(small_star_graph, 1)
        assert distance == 2
