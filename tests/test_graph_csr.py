"""Unit tests for the CSR graph data structure."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import to_networkx

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_from_edges_deduplicates(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_drops_self_loops(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert g.num_vertices == 3

    def test_from_edges_with_explicit_vertex_count(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_empty_graph(self):
        g = CSRGraph.empty(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_empty_graph_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0
        assert len(g) == 0

    def test_negative_empty_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.empty(-1)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([1]))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_non_monotone_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0]))


class TestAccessors:
    @pytest.fixture()
    def triangle_plus_leaf(self) -> CSRGraph:
        return CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])

    def test_degrees(self, triangle_plus_leaf):
        assert list(triangle_plus_leaf.degrees) == [2, 2, 3, 1]

    def test_degree_single(self, triangle_plus_leaf):
        assert triangle_plus_leaf.degree(2) == 3

    def test_neighbors_sorted(self, triangle_plus_leaf):
        assert list(triangle_plus_leaf.neighbors(2)) == [0, 1, 3]

    def test_has_edge(self, triangle_plus_leaf):
        assert triangle_plus_leaf.has_edge(0, 1)
        assert triangle_plus_leaf.has_edge(1, 0)
        assert not triangle_plus_leaf.has_edge(0, 3)

    def test_has_edge_isolated_vertex(self):
        g = CSRGraph.from_edges([(0, 1)], num_vertices=3)
        assert not g.has_edge(2, 0)

    def test_density(self, triangle_plus_leaf):
        assert triangle_plus_leaf.density() == pytest.approx(2 * 4 / (4 * 3))

    def test_density_trivial(self):
        assert CSRGraph.empty(1).density() == 0.0

    def test_len(self, triangle_plus_leaf):
        assert len(triangle_plus_leaf) == 4

    def test_repr(self, triangle_plus_leaf):
        assert "n=4" in repr(triangle_plus_leaf)
        assert "m=4" in repr(triangle_plus_leaf)

    def test_memory_bytes_positive(self, triangle_plus_leaf):
        assert triangle_plus_leaf.memory_bytes() > 0

    def test_memory_bytes_counts_both_arrays(self, triangle_plus_leaf):
        g = triangle_plus_leaf
        assert g.memory_bytes() == g.indptr.nbytes + g.indices.nbytes

    def test_arrays_are_read_only(self, triangle_plus_leaf):
        with pytest.raises(ValueError):
            triangle_plus_leaf.indices[0] = 3
        with pytest.raises(ValueError):
            triangle_plus_leaf.indptr[0] = 1


class TestExport:
    def test_iter_edges_each_edge_once(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        edges = sorted(g.iter_edges())
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_edge_array_matches_iter_edges(self, small_social_graph):
        arr = small_social_graph.edge_array()
        assert arr.shape == (small_social_graph.num_edges, 2)
        assert sorted(map(tuple, arr.tolist())) == sorted(small_social_graph.iter_edges())

    def test_to_networkx(self):
        pytest.importorskip("networkx")
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 2

    def test_equality(self):
        a = CSRGraph.from_edges([(0, 1), (1, 2)])
        b = CSRGraph.from_edges([(1, 2), (0, 1)])
        c = CSRGraph.from_edges([(0, 1)])
        assert a == b
        assert a != c
        assert a != "not a graph"


class TestSubgraph:
    def test_subgraph_relabels(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # edges (1,2) and (2,3)
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)

    def test_subgraph_duplicates_rejected(self):
        g = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([0, 0])

    def test_subgraph_preserves_order(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])
        sub = g.subgraph([2, 1])
        # vertex 2 -> 0, vertex 1 -> 1; the edge (1, 2) becomes (1, 0).
        assert sub.has_edge(0, 1)


class TestBuilder:
    def test_incremental_add(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1)
        builder.add_edges([(1, 2), (2, 3)])
        assert builder.num_pending_edges == 3
        g = builder.build()
        assert g.num_edges == 3

    def test_builder_vertex_bound_enforced(self):
        builder = GraphBuilder(num_vertices=2)
        builder.add_edge(0, 5)
        with pytest.raises(ValueError):
            builder.build()

    def test_builder_negative_ids_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(ValueError):
            builder.add_edges([(-1, 0)])

    def test_builder_malformed_edges_rejected(self):
        builder = GraphBuilder()
        with pytest.raises(ValueError):
            builder.add_edges([(1, 2, 3)])

    def test_builder_empty(self):
        assert GraphBuilder().build().num_vertices == 0
        assert GraphBuilder(num_vertices=4).build().num_vertices == 4

    def test_builder_only_self_loops(self):
        builder = GraphBuilder()
        builder.add_edges([(0, 0), (1, 1)])
        g = builder.build()
        assert g.num_edges == 0
        assert g.num_vertices == 2

    def test_builder_numpy_input(self):
        builder = GraphBuilder()
        builder.add_edges(np.array([[0, 1], [1, 2]]))
        assert builder.build().num_edges == 2

    def test_builder_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(num_vertices=-1)
