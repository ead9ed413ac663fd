"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

networkx = pytest.importorskip("networkx")

from oracles import to_networkx

from repro.graph.components import connected_components, is_connected
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHED, bfs_distances, bfs_with_sigma


@st.composite
def edge_lists(draw, max_vertices=12, max_edges=40):
    """Random (num_vertices, edges) pairs, possibly with duplicates/self-loops."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return n, edges


class TestBuilderProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_builder_normalisation(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        # No self-loops survive.
        for u in range(graph.num_vertices):
            assert u not in graph.neighbors(u)
        # Symmetry: v in N(u) iff u in N(v).
        for u in range(graph.num_vertices):
            for v in graph.neighbors(u):
                assert graph.has_edge(int(v), u)
        # Degree sum equals twice the edge count.
        assert int(graph.degrees.sum()) == 2 * graph.num_edges
        # Edge count never exceeds the number of distinct non-loop inputs.
        distinct = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        assert graph.num_edges == len(distinct)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_build_is_idempotent(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        rebuilt = CSRGraph.from_edges(list(graph.iter_edges()), num_vertices=n)
        assert rebuilt == graph

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_builder_order_invariance(self, data):
        n, edges = data
        forward = CSRGraph.from_edges(edges, num_vertices=n)
        backward = CSRGraph.from_edges(list(reversed(edges)), num_vertices=n)
        assert forward == backward


class TestTraversalProperties:
    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_bfs_matches_networkx(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        source = 0
        ours = bfs_distances(graph, source).distances
        lengths = networkx.single_source_shortest_path_length(to_networkx(graph), source)
        for v in range(n):
            expected = lengths.get(v, UNREACHED)
            assert ours[v] == expected

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_sigma_positive_exactly_on_reachable(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        result = bfs_with_sigma(graph, 0)
        reachable = result.distances >= 0
        assert np.all((result.sigma > 0) == reachable)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_distances_satisfy_triangle_property(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        dist = bfs_distances(graph, 0).distances
        # Along every edge, BFS levels differ by at most 1 (both reachable).
        for u in range(n):
            for v in graph.neighbors(u):
                if dist[u] >= 0 and dist[int(v)] >= 0:
                    assert abs(int(dist[u]) - int(dist[int(v)])) <= 1


class TestComponentProperties:
    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_component_labelling_consistent(self, data):
        n, edges = data
        graph = CSRGraph.from_edges(edges, num_vertices=n)
        comps = connected_components(graph)
        # Sizes sum to n and every edge stays within one component.
        assert int(comps.sizes.sum()) == n
        for u, v in graph.iter_edges():
            assert comps.labels[u] == comps.labels[v]
        # is_connected agrees with the component count (for non-empty graphs).
        assert is_connected(graph) == (comps.num_components <= 1)
