"""The whole-graph BFS layer against stdlib oracles (no optional dependency).

``graph/traversal.py`` expands every frontier with one ``gather_csr`` over
base-ndarray views.  These tests hold it to a deque BFS and a union-find on
random graphs with isolated vertices and several components, pin the
tie-breaks the diameter sweeps depend on (a different choice moves sweep
starts, hence the bound, hence omega), and check that a memory-mapped graph
gives the same answers at the same cost.  ``bfs_distances`` and
``connected_components`` run a compiled sweep where the helper of
``repro.kernels.compiled`` is present and the numpy level loop otherwise;
:func:`variants` puts every graph through both, with ``uint32`` and with
``int64`` indices.
"""

from __future__ import annotations

import contextlib
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_kernels import count_large_allocations
from fixture_graphs import path_graph
from oracles import bfs_tree_parents, farthest_vertex

from repro.diameter import double_sweep_estimate, vertex_diameter_upper_bound
from repro.graph.components import connected_components, is_connected
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, road_network_graph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_with_sigma,
    sweep_path,
)
from repro.kernels import compiled
from repro.store.format import open_rcsr, write_rcsr

SWEEPS = ("compiled", "numpy") if compiled.load()[0] is not None else ("numpy",)


def forced(sweep):
    """While entered, the sweeps of ``graph/traversal.py`` take this path."""
    if sweep == "compiled":
        return contextlib.nullcontext()
    return mock.patch.object(compiled, "load", lambda: (None, "forced off by the test"))


def retyped(graph, dtype):
    return CSRGraph.from_validated_arrays(
        np.asarray(graph.indptr), np.asarray(graph.indices).astype(dtype)
    )


def path_plus_triangle():
    """A 50-vertex path and a separate triangle: the longer component is not the denser."""
    edges = [(v, v + 1) for v in range(49)] + [(50, 51), (51, 52), (52, 50)]
    return CSRGraph.from_edges(edges, num_vertices=53)


def variants(graph):
    """``graph`` once per sweep path and index dtype, the path forced meanwhile."""
    for dtype in (np.uint32, np.int64):
        typed = retyped(graph, dtype)
        for sweep in SWEEPS:
            with forced(sweep):
                assert sweep_path(typed) == sweep
                yield typed


# --------------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------------- #
def oracle_bfs(adjacency, source):
    """``(distances, sigma)`` by a textbook deque BFS over adjacency lists."""
    n = len(adjacency)
    distances = [UNREACHED] * n
    sigma = [0] * n
    distances[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if distances[v] == UNREACHED:
                distances[v] = distances[u] + 1
                queue.append(v)
            if distances[v] == distances[u] + 1:
                sigma[v] += sigma[u]
    return distances, sigma


def oracle_components(n, edges):
    """Union-find labels, components numbered by smallest member id."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    ids = {}
    labels = []
    for v in range(n):  # id order, so a root is first seen at its smallest member
        labels.append(ids.setdefault(find(v), len(ids)))
    return labels


def adjacency_lists(graph: CSRGraph):
    return [[int(v) for v in graph.neighbors(u)] for u in range(graph.num_vertices)]


@st.composite
def sparse_graphs(draw):
    """Random graphs sparse enough to have isolated vertices and several components."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n + n // 2)
    )
    return CSRGraph.from_edges(edges, num_vertices=n), edges


# --------------------------------------------------------------------------- #
class TestAgainstOracles:
    @given(sparse_graphs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_distances_sigma_levels(self, graph_and_edges, data):
        graph, _ = graph_and_edges
        n = graph.num_vertices
        source = data.draw(st.integers(0, n - 1))
        distances, sigma = oracle_bfs(adjacency_lists(graph), source)
        ecc = max(distances)
        by_level = [[v for v in range(n) if distances[v] == k] for k in range(ecc + 1)]

        for typed in variants(graph):
            plain = bfs_distances(typed, source, keep_levels=True)
            counted = bfs_with_sigma(typed, source)
            for result in (plain, counted):
                assert result.distances.dtype == np.int64
                assert result.distances.tolist() == distances
                assert result.eccentricity == ecc
                assert result.num_reached == sum(d != UNREACHED for d in distances)
                assert [level.tolist() for level in result.levels] == by_level
                assert all(level.dtype == np.int64 for level in result.levels)
                assert result.deepest.tolist() == by_level[-1]
            assert counted.sigma.tolist() == [float(s) for s in sigma]
            unkept = bfs_distances(typed, source)
            assert unkept.levels is None and unkept.deepest.tolist() == by_level[-1]
            assert (unkept.eccentricity, unkept.num_reached) == (ecc, plain.num_reached)
            assert farthest_vertex(typed, source) == (by_level[-1][0], ecc)

    @given(sparse_graphs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_parents(self, graph_and_edges, data):
        graph, _ = graph_and_edges
        n = graph.num_vertices
        source = data.draw(st.integers(0, n - 1))
        adjacency = adjacency_lists(graph)
        expected, _ = oracle_bfs(adjacency, source)
        distances, parents = bfs_tree_parents(graph, source)
        assert distances.tolist() == expected
        for v in range(n):
            if v == source:
                assert parents[v] == source
            elif expected[v] == UNREACHED:
                assert parents[v] == -1
            else:
                # The first parent in frontier order is the smallest-id one.
                assert parents[v] == min(u for u in adjacency[v] if expected[u] == expected[v] - 1)

    @given(sparse_graphs())
    @settings(max_examples=120, deadline=None)
    def test_components(self, graph_and_edges):
        graph, edges = graph_and_edges
        n = graph.num_vertices
        labels = oracle_components(n, edges)
        for typed in variants(graph):
            comps = connected_components(typed)
            assert comps.labels.dtype == np.int64 and comps.sizes.dtype == np.int64
            assert comps.labels.tolist() == labels
            assert comps.sizes.tolist() == [labels.count(c) for c in range(max(labels) + 1)]
            assert is_connected(typed) == (max(labels) == 0)

    @given(sparse_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_bounds_hold_on_every_component(self, graph_and_edges, seed):
        graph, _ = graph_and_edges
        adjacency = adjacency_lists(graph)
        diameter = max(max(oracle_bfs(adjacency, v)[0]) for v in range(graph.num_vertices))
        for typed in variants(graph):
            estimate = double_sweep_estimate(typed, seed=seed)
            assert estimate.lower <= diameter <= estimate.upper
            assert vertex_diameter_upper_bound(typed, seed=seed) >= diameter + 1


# --------------------------------------------------------------------------- #
class TestTieBreaks:
    def test_farthest_vertex_is_smallest_id_at_max_distance(self):
        # Star centre 3: every leaf is at distance 1 from it, 2 from a leaf.
        for star in variants(CSRGraph.from_edges([(3, v) for v in (0, 1, 2, 4, 5)])):
            assert farthest_vertex(star, 3) == (0, 1)
            assert farthest_vertex(star, 0) == (1, 2)
            assert farthest_vertex(star, 1) == (0, 2)
        for empty in variants(CSRGraph.empty(3)):
            assert farthest_vertex(empty, 2) == (2, 0)

    def test_levels_are_sorted_by_id(self):
        for graph in variants(barabasi_albert(300, 3, seed=5)):
            for result in (bfs_distances(graph, 7, keep_levels=True), bfs_with_sigma(graph, 7)):
                assert len(result.levels) > 2
                for level in result.levels:
                    assert np.all(np.diff(level) > 0)

    def test_component_ids_follow_smallest_member(self):
        # Vertices 0, 3 and 8 are isolated; the pairs and the path fill the rest.
        graph = CSRGraph.from_edges([(7, 1), (2, 9), (4, 5), (5, 6)], num_vertices=10)
        for typed in variants(graph):
            comps = connected_components(typed)
            assert comps.labels.tolist() == [0, 1, 2, 3, 4, 4, 4, 1, 5, 2]
            assert comps.sizes.tolist() == [1, 2, 2, 1, 3, 1]
            smallest = [int(comps.members(c)[0]) for c in range(comps.num_components)]
            assert smallest == sorted(smallest)

    def test_largest_component_ties_go_to_smallest_id(self):
        for graph in variants(CSRGraph.from_edges([(1, 2), (3, 4), (5, 6)], num_vertices=7)):
            comps = connected_components(graph)
            assert comps.sizes.tolist() == [1, 2, 2, 2]
            assert comps.largest() == 1


# --------------------------------------------------------------------------- #
@pytest.fixture(params=SWEEPS)
def sweep(request):
    with forced(request.param):
        yield request.param


INDEX_DTYPES = pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])


@pytest.fixture(scope="module", params=[np.uint32, np.int64], ids=["uint32", "int64"])
def mapped_pair(request, tmp_path_factory):
    """A disconnected graph in memory and the same graph through the store."""
    rng = np.random.default_rng(4)
    road = road_network_graph(20, 20, seed=4)
    edges = list(road.iter_edges())
    offset = road.num_vertices + 5  # leaves five isolated vertices in between
    edges += [(offset + int(u), offset + int(v)) for u, v in rng.integers(0, 60, size=(90, 2))]
    graph = retyped(CSRGraph.from_edges(edges, num_vertices=offset + 64), request.param)
    path = write_rcsr(graph, tmp_path_factory.mktemp("rcsr") / "pair.rcsr")
    mapped = open_rcsr(path)
    assert isinstance(mapped.indices, np.memmap) and mapped.indices.dtype == request.param
    return graph, mapped


class TestMemoryMapped:
    def test_every_traversal_result_is_equal(self, mapped_pair, sweep):
        graph, mapped = mapped_pair
        assert sweep_path(mapped) == sweep
        for source in (0, 17, graph.num_vertices - 3, graph.num_vertices - 40):
            ours, theirs = bfs_with_sigma(graph, source), bfs_with_sigma(mapped, source)
            assert np.array_equal(ours.distances, theirs.distances)
            assert np.array_equal(ours.sigma, theirs.sigma)
            assert len(ours.levels) == len(theirs.levels)
            for a, b in zip(ours.levels, theirs.levels):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert (ours.eccentricity, ours.num_reached) == (theirs.eccentricity, theirs.num_reached)
            assert np.array_equal(
                bfs_distances(graph, source).distances, bfs_distances(mapped, source).distances
            )
            for a, b in zip(bfs_tree_parents(graph, source), bfs_tree_parents(mapped, source)):
                assert np.array_equal(a, b)
            assert farthest_vertex(graph, source) == farthest_vertex(mapped, source)
        ours, theirs = connected_components(graph), connected_components(mapped)
        assert ours.num_components > 2
        assert np.array_equal(ours.labels, theirs.labels)
        assert np.array_equal(ours.sizes, theirs.sizes)
        for seed in range(8):
            assert double_sweep_estimate(graph, seed=seed) == double_sweep_estimate(mapped, seed=seed)
            assert vertex_diameter_upper_bound(graph, seed=seed) == vertex_diameter_upper_bound(
                mapped, seed=seed
            )

    @INDEX_DTYPES
    def test_diameter_bound_never_slices_the_map_per_vertex(
        self, tmp_path, monkeypatch, sweep, dtype
    ):
        graph = retyped(barabasi_albert(3000, 3, seed=2), dtype)
        mapped = open_rcsr(write_rcsr(graph, tmp_path / "ba.rcsr"))
        assert isinstance(mapped.indptr, np.memmap) and isinstance(mapped.indices, np.memmap)
        assert sweep_path(mapped) == sweep
        calls = {"getitem": 0}
        original = np.memmap.__getitem__

        def counting(self, index):
            calls["getitem"] += 1
            return original(self, index)

        monkeypatch.setattr(np.memmap, "__getitem__", counting)
        bound = vertex_diameter_upper_bound(mapped, seed=1)
        # Six sweeps of at most ``bound`` levels each (the compiled sweep
        # never indexes the map from Python at all); the per-vertex slice
        # loop indexed the map six times per *vertex*.
        assert calls["getitem"] <= 6 * bound < mapped.num_vertices // 10
        assert bound == vertex_diameter_upper_bound(graph, seed=1)


class TestComponentsAreLinear:
    @INDEX_DTYPES
    def test_constant_number_of_large_allocations(self, sweep, dtype):
        # 3000 isolated vertices, 400 pairs and one path: 3401 components.
        n = 4000
        edges = [(2 * i, 2 * i + 1) for i in range(400)]
        edges += [(v, v + 1) for v in range(800, 999)]
        graph = retyped(CSRGraph.from_edges(edges, num_vertices=n), dtype)
        assert sweep_path(graph) == sweep
        with count_large_allocations(n // 2) as counts:
            comps = connected_components(graph)
        assert comps.num_components == 3401
        assert int(comps.sizes.max()) == 200
        # The shared labels array, the compiled sweep's one buffer and the
        # renumbering; one n-vector per component (the repeated-BFS version)
        # would be thousands.
        assert counts["large"] <= 4


class TestDisconnectedBound:
    """The bound must cover every component, not only the random start's."""

    def test_path_plus_triangle(self):
        graph = path_plus_triangle()
        for seed in range(40):
            assert vertex_diameter_upper_bound(graph, seed=seed) >= 50
            assert double_sweep_estimate(graph, seed=seed).lower == 49

    def test_connected_graph_is_swept_once(self, monkeypatch):
        import repro.diameter.two_sweep as two_sweep

        graph = path_graph(30)
        monkeypatch.setattr(two_sweep, "connected_components", None)  # must not be needed
        assert vertex_diameter_upper_bound(graph, seed=3) >= 30
