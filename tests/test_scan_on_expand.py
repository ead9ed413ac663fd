"""Scan on expand: the bidirectional kernels read a frontier's rows only when
they expand it, and still sample what the eager reference samples.

Three claims, no optional dependency, each made of the three searches: the
compiled one the ``bidirectional`` kernel runs where its helper was built
(``compiled``; skipped where no C compiler is), the numpy one it runs
otherwise (``bidirectional``, with the helper forced off) and the Python
kernel (``smallgraph``):

* **identity** - on every graph family the searches and
  ``tests/reference_samplers.py`` (the eager legacy sampler, kept as the oracle)
  return the same pairs, lengths and internal vertices from one stream and
  leave the generator in the same state after every sample, the kernels reading
  no more adjacency entries than the reference;
* **the re-ordering branch** - a graph built so the *backward* frontier is the
  cheaper one at the closing scan, with several cut edges of unequal weight;
* **uniformity** - a chi-square test of the sampled paths against the uniform
  distribution over all shortest paths of a fixed pair.

Running under pytest also arms the kernels' ``assert`` that every marked
neighbour of a closing scan lies on the other side's deepest level.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from reference_samplers import ReferenceBidirectionalSampler
from test_traversal_layer import adjacency_lists, oracle_bfs
from fixture_graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    hyperbolic_graph,
    path_graph,
    star_graph,
    watts_strogatz,
)

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    grid_graph,
    rmat_graph,
    road_network_graph,
)
from repro.kernels import BatchPathSampler, compiled

SEARCHES = ("compiled", "bidirectional", "smallgraph")


def make_sampler(graph, search, monkeypatch):
    """A sampler whose pairs go through ``search`` (see the module docstring);
    any other kernel name gives that kernel."""
    if search not in ("compiled", "bidirectional"):
        return BatchPathSampler(graph, kernel=search)
    if search == "compiled" and compiled.load()[0] is None:
        pytest.skip(f"no compiled search here: {compiled.load()[1]}")
    with monkeypatch.context() as patch:
        if search == "bidirectional":
            patch.setattr(compiled, "load", lambda: (None, "forced off by the test"))
        sampler = BatchPathSampler(graph, kernel="bidirectional")
    assert sampler.compiled == (search == "compiled")
    return sampler


FAMILIES = {
    "gnm-disconnected": lambda: erdos_renyi_gnm(120, 100, seed=1),
    "gnp-disconnected": lambda: erdos_renyi_gnp(100, 0.015, seed=2),
    "gnm-dense": lambda: erdos_renyi_gnm(150, 900, seed=3),
    "rmat-isolated-vertices": lambda: rmat_graph(9, edge_factor=3, seed=4),
    "rmat-hubs": lambda: rmat_graph(10, edge_factor=12, seed=5),
    "ba-tree": lambda: barabasi_albert(200, 1, seed=6),
    "ba-m4": lambda: barabasi_albert(300, 4, seed=7),
    "watts-strogatz": lambda: watts_strogatz(200, 4, 0.1, seed=8),
    "road": lambda: road_network_graph(15, 15, seed=9),
    "grid": lambda: grid_graph(9, 11),
    "path": lambda: path_graph(40),
    "cycle-even": lambda: cycle_graph(30),
    "cycle-odd": lambda: cycle_graph(31),
    "star": lambda: star_graph(25),
    "complete": lambda: complete_graph(12),
    "hyperbolic": lambda: hyperbolic_graph(300, 8, seed=10),
}


def hub_graph():
    """Source 0, target 11, distance 5, eleven shortest paths of unequal weight.

    ``0 - {1, 2} - {3, 4, 5} - {6, 7, 8} - {9, 10} - 11``, and a hub (12, with
    twenty leaves) hung on the source's side beside 3, 4, 5.  Once the forward
    search has settled the hub's level its frontier is the dearer one, so the
    search closes with a scan of the *backward* frontier {6, 7, 8}, which
    lists the six cut edges target-side first.
    """
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (1, 12), (2, 12)]
    edges += [(3, 6), (3, 7), (4, 7), (4, 8), (5, 6), (5, 8)]
    edges += [(6, 9), (7, 9), (7, 10), (8, 10), (9, 11), (10, 11)]
    edges += [(12, leaf) for leaf in range(13, 33)]
    return CSRGraph.from_edges(edges)


def shortest_paths(graph, source, target):
    """Internal vertices of every shortest source-target path, as tuples."""
    adjacency = adjacency_lists(graph)
    distances, counts = oracle_bfs(adjacency, source)

    def from_source(vertex):  # every shortest path to ``vertex``, source left out
        if vertex == source:
            return [()]
        return [
            path + (vertex,)
            for w in adjacency[vertex]
            if distances[w] == distances[vertex] - 1
            for path in from_source(w)
        ]

    paths = [path[:-1] for path in from_source(target)]
    assert len(paths) == counts[target]
    return paths


class TestSameSamplesAsTheEagerReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_kernels_and_reference_on_one_stream(self, family, monkeypatch):
        graph = FAMILIES[family]()
        degrees = np.diff(np.asarray(graph.indptr))
        if family == "rmat-isolated-vertices":
            assert (degrees == 0).any()
        reference = ReferenceBidirectionalSampler(graph)
        outcomes = {}
        for search in SEARCHES if compiled.load()[0] is not None else SEARCHES[1:]:
            rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
            sampler = make_sampler(graph, search, monkeypatch)
            touched, connected = [], []
            for _ in range(250):
                sample = next(sampler.sample_batch(1, rng).iter_samples())
                expected = reference.sample(ref_rng)
                assert (sample.source, sample.target, sample.connected, sample.length) == (
                    expected.source,
                    expected.target,
                    expected.connected,
                    expected.length,
                )
                assert np.array_equal(sample.internal_vertices, expected.internal_vertices)
                assert sample.edges_touched <= expected.edges_touched
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                touched.append(sample.edges_touched)
                connected.append(sample.connected)
            outcomes[search] = touched
        assert len(set(map(tuple, outcomes.values()))) == 1
        if family.endswith("disconnected"):
            assert not all(connected) and any(connected)

    @pytest.mark.parametrize("kernel", SEARCHES)
    def test_backward_closing_scan_lists_cut_edges_in_forward_order(self, kernel, monkeypatch):
        graph = hub_graph()
        degrees = np.diff(np.asarray(graph.indptr))
        sampler = make_sampler(graph, kernel, monkeypatch)
        reference = ReferenceBidirectionalSampler(graph)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        count = 400
        batch = sampler.sample_pairs(np.zeros(count, np.int64), np.full(count, 11), rng)
        # Both roots, {1, 2} and {9, 10}, and the closing scan of {6, 7, 8}:
        # the forward frontier {3, 4, 5, 12} holds the hub and is never read.
        scanned = [0, 1, 2, 6, 7, 8, 9, 10, 11]
        assert set(batch.edges_touched.tolist()) == {int(degrees[scanned].sum())}
        assert degrees[[3, 4, 5, 12]].sum() > degrees[[6, 7, 8]].sum()
        picked = set()
        for sample in batch.iter_samples():
            expected = reference.sample_path(0, 11, ref_rng)
            assert (sample.connected, sample.length) == (True, 5) == (
                expected.connected,
                expected.length,
            )
            assert np.array_equal(sample.internal_vertices, expected.internal_vertices)
            picked.add(tuple(sample.internal_vertices[1:3].tolist()))
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
        assert picked == {(3, 6), (3, 7), (4, 7), (4, 8), (5, 6), (5, 8)}  # every cut edge


def chi_square_critical(df, z=3.0902):
    """Upper 0.1 % point of chi-square(df), Wilson-Hilferty approximation."""
    return df * (1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)) ** 0.5) ** 3


class TestUniformOverShortestPaths:
    """ROADMAP, guarantee-level verification (a): the sampled path is uniform
    over *all* shortest paths, not merely a valid one."""

    @pytest.mark.parametrize("kernel", SEARCHES)
    @pytest.mark.parametrize(
        "make, source, target, expected_paths",
        [(lambda: grid_graph(5, 5), 0, 24, 70), (hub_graph, 0, 11, 11)],
        ids=["grid-corners", "hub"],
    )
    def test_chi_square_against_uniform(
        self, kernel, make, source, target, expected_paths, monkeypatch
    ):
        graph = make()
        paths = shortest_paths(graph, source, target)
        assert len(paths) == len(set(paths)) == expected_paths
        draws = 100 * len(paths)
        sampler = make_sampler(graph, kernel, monkeypatch)
        batch = sampler.sample_pairs(
            np.full(draws, source), np.full(draws, target), np.random.default_rng(2024)
        )
        observed = Counter(
            tuple(batch.contributions_of(i).tolist()) for i in range(batch.num_samples)
        )
        assert set(observed) <= set(paths)
        expected = draws / len(paths)
        statistic = sum((observed[p] - expected) ** 2 / expected for p in paths)
        assert statistic < chi_square_critical(len(paths) - 1)
