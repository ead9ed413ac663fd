"""The one sigma-BFS level step against stdlib oracles (no optional dependency).

``repro.kernels.scratch.settle_level`` settles every BFS level in the system:
the bidirectional and unidirectional sampling kernels, Brandes' forward pass
and the whole-graph traversal.  These tests hold it to a deque BFS on the
graph shapes that take its different branches (single-vertex frontiers,
repeat-free levels, repeat-heavy levels), hold the kernels built on it to the
reference samplers stream for stream, and pin its call budget: no
``np.unique``, no per-level ``np.memmap`` indexing, no row gathered twice and
none gathered for a frontier the bidirectional search does not expand, one
uniform per backward step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_samplers import ReferenceBidirectionalSampler, ReferenceUnidirectionalSampler
from test_traversal_layer import adjacency_lists, oracle_bfs, sparse_graphs
from fixture_graphs import path_graph, star_graph

import repro.kernels.bidirectional as bidirectional
import repro.kernels.unidirectional as unidirectional
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, road_network_graph
from repro.kernels import BatchPathSampler, ScratchPool
from repro.kernels.scratch import csr_views, gather_csr, gather_rows, settle_level
from repro.kernels.weighted import weighted_index
from repro.sampling.base import sample_vertex_pair
from repro.store.format import open_rcsr, write_rcsr


@st.composite
def random_trees(draw):
    """A random recursive tree: every level is repeat-free."""
    n = draw(st.integers(min_value=2, max_value=40))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return CSRGraph.from_edges(edges, num_vertices=n)


shaped_graphs = st.one_of(
    sparse_graphs().map(lambda pair: pair[0]),  # isolated vertices, several components
    st.integers(2, 30).map(star_graph),  # single-vertex frontier
    st.tuples(st.integers(1, 7), st.integers(1, 7)).map(lambda rc: grid_graph(*rc)),  # repeats
    st.integers(1, 30).map(path_graph),
    random_trees(),
)


class TestAgainstOracle:
    @given(shaped_graphs, st.data(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_fresh_marks_and_sigma(self, graph, data, pooled):
        n = graph.num_vertices
        source = data.draw(st.integers(0, n - 1))
        distances, counts = oracle_bfs(adjacency_lists(graph), source)
        indptr, indptr_hi, indices = csr_views(graph)
        if pooled:  # the kernels' convention: stale marks of older generations
            base = 5 * (n + 2)
            marks = np.arange(n, dtype=np.int64) % base
        else:  # the traversal's convention: -1 is unreached, stamps are levels
            base = 0
            marks = np.full(n, -1, dtype=np.int64)
        plain_marks = marks.copy()
        sigma = np.full(n, 123.0)  # stale values must never leak into a sum
        for m in (marks, plain_marks):
            m[source] = base
        sigma[source] = 1.0

        frontier = np.array([source], dtype=np.int64)
        level = 0
        while True:
            level += 1
            neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
            assert neighbors.dtype == np.int64 and int(degs.sum()) == neighbors.size
            fresh = settle_level(frontier, neighbors, degs, marks, base, base + level, sigma)
            unsummed = settle_level(frontier, neighbors, degs, plain_marks, base, base + level)
            expected = [v for v in range(n) if distances[v] == level]
            for settled in (fresh, unsummed):
                assert settled.dtype == np.int64
                assert settled.tolist() == expected  # sorted, duplicate-free
            if not expected:
                break
            frontier = fresh
        for v in range(n):
            if distances[v] >= 0:
                assert marks[v] == plain_marks[v] == base + distances[v]
                assert sigma[v] == float(counts[v])
            else:
                assert marks[v] == plain_marks[v] < base

    def test_sums_are_added_in_neighbour_order(self):
        # Three edges into vertex 3 with counts that do not add associatively:
        # np.add.at's order (frontier order) is (1e16 + 1) + 1 == 1e16.
        graph = CSRGraph.from_edges([(0, 3), (1, 3), (2, 3)])
        indptr, indptr_hi, indices = csr_views(graph)
        marks = np.array([1, 1, 1, 0], dtype=np.int64)
        sigma = np.array([1e16, 1.0, 1.0, 99.0])
        frontier = np.array([0, 1, 2], dtype=np.int64)
        neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
        fresh = settle_level(frontier, neighbors, degs, marks, 1, 2, sigma)
        assert fresh.tolist() == [3] and marks[3] == 2
        assert sigma[3] == (1e16 + 1.0) + 1.0 != 1e16 + (1.0 + 1.0)


# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def road_pair(tmp_path_factory):
    """A high-diameter graph in memory and the same graph through the store."""
    graph = road_network_graph(14, 14, seed=6)
    mapped = open_rcsr(write_rcsr(graph, tmp_path_factory.mktemp("rcsr") / "road.rcsr"))
    assert isinstance(mapped.indptr, np.memmap) and isinstance(mapped.indices, np.memmap)
    return graph, mapped


REFERENCES = {
    "bidirectional": ReferenceBidirectionalSampler,
    "unidirectional": ReferenceUnidirectionalSampler,
}


class TestKernelsOnTheStep:
    @pytest.mark.parametrize("family", sorted(REFERENCES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stream_as_reference_in_memory_and_mapped(self, road_pair, family, seed):
        reference = REFERENCES[family](road_pair[0])
        for graph in road_pair:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sampler = BatchPathSampler(graph, kernel=family)
            lengths = set()
            for sample in sampler.sample_batch(40, rng).iter_samples():
                expected = reference.sample(ref_rng)
                assert (sample.source, sample.target, sample.connected, sample.length) == (
                    expected.source,
                    expected.target,
                    expected.connected,
                    expected.length,
                )
                assert np.array_equal(sample.internal_vertices, expected.internal_vertices)
                # The references read the rows of every frontier they settle;
                # the bidirectional kernel only of those it expands.
                if family == "unidirectional":
                    assert sample.edges_touched == expected.edges_touched
                else:
                    assert sample.edges_touched <= expected.edges_touched
                lengths.add(sample.length)
            assert len(lengths) > 5  # short and long searches
            assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    @pytest.mark.parametrize("family", sorted(REFERENCES))
    def test_no_unique_and_no_memmap_indexing_while_sampling(self, road_pair, family, monkeypatch):
        sampler = BatchPathSampler(road_pair[1], kernel=family)
        calls = {"unique": 0, "getitem": 0}
        unique, getitem = np.unique, np.memmap.__getitem__

        def counting_unique(*args, **kwargs):
            calls["unique"] += 1
            return unique(*args, **kwargs)

        def counting_getitem(self, index):
            calls["getitem"] += 1
            return getitem(self, index)

        monkeypatch.setattr(np, "unique", counting_unique)
        monkeypatch.setattr(np.memmap, "__getitem__", counting_getitem)
        batch = sampler.sample_batch(30, np.random.default_rng(3))
        assert batch.connected.all() and int(batch.lengths.max()) > 8
        assert calls == {"unique": 0, "getitem": 0}

    @pytest.mark.parametrize(
        "module, kernel", [(bidirectional, "bidirectional"), (unidirectional, "unidirectional")]
    )
    def test_one_gather_per_level(self, road_pair, module, kernel, monkeypatch):
        """No adjacency row is gathered twice, and the bidirectional search
        gathers rows only for a frontier it expands: one gather per settled
        level plus the closing scan, whose rows the edge cut reads as well.

        Drives the numpy kernels by their own names: ``BatchPathSampler`` may
        hand the ``bidirectional`` spec's compiled search out instead, which
        makes no numpy call to count."""
        graph = road_pair[0]
        indptr, _, indices = csr_views(graph)
        sample = getattr(module, f"{kernel}_sample")
        pool = ScratchPool(graph.num_vertices)
        calls = {"settle": 0}
        gathered = []  # row starts, per gather

        def counting_rows(indices, starts, degs, ends):
            gathered.append(starts.tolist())
            return gather_rows(indices, starts, degs, ends)

        def counting_csr(indptr, indices, frontier, indptr_hi):
            gathered.append(indptr[frontier].tolist())
            return gather_csr(indptr, indices, frontier, indptr_hi)

        def counting_settle(*args):
            fresh = settle_level(*args)
            assert fresh.size  # a connected graph: no level comes up empty
            calls["settle"] += 1
            return fresh

        if kernel == "bidirectional":
            monkeypatch.setattr(module, "gather_rows", counting_rows)
        else:
            monkeypatch.setattr(module, "gather_csr", counting_csr)
        monkeypatch.setattr(module, "settle_level", counting_settle)
        rng = np.random.default_rng(8)
        for _ in range(25):
            calls.update(settle=0)
            gathered.clear()
            source, target = sample_vertex_pair(graph.num_vertices, rng)
            _, length, _, edges_touched = sample(indptr, indices, pool, source, target, rng)
            rows = [start for starts in gathered for start in starts]
            assert len(rows) == len(set(rows))
            if kernel == "unidirectional":
                # A truncated BFS gathers and settles exactly ``length`` levels.
                assert (len(gathered), calls["settle"]) == (length, length)
            elif length > 1:
                # Two searches that meet over an edge settled ``length - 1``
                # levels between them; the closing scan settles nothing, and
                # the two deepest frontiers but one are never read.
                assert (len(gathered), calls["settle"]) == (length, length - 1)
                read = np.isin(indptr[:-1], rows)
                assert edges_touched == int(np.diff(indptr)[read].sum())
            else:  # adjacent endpoints: a row slice, no search
                assert (len(gathered), calls["settle"]) == (0, 0)


# --------------------------------------------------------------------------- #
class CountingUniforms:
    """A ``Generator`` stand-in that counts the uniforms drawn from it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return self._rng.random()


def settled_side(graph, root):
    """A fully expanded search side (marks and sigma of a whole BFS)."""
    indptr, indptr_hi, indices = csr_views(graph)
    pool = ScratchPool(graph.num_vertices)
    base = pool.begin_sample()
    side = bidirectional._Side(pool.mark_a, pool.sigma_a, root, base, indptr, indptr_hi)
    while True:
        neighbors = gather_rows(indices, side.starts, side.degs, side.ends)
        fresh = settle_level(
            side.frontier, neighbors, side.degs, side.mark, base, base + side.level + 1, side.sigma
        )
        if fresh.size == 0:
            return indptr, indices, side, base
        side.level += 1
        side.advance(fresh, indptr, indptr_hi)


def weighted_walk(indptr, indices, side, base, start, rng):
    """The backward walk with every step drawn through ``weighted_index``."""
    path, current = [], start
    for depth in range(int(side.mark[start] - base), 1, -1):
        nbrs = indices[indptr[current] : indptr[current + 1]]
        preds = nbrs[side.mark[nbrs] == base + depth - 1]
        weights = side.sigma[preds]
        current = int(preds[weighted_index(weights, float(weights.sum()), rng)])
        path.append(current)
    return path


class TestWalkToRoot:
    @pytest.mark.parametrize(
        "graph, single_predecessor",
        [
            (path_graph(30), True),  # the fast path on every step
            (grid_graph(9, 9), False),  # weighted picks in the interior
            (road_network_graph(10, 10, seed=2), False),  # both, mixed
        ],
        ids=["path", "grid", "road"],
    )
    def test_one_uniform_per_step_whichever_path(self, graph, single_predecessor):
        indptr, indices, side, base = settled_side(graph, 0)
        depths = side.mark - base
        for seed, start in enumerate(np.flatnonzero(depths >= 1)[::3].tolist()):
            rng, ref_rng = CountingUniforms(seed), CountingUniforms(seed)
            path = bidirectional._walk_to_root(indptr, indices, side, base, start, rng)
            assert path == weighted_walk(indptr, indices, side, base, start, ref_rng)
            assert rng.drawn == ref_rng.drawn == len(path) == depths[start] - 1
            assert [int(depths[v]) for v in path] == list(range(int(depths[start]) - 1, 0, -1))
        branching = sum(
            np.count_nonzero(depths[graph.neighbors(v)] == depths[v] - 1) > 1
            for v in range(graph.num_vertices)
        )
        assert (branching == 0) == single_predecessor
