"""The compiled whole-graph sweep against the numpy level loop.

``tests/test_traversal_layer.py`` holds both to stdlib oracles on small random
graphs.  Here: the diameter bound - the one number of phase 1 that fixes omega
- and every ``BFSResult`` field are equal across the two paths on the
benchmark's graph families for forty seeds; a memory-mapped ``.rcsr`` whose
arrays were corrupted after it was written ends in ``ValueError`` on either
path, never in a read or write out of bounds; and a trace says which path ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_compiled_search import needs_helper
from test_traversal_layer import SWEEPS, forced, path_plus_triangle, retyped

import repro
from repro.diameter import double_sweep_estimate, vertex_diameter_upper_bound
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, rmat_graph, road_network_graph
from repro.graph.traversal import bfs_distances, sweep_path
from repro.kernels import compiled
from repro.kernels.scratch import csr_views
from repro.obs import disable_tracing, enable_tracing
from repro.store.format import open_rcsr, read_header, write_rcsr

FAMILIES = {
    "rmat": lambda: largest_connected_component(rmat_graph(10, edge_factor=8, seed=3)),
    "rmat-with-its-small-components": lambda: rmat_graph(9, edge_factor=2, seed=5),
    "road": lambda: road_network_graph(30, 30, seed=3),
    "barabasi-albert": lambda: barabasi_albert(500, 3, seed=3),
    "path-plus-triangle": path_plus_triangle,
}


@needs_helper
@pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestSameAsTheNumpyLoop:
    def test_the_bound_for_forty_seeds(self, family, dtype):
        graph = retyped(FAMILIES[family](), dtype)
        answers = {}
        for sweep in SWEEPS:
            with forced(sweep):
                assert sweep_path(graph) == sweep
                answers[sweep] = [
                    (double_sweep_estimate(graph, seed=seed), vertex_diameter_upper_bound(graph, seed=seed))
                    for seed in range(40)
                ]
        assert answers["compiled"] == answers["numpy"]

    def test_every_field_of_a_sweep_and_the_components(self, family, dtype):
        graph = retyped(FAMILIES[family](), dtype)
        sources = np.random.default_rng(1).integers(0, graph.num_vertices, 12).tolist()
        for source in sources:
            with forced("numpy"):
                theirs = bfs_distances(graph, source, keep_levels=True)
            ours = bfs_distances(graph, source, keep_levels=True)
            assert np.array_equal(ours.distances, theirs.distances)
            assert ours.distances.dtype == theirs.distances.dtype
            assert len(ours.levels) == len(theirs.levels)
            for a, b in zip(ours.levels, theirs.levels):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(ours.deepest, theirs.deepest)
            assert (ours.eccentricity, ours.num_reached) == (theirs.eccentricity, theirs.num_reached)
        with forced("numpy"):
            theirs = connected_components(graph)
        ours = connected_components(graph)
        assert np.array_equal(ours.labels, theirs.labels)
        assert np.array_equal(ours.sizes, theirs.sizes)


@needs_helper
def test_a_result_does_not_hold_on_to_the_sweep_buffer():
    graph = road_network_graph(30, 30, seed=3)
    result = bfs_distances(graph, 0, keep_levels=True)
    held = {id(level.base) for level in result.levels} | {id(result.deepest.base)}
    assert len(held) == 1  # one array of the reached vertices, cut into levels
    assert result.levels[0].base.size == result.num_reached


# --------------------------------------------------------------------------- #
# Hostile input
# --------------------------------------------------------------------------- #
def corrupt(path, section, position, value):
    """Overwrite one entry of a written ``.rcsr`` section in place."""
    header = read_header(path)
    offset, dtype = {
        "indptr": (header.indptr_offset, header.indptr_dtype),
        "indices": (header.indices_offset, header.indices_dtype),
    }[section]
    with open(path, "r+b") as handle:
        handle.seek(offset + position * dtype.itemsize)
        handle.write(np.array([value], dtype=dtype).tobytes())


class TestHostileInput:
    """A mapped file is opened unvalidated and phase 1 is the first to read it."""

    CORRUPTIONS = {
        "a neighbour id >= n": lambda g: ("indices", int(g.indptr[200]), g.num_vertices),
        "a decreasing indptr pair": lambda g: ("indptr", 200, int(g.indptr[201]) + 1),
        "an indptr entry past len(indices)": lambda g: ("indptr", 200, len(g.indices) + 7),
    }

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_a_corrupted_map_raises_value_error(self, tmp_path, corruption, dtype, sweep):
        graph = retyped(road_network_graph(20, 20, seed=6), dtype)
        assert is_connected(graph)  # so every search reaches vertex 200
        last = graph.num_vertices - 1
        path = write_rcsr(graph, tmp_path / "road.rcsr")
        corrupt(path, *self.CORRUPTIONS[corruption](graph))
        mapped = open_rcsr(path)
        assert isinstance(mapped.indices, np.memmap)
        with forced(sweep):
            assert sweep_path(mapped) == sweep
            for call in (
                lambda: bfs_distances(mapped, 0),
                lambda: bfs_distances(mapped, last, keep_levels=True),
                lambda: vertex_diameter_upper_bound(mapped, seed=4),
                lambda: connected_components(mapped),
            ):
                with pytest.raises(ValueError, match="malformed CSR|indptr|out-of-range"):
                    call()

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_a_negative_neighbour_id(self, sweep):
        graph = CSRGraph.from_validated_arrays(
            np.array([0, 1, 2], dtype=np.int64), np.array([1, -1], dtype=np.int64)
        )
        with forced(sweep), pytest.raises(ValueError, match="out-of-range"):
            bfs_distances(graph, 0)

    @needs_helper
    def test_the_sweep_checks_its_own_arguments(self):
        indptr, _, indices = csr_views(path_plus_triangle())
        sweep = compiled.Sweep(compiled.load()[0], indptr, indices)
        marks = np.full(53, -1, dtype=np.int64)
        for source, stamp, step in [(53, 0, 1), (-1, 0, 1), (0, -2, 1), (0, 0, -1)]:
            with pytest.raises(ValueError, match="source must be a vertex"):
                sweep(marks, source, stamp, step)
        frozen = marks.copy()
        frozen.flags.writeable = False
        for wrong in (marks[:-1], marks.astype(np.int32), np.full(106, -1, dtype=np.int64)[::2], frozen):
            with pytest.raises(ValueError, match="marks must be"):
                sweep(wrong, 0, 0, 1)
        assert np.all(marks == -1)
        assert [level.tolist() for level in sweep(marks, 51, 7, 0)] == [[51], [50, 52]]
        assert np.flatnonzero(marks == 7).tolist() == [50, 51, 52]


# --------------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------------- #
def spans_named(tree, name):
    if tree["name"] == name:
        yield tree
    for child in tree.get("children", ()):
        yield from spans_named(child, name)


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("algorithm, resources", [("sequential", {}), ("shared-memory", {"threads": 2})])
def test_the_diameter_span_names_the_path(algorithm, resources, sweep):
    graph = barabasi_albert(300, 3, seed=1)
    trees = []
    enable_tracing(sink=trees.append)
    try:
        with forced(sweep):
            repro.estimate_betweenness(
                graph, algorithm=algorithm, eps=0.3, seed=1, resources=repro.Resources(**resources)
            )
    finally:
        disable_tracing()
    spans = [span for tree in trees for span in spans_named(tree, "diameter")]
    assert [span["attrs"]["sweep"] for span in spans if span["attrs"].get("rank", 0) == 0] == [sweep]
