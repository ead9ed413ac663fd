"""The compiled whole-graph sweep against the numpy level loop.

``tests/test_traversal_layer.py`` holds both to stdlib oracles on small random
graphs.  Here: the diameter bound - the one number of phase 1 that fixes omega
- and every ``BFSResult`` field are equal across the two paths on the
benchmark's graph families and on families whose searches take bottom-up
levels, for forty seeds; any stamp and step agree with ``numpy_sweep`` on
random graphs; a library whose bottom-up half is wrong is refused at load; a
memory-mapped ``.rcsr`` whose arrays were corrupted after it was written ends
in ``ValueError`` on either path, never in a read or write out of bounds; and a
trace says which path ran.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_compiled_search import needs_helper
from test_traversal_layer import SWEEPS, forced, path_plus_triangle, retyped
from fixture_graphs import complete_graph, erdos_renyi_gnp, star_graph

import repro
from repro.diameter import double_sweep_estimate, vertex_diameter_upper_bound
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_connected_component,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    rmat_graph,
    road_network_graph,
)
from repro.graph.traversal import bfs_distances, numpy_sweep, sweep_path
from repro.kernels import compiled
from repro.kernels.scratch import csr_views
from repro.obs import disable_tracing, enable_tracing
from repro.store.format import open_rcsr, read_header, write_rcsr


def lollipop():
    """A 40-clique with a 60-vertex path attached: one bottom-up level amid top-down ones."""
    clique = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    return CSRGraph.from_edges(clique + [(v, v + 1) for v in range(39, 99)], num_vertices=100)


def islands_and_one_dense():
    """200 three-vertex paths, then a dense G(150, 0.2) on the last 150 ids."""
    paths = [(3 * i + a, 3 * i + a + 1) for i in range(200) for a in (0, 1)]
    dense = erdos_renyi_gnp(150, 0.2, seed=4).edge_array() + 600
    return CSRGraph.from_edges(np.concatenate([np.array(paths), dense]), num_vertices=750)


FAMILIES = {
    "rmat": lambda: largest_connected_component(rmat_graph(10, edge_factor=8, seed=3)),
    "rmat-with-its-small-components": lambda: rmat_graph(9, edge_factor=2, seed=5),
    "road": lambda: road_network_graph(30, 30, seed=3),
    "barabasi-albert": lambda: barabasi_albert(500, 3, seed=3),
    "path-plus-triangle": path_plus_triangle,
    # Searches here take bottom-up levels (see BOTTOM_UP below): the star's
    # and the clique's last level, and levels amid top-down ones in the rest.
    "star": lambda: star_graph(300),
    "clique": lambda: complete_graph(60),
    "rmat-scale-12-hubs": lambda: rmat_graph(12, edge_factor=8, seed=2),
    "lollipop": lollipop,
    "islands-and-one-dense": islands_and_one_dense,
}


def directions(indptr, levels):
    """Which levels ``repro_sweep`` runs bottom-up, by its rule, from the levels of a search.

    A level goes bottom-up when its frontier holds at least n / 24 vertices
    and its rows more than 1 / 14 of the entries not in the rows of the levels
    before it.
    """
    n, unexplored, bottom_up = indptr.size - 1, int(indptr[-1]), []
    for level in levels:
        entries = int((indptr[level + 1] - indptr[level]).sum())
        bottom_up.append(level.size * 24 >= n and entries * 14 > unexplored)
        unexplored = max(unexplored - entries, 0)
    return bottom_up


def pattern(graph, source):
    """``"T"``/``"B"`` per level of a search from ``source``: top-down or bottom-up."""
    indptr, indptr_hi, indices = csr_views(graph)
    marks = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels = numpy_sweep((indptr, indptr_hi, indices), marks, source, 0, 1)
    return "".join("B" if up else "T" for up in directions(indptr, levels))


#: Families where the rule fires, and a search of each that takes these directions.
BOTTOM_UP = {
    "star": (0, "TB"),
    "clique": (7, "TB"),
    "rmat-scale-12-hubs": (142, "TTBBT"),
    "lollipop": (3, "TB" + "T" * 60),
    "islands-and-one-dense": (712, "TTBT"),
}


@pytest.mark.parametrize("family", sorted(BOTTOM_UP))
def test_the_rule_fires_on_these_families(family):
    source, expected = BOTTOM_UP[family]
    assert pattern(FAMILIES[family](), source) == expected


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


def assert_same_sweep(ours, csr, marks, source, stamp, step):
    """The compiled sweep and ``numpy_sweep`` on copies of ``marks``: marks and levels; ours kept."""
    theirs = marks.copy()
    levels = ours(marks, source, stamp, step)
    expected = numpy_sweep(csr, theirs, source, stamp, step)
    assert np.array_equal(marks, theirs)
    assert [level.tolist() for level in levels] == [level.tolist() for level in expected]


@st.composite
def dense_enough_graphs(draw):
    """Random graphs, some dense enough that most levels run bottom-up, in either index dtype."""
    n = draw(st.integers(min_value=1, max_value=60))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    return retyped(CSRGraph.from_edges(edges, num_vertices=n), dtype)


@needs_helper
@given(dense_enough_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_any_stamp_and_step_against_numpy(graph, data):
    n = graph.num_vertices
    indptr, indptr_hi, indices = csr = csr_views(graph)
    ours = compiled.Sweep(compiled.load()[0], indptr, indices)
    # Distances stamped from a non-zero base, two apart.
    source, stamp = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 10**6))
    assert_same_sweep(ours, csr, np.full(n, -1, dtype=np.int64), source, stamp, 2)
    # A component labelling into one shared array, roots in a drawn order:
    # every later search meets components stamped before it.
    labels, first = np.full(n, -1, dtype=np.int64), data.draw(st.integers(0, 1000))
    for label, root in enumerate(data.draw(st.permutations(range(n)))):
        if labels[root] < 0:
            assert_same_sweep(ours, csr, labels, root, first + label, 0)
    assert np.all(labels >= first)


@needs_helper
def test_the_self_check_graph_runs_both_directions():
    """``_check_sweeps`` meets a bottom-up level and a later top-down one, on either index width."""
    for dtype in (np.uint32, np.int64):
        indptr, indices = compiled._check_graph(dtype)
        graph = CSRGraph.from_validated_arrays(indptr, indices)
        assert pattern(graph, 1) == "TBBBBBT"  # distances from vertex 1
        assert pattern(graph, 0) == "TBBBBB"  # and the labelling's first search


#: Ways to get the bottom-up half wrong, as edits of ``_bidirectional.c``.
BOTTOM_UP_MUTATIONS = {
    "stamps each hit during the scan": (
        "order[tail++] = v;\n",
        "order[tail++] = v;\n                        mark[v] = next;\n",
    ),
    "scans on after the first hit": (
        "entries += (uint64_t)(hi - lo);\n                        break;\n",
        "entries += (uint64_t)(hi - lo);\n",
    ),
    "skips vertex 0": ("for (int64_t v = 0; v < n; v++) {", "for (int64_t v = 1; v < n; v++) {"),
    "looks for the next level's stamp": ("if (mark[u] == current) {", "if (mark[u] == next) {"),
}


@needs_helper
@pytest.mark.parametrize("mutation", sorted(BOTTOM_UP_MUTATIONS))
def test_a_wrong_bottom_up_half_is_refused(tmp_path, monkeypatch, mutation):
    original, broken = BOTTOM_UP_MUTATIONS[mutation]
    source = compiled._SOURCE.read_text()
    assert source.count(original) == 1
    mutated = tmp_path / "_bidirectional.c"
    mutated.write_text(source.replace(original, broken))
    monkeypatch.setattr(compiled, "_SOURCE", mutated)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    compiled.load.cache_clear()
    try:
        library, detail = compiled.load()
        assert library is None and detail.startswith("self-check: sweep from")
        assert sweep_path(FAMILIES["clique"]()) == "numpy"
    finally:
        compiled.load.cache_clear()  # the next load() builds from the real source again


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

    #: What goes wrong with the row of ``vertex`` (and, for indptr, the row before it).
    CORRUPTIONS = {
        "a neighbour id >= n": lambda g, vertex: ("indices", int(g.indptr[vertex]), g.num_vertices),
        "a decreasing indptr pair": lambda g, vertex: ("indptr", vertex, int(g.indptr[vertex + 1]) + 1),
        "an indptr entry past len(indices)": lambda g, vertex: ("indptr", vertex, len(g.indices) + 7),
    }

    def mapped(self, graph, tmp_path, corruption, vertex):
        path = write_rcsr(graph, tmp_path / "graph.rcsr")
        corrupt(path, *self.CORRUPTIONS[corruption](graph, vertex))
        mapped = open_rcsr(path)
        assert isinstance(mapped.indices, np.memmap)
        return mapped

    @pytest.mark.parametrize("sweep", SWEEPS)
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_a_corrupted_map_raises_value_error(self, tmp_path, corruption, dtype, sweep):
        graph = retyped(road_network_graph(20, 20, seed=6), dtype)
        assert is_connected(graph)  # so every search reaches vertex 200
        last = graph.num_vertices - 1
        mapped = self.mapped(graph, tmp_path, corruption, 200)
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
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_a_row_a_bottom_up_level_reads_first(self, tmp_path, corruption, dtype, sweep):
        graph = retyped(FAMILIES["rmat-scale-12-hubs"](), dtype)
        source = BOTTOM_UP["rmat-scale-12-hubs"][0]
        assert pattern(graph, source) == "TTBBT"
        # The first vertex, after its lower neighbour id, that level 3 or later
        # reaches: both rows are still unvisited when level 2 runs bottom-up,
        # and no top-down level reads them before.
        late = bfs_distances(graph, source).distances > 2
        vertex = int(np.flatnonzero(late[1:] & late[:-1])[0]) + 1
        mapped = self.mapped(graph, tmp_path, corruption, vertex)
        with forced(sweep), pytest.raises(ValueError, match="malformed CSR|indptr|out-of-range"):
            bfs_distances(mapped, source)

    @needs_helper
    @pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_a_row_in_a_component_the_search_never_reaches(self, tmp_path, corruption, dtype):
        # Vertex 4 is the middle of the second three-vertex path.
        graph = retyped(islands_and_one_dense(), dtype)
        mapped = self.mapped(graph, tmp_path, corruption, 4)
        indptr, indptr_hi, indices = csr_views(mapped)
        with forced("numpy"), pytest.raises(ValueError, match="indptr|out-of-range"):
            bfs_distances(mapped, 600)  # validate_csr reads everything first
        for source in (0, 300, 600, 651, 712, 749):
            marks = np.full(mapped.num_vertices, -1, dtype=np.int64)
            theirs = numpy_sweep((indptr, indptr_hi, indices), marks, source, 0, 1)  # top-down only
            # A bottom-up level reads the rows of every unvisited vertex, so
            # the compiled search raises exactly when its rule takes one.
            if "B" in pattern(mapped, source):
                with pytest.raises(ValueError, match="malformed CSR"):
                    bfs_distances(mapped, source)
            else:
                ours = bfs_distances(mapped, source, keep_levels=True).levels
                assert [level.tolist() for level in ours] == [level.tolist() for level in theirs]
        assert {"B" in pattern(mapped, source) for source in (0, 712)} == {False, True}

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
