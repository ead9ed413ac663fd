"""The compiled search behind the ``bidirectional`` kernel.

``tests/test_scan_on_expand.py`` holds it to the numpy kernel, the Python
kernel and the eager reference on sixteen graph families.  Here: the inputs
that take its other branches (a mapped graph, ``int64`` indices, a pair in two
components, adjacent and isolated endpoints, path counts beyond 2^53, more cut
edges than the buffer holds), what never reaches C (a malformed CSR, a
generator that is not numpy's), the errors it reports as the numpy kernel's
exceptions, how the helper is built, cached and inherited across a fork - and
that each way of not having it leaves a working numpy search, working numpy
sweeps (``tests/test_sweeps.py`` holds the compiled ones to them) and a line
saying why.  ``tests/test_compiled_batch.py`` holds a whole batch to the
per-sample stream.
"""

from __future__ import annotations

import ctypes
import gc
import os
import re
import stat
import weakref

import numpy as np
import pytest

from test_scan_on_expand import make_sampler
from fixture_graphs import path_graph

from repro.dist.socketcomm import fork_rank, reap
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, road_network_graph
from repro.graph.traversal import bfs_distances, sweep_path
from repro.kernels import BatchPathSampler, compiled, format_kernel_table
from repro.kernels.bidirectional import bidirectional_sample
from repro.kernels.scratch import ScratchPool, csr_views
from repro.sampling.base import sample_vertex_pair
from repro.store.format import open_rcsr, write_rcsr

needs_helper = pytest.mark.skipif(
    compiled.load()[0] is None, reason=f"no compiled search here: {compiled.load()[1]}"
)


BATCH_FIELDS = ("sources", "targets", "connected", "lengths", "edges_touched", "contrib_vertices")


@pytest.fixture
def reloading(monkeypatch):
    """``load()`` runs again under what the test sets up, and again after it."""
    compiled.load.cache_clear()
    yield monkeypatch
    compiled.load.cache_clear()


def assert_same_samples(graph, monkeypatch, *, ours=None, pairs=None, count=200, seed=3):
    """Compiled and numpy search, sample by sample: results and generator state."""
    ours = ours or make_sampler(graph, "compiled", monkeypatch)
    theirs = make_sampler(graph, "bidirectional", monkeypatch)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    batches = []
    for i in range(count):
        if pairs is None:
            a, b = ours.sample_batch(1, rng_a), theirs.sample_batch(1, rng_b)
        else:
            source, target = pairs[i % len(pairs)]
            a = ours.sample_pairs([source], [target], rng_a)
            b = theirs.sample_pairs([source], [target], rng_b)
        for field in BATCH_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        batches.append(a)
    return batches


def biclique_graph(width):
    """``0 - A - B - 1`` with every A-B edge present: ``width**2`` cut edges."""
    side_a = range(2, 2 + width)
    side_b = range(2 + width, 2 + 2 * width)
    edges = [(0, a) for a in side_a] + [(b, 1) for b in side_b]
    edges += [(a, b) for a in side_a for b in side_b]
    return CSRGraph.from_edges(edges)


@needs_helper
class TestSameAsTheNumpySearch:
    def test_memory_mapped_graph(self, tmp_path, monkeypatch):
        write_rcsr(road_network_graph(12, 12, seed=4), tmp_path / "road.rcsr")
        mapped = open_rcsr(tmp_path / "road.rcsr")
        assert mapped.is_memory_mapped
        assert_same_samples(mapped, monkeypatch)

    def test_int64_indices(self, monkeypatch):
        narrow = road_network_graph(10, 10, seed=5)
        wide = CSRGraph.from_validated_arrays(
            np.asarray(narrow.indptr), np.asarray(narrow.indices).astype(np.int64)
        )
        for a, b in zip(
            assert_same_samples(wide, monkeypatch), assert_same_samples(narrow, monkeypatch)
        ):
            assert np.array_equal(a.contrib_vertices, b.contrib_vertices)

    def test_endpoints_that_end_the_search_early(self, monkeypatch):
        # 0-1-2-3 and 4-5 in two components, 6 isolated.
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (4, 5)], num_vertices=7)
        pairs = [(0, 5), (0, 1), (6, 2), (2, 6), (0, 3), (5, 4)]
        batches = assert_same_samples(graph, monkeypatch, pairs=pairs, count=len(pairs))
        outcomes = [(bool(b.connected[0]), int(b.lengths[0])) for b in batches]
        assert outcomes == [(False, 0), (True, 1), (False, 0), (False, 0), (True, 3), (True, 1)]
        assert [int(b.edges_touched[0]) for b in batches[2:4]] == [0, 0]  # isolated: nothing read

    def test_path_counts_beyond_2_to_the_53(self, monkeypatch):
        graph = grid_graph(60, 60)
        corners = [(0, 3599), (59, 3540), (3599, 0)]
        ours = BatchPathSampler(graph, kernel="bidirectional")
        batches = assert_same_samples(graph, monkeypatch, ours=ours, pairs=corners, count=30)
        assert all(int(b.lengths[0]) == 118 for b in batches)
        # C(118, 59) paths in all: the sums are no longer sums of exact integers.
        assert float(ours.pool.sigma_a.max()) > 2.0**53

    def test_sigma_equal_to_numpys_past_2_to_the_53(self, monkeypatch):
        """In a grid no vertex has three predecessors, and a sample survives a
        sigma one ulp off; here a layer's third vertex sums three parents and
        the counts reach about 1e21, so every settled level of both sides is
        compared with numpy's, entry for entry."""
        graph = CSRGraph.from_validated_arrays(*compiled._layered_graph(np.uint32))
        assert graph.num_vertices == 182
        ours = make_sampler(graph, "compiled", monkeypatch)
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        for source, target in ((0, 1), (1, 0)):
            a = ours.sample_pairs([source], [target], np.random.default_rng(2))
            b = theirs.sample_pairs([source], [target], np.random.default_rng(2))
            for field in BATCH_FIELDS:
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert ours.pool.generation == theirs.pool.generation
            base = theirs.pool.generation * theirs.pool.span
            for side in "ab":
                settled = getattr(theirs.pool, f"mark_{side}") >= base
                for name in (f"mark_{side}", f"sigma_{side}"):
                    mine, numpys = getattr(ours.pool, name), getattr(theirs.pool, name)
                    assert np.array_equal(mine[settled], numpys[settled]), name
            assert max(theirs.pool.sigma_a.max(), theirs.pool.sigma_b.max()) > 2.0**66

    def test_more_cut_edges_than_the_buffer_holds(self, monkeypatch):
        graph = biclique_graph(12)
        ours = BatchPathSampler(graph, kernel="bidirectional")
        ours.sample_pairs([0], [2], np.random.default_rng(0))  # adjacent: builds the state
        state = ours.pool.compiled
        before = state._keys.size
        assert before < 144
        batches = assert_same_samples(graph, monkeypatch, pairs=[(0, 1), (1, 0)], count=300)
        assert {int(b.lengths[0]) for b in batches} == {3}
        picked = {tuple(b.contrib_vertices.tolist()) for b in batches}
        assert len(picked) > 100  # of the 144 cut edges, both directions
        generation = ours.pool.generation
        ours.sample_pairs([0], [1], np.random.default_rng(1))
        assert state._keys.size >= 144 > before
        assert ours.pool.generation == generation + 2  # searched, grew, searched again


@needs_helper
def test_a_sampler_is_freed_without_the_cyclic_collector():
    """The search's state hangs off the pool and must not refer back to it:
    a cycle would leave the pool's arrays and the state's buffers (a few
    hundred KB per sampler on the bench graphs) until a full collection."""
    gc.collect()
    gc.disable()
    try:
        sampler = BatchPathSampler(grid_graph(6, 6), kernel="bidirectional")
        sampler.sample_batch(5, np.random.default_rng(0))
        marks, state = weakref.ref(sampler.pool.mark_a), weakref.ref(sampler.pool.compiled)
        assert state() is not None
        del sampler
        assert marks() is None and state() is None
    finally:
        gc.enable()


class TestHostileInput:
    """A malformed CSR raises at construction, whichever search would run."""

    CASES = {
        "indptr[0] must be 0": ([1, 2, 4], [1, 0, 1, 0]),
        "indptr must be non-decreasing": ([0, 3, 2, 4], [1, 2, 0, 0]),
        "indptr[-1] must equal len(indices)": ([0, 2, 9], [1, 0]),
        "out-of-range vertex ids": ([0, 1, 2, 2], [1, 7]),
    }

    @pytest.mark.parametrize("search", ["compiled", "numpy"])
    @pytest.mark.parametrize("message", sorted(CASES))
    def test_malformed_csr_raises_value_error(self, message, search, monkeypatch):
        if search == "numpy":
            monkeypatch.setattr(compiled, "load", lambda: (None, "forced off by the test"))
        indptr, indices = self.CASES[message]
        graph = CSRGraph.from_validated_arrays(
            np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.uint32)
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            BatchPathSampler(graph, kernel="bidirectional")

    def test_negative_int64_index(self):
        graph = CSRGraph.from_validated_arrays(
            np.array([0, 1, 2], dtype=np.int64), np.array([1, -1], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="out-of-range vertex ids"):
            BatchPathSampler(graph, kernel="bidirectional")

    @needs_helper
    @pytest.mark.parametrize("source, target", [(0, 12), (-1, 3), (4, 4), (2**40, 1)])
    def test_endpoints_are_checked_before_the_call(self, source, target):
        indptr, _, indices = csr_views(path_graph(12))
        pool = ScratchPool(12)
        with pytest.raises(ValueError, match="distinct vertices of the graph"):
            compiled.search_on(pool, indptr, indices).sample_batch(
                pool, np.random.default_rng(0), 1, source, target
            )

    @needs_helper
    def test_other_index_dtypes_stay_on_numpy(self):
        graph = path_graph(12)
        odd = CSRGraph.from_validated_arrays(
            np.asarray(graph.indptr), np.asarray(graph.indices).astype(np.int32)
        )
        sampler = BatchPathSampler(odd, kernel="bidirectional")
        assert not sampler.compiled
        assert BatchPathSampler(graph, kernel="bidirectional").compiled
        assert sampler.sample_pairs([0], [11], np.random.default_rng(0)).lengths.tolist() == [11]


class StandInGenerator:
    """Draws like the numpy generator it wraps, without being one."""

    def __init__(self, seed, before_random=lambda: None):
        self.rng = np.random.default_rng(seed)
        self.calls = []
        self._before_random = before_random

    def random(self, size=None, out=None):
        self._before_random()
        self.calls.append("random")
        return self.rng.random(size, out=out)

    def integers(self, low, high):
        self.calls.append("integers")
        return self.rng.integers(low, high)


class BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``, with a ``next_double`` that can be a Python function."""

    NextDouble = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.c_void_p),
        ("next_uint32", ctypes.c_void_p),
        ("next_double", NextDouble),
        ("next_raw", ctypes.c_void_p),
    ]


class TestErrorsAreTheNumpyKernels:
    @pytest.mark.parametrize("search", ["compiled", "bidirectional"])
    def test_a_cut_edge_above_the_deepest_level(self, search, monkeypatch):
        sampler = make_sampler(path_graph(10), search, monkeypatch)
        pool = sampler.pool
        # Vertex 1 looks five levels deep in a target-side search that has
        # only its root.
        pool.mark_b[1] = (pool.generation + 1) * pool.span + 5
        with pytest.raises(AssertionError):
            sampler.sample_pairs([0], [9], np.random.default_rng(0))

    @pytest.mark.parametrize("search", ["compiled", "bidirectional"])
    def test_a_backward_step_without_predecessors(self, search, monkeypatch):
        # Ties go to the source's side: it walks 0 .. 7 and meets the target's
        # search over (7, 8), so the walk back from 7 runs into the marks that
        # the draw for the cut edge wiped.
        sampler = make_sampler(path_graph(10), search, monkeypatch)
        pool = sampler.pool

        def wipe():
            pool.mark_a[1:6] = 0

        rng = StandInGenerator(0, before_random=wipe)
        with pytest.raises(RuntimeError, match="inconsistent sigma values"):
            if search == "bidirectional":
                sampler.sample_pairs([0], [9], rng)
            else:
                # A stand-in never reaches C; a bitgen_t whose next_double is
                # the stand-in's does.  One given pair: (0, 9).
                bitgen = BitGen(next_double=BitGen.NextDouble(lambda _state: rng.random()))
                block = np.array([0, 9, 0, 0, 0, 0], dtype=np.int64)
                search_state = compiled.search_on(pool, sampler._indptr, sampler._indices)
                search_state._draw(pool, ctypes.addressof(bitgen), block, 1, 1)
        assert rng.calls == ["random", "random"]  # the cut edge, the step from 7 to 6

    @needs_helper
    def test_a_stand_in_generator_gets_the_numpy_search(self, monkeypatch):
        """C draws through numpy's function pointers; what has none is served
        by the numpy search, pair by pair, and advanced exactly as it would be
        without a compiler."""
        graph = road_network_graph(10, 10, seed=5)
        ours = make_sampler(graph, "compiled", monkeypatch)
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        real = np.random.default_rng(6)
        stand_in, reference = StandInGenerator(6), StandInGenerator(6)
        for draw in (
            lambda sampler, rng: sampler.sample_batch(9, rng),
            lambda sampler, rng: sampler.sample_pairs([0, 98, 5], [98, 0, 6], rng),
            lambda sampler, rng: sampler.sample_batch(1, rng),
            lambda sampler, rng: sampler.sample_pairs([3], [71], rng),
        ):
            a, b, c = draw(ours, stand_in), draw(theirs, reference), draw(ours, real)
            for field in BATCH_FIELDS:
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
                assert np.array_equal(getattr(a, field), getattr(c, field)), field
            assert stand_in.calls == reference.calls
            assert stand_in.rng.bit_generator.state == real.bit_generator.state
        assert stand_in.calls.count("integers") == 2 * (9 + 1)
        assert ours.pool.compiled is not None  # built for ``real``; the stand-in went past it


def _sample_digest(graph):
    batch = BatchPathSampler(graph, kernel="bidirectional").sample_batch(
        50, np.random.default_rng(21)
    )
    return batch.contrib_vertices.tobytes() + batch.edges_touched.tobytes()


def _child_samples_through_the_inherited_helper(graph, library, digest):
    assert compiled.load.cache_info().currsize == 1  # the parent's answer, not a new build
    assert compiled.load()[0] is library
    assert BatchPathSampler(graph, kernel="bidirectional").compiled
    assert _sample_digest(graph) == digest


def _child_builds_into_an_empty_cache():
    compiled.load.cache_clear()
    library, detail = compiled.load()
    assert library is not None, detail
    assert detail.startswith(os.environ["XDG_CACHE_HOME"])


@needs_helper
class TestBuildCacheAndFork:
    def test_a_forked_child_inherits_the_helper(self):
        graph = road_network_graph(10, 10, seed=6)
        proc = fork_rank(
            _child_samples_through_the_inherited_helper,
            graph,
            compiled.load()[0],
            _sample_digest(graph),
            rank=1,
        )
        reap([proc], grace=60.0)
        assert proc.exitcode == 0

    def test_two_processes_building_at_once(self, tmp_path, reloading):
        compiled.load()  # this process keeps the library it has
        reloading.setenv("XDG_CACHE_HOME", str(tmp_path))
        procs = [fork_rank(_child_builds_into_an_empty_cache, rank=rank) for rank in (1, 2)]
        reap(procs, grace=120.0)
        assert [proc.exitcode for proc in procs] == [0, 0]
        built = sorted(p.name for p in (tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].endswith(".so")  # one file, no temporaries
        assert stat.S_IMODE((tmp_path / "repro").stat().st_mode) == 0o700

    def test_the_cached_file_is_reused(self, tmp_path, reloading):
        reloading.setenv("XDG_CACHE_HOME", str(tmp_path))
        _, first = compiled.load()
        modified = os.stat(first).st_mtime_ns
        compiled.load.cache_clear()
        caller = os.environ.get("CC")
        reloading.setenv("CC", "false")  # same file name needs the same command...
        assert compiled.load()[0] is None
        if caller is None:
            reloading.delenv("CC")
        else:
            reloading.setenv("CC", caller)
        compiled.load.cache_clear()
        assert compiled.load()[1] == first  # ...and with it, nothing is compiled again
        assert os.stat(first).st_mtime_ns == modified


class TestWithoutTheHelper:
    """Each way of not having it: a numpy search that works, and the reason."""

    def check_fallback(self, reason):
        library, detail = compiled.load()
        assert library is None and reason in detail
        assert compiled.describe() == f"bidirectional search and BFS sweeps: numpy ({detail})"
        assert format_kernel_table().endswith(compiled.describe())
        graph = grid_graph(8, 8)
        sampler = BatchPathSampler(graph, kernel="bidirectional")
        assert not sampler.compiled
        assert sweep_path(graph) == "numpy"
        assert bfs_distances(graph, 0).eccentricity == 14
        assert connected_components(graph).num_components == 1
        indptr, _, indices = csr_views(graph)
        pool = ScratchPool(graph.num_vertices)
        rng, direct = np.random.default_rng(4), np.random.default_rng(4)
        batch = sampler.sample_pairs([0, 5, 63], [63, 40, 1], rng)
        for i, (source, target) in enumerate([(0, 63), (5, 40), (63, 1)]):
            _, length, internal, _ = bidirectional_sample(
                indptr, indices, pool, source, target, direct
            )
            assert (int(batch.lengths[i]), batch.contributions_of(i).tolist()) == (length, internal)
        batch = sampler.sample_batch(12, rng)
        for i in range(12):
            source, target = sample_vertex_pair(graph.num_vertices, direct)
            connected, length, internal, touched = bidirectional_sample(
                indptr, indices, pool, source, target, direct
            )
            assert (source, target, connected, length, touched, internal) == (
                int(batch.sources[i]),
                int(batch.targets[i]),
                bool(batch.connected[i]),
                int(batch.lengths[i]),
                int(batch.edges_touched[i]),
                batch.contributions_of(i).tolist(),
            )
        assert rng.bit_generator.state == direct.bit_generator.state

    def test_no_compiler(self, tmp_path, reloading):
        reloading.setenv("XDG_CACHE_HOME", str(tmp_path))
        reloading.setenv("CC", "false")
        self.check_fallback("C compiler 'false' failed")
        reloading.setenv("CC", str(tmp_path / "no-such-compiler"))
        compiled.load.cache_clear()
        self.check_fallback("no C compiler or unusable cache")

    def test_cache_that_cannot_be_written(self, tmp_path, reloading):
        (tmp_path / "file").write_text("not a directory")
        reloading.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        self.check_fallback("unusable cache")

    def test_cache_that_others_can_write(self, tmp_path, reloading):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro").chmod(0o777)
        reloading.setenv("XDG_CACHE_HOME", str(tmp_path))
        self.check_fallback("writable by other users")

    @needs_helper
    def test_failed_self_check(self, reloading):
        reloading.setattr(compiled, "weighted_index", lambda weights, total, rng: 0)
        self.check_fallback("self-check: weighted pick")

    @needs_helper
    def test_a_bounded_draw_off_by_one_takes_search_and_sweeps_with_it(self, reloading):
        bind = compiled._bind

        def bind_off_by_one(path):
            library = bind(path)
            bounded = library.repro_bounded
            library.repro_bounded = lambda bitgen, bound: bounded(bitgen, bound) + 1
            return library

        reloading.setattr(compiled, "_bind", bind_off_by_one)
        self.check_fallback("self-check: bounded draw below 2 from PCG64 differs from numpy's")

    @needs_helper
    def test_a_sweep_that_disagrees_takes_the_search_with_it(self, reloading):
        bind = compiled._bind

        def bind_one_level_short(path):
            library = bind(path)
            sweep = library.repro_sweep
            library.repro_sweep = lambda *args: max(sweep(*args) - 1, 1)
            return library

        reloading.setattr(compiled, "_bind", bind_one_level_short)
        self.check_fallback("self-check: sweep from 0 differs")

    @needs_helper
    def test_with_it_the_table_says_compiled(self):
        assert "bidirectional search and BFS sweeps: compiled (" in format_kernel_table()
        assert sweep_path(grid_graph(8, 8)) == "compiled"
