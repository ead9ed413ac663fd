"""One compiled call per batch: the same samples from the same stream.

``repro_sample_batch`` draws the pairs from the caller's numpy generator,
searches, walks back and fills the flat arrays of a ``SampleBatch`` for K
samples in one call.  Held here to batches of one and to the numpy search
at every boundary a batch can end or stop on: every batch size, both index
widths, every buffer that grows in the middle of a batch, the two-vertex graph
whose second bounded draw draws nothing, every BitGenerator numpy ships, a
generator that enters or leaves a batch with a buffered 32-bit half, the
pool's reset limit, and two threads drawing whole batches from one generator.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest

from test_compiled_search import biclique_graph
from test_scan_on_expand import FAMILIES, make_sampler
from fixture_graphs import path_graph

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, road_network_graph
from repro.kernels import BatchPathSampler, compiled, scratch

# ``make_sampler(graph, "compiled", ...)`` skips where there is no helper.
needs_helper = pytest.mark.skipif(
    compiled.load()[0] is None, reason=f"no compiled search here: {compiled.load()[1]}"
)

FIELDS = (
    "sources",
    "targets",
    "connected",
    "lengths",
    "edges_touched",
    "contrib_vertices",
    "contrib_indptr",
)
BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")


def assert_same_batch(ours, theirs):
    for name in FIELDS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_same_state(rng_a, rng_b):
    np.testing.assert_equal(rng_a.bit_generator.state, rng_b.bit_generator.state)


def batch_of_single_samples(sampler, k, rng):
    """What ``k`` batches of one return, as the fields of one batch."""
    samples = [next(sampler.sample_batch(1, rng).iter_samples()) for _ in range(k)]
    internal = [s.internal_vertices for s in samples]
    return {
        "sources": [s.source for s in samples],
        "targets": [s.target for s in samples],
        "connected": [s.connected for s in samples],
        "lengths": [s.length for s in samples],
        "edges_touched": [s.edges_touched for s in samples],
        "contrib_vertices": np.concatenate(internal).tolist(),
        "contrib_indptr": np.cumsum([0] + [v.size for v in internal]).tolist(),
    }


def widened(graph):
    return CSRGraph.from_validated_arrays(
        np.asarray(graph.indptr), np.asarray(graph.indices).astype(np.int64)
    )


class TestEveryBatchSizeIsTheSameStream:
    @pytest.mark.parametrize("wide", [False, True], ids=["uint32", "int64"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_batches_single_samples_and_the_numpy_search(self, family, wide, monkeypatch):
        graph = widened(FAMILIES[family]()) if wide else FAMILIES[family]()
        batched = make_sampler(graph, "compiled", monkeypatch)
        single = make_sampler(graph, "compiled", monkeypatch)
        numpy_search = make_sampler(graph, "bidirectional", monkeypatch)
        rngs = [np.random.default_rng(29) for _ in range(3)]
        for k in (1, 2, 7, 32, 1024):
            ours = batched.sample_batch(k, rngs[0])
            one_by_one = batch_of_single_samples(single, k, rngs[1])
            for name in FIELDS:
                assert getattr(ours, name).tolist() == one_by_one[name], (name, k)
            assert_same_state(rngs[0], rngs[1])
            assert_same_batch(ours, numpy_search.sample_batch(k, rngs[2]))
            assert_same_state(rngs[0], rngs[2])

    @pytest.mark.parametrize("family", ["gnm-disconnected", "rmat-hubs", "road", "complete"])
    def test_given_pairs(self, family, monkeypatch):
        graph = FAMILIES[family]()
        n = graph.num_vertices
        pairs = np.random.default_rng(2).integers(0, n, (300, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        ours = make_sampler(graph, "compiled", monkeypatch)
        per_pair = make_sampler(graph, "compiled", monkeypatch)
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        rngs = [np.random.default_rng(31) for _ in range(3)]
        batch = ours.sample_pairs(pairs[:, 0], pairs[:, 1], rngs[0])  # strided views
        assert_same_batch(batch, theirs.sample_pairs(pairs[:, 0], pairs[:, 1], rngs[2]))
        assert_same_state(rngs[0], rngs[2])
        for i, (source, target) in enumerate(pairs.tolist()):
            sample = next(per_pair.sample_pairs([source], [target], rngs[1]).iter_samples())
            assert (sample.source, sample.target) == (source, target)
            assert (sample.connected, sample.length, sample.edges_touched) == (
                bool(batch.connected[i]),
                int(batch.lengths[i]),
                int(batch.edges_touched[i]),
            )
            assert np.array_equal(sample.internal_vertices, batch.contributions_of(i))
        assert_same_state(rngs[0], rngs[1])

    def test_an_empty_batch_of_given_pairs(self, monkeypatch):
        sampler = make_sampler(grid_graph(4, 4), "compiled", monkeypatch)
        rng = np.random.default_rng(0)
        batch = sampler.sample_pairs([], [], rng)
        assert batch.num_samples == 0 and batch.contrib_indptr.tolist() == [0]
        assert_same_state(rng, np.random.default_rng(0))

    @needs_helper
    def test_a_bad_pair_is_refused_by_the_loop_itself(self):
        sampler = BatchPathSampler(grid_graph(4, 4), kernel="bidirectional")
        search = compiled.search_on(sampler.pool, sampler._indptr, sampler._indices)
        rng = np.random.default_rng(0)
        for sources, targets in ([3, 0], [16, 5]), ([-1, 0], [2, 5]), ([7, 0], [7, 5]):
            with pytest.raises(ValueError, match="distinct vertices of the graph"):
                search.sample_batch(sampler.pool, rng, 2, sources, targets)
        with pytest.raises(ValueError, match="not the scratch pool"):
            search.sample_batch(scratch.ScratchPool(16), rng, 2)
        assert_same_state(rng, np.random.default_rng(0))  # nothing was drawn for any of them
        with pytest.raises(ValueError, match="could not broadcast"):
            search.sample_batch(sampler.pool, rng, 3, [0, 1], [5, 6])


@needs_helper
class TestBuffersThatGrowInsideABatch:
    """The batch stops with the pair drawn and nothing else, makes room, and
    resumes: no draw is consumed twice or lost."""

    def check(self, graph, monkeypatch, k, grows, pairs=None, seed=5):
        ours = BatchPathSampler(graph, kernel="bidirectional")
        assert ours.compiled
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        search = compiled.search_on(ours.pool, ours._indptr, ours._indices)
        before = getattr(search, grows).size
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        if pairs is None:
            batch, expected = ours.sample_batch(k, rng_a), theirs.sample_batch(k, rng_b)
        else:
            sources, targets = np.array(pairs * k).T
            batch = ours.sample_pairs(sources, targets, rng_a)
            expected = theirs.sample_pairs(sources, targets, rng_b)
        assert_same_batch(batch, expected)
        assert_same_state(rng_a, rng_b)
        assert getattr(search, grows).size > before
        # One generation per sample and one more per search that ran twice.
        assert ours.pool.generation > batch.num_samples
        return batch

    def test_cut_edges(self, monkeypatch):
        # Adjacent pairs first: the 144 cut edges turn up in the middle of the batch.
        batch = self.check(
            biclique_graph(12), monkeypatch, 6, "_keys", pairs=[(0, 2), (14, 1), (0, 1), (1, 0)]
        )
        assert set(batch.lengths.tolist()) == {1, 3}

    def test_one_long_path(self, monkeypatch):
        batch = self.check(path_graph(9000), monkeypatch, 3, "_contrib", pairs=[(3, 4), (0, 8999)])
        assert batch.lengths.tolist() == [1, 8999] * 3
        assert batch.contrib_vertices.size == 3 * 8998

    def test_many_short_paths(self, monkeypatch):
        batch = self.check(grid_graph(9, 11), monkeypatch, 400, "_contrib")
        assert batch.contrib_vertices.size > 1024  # grown more than once

    def test_a_later_batch_finds_the_room_already_made(self):
        sampler = BatchPathSampler(path_graph(9000), kernel="bidirectional")
        rng = np.random.default_rng(0)
        sampler.sample_pairs([0], [8999], rng)
        generation = sampler.pool.generation
        sampler.sample_pairs([0, 8999], [8999, 0], rng)
        assert sampler.pool.generation == generation + 2


class TestTheBoundedDraw:
    def test_two_vertices_draw_once_per_pair(self, monkeypatch):
        graph = CSRGraph.from_edges([(0, 1)])
        ours = make_sampler(graph, "compiled", monkeypatch)
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for k in (1, 4, 33):
            batch = ours.sample_batch(k, rng_a)
            assert_same_batch(batch, theirs.sample_batch(k, rng_b))
            assert_same_state(rng_a, rng_b)
            assert (batch.sources + batch.targets == 1).all() and batch.connected.all()
        assert len(set(ours.sample_batch(64, rng_a).sources.tolist())) == 2
        # 38 + 64 draws of 32 bits: the generator is back on a 64-bit boundary.
        assert rng_a.bit_generator.state["has_uint32"] == 0

    @pytest.mark.parametrize("name", BIT_GENERATORS)
    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "buffered-half"])
    def test_every_bit_generator_numpy_ships(self, name, pending, monkeypatch):
        graph = road_network_graph(12, 12, seed=4)
        ours = make_sampler(graph, "compiled", monkeypatch)
        theirs = make_sampler(graph, "bidirectional", monkeypatch)
        rng_a, rng_b = (np.random.Generator(getattr(np.random, name)(77)) for _ in range(2))
        if pending:
            assert rng_a.integers(0, 2**32) == rng_b.integers(0, 2**32)
        for k in (1, 6, 40):
            assert_same_batch(ours.sample_batch(k, rng_a), theirs.sample_batch(k, rng_b))
            assert_same_state(rng_a, rng_b)
        assert rng_a.random() == rng_b.random()

    def test_a_buffered_half_on_entry_and_on_exit(self, monkeypatch):
        """PCG64 serves 32-bit draws in halves of one 64-bit output.  A pair
        takes two of them, so a generator that enters a batch holding a half
        leaves it holding one; on two vertices a pair takes one, and every
        odd batch flips it."""
        for graph, k, entry, exit_ in (
            (grid_graph(6, 6), 9, 1, 1),
            (grid_graph(6, 6), 9, 0, 0),
            (CSRGraph.from_edges([(0, 1)]), 5, 0, 1),
            (CSRGraph.from_edges([(0, 1)]), 5, 1, 0),
        ):
            ours = make_sampler(graph, "compiled", monkeypatch)
            theirs = make_sampler(graph, "bidirectional", monkeypatch)
            rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
            if entry:
                rng_a.integers(0, 2**32), rng_b.integers(0, 2**32)
            assert rng_a.bit_generator.state["has_uint32"] == entry
            assert_same_batch(ours.sample_batch(k, rng_a), theirs.sample_batch(k, rng_b))
            assert_same_state(rng_a, rng_b)
            assert rng_a.bit_generator.state["has_uint32"] == exit_


def assert_same_sample(ours, theirs):
    for name in ("source", "target", "connected", "length", "edges_touched"):
        assert getattr(ours, name) == getattr(theirs, name), name
    assert np.array_equal(ours.internal_vertices, theirs.internal_vertices)


@pytest.mark.parametrize("search", ["compiled", "bidirectional", "smallgraph"])
def test_a_batch_that_straddles_the_reset_limit(search, monkeypatch):
    """Marks are wiped when ``generation * span`` reaches the limit (2^62, so:
    never); a batch in C stops short of it and lets the pool do the wipe."""
    graph = grid_graph(7, 8)
    fresh, rng = make_sampler(graph, search, monkeypatch), np.random.default_rng(3)
    batch = fresh.sample_batch(40, rng)
    singles = [next(fresh.sample_batch(1, rng).iter_samples()) for _ in range(7)]

    sampler, rng = make_sampler(graph, search, monkeypatch), np.random.default_rng(3)
    pool = sampler.pool
    monkeypatch.setattr(scratch, "_RESET_LIMIT", 6 * pool.span)  # generations 1 .. 5, then a wipe
    assert_same_batch(sampler.sample_batch(40, rng), batch)
    assert (pool.generations_started, pool.generation) == (40, 5)
    for expected in singles:
        assert_same_sample(next(sampler.sample_batch(1, rng).iter_samples()), expected)
    assert (pool.generations_started, pool.generation) == (47, 2)
    assert max(int(pool.mark_a.max()), int(pool.mark_b.max())) < 6 * pool.span


def test_two_threads_draw_whole_batches_from_one_generator(monkeypatch):
    """The GIL is released for a whole batch; ``rng.bit_generator.lock`` is what
    keeps two threads' draws apart.  Whoever gets the lock takes the next
    batch of the one stream, whole."""
    graph = road_network_graph(40, 40, seed=4)  # large enough that a batch is mostly C
    batches, size, seed = 100, 16, 41

    def signature(batch):
        return tuple(getattr(batch, name).tobytes() for name in FIELDS)

    alone = make_sampler(graph, "compiled", monkeypatch)
    rng = np.random.default_rng(seed)
    expected = Counter(signature(alone.sample_batch(size, rng)) for _ in range(2 * batches))
    after = rng.bit_generator.state

    shared = np.random.default_rng(seed)
    samplers = [make_sampler(graph, "compiled", monkeypatch) for _ in range(2)]
    drawn = [[], []]
    start = threading.Barrier(2, timeout=30)

    def work(sampler, out):
        start.wait()
        for _ in range(batches):
            out.append(signature(sampler.sample_batch(size, shared)))

    # The default switch interval: the draws that would collide run without
    # the GIL, and a thread kept busy handing it over reaches them less often.
    threads = [
        threading.Thread(target=work, args=pair, daemon=True) for pair in zip(samplers, drawn)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(out) for out in drawn] == [batches, batches]
    assert Counter(drawn[0] + drawn[1]) == expected
    assert shared.bit_generator.state == after
