"""Tests for the batched sampling kernel subsystem (:mod:`repro.kernels`).

Covers the scratch pool, the batch-size policy, weighted-pick
bit-compatibility, the batch/scalar equivalence properties against the
reference (pre-kernel) samplers, the zero-allocation regression, and the
fixed-seed facade equivalence across the refactor.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_samplers import ReferenceBidirectionalSampler, ReferenceUnidirectionalSampler

from repro.api import Resources, estimate_betweenness
from repro.core.state_frame import StateFrame
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert
from repro.kernels import (
    BatchPathSampler,
    ScratchPool,
    gather_csr,
    plan_batches,
    weighted_index,
)
from repro.sampling import draw_vertex_pairs


# --------------------------------------------------------------------------- #
# Allocation counting: the zero-allocation regression fixture
# --------------------------------------------------------------------------- #
@contextmanager
def count_large_allocations(threshold: int):
    """Count numpy array-creation calls of at least ``threshold`` elements.

    Patches the allocating constructors the legacy samplers used per sample
    (``np.full``/``np.zeros``/``np.empty``/``np.ones``); steady-state batch
    sampling must not call any of them with O(n) sizes.
    """
    counts = {"large": 0}
    originals = {name: getattr(np, name) for name in ("full", "zeros", "empty", "ones")}

    def _wrap(name, fn):
        def wrapped(shape, *args, **kwargs):
            size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
            if size >= threshold:
                counts["large"] += 1
            return fn(shape, *args, **kwargs)

        return wrapped

    for name, fn in originals.items():
        setattr(np, name, _wrap(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np, name, fn)


# --------------------------------------------------------------------------- #
# Random-graph strategy shared by the property tests
# --------------------------------------------------------------------------- #
@st.composite
def graph_and_seed(draw):
    """A random graph (sometimes disconnected) plus an RNG seed."""
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    disconnect = draw(st.booleans())
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    if disconnect and len(edges) > 2:
        edges = edges[: len(edges) // 2]
    for _ in range(extra):
        u, w = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != w:
            edges.append((u, w))
    graph = CSRGraph.from_edges(edges, num_vertices=n)
    return graph, seed


class TestScratchPool:
    def test_generation_monotone(self):
        pool = ScratchPool(10)
        bases = [pool.begin_sample() for _ in range(5)]
        assert bases == sorted(bases)
        assert len(set(bases)) == 5
        assert pool.generations_started == 5

    def test_marks_stay_below_new_base(self):
        pool = ScratchPool(4)
        base = pool.begin_sample()
        pool.mark_a[2] = base + 1
        next_base = pool.begin_sample()
        assert pool.mark_a[2] < next_base

    def test_python_state_lazy_and_shared_generation(self):
        pool = ScratchPool(6)
        state = pool.python_state()
        assert state is pool.python_state()  # created once
        base = pool.begin_sample()
        state[0][3] = base
        assert state[0][3] < pool.begin_sample()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ScratchPool(-1)

    def test_gather_csr_matches_slices(self):
        g = barabasi_albert(50, 3, seed=1)
        indptr = np.asarray(g.indptr)
        indices = np.asarray(g.indices)
        for frontier in ([3], [0, 7, 7, 20], list(range(50))):
            f = np.asarray(frontier, dtype=np.int64)
            nbrs, degs = gather_csr(indptr, indices, f)
            expected = np.concatenate(
                [indices[indptr[v] : indptr[v + 1]] for v in frontier]
            )
            assert np.array_equal(nbrs, expected)
            assert int(degs.sum()) == expected.size


class TestBatchPolicy:
    def test_invalid_batch_size_rejected(self):
        for bad in (0, -1, 1.5, "big", True, None):
            with pytest.raises(ValueError):
                list(plan_batches(10, bad))

    def test_plan_batches_sums_exactly(self):
        for total in (0, 1, 31, 32, 33, 1000, 12345):
            sizes = list(plan_batches(total))
            assert sum(sizes) == total
            assert all(s > 0 for s in sizes)

    def test_auto_ramps_up(self):
        sizes = list(plan_batches(10_000))
        assert sizes[0] < sizes[-1] or len(sizes) == 1
        assert sizes[0] == 32
        assert max(sizes) <= 1024

    def test_fixed_batch_size(self):
        assert list(plan_batches(10, 4)) == [4, 4, 2]


class TestWeightedIndexBitCompat:
    def test_matches_generator_choice_and_stream(self):
        """weighted_index replicates rng.choice(a, p=...) bit for bit."""
        for trial in range(500):
            k = int(np.random.default_rng(trial + 1).integers(1, 12))
            weights = np.random.default_rng(trial + 2**20).random(k) + 1e-9
            total = float(weights.sum())
            r1 = np.random.default_rng(trial)
            r2 = np.random.default_rng(trial)
            pick_numpy = int(r1.choice(np.arange(k), p=weights / total))
            pick_ours = weighted_index(weights, total, r2)
            assert pick_numpy == pick_ours
            # Both consumed exactly one uniform draw.
            assert r1.integers(0, 2**62) == r2.integers(0, 2**62)


class TestDrawVertexPairs:
    def test_shape_and_distinct(self, rng):
        pairs = draw_vertex_pairs(10, 500, rng)
        assert pairs.shape == (500, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])
        assert pairs.min() >= 0 and pairs.max() < 10

    def test_roughly_uniform(self, rng):
        pairs = draw_vertex_pairs(5, 4000, rng)
        counts = np.zeros((5, 5))
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        off = counts[~np.eye(5, dtype=bool)]
        assert off.min() > 0.5 * off.mean()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            draw_vertex_pairs(1, 3, rng)
        with pytest.raises(ValueError):
            draw_vertex_pairs(5, -1, rng)
        assert draw_vertex_pairs(5, 0, rng).shape == (0, 2)


class TestBatchScalarEquivalence:
    """Satellite: batch kernel == scalar reference, fixed seed, same stream."""

    @given(graph_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_bidirectional_batch_matches_reference_stream(self, data):
        graph, seed = data
        batch_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        sampler = BatchPathSampler(graph)
        batch = sampler.sample_batch(12, batch_rng)
        reference = ReferenceBidirectionalSampler(graph)
        for i, sample in enumerate(batch.iter_samples()):
            expected = reference.sample(ref_rng)
            assert sample.source == expected.source
            assert sample.target == expected.target
            assert sample.connected == expected.connected
            assert sample.length == expected.length
            # The reference reads the rows of every frontier it settles, the
            # kernels only of those they expand.
            assert sample.edges_touched <= expected.edges_touched
            assert np.array_equal(sample.internal_vertices, expected.internal_vertices)
        # The generators advanced identically: batching is stream-transparent.
        assert batch_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    @given(graph_and_seed())
    @settings(max_examples=40, deadline=None)
    def test_unidirectional_sample_matches_reference(self, data):
        graph, seed = data
        r1 = np.random.default_rng(seed)
        r2 = np.random.default_rng(seed)
        sampler = BatchPathSampler(graph, kernel="unidirectional")
        reference = ReferenceUnidirectionalSampler(graph)
        for _ in range(15):
            a = next(sampler.sample_batch(1, r1).iter_samples())
            b = reference.sample(r2)
            assert (a.source, a.target, a.connected, a.length, a.edges_touched) == (
                b.source,
                b.target,
                b.connected,
                b.length,
                b.edges_touched,
            )
            assert np.array_equal(a.internal_vertices, b.internal_vertices)

    @given(graph_and_seed())
    @settings(max_examples=40, deadline=None)
    def test_numpy_kernel_matches_python_kernel(self, data):
        """The large-graph numpy kernel and the small-graph Python kernel
        agree sample for sample on the same stream."""
        from repro.kernels.bidirectional import bidirectional_sample

        graph, seed = data
        py_sampler = BatchPathSampler(graph, kernel="smallgraph")
        pool = ScratchPool(graph.num_vertices)
        indptr = np.asarray(graph.indptr)
        indices = np.asarray(graph.indices)
        rng = np.random.default_rng(seed)
        pairs = draw_vertex_pairs(graph.num_vertices, 10, rng)
        for s, t in pairs:
            r1 = np.random.default_rng(seed + int(s))
            r2 = np.random.default_rng(seed + int(s))
            a = next(py_sampler.sample_pairs([s], [t], r1).iter_samples())
            connected, length, internal, edges = bidirectional_sample(
                indptr, indices, pool, int(s), int(t), r2
            )
            assert a.connected == connected
            assert a.length == length
            assert a.edges_touched == edges
            assert list(a.internal_vertices) == list(internal)

    def test_adjacent_and_disconnected_pairs(self, rng):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        sampler = BatchPathSampler(g)
        batch = sampler.sample_pairs([0, 0, 0], [1, 2, 4], rng)
        assert batch.connected.tolist() == [True, True, False]
        assert batch.lengths.tolist() == [1, 2, 0]
        assert batch.contributions_of(0).size == 0  # adjacent: no internals
        assert batch.contributions_of(1).tolist() == [1]
        assert batch.contributions_of(2).size == 0  # disconnected

    def test_batch_accumulates_like_scalar_recording(self, small_social_graph, rng):
        sampler = BatchPathSampler(small_social_graph)
        batch = sampler.sample_batch(64, rng)
        via_batch = StateFrame.zeros(small_social_graph.num_vertices)
        via_batch.record_batch(batch)
        via_scalar = StateFrame.zeros(small_social_graph.num_vertices)
        for sample in batch.iter_samples():
            via_scalar.record_sample(
                sample.internal_vertices, edges_touched=sample.edges_touched
            )
        assert via_batch.num_samples == via_scalar.num_samples
        assert via_batch.edges_touched == via_scalar.edges_touched
        assert np.array_equal(via_batch.counts, via_scalar.counts)

    def test_sample_ids_align_with_indptr(self, small_social_graph, rng):
        batch = BatchPathSampler(small_social_graph).sample_batch(20, rng)
        ids = batch.sample_ids
        assert ids.size == batch.contrib_vertices.size
        for i in range(batch.num_samples):
            span = slice(batch.contrib_indptr[i], batch.contrib_indptr[i + 1])
            assert np.all(ids[span] == i)

    def test_validation(self, small_social_graph, rng):
        sampler = BatchPathSampler(small_social_graph)
        with pytest.raises(ValueError):
            sampler.sample_batch(0, rng)
        with pytest.raises(ValueError):
            sampler.sample_pairs([0], [10**9], rng)
        with pytest.raises(ValueError):
            sampler.sample_pairs([0], [0], rng)
        with pytest.raises(ValueError):
            BatchPathSampler(small_social_graph, kernel="dijkstra")
        with pytest.raises(ValueError):
            BatchPathSampler(CSRGraph.empty(1))
        with pytest.raises(ValueError):
            BatchPathSampler(small_social_graph, pool=ScratchPool(3))

    def test_interleaved_draw_statistically_sound(self, small_social_graph):
        """Drawing each pair right before its search yields an unbiased estimator."""
        from repro.baselines import brandes_betweenness

        exact = brandes_betweenness(small_social_graph).scores
        sampler = BatchPathSampler(small_social_graph)
        frame = StateFrame.zeros(small_social_graph.num_vertices)
        rng = np.random.default_rng(7)
        frame.record_batch(sampler.sample_batch(3000, rng))
        assert np.max(np.abs(frame.betweenness_estimates() - exact)) < 0.06

    def test_one_pair_draw_only(self, small_social_graph):
        with pytest.raises(TypeError):
            BatchPathSampler(small_social_graph, pair_strategy="vectorized")


class TestZeroAllocationRegression:
    """Satellite: steady-state sampling performs no O(n) allocations."""

    N = 3000

    def _graph(self):
        return barabasi_albert(self.N, 3, seed=5)

    def test_batch_sampler_steady_state_no_large_allocations(self):
        graph = self._graph()
        sampler = BatchPathSampler(graph)
        rng = np.random.default_rng(0)
        sampler.sample_batch(8, rng)  # warm up: pool + buffers exist now
        with count_large_allocations(self.N) as counts:
            sampler.sample_batch(64, rng)
        assert counts["large"] == 0

    def test_scalar_sample_steady_state_no_large_allocations(self):
        graph = self._graph()
        sampler = BatchPathSampler(graph)
        rng = np.random.default_rng(0)
        sampler.sample_batch(1, rng)
        with count_large_allocations(self.N) as counts:
            for _ in range(32):
                sampler.sample_batch(1, rng)
        assert counts["large"] == 0

    def test_reference_sampler_does_allocate(self):
        """Sanity check that the fixture actually measures something."""
        graph = self._graph()
        sampler = ReferenceBidirectionalSampler(graph)
        rng = np.random.default_rng(0)
        with count_large_allocations(self.N) as counts:
            sampler.sample(rng)
        assert counts["large"] >= 4  # two distance + two sigma arrays


class TestFacadeEquivalence:
    """Acceptance: fixed-seed facade runs identical before/after the refactor.

    The digests below were captured at the pre-kernel commit (PR 2 head) by
    running exactly these calls; the refactored pipeline must reproduce them
    bit for bit.
    """

    KW = dict(eps=0.1, delta=0.1, seed=42, calibration_samples=200, max_samples_override=4000)
    SEQ_DIGEST = "888f1727e771a1c67b1cca822d6906192cf6151fd8be53c03f5fbd2819ea4c13"

    @staticmethod
    def _digest(scores: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest()

    @pytest.fixture(scope="class")
    def example_graph(self):
        from pathlib import Path

        from repro.graph.io import read_edge_list

        path = Path(__file__).resolve().parent.parent / "examples" / "data" / "example-social.txt"
        return read_edge_list(path)

    def test_auto_and_sequential_match_pre_refactor(self, example_graph):
        result = estimate_betweenness(example_graph, algorithm="auto", **self.KW)
        assert result.backend == "sequential"
        assert result.num_samples == 300
        assert self._digest(result.scores) == self.SEQ_DIGEST

    def test_shared_memory_matches_pre_refactor(self, example_graph):
        """One thread is one worker: the sequential computation, stopped at omega."""
        result = estimate_betweenness(
            example_graph,
            algorithm="shared-memory",
            resources=Resources(threads=1),
            **self.KW,
        )
        assert result.num_samples == 300 <= result.omega
        assert self._digest(result.scores) == self.SEQ_DIGEST
