"""Unit tests for state frames (the aggregation unit of the parallel algorithms)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state_frame import StateFrame
from repro.parallel import FramePool


class TestStateFrame:
    def test_zeros(self):
        frame = StateFrame.zeros(5)
        assert frame.num_samples == 0
        assert frame.num_vertices == 5
        assert frame.is_empty
        assert np.all(frame.counts == 0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            StateFrame.zeros(-1)

    def test_record_sample(self):
        frame = StateFrame.zeros(5)
        frame.record_sample(np.array([1, 3]), edges_touched=10)
        frame.record_sample(np.array([3]), edges_touched=5)
        frame.record_sample(np.array([], dtype=np.int64))
        assert frame.num_samples == 3
        assert frame.edges_touched == 15
        assert list(frame.counts) == [0, 1, 0, 2, 0]

    def test_record_sample_accepts_none_and_lists(self):
        frame = StateFrame.zeros(3)
        frame.record_sample(None)
        frame.record_sample([0, 2])
        assert frame.num_samples == 2
        assert list(frame.counts) == [1, 0, 1]

    def test_addition(self):
        a = StateFrame.zeros(4)
        b = StateFrame.zeros(4)
        a.record_sample([0, 1])
        b.record_sample([1, 2])
        b.record_sample([2])
        total = a + b
        assert total.num_samples == 3
        assert list(total.counts) == [1, 2, 2, 0]
        # Original frames unchanged by +.
        assert a.num_samples == 1 and b.num_samples == 2

    def test_add_into_returns_self(self):
        a = StateFrame.zeros(2)
        b = StateFrame.zeros(2)
        b.record_sample([1])
        assert a.add_into(b) is a
        assert a.num_samples == 1

    def test_iadd(self):
        a = StateFrame.zeros(2)
        b = StateFrame.zeros(2)
        b.record_sample([0])
        a += b
        assert a.num_samples == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateFrame.zeros(2).add_into(StateFrame.zeros(3))

    def test_copy_is_deep(self):
        a = StateFrame.zeros(3)
        a.record_sample([1])
        b = a.copy()
        b.record_sample([2])
        assert a.num_samples == 1
        assert a.counts[2] == 0

    def test_reset(self):
        frame = StateFrame.zeros(3)
        frame.record_sample([0, 1], edges_touched=4)
        frame.reset()
        assert frame.is_empty
        assert frame.edges_touched == 0
        assert np.all(frame.counts == 0)

    def test_betweenness_estimates(self):
        frame = StateFrame.zeros(4)
        frame.record_sample([0])
        frame.record_sample([0, 2])
        estimates = frame.betweenness_estimates()
        assert estimates[0] == pytest.approx(1.0)
        assert estimates[2] == pytest.approx(0.5)
        assert estimates[3] == 0.0

    def test_betweenness_estimates_empty(self):
        assert np.all(StateFrame.zeros(3).betweenness_estimates() == 0)

    def test_serialized_bytes(self):
        frame = StateFrame.zeros(100)
        assert frame.serialized_bytes() == 100 * 8 + 8

    def test_repr(self):
        frame = StateFrame.zeros(3)
        frame.record_sample([1])
        assert "tau=1" in repr(frame)

    def test_aggregation_associative_and_commutative(self):
        rng = np.random.default_rng(0)
        frames = []
        for _ in range(4):
            frame = StateFrame.zeros(6)
            for _ in range(rng.integers(1, 5)):
                frame.record_sample(rng.choice(6, size=2, replace=False))
            frames.append(frame)
        left = ((frames[0] + frames[1]) + frames[2]) + frames[3]
        right = frames[0] + (frames[1] + (frames[2] + frames[3]))
        shuffled = frames[3] + frames[1] + frames[0] + frames[2]
        for other in (right, shuffled):
            assert left.num_samples == other.num_samples
            assert np.allclose(left.counts, other.counts)

    def test_record_batch_equals_per_sample_recording(self, rng):
        from repro.graph.generators import barabasi_albert
        from repro.kernels import BatchPathSampler

        graph = barabasi_albert(40, 3, seed=2)
        batch = BatchPathSampler(graph).sample_batch(30, rng)
        batched = StateFrame.zeros(40)
        batched.record_batch(batch)
        scalar = StateFrame.zeros(40)
        for sample in batch.iter_samples():
            scalar.record_sample(sample.internal_vertices, edges_touched=sample.edges_touched)
        assert batched.num_samples == scalar.num_samples == 30
        assert batched.edges_touched == scalar.edges_touched
        assert np.array_equal(batched.counts, scalar.counts)


class TestFramePoolMemory:
    """The epoch framework must run on a bounded set of reusable buffers."""

    def test_per_thread_frames_reused_across_epochs(self):
        pool = FramePool(num_threads=3, num_vertices=16)
        buffers = set()
        for epoch in range(10):
            for thread in range(3):
                frame = pool.reset_for_epoch(thread, epoch)
                frame.record_sample([epoch % 16])
                buffers.add(id(frame.counts))
        # Two frames per thread, regardless of how many epochs ran.
        assert len(buffers) == 2 * 3

    def test_aggregate_epoch_reuses_out_frame(self):
        pool = FramePool(num_threads=2, num_vertices=8)
        scratch = StateFrame.zeros(8)
        scratch_buffer = id(scratch.counts)
        for epoch in range(6):
            for thread in range(2):
                pool.reset_for_epoch(thread, epoch).record_sample([thread])
            total = pool.aggregate_epoch(epoch, out=scratch)
            assert total is scratch
            assert id(total.counts) == scratch_buffer
            assert total.num_samples == 2
        # Without ``out`` the legacy allocating behaviour is preserved.
        fresh = pool.aggregate_epoch(5)
        assert fresh is not scratch

    def test_aggregate_out_reset_before_accumulation(self):
        pool = FramePool(num_threads=1, num_vertices=4)
        scratch = StateFrame.zeros(4)
        scratch.record_sample([0, 1], edges_touched=9)  # stale content
        pool.reset_for_epoch(0, 0).record_sample([2])
        total = pool.aggregate_epoch(0, out=scratch)
        assert total.num_samples == 1
        assert list(total.counts) == [0, 0, 1, 0]
        assert total.edges_touched == 0

    def test_aggregate_out_size_mismatch_rejected(self):
        pool = FramePool(num_threads=1, num_vertices=4)
        with pytest.raises(ValueError):
            pool.aggregate_epoch(0, out=StateFrame.zeros(5))
