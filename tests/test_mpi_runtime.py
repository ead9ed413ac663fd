"""Unit tests for the MPI runtime pieces that are not transport semantics.

The collective semantics shared by every transport (reduce/bcast/gather/
barrier matching, splits, non-blocking interleavings) live in the
parametrized conformance suite (``comm_conformance.py`` via
``test_comm_conformance.py``), which runs them against ``SelfComm``,
``ThreadedComm`` *and* ``SocketComm``.  What remains here: request handles,
the reduction operator, ``SelfComm``'s single-rank contract, and the threaded
world's own lifecycle (validation, exception propagation)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from comm_conformance import allsum

from repro.core.state_frame import SparseFrame, StateFrame
from repro.mpi import (
    CompletedRequest,
    PolledRequest,
    SelfComm,
    reduce_op,
    run_threaded,
)
from repro.mpi.hub import FRAME_HEADER_BYTES, _payload_bytes, framed_payload_bytes
from repro.mpi.threaded import ThreadedCommWorld


class TestRequests:
    def test_completed_request(self):
        request = CompletedRequest(42)
        assert request.test()
        assert request.done
        assert request.result() == 42
        assert request.wait() == 42

    def test_polled_request(self):
        state = {"done": False}
        request = PolledRequest(lambda: state["done"], lambda: "value")
        assert not request.test()
        with pytest.raises(RuntimeError):
            request.result()
        state["done"] = True
        assert request.test()
        assert request.result() == "value"


class TestReduceOps:
    def test_sum_scalars_and_arrays(self):
        assert reduce_op("sum")(2, 3) == 5
        assert np.array_equal(reduce_op("sum")(np.array([1, 2]), np.array([3, 4])), np.array([4, 6]))

    def test_sum_state_frames_does_not_mutate(self):
        a = StateFrame.zeros(3)
        a.record_sample([0])
        b = StateFrame.zeros(3)
        b.record_sample([1])
        result = reduce_op("sum")(a, b)
        assert result.num_samples == 2
        assert a.num_samples == 1

    def test_sparse_meets_dense_in_either_order(self):
        dense = StateFrame.zeros(6)
        dense.record_sample(np.arange(6))
        one = StateFrame.zeros(6)
        one.record_sample(np.asarray([2]))
        sparse = one.for_wire()
        assert isinstance(sparse, SparseFrame)
        for a, b in ((sparse, dense), (dense, sparse)):
            total = reduce_op("sum")(a, b)
            assert isinstance(total, StateFrame) and total is not dense
            assert list(total.counts) == [1, 1, 2, 1, 1, 1] and total.num_samples == 2
        assert list(dense.counts) == [1] * 6 and dense.num_samples == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            reduce_op("product")


class TestPayloadBytes:
    def test_framed_size_adds_the_length_prefix(self):
        payload = np.zeros(100)
        assert framed_payload_bytes(payload) == FRAME_HEADER_BYTES + _payload_bytes(payload)
        assert framed_payload_bytes(None) == FRAME_HEADER_BYTES + 8

    def test_state_frame_payload_is_structural(self):
        frame = StateFrame.zeros(64)
        assert _payload_bytes(frame) == frame.serialized_bytes()
        assert framed_payload_bytes(frame) == FRAME_HEADER_BYTES + frame.serialized_bytes()


class TestSelfComm:
    def test_identity(self):
        comm = SelfComm()
        assert comm.rank == 0 and comm.size == 1 and comm.is_root

    def test_collectives_are_identity(self):
        comm = SelfComm()
        assert comm.reduce(5) == 5
        assert comm.bcast("x") == "x"
        assert comm.gather(3) == [3]
        assert comm.ireduce(1).wait() == 1
        assert comm.ibcast(2).wait() == 2
        comm.barrier()
        assert comm.ibarrier().test()

    def test_invalid_root_rejected(self):
        with pytest.raises(ValueError):
            SelfComm().reduce(1, root=1)


class TestThreadedComm:
    def test_world_validation(self):
        with pytest.raises(ValueError):
            ThreadedCommWorld(0)
        world = ThreadedCommWorld(2)
        with pytest.raises(ValueError):
            world.comm_for_rank(5)

    def test_exception_in_rank_propagates(self):
        def body(comm, rank):
            if rank == 1:
                raise RuntimeError("boom")
            # Rank 0 performs no collective so it cannot block on the failed
            # rank; the error must still surface to the caller.
            return rank

        with pytest.raises(RuntimeError, match="boom"):
            run_threaded(2, body)

    def test_interleaved_collectives_under_fast_switching(self):
        """More ranks than cores race through interleaved collectives on the
        one matcher, switching threads every microsecond: every result adds up."""
        size, rounds = 8, 40

        def body(comm, rank):
            seen = []
            for i in range(rounds):
                barrier = comm.ibarrier()
                request = comm.ireduce(np.full(4, float(rank + i)), op="sum", root=i % size)
                seen.append(allsum(comm, 1))
                value = request.wait()
                barrier.wait()
                if value is not None:
                    seen.append(float(value.sum()))
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_threaded(size, body, timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        for rank, seen in enumerate(results):
            expected = []
            for i in range(rounds):
                expected.append(size)
                if i % size == rank:
                    expected.append(4.0 * sum(r + i for r in range(size)))
            assert seen == expected
