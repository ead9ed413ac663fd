"""Unit tests for the epoch-based framework (manager + frame pool)."""

from __future__ import annotations

import threading

import pytest

from repro.parallel import EpochManager, FramePool


class TestEpochManagerProtocol:
    def test_initial_state(self):
        manager = EpochManager(3)
        assert manager.num_threads == 3
        assert all(manager.thread_epoch(t) == 0 for t in range(3))
        assert not manager.terminated

    def test_check_before_force_has_no_effect(self):
        """The asymmetry that distinguishes the mechanism from a barrier."""
        manager = EpochManager(2)
        assert manager.check_transition(1, 0) is False
        assert manager.thread_epoch(1) == 0

    def test_force_advances_thread_zero_immediately(self):
        manager = EpochManager(3)
        request = manager.force_transition(0)
        assert manager.thread_epoch(0) == 1
        assert not request.test()  # other threads have not acknowledged yet

    def test_transition_completes_after_all_checks(self):
        manager = EpochManager(3)
        request = manager.force_transition(0)
        assert manager.check_transition(1, 0) is True
        assert not request.test()
        assert manager.check_transition(2, 0) is True
        assert request.test()
        assert manager.transition_done(0)

    def test_single_thread_transition_completes_immediately(self):
        manager = EpochManager(1)
        assert manager.force_transition(0).test()

    def test_sequence_of_epochs(self):
        manager = EpochManager(2)
        for epoch in range(5):
            request = manager.force_transition(epoch)
            assert manager.check_transition(1, epoch) is True
            assert request.test()
        assert manager.thread_epoch(0) == 5
        assert manager.thread_epoch(1) == 5

    def test_force_twice_rejected(self):
        manager = EpochManager(2)
        manager.force_transition(0)
        with pytest.raises(RuntimeError):
            manager.force_transition(0)

    def test_force_wrong_epoch_rejected(self):
        manager = EpochManager(2)
        with pytest.raises(RuntimeError):
            manager.force_transition(3)

    def test_check_by_thread_zero_rejected(self):
        manager = EpochManager(2)
        with pytest.raises(ValueError):
            manager.check_transition(0, 0)

    def test_check_out_of_range_thread_rejected(self):
        manager = EpochManager(2)
        with pytest.raises(ValueError):
            manager.check_transition(5, 0)

    def test_check_wrong_epoch_rejected(self):
        manager = EpochManager(2)
        with pytest.raises(RuntimeError):
            manager.check_transition(1, 3)

    def test_termination_flag(self):
        manager = EpochManager(2)
        manager.signal_termination()
        assert manager.terminated

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochManager(0)

    def test_concurrent_workers_acknowledge(self):
        """Stress the protocol with real threads acknowledging transitions."""
        num_threads = 4
        manager = EpochManager(num_threads)
        epochs_to_run = 20
        worker_epochs = [0] * num_threads

        def worker(thread):
            while not manager.terminated:
                if manager.check_transition(thread, worker_epochs[thread]):
                    worker_epochs[thread] += 1

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, num_threads)]
        for t in threads:
            t.start()
        for epoch in range(epochs_to_run):
            manager.force_transition(epoch).wait()
        manager.signal_termination()
        for t in threads:
            t.join()
        assert manager.thread_epoch(0) == epochs_to_run
        assert all(worker_epochs[t] == epochs_to_run for t in range(1, num_threads))


class TestFramePool:
    def test_two_frames_per_thread(self):
        pool = FramePool(3, 10)
        assert pool.num_threads == 3
        assert pool.frame(0, 0) is pool.frame(0, 2)
        assert pool.frame(0, 1) is pool.frame(0, 3)
        assert pool.frame(0, 0) is not pool.frame(0, 1)
        assert pool.frame(0, 0) is not pool.frame(1, 0)

    def test_reset_for_epoch_clears(self):
        pool = FramePool(1, 4)
        frame = pool.frame(0, 0)
        frame.record_sample([1])
        reused = pool.reset_for_epoch(0, 2)
        assert reused is frame
        assert reused.is_empty

    def test_aggregate_epoch(self):
        pool = FramePool(3, 4)
        for thread in range(3):
            pool.frame(thread, 0).record_sample([thread])
            pool.frame(thread, 1).record_sample([3])
        total = pool.aggregate_epoch(0)
        assert total.num_samples == 3
        assert list(total.counts) == [1, 1, 1, 0]

    def test_aggregate_does_not_mutate_frames(self):
        pool = FramePool(2, 3)
        pool.frame(0, 0).record_sample([0])
        pool.aggregate_epoch(0)
        assert pool.frame(0, 0).num_samples == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FramePool(0, 4)
        with pytest.raises(ValueError):
            FramePool(2, -1)
        pool = FramePool(2, 4)
        with pytest.raises(ValueError):
            pool.frame(5, 0)
        with pytest.raises(ValueError):
            pool.frame(0, -1)


class TestClaimCounter:
    def test_one_counter_per_parity_for_the_whole_rank(self):
        pool = FramePool(num_threads=3, num_vertices=5)
        assert pool.claims(0) is pool.claims(2) is not pool.claims(1)
        assert pool.claims(0).limit == pool.claims(1).limit == float("inf")

    def test_takes_stop_at_the_limit(self):
        claims = FramePool(num_threads=1, num_vertices=1).claims(0)
        claims.allow(20)
        assert [claims.take(16), claims.take(16), claims.take(16)] == [16, 4, 0]
        claims.allow(0, more=5)  # 0: five more than the frames were given
        assert claims.take(16) == 5 and claims.claimed == 25
        claims.reset(3)
        assert claims.take(16) == 3 and claims.claimed == 3
        assert claims.drawn == 28  # every sample claimed, across epochs
        claims.allow(-1)
        assert claims.take(1) == 0

    def test_concurrent_takes_never_pass_the_limit(self):
        claims = FramePool(num_threads=4, num_vertices=1).claims(1)
        claims.allow(1000)
        got = [[] for _ in range(4)]

        def take(mine):
            while True:
                taken = claims.take(7)
                if not taken:
                    return
                mine.append(taken)

        threads = [threading.Thread(target=take, args=(mine,)) for mine in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(map(sum, got)) == claims.claimed == claims.drawn == 1000
