"""Unit tests for omega, the f/g stopping functions and the stopping rule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_frame import StateFrame
from repro.core.stopping import (
    CheckSchedule,
    StoppingCondition,
    compute_omega,
    f_function,
    g_function,
)


class TestOmega:
    def test_decreases_with_eps(self):
        assert compute_omega(0.001, 0.1, 20) > compute_omega(0.01, 0.1, 20)

    def test_quadratic_in_inverse_eps(self):
        ratio = compute_omega(0.001, 0.1, 20) / compute_omega(0.01, 0.1, 20)
        assert 95 <= ratio <= 105

    def test_increases_with_diameter(self):
        assert compute_omega(0.01, 0.1, 1000) > compute_omega(0.01, 0.1, 10)

    def test_increases_with_confidence(self):
        assert compute_omega(0.01, 0.01, 20) > compute_omega(0.01, 0.2, 20)

    def test_degenerate_diameter(self):
        assert compute_omega(0.01, 0.1, 2) > 0
        assert compute_omega(0.01, 0.1, 0) > 0

    def test_formula(self):
        """``ceil(0.5 / eps^2 * (floor(log2(VD - 2)) + 1 + ln(2 / delta)))``,
        the log term 1 for ``VD <= 2`` as at ``VD = 3``."""
        assert compute_omega(0.01, 0.1, 10) == math.ceil(5000 * (4 + math.log(20)))
        assert compute_omega(0.01, 0.1, 2) == compute_omega(0.01, 0.1, 3) == math.ceil(5000 * (1 + math.log(20)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            compute_omega(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            compute_omega(0.01, 1.5, 10)
        with pytest.raises(ValueError):
            compute_omega(0.01, 0.1, -1)


class TestFGFunctions:
    def test_scalar_and_vector_agree(self):
        scalar = f_function(0.1, 0.01, 1000.0, 100.0)
        vector = f_function(np.array([0.1]), np.array([0.01]), 1000.0, 100.0)
        assert scalar == pytest.approx(float(vector[0]))
        scalar_g = g_function(0.1, 0.01, 1000.0, 100.0)
        vector_g = g_function(np.array([0.1]), np.array([0.01]), 1000.0, 100.0)
        assert scalar_g == pytest.approx(float(vector_g[0]))

    def test_non_negative(self):
        # For b~ = 0 the upper bound f degenerates to exactly 0; g never does.
        assert f_function(0.0, 0.01, 1000, 10) == pytest.approx(0.0)
        assert f_function(0.01, 0.01, 1000, 10) > 0
        assert g_function(0.0, 0.01, 1000, 10) > 0

    def test_decreasing_in_tau(self):
        taus = [10, 100, 1000, 10000]
        f_vals = [f_function(0.05, 0.01, 10000, tau) for tau in taus]
        g_vals = [g_function(0.05, 0.01, 10000, tau) for tau in taus]
        assert all(b < a for a, b in zip(f_vals, f_vals[1:]))
        assert all(b < a for a, b in zip(g_vals, g_vals[1:]))

    def test_increasing_in_btilde(self):
        assert f_function(0.2, 0.01, 1000, 100) > f_function(0.01, 0.01, 1000, 100)
        assert g_function(0.2, 0.01, 1000, 100) > g_function(0.01, 0.01, 1000, 100)

    def test_increasing_with_smaller_delta(self):
        # Smaller failure probability -> larger error bound.
        assert f_function(0.1, 0.001, 1000, 100) > f_function(0.1, 0.1, 1000, 100)
        assert g_function(0.1, 0.001, 1000, 100) > g_function(0.1, 0.1, 1000, 100)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            f_function(0.1, 0.01, 1000, 0)
        with pytest.raises(ValueError):
            g_function(0.1, 0.01, 1000, 0)

    def test_g_dominates_f_for_same_parameters(self):
        # The lower-deviation bound g has the "+ ratio" term, so g >= f.
        for b in (0.0, 0.05, 0.3):
            assert g_function(b, 0.01, 1000, 200) >= f_function(b, 0.01, 1000, 200)


class TestStoppingCondition:
    def _condition(self, n=10, eps=0.05, omega=10000):
        deltas = np.full(n, 0.001)
        return StoppingCondition(eps=eps, omega=omega, delta_l=deltas, delta_u=deltas)

    def test_never_stops_on_empty_frame(self):
        condition = self._condition()
        assert not condition.should_stop(StateFrame.zeros(10))

    def test_stops_at_omega(self):
        condition = self._condition(omega=50)
        frame = StateFrame.zeros(10)
        frame.num_samples = 50
        assert condition.should_stop(frame)

    def test_stops_when_enough_samples(self):
        # Close to the sample budget with small estimates, the g bound drops
        # below eps and the rule fires before omega is exhausted.
        condition = self._condition(eps=0.1, omega=3000)
        frame = StateFrame.zeros(10)
        frame.num_samples = 2500
        frame.counts[:] = 25.0
        f_max, g_max = condition.max_error_bounds(frame)
        assert condition.should_stop(frame) == (f_max <= 0.1 and g_max <= 0.1)
        assert condition.should_stop(frame)
        assert frame.num_samples < condition.omega

    def test_does_not_stop_with_few_samples(self):
        condition = self._condition(eps=0.01)
        frame = StateFrame.zeros(10)
        frame.num_samples = 5
        frame.counts[:] = 2.0
        assert not condition.should_stop(frame)

    def test_max_error_bounds_infinite_for_empty(self):
        condition = self._condition()
        f_max, g_max = condition.max_error_bounds(StateFrame.zeros(10))
        assert np.isinf(f_max) and np.isinf(g_max)

    def test_monotone_in_samples(self):
        """More samples (with proportional counts) never makes bounds worse."""
        condition = self._condition(eps=0.05)
        previous = np.inf
        for tau in (100, 1000, 10000):
            frame = StateFrame.zeros(10)
            frame.num_samples = tau
            frame.counts[:] = 0.1 * tau
            f_max, g_max = condition.max_error_bounds(frame)
            assert max(f_max, g_max) < previous
            previous = max(f_max, g_max)

    def test_validation(self):
        deltas = np.full(4, 0.01)
        with pytest.raises(ValueError):
            StoppingCondition(eps=-1, omega=10, delta_l=deltas, delta_u=deltas)
        with pytest.raises(ValueError):
            StoppingCondition(eps=0.1, omega=0, delta_l=deltas, delta_u=deltas)
        with pytest.raises(ValueError):
            StoppingCondition(eps=0.1, omega=10, delta_l=deltas, delta_u=np.full(3, 0.01))
        with pytest.raises(ValueError):
            StoppingCondition(eps=0.1, omega=10, delta_l=np.full(4, 1.5), delta_u=deltas)
        with pytest.raises(ValueError):
            StoppingCondition(eps=0.1, omega=10, delta_l=deltas, delta_u=np.full(4, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_deltas_rejected(self, bad):
        deltas = np.full(4, 0.01)
        broken = deltas.copy()
        broken[2] = bad
        with pytest.raises(ValueError, match="delta_l"):
            StoppingCondition(eps=0.1, omega=10, delta_l=broken, delta_u=deltas)
        with pytest.raises(ValueError, match="delta_u"):
            StoppingCondition(eps=0.1, omega=10, delta_l=deltas, delta_u=broken)

    def test_num_vertices(self):
        assert self._condition(n=7).num_vertices == 7


def dense_max_error_bounds(condition: StoppingCondition, frame: StateFrame) -> tuple:
    """Oracle: f and g over every vertex, the evaluation the sparse check replaces."""
    if frame.num_samples <= 0:
        return float("inf"), float("inf")
    b_tilde = frame.betweenness_estimates()
    f_vals = f_function(b_tilde, condition.delta_l, condition.omega, frame.num_samples)
    g_vals = g_function(b_tilde, condition.delta_u, condition.omega, frame.num_samples)
    return float(np.max(f_vals)), float(np.max(g_vals))


DELTAS = st.floats(min_value=1e-300, max_value=0.4999999, allow_subnormal=False)


@st.composite
def condition_and_frame(draw):
    n = draw(st.integers(1, 40))
    omega = draw(st.integers(1, 10**6))
    tau = draw(st.sampled_from([0, omega]) | st.integers(0, omega))
    # How many vertices keep count 0: none, some or all (a zero class absent
    # or present).
    zeros = draw(st.sampled_from(["none", "some", "all"]))
    counts = np.array(draw(st.lists(st.integers(1, max(tau, 1)), min_size=n, max_size=n)), float)
    if zeros == "all" or tau == 0:
        counts[:] = 0.0
    elif zeros == "some":
        counts[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    # Uniform deltas (today's calibration), a few shared values (zero-count
    # vertices with different deltas), or one per vertex.
    shape = draw(st.sampled_from(["uniform", "few", "each"]))
    if shape == "uniform":
        delta_l = np.full(n, draw(DELTAS))
        delta_u = np.full(n, draw(DELTAS))
    else:
        pool = draw(st.lists(st.tuples(DELTAS, DELTAS), min_size=1, max_size=3 if shape == "few" else n))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        delta_l = np.array([pool[i][0] for i in picks])
        delta_u = np.array([pool[i][1] for i in picks])
    eps = draw(st.floats(min_value=1e-4, max_value=1.0))
    condition = StoppingCondition(eps=eps, omega=omega, delta_l=delta_l, delta_u=delta_u)
    return condition, StateFrame(num_samples=tau, counts=counts)


class TestSparseCheck:
    @settings(max_examples=300, deadline=None)
    @given(case=condition_and_frame())
    def test_matches_the_dense_oracle_bit_for_bit(self, case):
        condition, frame = case
        sparse = condition.max_error_bounds(frame)
        dense = dense_max_error_bounds(condition, frame)
        assert np.array(sparse).tobytes() == np.array(dense).tobytes()
        assert condition.should_stop(frame) == (
            frame.num_samples >= condition.omega
            or (frame.num_samples > 0 and max(dense) <= condition.eps)
        )

    def test_zero_class_is_one_row_per_distinct_delta_pair(self, monkeypatch):
        import repro.core.stopping as stopping

        rows = []
        real_f = stopping.f_function

        def counting_f(b_tilde, delta_l, omega, tau):
            rows.append(len(b_tilde))
            return real_f(b_tilde, delta_l, omega, tau)

        monkeypatch.setattr(stopping, "f_function", counting_f)
        n = 1000
        frame = StateFrame.zeros(n)
        frame.num_samples = 50
        frame.counts[:5] = 3.0
        uniform = StoppingCondition(eps=0.1, omega=100, delta_l=np.full(n, 1e-3), delta_u=np.full(n, 2e-3))
        uniform.max_error_bounds(frame)
        two_pairs = np.where(np.arange(n) % 2 == 0, 1e-3, 4e-3)
        split = StoppingCondition(eps=0.1, omega=100, delta_l=two_pairs, delta_u=two_pairs)
        split.max_error_bounds(frame)
        frame.counts[:] = 1.0
        uniform.max_error_bounds(frame)
        assert rows == [5 + 1, 5 + 2, n]


class TestCheckGrids:
    def test_schedule_aligns_in_epoch_zero_then_draws_blocks(self):
        schedule = CheckSchedule(calibration_samples=200, samples_per_check=1000, omega=4797)
        draws = lambda epoch, tau: schedule.next_epoch(epoch, tau, 4797 - tau)[0]  # noqa: E731
        assert draws(0, 200) == 0  # a cold run checks right after calibration
        assert draws(0, 1300) == 900  # a refine aligns with the grid first
        assert draws(1, 2200) == 1000
        assert draws(5, 4200) == 597  # never past omega
        assert draws(0, 5000) == 0
        # One worker has no last epoch and no cap; a stopped run plans no epoch
        # after the check at calibration, which it always makes.
        assert schedule.next_epoch(1, 2200, 2597) == (1000, 0, math.inf)
        assert schedule.next_epoch(0, 4797, 0) == (0, 0, math.inf)
        assert schedule.next_epoch(3, 3200, 0) is None

    def test_parallel_grid_draws_n0_until_its_last_epoch(self):
        from repro.parallel import EpochGrid

        grid = EpochGrid(2, 2, samples_per_check=1000)
        assert grid.n0 == 158
        # Epoch 0's frames hold T * n0 in all, the opening included; a later
        # epoch's take T * n0 more than the overlap put there.
        assert grid.next_epoch(0, 0, 10**6)[:2] == (158, 316)
        assert grid.next_epoch(1, 123, 10**6 - 900)[:2] == (158, 0)
        # The last: each rank's frames hold ceil(R / P), which thread 0 draws
        # until the counter is spent, and nothing overlaps into the next.
        assert grid.next_epoch(2, 0, 11) == (6, 6, 0)
        assert grid.next_epoch(3, 0, 0) is None
        with pytest.raises(ValueError):
            EpochGrid(1, 1, samples_per_check=0)
