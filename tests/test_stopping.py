"""Unit tests for omega, the f/g stopping functions and the stopping rule."""

from __future__ import annotations

import numpy as np
import pytest

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

    def test_num_vertices(self):
        assert self._condition(n=7).num_vertices == 7


class TestCheckGrids:
    def test_schedule_aligns_in_epoch_zero_then_draws_blocks(self):
        schedule = CheckSchedule(calibration_samples=200, samples_per_check=1000, omega=4797)
        assert schedule.epoch_samples(0, 200) == 0  # a cold run checks right after calibration
        assert schedule.epoch_samples(0, 1300) == 900  # a refine aligns with the grid first
        assert schedule.epoch_samples(1, 2200) == 1000
        assert schedule.epoch_samples(5, 4200) == 597  # never past omega
        assert schedule.epoch_samples(0, 5000) == 0

    def test_parallel_rule_is_constant(self):
        from repro.parallel import EpochLength

        assert EpochLength(40).epoch_samples(0, 0) == EpochLength(40).epoch_samples(7, 123) == 40
        with pytest.raises(ValueError):
            EpochLength(0)
