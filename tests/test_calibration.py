"""Unit tests for the delta_L/delta_U calibration phase."""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import cycle_graph

from repro.core.calibration import (
    BALANCING_FACTOR,
    calibrate_deltas,
    default_calibration_samples,
)
from repro.core.state_frame import StateFrame
from repro.graph.components import largest_connected_component
from repro.graph.generators import rmat_graph, road_network_graph
from repro.kernels.batch import BatchPathSampler


def _frame_with_counts(counts, num_samples):
    frame = StateFrame.zeros(len(counts))
    frame.counts = np.asarray(counts, dtype=np.float64)
    frame.num_samples = num_samples
    return frame


def calibrate_deltas_in_full(frame, delta, *, eps, balancing_factor=BALANCING_FACTOR):
    """``(delta_l, delta_u)`` by the search without its exits: 100 steps, every mass over all n."""
    n = frame.num_vertices
    adaptive_budget = delta * (1.0 - balancing_factor) / 2.0
    weights = np.sqrt(np.maximum(frame.betweenness_estimates(), 0.0)) / max(eps, 1e-12)
    lo, hi = 0.0, 1.0
    while float(np.sum(np.exp(-hi * weights - np.log(n)))) * n > adaptive_budget and hi < 1e12:
        hi *= 2.0
    if float(np.sum(np.exp(-hi * weights))) > adaptive_budget:
        shares = np.full(n, adaptive_budget / n, dtype=np.float64)
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if float(np.sum(np.exp(-mid * weights))) > adaptive_budget:
                lo = mid
            else:
                hi = mid
        shares = np.exp(-hi * weights)
        total = float(np.sum(shares))
        if total > 0:
            shares *= adaptive_budget / total
    delta_l = np.clip(shares + delta * balancing_factor / (4.0 * n), 1e-300, 0.4999999)
    delta_u = delta_l.copy()
    total = float(np.sum(delta_l) + np.sum(delta_u))
    if total > delta:
        delta_l *= delta / total
        delta_u *= delta / total
    return delta_l, delta_u


def _sampled_frame(graph, samples, seed):
    frame = StateFrame.zeros(graph.num_vertices)
    frame.record_batch(BatchPathSampler(graph).sample_batch(samples, np.random.default_rng(seed)))
    return frame


GRAPHS = {
    "rmat": lambda: largest_connected_component(rmat_graph(11, edge_factor=8, seed=2)),
    "road": lambda: road_network_graph(30, 30, seed=2),
    # Every vertex is inside some sampled path: no weight is 0 and the search runs.
    "cycle": lambda: cycle_graph(40),
}


class TestSameDeltasAsTheFullSearch:
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_calibration_frames(self, graph):
        built = GRAPHS[graph]()
        for seed in (1, 2, 3):
            frame = _sampled_frame(built, 2000 if graph == "cycle" else 200, seed)
            assert (frame.counts > 0).all() == (graph == "cycle")
            for eps in (0.01, 0.035, 0.09, 0.3):
                self.check(frame, 0.1, eps)
                self.check(frame, 0.01, eps)

    @pytest.mark.parametrize(
        "counts, num_samples",
        [
            ([0.0] * 7, 100),  # all zero
            ([0.0] * 6 + [9.0], 100),  # a single nonzero count
            ([0.0] * 30 + [3.0], 0),  # no samples: every estimate 0
            ([10.0] * 6, 100),  # uniform
            ([1e-30] * 5, 1),  # hi runs into the 1e12 cap and the split stays uniform
            ([2e-27, 5e-27, 3e-27], 1),  # at eps 0.01 the search starts from hi = 2^40
            ([np.inf, 1.0, 2.0], 10),  # inf * 0 at c = 0
            ([np.nan, 0.0, 2.0], 10),  # a NaN weight beside a zero one
            (list(range(1, 301)), 1000),
        ],
    )
    def test_edge_frames(self, counts, num_samples):
        frame = _frame_with_counts(counts, num_samples)
        for eps in (0.01, 0.3):
            self.check(frame, 0.1, eps)

    @staticmethod
    def check(frame, delta, eps):
        ours = calibrate_deltas(frame, delta, eps=eps)
        delta_l, delta_u = calibrate_deltas_in_full(frame, delta, eps=eps)
        assert np.array_equal(ours.delta_l, delta_l, equal_nan=True)
        assert np.array_equal(ours.delta_u, delta_u, equal_nan=True)


class TestDefaultCalibrationSamples:
    def test_lower_bounded(self):
        assert default_calibration_samples(1000, 50) >= 200

    def test_capped_by_omega(self):
        assert default_calibration_samples(50, 10) == 50

    def test_capped_at_fifty_thousand(self):
        assert default_calibration_samples(100_000_000, 10**6) == 50_000

    def test_scales_with_omega(self):
        small = default_calibration_samples(30_000, 100)
        large = default_calibration_samples(3_000_000, 100)
        assert large > small

    def test_validation(self):
        with pytest.raises(ValueError):
            default_calibration_samples(0, 10)
        with pytest.raises(ValueError):
            default_calibration_samples(10, 0)


class TestCalibrateDeltas:
    def test_budget_respected(self):
        frame = _frame_with_counts([50, 10, 5, 0, 0, 0, 0, 0], 100)
        result = calibrate_deltas(frame, 0.1, eps=0.01)
        assert result.total_budget_used <= 0.1 + 1e-12
        assert np.all(result.delta_l > 0)
        assert np.all(result.delta_u > 0)
        assert np.all(result.delta_l < 0.5)

    def test_important_vertices_get_larger_share(self):
        frame = _frame_with_counts([500, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1000)
        result = calibrate_deltas(frame, 0.1, eps=0.01)
        # The vertex with the highest preliminary estimate must not receive
        # less failure probability than the zero-estimate vertices.
        assert result.delta_l[0] >= result.delta_l[1] - 1e-15

    def test_uniform_frame_gives_uniform_deltas(self):
        frame = _frame_with_counts([10] * 6, 100)
        result = calibrate_deltas(frame, 0.2, eps=0.05)
        assert np.allclose(result.delta_l, result.delta_l[0])
        assert np.allclose(result.delta_u, result.delta_u[0])

    def test_empty_frame_still_valid(self):
        frame = StateFrame.zeros(5)
        frame.num_samples = 10
        result = calibrate_deltas(frame, 0.1, eps=0.01)
        assert result.total_budget_used <= 0.1 + 1e-12
        assert np.all(result.delta_l > 0)

    def test_zero_sample_frame(self):
        frame = StateFrame.zeros(5)
        result = calibrate_deltas(frame, 0.1, eps=0.01)
        assert np.all(result.delta_l > 0)
        assert result.num_samples == 0

    def test_preserves_preliminary_estimates(self):
        frame = _frame_with_counts([5, 0, 0], 10)
        result = calibrate_deltas(frame, 0.1, eps=0.1)
        assert result.preliminary_estimates[0] == pytest.approx(0.5)

    def test_validation(self):
        frame = StateFrame.zeros(3)
        with pytest.raises(ValueError):
            calibrate_deltas(frame, 1.5, eps=0.1)
        with pytest.raises(ValueError):
            calibrate_deltas(frame, 0.1, eps=-1.0)
        with pytest.raises(ValueError):
            calibrate_deltas(frame, 0.1, eps=0.1, balancing_factor=2.0)
        with pytest.raises(ValueError):
            calibrate_deltas(StateFrame.zeros(0), 0.1, eps=0.1)

    def test_deltas_usable_by_stopping_condition(self):
        from repro.core.stopping import StoppingCondition

        frame = _frame_with_counts([30, 10, 0, 0], 100)
        result = calibrate_deltas(frame, 0.1, eps=0.05)
        condition = StoppingCondition(
            eps=0.05, omega=10_000, delta_l=result.delta_l, delta_u=result.delta_u
        )
        assert condition.num_vertices == 4
