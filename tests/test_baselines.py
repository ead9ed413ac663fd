"""Unit tests for the exact (Brandes) and fixed-sample (RK) baselines."""

from __future__ import annotations

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from fixture_graphs import cycle_graph, path_graph, star_graph
from oracles import brandes_from_sources, to_networkx

from repro import estimate_betweenness
from repro.baselines import brandes_betweenness, rk_sample_size
from repro.core import KadabraOptions
from repro.core.kadabra import make_sampler
from repro.core.state_frame import StateFrame
from repro.graph.csr import CSRGraph
from repro.util.stats import max_abs_error


def _networkx_betweenness(graph: CSRGraph) -> np.ndarray:
    """networkx betweenness converted to the paper's 1/(n(n-1)) normalisation."""
    n = graph.num_vertices
    raw = networkx.betweenness_centrality(to_networkx(graph), normalized=False)
    return np.array([raw[v] for v in range(n)]) * 2.0 / (n * (n - 1))


class TestBrandes:
    def test_matches_networkx_social(self, small_social_graph):
        ours = brandes_betweenness(small_social_graph).scores
        theirs = _networkx_betweenness(small_social_graph)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_matches_networkx_road(self, small_road_graph):
        ours = brandes_betweenness(small_road_graph).scores
        theirs = _networkx_betweenness(small_road_graph)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_star_graph_closed_form(self):
        n = 11
        scores = brandes_betweenness(star_graph(n)).scores
        assert scores[0] == pytest.approx((n - 1) * (n - 2) / (n * (n - 1)))
        assert np.allclose(scores[1:], 0.0)

    def test_path_graph_closed_form(self):
        n = 9
        scores = brandes_betweenness(path_graph(n)).scores
        for v in range(n):
            expected = 2.0 * v * (n - 1 - v) / (n * (n - 1))
            assert scores[v] == pytest.approx(expected)

    def test_cycle_graph_symmetry(self):
        scores = brandes_betweenness(cycle_graph(9)).scores
        assert np.allclose(scores, scores[0])

    def test_unnormalized(self):
        g = path_graph(5)
        raw = brandes_betweenness(g, normalized=False).scores
        norm = brandes_betweenness(g, normalized=True).scores
        assert np.allclose(raw / (5 * 4), norm)

    def test_disconnected_graph(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2), (3, 4)], num_vertices=5)
        scores = brandes_betweenness(g).scores
        theirs = _networkx_betweenness(g)
        assert np.allclose(scores, theirs, atol=1e-12)

    def test_empty_graph(self):
        assert brandes_betweenness(CSRGraph.empty(0)).scores.size == 0


class TestBrandesFromSources:
    def test_all_sources_equals_full(self, small_social_graph):
        full = brandes_betweenness(small_social_graph).scores
        sampled = brandes_from_sources(
            small_social_graph, range(small_social_graph.num_vertices)
        ).scores
        assert np.allclose(full, sampled)

    def test_subset_is_reasonable_estimate(self, medium_social_graph):
        rng = np.random.default_rng(0)
        sources = rng.choice(medium_social_graph.num_vertices, size=60, replace=False)
        full = brandes_betweenness(medium_social_graph).scores
        approx = brandes_from_sources(medium_social_graph, sources).scores
        assert max_abs_error(approx, full) < 0.05

    def test_out_of_range_source_rejected(self, small_social_graph):
        with pytest.raises(ValueError):
            brandes_from_sources(small_social_graph, [10**6])

    def test_empty_source_set(self, small_social_graph):
        result = brandes_from_sources(small_social_graph, [])
        assert np.all(result.scores == 0.0)


class TestRK:
    def test_sample_size_formula(self):
        assert rk_sample_size(0.01, 0.1, 100) > rk_sample_size(0.1, 0.1, 100)
        assert rk_sample_size(0.01, 0.1, 1000) > rk_sample_size(0.01, 0.1, 10)
        with pytest.raises(ValueError):
            rk_sample_size(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            rk_sample_size(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            rk_sample_size(0.1, 0.1, -5)

    def test_rk_fewer_samples_than_kadabra_omega(self):
        # KADABRA's omega uses log(2/delta) > RK's log(1/delta).
        from repro.core.stopping import compute_omega

        assert rk_sample_size(0.05, 0.1, 50) <= compute_omega(0.05, 0.1, 50)

    def test_rk_accuracy(self, medium_social_graph):
        exact = brandes_betweenness(medium_social_graph).scores
        options = KadabraOptions(eps=0.05, delta=0.1, seed=11)
        result = estimate_betweenness(medium_social_graph, algorithm="rk", options=options)
        assert result.num_samples == result.omega
        assert max_abs_error(result.scores, exact) <= 0.05

    def test_rk_scores_do_not_depend_on_batching(self, small_social_graph):
        """RK draws each pair right before its search, as the adaptive drivers do."""
        options = KadabraOptions(eps=0.05, delta=0.1, seed=5, max_samples_override=700)
        result = estimate_betweenness(small_social_graph, algorithm="rk", options=options)
        sampler = make_sampler(small_social_graph, options)
        rng = np.random.default_rng(5)
        frame = StateFrame.zeros(small_social_graph.num_vertices)
        for _ in range(result.num_samples):
            frame.record_batch(sampler.sample_batch(1, rng))
        assert result.num_samples == 700
        assert np.array_equal(result.scores, frame.betweenness_estimates())

    def test_rk_respects_max_samples_override(self, small_social_graph):
        options = KadabraOptions(eps=0.001, seed=1, max_samples_override=300)
        result = estimate_betweenness(small_social_graph, algorithm="rk", options=options)
        assert result.num_samples == 300

    def test_rk_trivial_graph(self):
        result = estimate_betweenness(CSRGraph.empty(1), algorithm="rk", eps=0.1, seed=0)
        assert result.scores.shape == (1,)
