"""Integration tests of sequential KADABRA and its options/results."""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import path_graph, star_graph

from repro.baselines import brandes_betweenness
from repro import Resources, estimate_betweenness
from repro.core import BetweennessResult, KadabraOptions
from repro.graph.csr import CSRGraph
from repro.util.stats import max_abs_error, relative_rank_overlap


def sequential(graph, options):
    return estimate_betweenness(graph, algorithm="sequential", options=options)


class TestOptions:
    def test_defaults_valid(self):
        options = KadabraOptions()
        assert options.eps == 0.01
        assert options.delta == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            KadabraOptions(eps=0.0)
        with pytest.raises(ValueError):
            KadabraOptions(delta=1.0)
        with pytest.raises(ValueError):
            KadabraOptions(samples_per_check=0)
        with pytest.raises(ValueError):
            KadabraOptions(calibration_samples=0)
        with pytest.raises(ValueError):
            KadabraOptions(max_samples_override=0)
        with pytest.raises(ValueError):
            KadabraOptions(vertex_diameter_override=1)

    def test_with_copies(self):
        options = KadabraOptions(eps=0.05)
        changed = options.with_(eps=0.01, seed=3)
        assert changed.eps == 0.01 and changed.seed == 3
        assert options.eps == 0.05


class TestResult:
    def test_top_k_and_ranking(self):
        result = BetweennessResult(scores=np.array([0.1, 0.5, 0.3]))
        assert result.top_k(2) == [(1, 0.5), (2, 0.3)]
        assert list(result.ranking()) == [1, 2, 0]
        assert result.top_k(0) == []
        assert result.top_k(10) == [(1, 0.5), (2, 0.3), (0, 0.1)]

    def test_score_of_and_total_time(self):
        result = BetweennessResult(scores=np.array([0.2]), phase_seconds={"a": 1.0, "b": 2.0})
        assert result.score_of(0) == pytest.approx(0.2)
        assert result.total_time == pytest.approx(3.0)


class TestSequentialKadabra:
    def test_accuracy_against_brandes(self, medium_social_graph, accurate_options):
        exact = brandes_betweenness(medium_social_graph).scores
        result = sequential(medium_social_graph, accurate_options)
        assert max_abs_error(result.scores, exact) <= accurate_options.eps
        # The highest-betweenness vertices are recovered.
        assert relative_rank_overlap(result.scores, exact, 5) >= 0.6

    def test_deterministic_given_seed(self, small_social_graph, quick_options):
        a = sequential(small_social_graph, quick_options)
        b = sequential(small_social_graph, quick_options)
        assert np.array_equal(a.scores, b.scores)
        assert a.num_samples == b.num_samples

    def test_different_seeds_differ(self, small_social_graph, quick_options):
        a = sequential(small_social_graph, quick_options)
        b = sequential(small_social_graph, quick_options.with_(seed=123))
        assert not np.array_equal(a.scores, b.scores)

    def test_result_metadata(self, small_social_graph, quick_options):
        result = sequential(small_social_graph, quick_options)
        assert result.omega is not None and result.omega > 0
        assert result.num_samples <= result.omega
        assert result.vertex_diameter >= 2
        assert set(result.phase_seconds) >= {
            "diameter", "calibration", "adaptive_sampling", "ads_sampling", "ads_check",
        }
        assert result.eps == quick_options.eps

    def test_scores_are_probabilities(self, small_social_graph, quick_options):
        result = sequential(small_social_graph, quick_options)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0)

    def test_star_graph_centre_dominates(self, quick_options):
        g = star_graph(20)
        result = sequential(g, quick_options)
        assert result.ranking()[0] == 0
        # Exact value: centre lies on every path between distinct leaves.
        exact_centre = 19 * 18 / (20 * 19)
        assert result.scores[0] == pytest.approx(exact_centre, abs=quick_options.eps * 2)

    def test_path_graph_midpoint_highest(self, quick_options):
        g = path_graph(15)
        result = sequential(g, quick_options)
        top = result.ranking()[0]
        assert 4 <= top <= 10  # the middle of the path

    def test_max_samples_override_respected(self, small_social_graph):
        options = KadabraOptions(eps=0.001, seed=1, max_samples_override=500, calibration_samples=100)
        result = sequential(small_social_graph, options)
        assert result.num_samples <= 500 + options.samples_per_check

    def test_vertex_diameter_override(self, small_social_graph):
        options = KadabraOptions(eps=0.1, seed=1, vertex_diameter_override=5, calibration_samples=50,
                                 max_samples_override=300)
        result = sequential(small_social_graph, options)
        assert result.vertex_diameter == 5

    def test_unidirectional_sampler_option(self, small_social_graph, quick_options):
        result = estimate_betweenness(
            small_social_graph,
            algorithm="sequential",
            options=quick_options,
            resources=Resources(kernel="unidirectional"),
        )
        assert result.num_samples > 0

    def test_tiny_graphs(self, quick_options):
        empty = sequential(CSRGraph.empty(0), quick_options)
        assert empty.num_vertices == 0
        single = sequential(CSRGraph.empty(1), quick_options)
        assert single.scores.shape == (1,)
        edge = sequential(CSRGraph.from_edges([(0, 1)]), quick_options)
        assert np.all(edge.scores == 0.0)
