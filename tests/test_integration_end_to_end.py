"""End-to-end integration tests across the whole stack.

Each test follows a realistic user workflow: load/generate a graph, run one of
the drivers, post-process the result (top-k, persistence), and cross-check the
different algorithm variants against each other and against exact values.
"""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import hyperbolic_graph

from repro import KadabraOptions, Resources, brandes_betweenness, estimate_betweenness
from repro.core import identify_top_k
from repro.graph import largest_connected_component, read_edge_list, write_edge_list
from repro.graph.generators import (
    barabasi_albert,
    rmat_graph,
    road_network_graph,
)
from repro.io_utils import load_result, save_result
from repro.util.stats import max_abs_error, relative_rank_overlap


def sequential_kadabra(graph, options):
    return estimate_betweenness(graph, algorithm="sequential", options=options)


def parallel(graph, options, algorithm, **resources):
    return estimate_betweenness(
        graph, algorithm=algorithm, options=options, resources=Resources(**resources)
    )


class TestFileToResultWorkflow:
    def test_edge_list_roundtrip_pipeline(self, tmp_path, medium_social_graph):
        """Write a graph to disk, read it back, approximate, persist, reload."""
        graph_path = tmp_path / "network.tsv"
        write_edge_list(medium_social_graph, graph_path)
        graph = largest_connected_component(read_edge_list(graph_path))
        assert graph.num_vertices == medium_social_graph.num_vertices

        options = KadabraOptions(eps=0.08, delta=0.1, seed=21, calibration_samples=100)
        result = sequential_kadabra(graph, options)

        result_path = tmp_path / "scores.json"
        save_result(result, result_path)
        reloaded = load_result(result_path)
        assert np.allclose(reloaded.scores, result.scores)
        assert reloaded.top_k(3) == result.top_k(3)


class TestAlgorithmAgreement:
    """All estimators agree with the exact algorithm and with each other."""

    @pytest.fixture(scope="class")
    def graph(self):
        return largest_connected_component(rmat_graph(8, edge_factor=6, seed=17))

    @pytest.fixture(scope="class")
    def exact_scores(self, graph):
        return brandes_betweenness(graph).scores

    @pytest.fixture(scope="class")
    def options(self):
        return KadabraOptions(eps=0.05, delta=0.1, seed=23, calibration_samples=300)

    def test_sequential(self, graph, exact_scores, options):
        result = sequential_kadabra(graph, options)
        assert max_abs_error(result.scores, exact_scores) <= options.eps

    def test_shared_memory(self, graph, exact_scores, options):
        result = parallel(graph, options, "shared-memory", threads=2)
        assert max_abs_error(result.scores, exact_scores) <= options.eps

    def test_distributed(self, graph, exact_scores, options):
        result = parallel(graph, options, "distributed", processes=2, threads=2)
        assert max_abs_error(result.scores, exact_scores) <= options.eps

    def test_rk(self, graph, exact_scores, options):
        result = estimate_betweenness(graph, algorithm="rk", options=options)
        assert max_abs_error(result.scores, exact_scores) <= options.eps

    def test_source_sampling(self, graph, exact_scores):
        result = estimate_betweenness(
            graph, algorithm="source-sampling", eps=0.05, delta=0.1, seed=9, max_samples_override=100
        )
        assert max_abs_error(result.scores, exact_scores) <= 0.08

    def test_rankings_consistent(self, graph, exact_scores, options):
        """All approximations recover the exact top-5 reasonably well."""
        sequential = sequential_kadabra(graph, options)
        distributed = parallel(graph, options, "distributed", processes=2)
        assert relative_rank_overlap(sequential.scores, exact_scores, 5) >= 0.6
        assert relative_rank_overlap(distributed.scores, exact_scores, 5) >= 0.6


class TestTopKWorkflow:
    def test_top_k_on_hyperbolic_graph(self):
        graph = largest_connected_component(hyperbolic_graph(800, avg_degree=10, seed=5))
        options = KadabraOptions(eps=0.03, delta=0.1, seed=6)
        result = sequential_kadabra(graph, options)
        exact = brandes_betweenness(graph).scores
        topk = identify_top_k(result, 3)
        # Any membership the analysis confirms must be correct.
        exact_top = set(np.argsort(-exact)[:3].tolist())
        for vertex, confirmed in zip(topk.vertices, topk.confirmed):
            if confirmed:
                assert int(vertex) in exact_top


class TestProxyInstanceWorkflow:
    """Scaled-down stand-ins for roadNet-PA (1/8000) and dbpedia-link (1/20000)."""

    def test_road_proxy_full_run(self, quick_options):
        graph = road_network_graph(12, 12, seed=2)
        result = parallel(graph, quick_options, "distributed", processes=2, threads=1)
        exact = brandes_betweenness(graph).scores
        assert max_abs_error(result.scores, exact) <= 2 * quick_options.eps

    def test_social_proxy_full_run(self, quick_options):
        graph = barabasi_albert(913, 7, seed=2)
        result = parallel(graph, quick_options, "shared-memory", threads=2)
        exact = brandes_betweenness(graph).scores
        assert max_abs_error(result.scores, exact) <= 2 * quick_options.eps


class TestSyntheticFamilies:
    """Adaptive runs on the two synthetic families of the paper's Fig. 4."""

    @pytest.mark.parametrize("family", ["rmat", "hyperbolic"])
    @pytest.mark.parametrize("scale", [7, 8])
    def test_adaptive_run_within_eps(self, family, scale):
        if family == "rmat":
            graph = rmat_graph(scale, edge_factor=6, seed=0)
        else:
            graph = hyperbolic_graph(2**scale, avg_degree=12, seed=0)
        options = KadabraOptions(
            eps=0.2, delta=0.1, seed=0, calibration_samples=200, max_samples_override=400
        )
        result = sequential_kadabra(graph, options)
        assert 0 < result.num_samples <= 400 + options.samples_per_check
        assert result.phase_seconds["adaptive_sampling"] >= 0.0
        exact = brandes_betweenness(graph).scores
        assert max_abs_error(result.scores, exact) <= options.eps
