"""Tests for top-k identification, result persistence, the CLI and the
source-sampling baseline."""

from __future__ import annotations

import numpy as np
import pytest

from fixture_graphs import star_graph

from repro import estimate_betweenness
from repro.baselines import brandes_betweenness, source_sample_size
from repro.core import BetweennessResult, identify_top_k
from repro.cli import build_parser, main as cli_main
from repro.graph.io import write_edge_list
from repro.io_utils import load_result, save_result, save_scores_csv
from repro.util.stats import max_abs_error


def sequential(graph, options):
    return estimate_betweenness(graph, algorithm="sequential", options=options)


def source_sampling(graph, *, num_sources=None, **options):
    return estimate_betweenness(
        graph, algorithm="source-sampling", max_samples_override=num_sources, **options
    )


class TestTopK:
    def test_star_graph_centre_confirmed(self, quick_options):
        graph = star_graph(30)
        result = sequential(graph, quick_options)
        topk = identify_top_k(result, 1)
        assert topk.vertices[0] == 0
        assert topk.confirmed[0]
        assert topk.num_confirmed == 1 and topk.all_confirmed

    def test_bounds_bracket_scores(self, small_social_graph, quick_options):
        result = sequential(small_social_graph, quick_options)
        topk = identify_top_k(result, 5)
        assert np.all(topk.lower_bounds <= result.scores + 1e-12)
        assert np.all(topk.upper_bounds >= result.scores - 1e-12)
        assert np.all(topk.lower_bounds >= 0.0)
        assert np.all(topk.upper_bounds <= 1.0)
        assert topk.vertices.shape == (5,)

    def test_k_larger_than_n_clamped(self, quick_options):
        graph = star_graph(6)
        result = sequential(graph, quick_options)
        topk = identify_top_k(result, 100)
        assert topk.vertices.shape == (6,)
        # With no vertices outside the set, all memberships are confirmed.
        assert topk.all_confirmed

    def test_invalid_k(self, quick_options):
        graph = star_graph(6)
        result = sequential(graph, quick_options)
        with pytest.raises(ValueError):
            identify_top_k(result, 0)

    def test_unsampled_result_has_unbounded_intervals(self):
        result = BetweennessResult(scores=np.array([0.3, 0.1]), eps=0.1, delta=0.1)
        topk = identify_top_k(result, 1)
        assert not topk.confirmed[0]


class TestSourceSampling:
    def test_sample_size_formula(self):
        assert source_sample_size(0.05, 0.1, 1000) > source_sample_size(0.1, 0.1, 1000)
        assert source_sample_size(0.05, 0.1, 10**6) > source_sample_size(0.05, 0.1, 100)
        with pytest.raises(ValueError):
            source_sample_size(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            source_sample_size(0.1, 0.1, 0)

    def test_accuracy_on_small_graph(self, medium_social_graph):
        exact = brandes_betweenness(medium_social_graph).scores
        approx = source_sampling(medium_social_graph, eps=0.05, delta=0.1, seed=3, num_sources=80)
        assert max_abs_error(approx.scores, exact) < 0.05
        assert approx.num_samples == 80

    def test_all_sources_equals_exact(self, small_social_graph):
        exact = brandes_betweenness(small_social_graph).scores
        approx = source_sampling(
            small_social_graph, seed=0, num_sources=small_social_graph.num_vertices
        )
        assert np.allclose(approx.scores, exact)

    def test_trivial_graph(self):
        from repro.graph.csr import CSRGraph

        result = source_sampling(CSRGraph.empty(1), seed=0)
        assert result.scores.shape == (1,)


class TestResultIO:
    def _result(self) -> BetweennessResult:
        return BetweennessResult(
            scores=np.array([0.1, 0.0, 0.25]),
            num_samples=500,
            eps=0.05,
            delta=0.1,
            omega=1000,
            vertex_diameter=7,
            num_epochs=3,
            phase_seconds={"adaptive_sampling": 1.5},
            extra={"communication_bytes": 123.0},
        )

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        original = self._result()
        save_result(original, path)
        loaded = load_result(path)
        assert np.allclose(loaded.scores, original.scores)
        assert loaded.num_samples == 500
        assert loaded.omega == 1000
        assert loaded.phase_seconds == original.phase_seconds
        assert loaded.extra == original.extra

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "scores": []}')
        with pytest.raises(ValueError):
            load_result(path)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        original = self._result()
        save_scores_csv(original, path)
        assert path.read_text().splitlines()[0] == "vertex,betweenness"
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(rows[:, 0], np.arange(original.scores.size))
        assert np.array_equal(rows[:, 1], original.scores)

    def test_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_scores_csv(BetweennessResult(scores=np.zeros(0), num_samples=0), path)
        assert path.read_text() == "vertex,betweenness\n"

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        original = self._result()
        save_scores_csv(original, path, header=False)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        assert rows.shape == (original.scores.size, 2)
        assert np.array_equal(rows[:, 1], original.scores)


class TestCli:
    @pytest.fixture()
    def graph_file(self, tmp_path, small_social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, path)
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["graph.txt"])
        assert args.eps == 0.01 and args.algorithm == "sequential"

    def test_sequential_run_with_outputs(self, graph_file, tmp_path, capsys):
        out_json = tmp_path / "result.json"
        out_csv = tmp_path / "scores.csv"
        code = cli_main(
            [
                str(graph_file),
                "--eps", "0.1",
                "--seed", "1",
                "--top", "3",
                "--output", str(out_json),
                "--csv", str(out_csv),
            ]
        )
        assert code == 0
        assert out_json.exists() and out_csv.exists()
        captured = capsys.readouterr().out
        assert "top-3 vertices" in captured

    def test_exact_algorithm(self, graph_file, capsys):
        assert cli_main([str(graph_file), "--algorithm", "exact", "--top", "2"]) == 0
        assert "vertices" in capsys.readouterr().out

    def test_rk_algorithm(self, graph_file, capsys):
        assert cli_main([str(graph_file), "--algorithm", "rk", "--eps", "0.2", "--seed", "2"]) == 0

    def test_distributed_algorithm(self, graph_file, capsys):
        code = cli_main(
            [
                str(graph_file),
                "--algorithm", "distributed",
                "--eps", "0.2",
                "--seed", "3",
                "--processes", "2",
                "--threads", "1",
            ]
        )
        assert code == 0

    def test_shared_memory_algorithm(self, graph_file, capsys):
        code = cli_main(
            [str(graph_file), "--algorithm", "shared-memory", "--eps", "0.2", "--seed", "4", "--threads", "2"]
        )
        assert code == 0
