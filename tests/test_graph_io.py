"""Unit tests for edge-list and METIS graph I/O."""

from __future__ import annotations

import gzip

import pytest

from fixture_graphs import write_metis

from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list, read_metis, write_edge_list


@pytest.fixture()
def sample_graph() -> CSRGraph:
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])


class TestEdgeList:
    def test_round_trip(self, tmp_path, sample_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(sample_graph, path)
        loaded = read_edge_list(path)
        assert loaded == sample_graph

    def test_round_trip_gzip(self, tmp_path, sample_graph):
        path = tmp_path / "graph.txt.gz"
        write_edge_list(sample_graph, path)
        assert gzip.open(path, "rt").readline().startswith("%")
        loaded = read_edge_list(path)
        assert loaded == sample_graph

    def test_konect_one_indexed_auto_detection(self, tmp_path):
        path = tmp_path / "konect.tsv"
        path.write_text("% sym unweighted\n1 2\n2 3\n3 1\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert graph.has_edge(0, 1)

    def test_zero_indexed_detection(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 3

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("0 1 3.5 1203\n1 2 1.0 1204\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("% nothing here\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 0

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        graph = read_edge_list(path, num_vertices=10)
        assert graph.num_vertices == 10

    def test_duplicate_and_reverse_edges_merged(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        assert read_edge_list(path).num_edges == 1


class TestMetis:
    def test_round_trip(self, tmp_path, sample_graph):
        path = tmp_path / "graph.metis"
        write_metis(sample_graph, path)
        loaded = read_metis(path)
        assert loaded == sample_graph

    def test_header_consistency(self, tmp_path, sample_graph):
        path = tmp_path / "graph.metis"
        write_metis(sample_graph, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line.split() == ["4", "5"]

    def test_weighted_format_rejected(self, tmp_path):
        path = tmp_path / "weighted.metis"
        path.write_text("2 1 011\n2 5\n1 5\n")
        with pytest.raises(ValueError):
            read_metis(path)

    def test_out_of_range_neighbor_rejected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 1\n3\n1\n")
        with pytest.raises(ValueError):
            read_metis(path)

    def test_missing_lines_rejected(self, tmp_path):
        path = tmp_path / "short.metis"
        path.write_text("3 1\n2\n")
        with pytest.raises(ValueError):
            read_metis(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.metis"
        path.write_text("")
        with pytest.raises(ValueError):
            read_metis(path)
