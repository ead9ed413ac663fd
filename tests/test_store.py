"""Tests for the ``repro.store`` subsystem: .rcsr format, converter, catalog.

Covers the acceptance criteria of the store PR: round-trip equality with
:class:`~repro.graph.csr.CSRGraph`, corrupt-header / truncated-file rejection,
catalog cache-hit behaviour (no re-parse of already converted inputs),
out-of-core builds split across many chunks, and zero-copy (memmap-backed)
opens end to end through the facade and the distributed driver.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.graph.io as graph_io
import repro.store.format as store_format
from repro.api import Resources, estimate_betweenness
from repro.core import KadabraOptions
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, road_network_graph
from repro.graph.io import iter_edge_chunks, read_edge_list, write_edge_list
from repro.store import (
    GraphCatalog,
    StoreFormatError,
    convert_edge_list,
    load_graph,
    open_rcsr,
    read_header,
    write_rcsr,
)


@pytest.fixture()
def social_graph() -> CSRGraph:
    return barabasi_albert(400, 3, seed=13)


@pytest.fixture()
def stored_path(tmp_path, social_graph):
    path = tmp_path / "social.rcsr"
    write_rcsr(social_graph, path)
    return path


class TestRcsrFormat:
    def test_round_trip_equality(self, stored_path, social_graph):
        loaded = open_rcsr(stored_path)
        assert loaded == social_graph
        assert loaded.num_vertices == social_graph.num_vertices
        assert loaded.num_edges == social_graph.num_edges
        assert loaded.indices.dtype == social_graph.indices.dtype

    def test_open_is_memory_mapped_and_read_only(self, stored_path):
        loaded = open_rcsr(stored_path)
        assert isinstance(loaded.indptr, np.memmap)
        assert isinstance(loaded.indices, np.memmap)
        assert not loaded.indptr.flags.writeable
        assert not loaded.indices.flags.writeable
        assert loaded.is_memory_mapped
        assert loaded.source_path == stored_path

    def test_eager_open(self, stored_path, social_graph):
        loaded = open_rcsr(stored_path, mmap=False)
        assert not isinstance(loaded.indices, np.memmap)
        assert loaded == social_graph

    def test_graph_save_load_methods(self, tmp_path, social_graph):
        path = tmp_path / "method.rcsr"
        social_graph.save(path)
        assert CSRGraph.load(path) == social_graph

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.rcsr"
        write_rcsr(CSRGraph.empty(5), path)
        loaded = open_rcsr(path)
        assert loaded.num_vertices == 5
        assert loaded.num_edges == 0

    def test_header_fields(self, stored_path, social_graph):
        header = read_header(stored_path)
        assert header.num_vertices == social_graph.num_vertices
        assert header.num_arcs == 2 * social_graph.num_edges
        assert header.indptr_offset % 4096 == 0
        assert header.indices_offset % 4096 == 0

    def test_bad_magic_rejected(self, stored_path):
        data = bytearray(stored_path.read_bytes())
        data[:4] = b"NOPE"
        stored_path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="magic"):
            open_rcsr(stored_path)

    def test_bad_version_rejected(self, stored_path):
        data = bytearray(stored_path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        stored_path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="version"):
            open_rcsr(stored_path)

    def test_truncated_file_rejected(self, stored_path):
        data = stored_path.read_bytes()
        stored_path.write_bytes(data[: len(data) - 64])
        with pytest.raises(StoreFormatError, match="truncated"):
            open_rcsr(stored_path)

    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.rcsr"
        path.write_bytes(b"RC")
        with pytest.raises(StoreFormatError, match="too short"):
            open_rcsr(path)

    def test_checksum_detects_corruption(self, stored_path):
        header = read_header(stored_path)
        data = bytearray(stored_path.read_bytes())
        data[header.indices_offset] ^= 0xFF
        stored_path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="CRC"):
            open_rcsr(stored_path, verify_checksum=True)

    def test_fast_open_skips_checksum(self, stored_path):
        header = read_header(stored_path)
        data = bytearray(stored_path.read_bytes())
        data[header.indices_offset] ^= 0x01
        stored_path.write_bytes(bytes(data))
        open_rcsr(stored_path)  # corruption within id range: open succeeds


class TestVectorizedEdgeListParse:
    def test_chunk_boundaries_mid_line(self, tmp_path, social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(social_graph, path)
        for chunk_bytes in (7, 64, 1024):
            assert read_edge_list(path, chunk_bytes=chunk_bytes) == social_graph

    def test_iter_edge_chunks_yields_raw_ids(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("% header\n1 2\n2 3\n3 1\n")
        chunks = list(iter_edge_chunks(path))
        edges = np.concatenate(chunks)
        assert edges.tolist() == [[1, 2], [2, 3], [3, 1]]

    def test_ragged_rows_fall_back_but_parse(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0 1\n1 2 9.5 123\n2 3\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 3

    def test_uniform_extra_columns_vectorized(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("0 1 1.5\n1 2 2.5\n2 3 0.5\n")
        assert read_edge_list(path).num_edges == 3

    def test_malformed_single_token_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n7\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edge_list(path)

    def test_non_numeric_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\na b\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_float_vertex_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 1\n1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_integral_float_and_scientific_ids_rejected(self, tmp_path):
        # '2.0' and '1e3' were errors in the per-line reference parser; the
        # vectorized path must not silently accept them as vertex ids — in
        # 2-column files and in the id columns of wider (weighted) files.
        for content in (
            "2.0 3.0\n4 5\n",
            "1e3 5\n2 6\n",
            "1e3 2 0.5\n3 4 0.5\n",
            "2.0 3 0.5\n4 5 0.5\n",
        ):
            path = tmp_path / "bad.txt"
            path.write_text(content)
            with pytest.raises(ValueError):
                read_edge_list(path)

    def test_float_weights_with_integer_ids_stay_fast(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("".join(f"{u} {u + 1} {u * 0.5}\n" for u in range(200)))
        graph = read_edge_list(path)
        assert graph.num_edges == 200
        assert graph.has_edge(7, 8)

    def test_comments_between_data_chunks(self, tmp_path):
        path = tmp_path / "mid.txt"
        path.write_text("0 1\n% interlude\n1 2\n# another\n2 0\n")
        assert read_edge_list(path).num_edges == 3


class TestOutOfCoreConverter:
    def test_matches_in_memory_read_across_many_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 250, size=(4000, 2))
        src = tmp_path / "rand.txt"
        src.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
        reference = read_edge_list(src)
        dest = tmp_path / "rand.rcsr"
        # Tiny chunk/block sizes force many spill chunks and dedup blocks.
        report = convert_edge_list(src, dest, chunk_bytes=512, block_arcs=64)
        assert open_rcsr(dest) == reference
        assert report.num_edges == reference.num_edges
        assert report.num_input_edges == 4000

    def test_duplicates_across_chunk_boundaries(self, tmp_path):
        # The same edge in every chunk: per-chunk dedup cannot see it, the
        # blocked sort/dedup pass must.
        lines = []
        for i in range(200):
            lines.append("0 1")
            lines.append(f"{i % 7} {(i + 1) % 7}")
        src = tmp_path / "dups.txt"
        src.write_text("\n".join(lines) + "\n")
        dest = tmp_path / "dups.rcsr"
        convert_edge_list(src, dest, chunk_bytes=32, block_arcs=8)
        assert open_rcsr(dest) == read_edge_list(src)

    def test_one_indexed_autodetection(self, tmp_path):
        src = tmp_path / "konect.tsv"
        src.write_text("% sym\n1 2\n2 3\n3 1\n")
        dest = tmp_path / "konect.rcsr"
        convert_edge_list(src, dest)
        graph = open_rcsr(dest)
        assert graph.num_vertices == 3
        assert graph.has_edge(0, 1)

    def test_self_loops_dropped(self, tmp_path):
        src = tmp_path / "loops.txt"
        src.write_text("0 0\n0 1\n1 1\n1 2\n")
        dest = tmp_path / "loops.rcsr"
        report = convert_edge_list(src, dest)
        assert report.num_edges == 2
        assert open_rcsr(dest) == read_edge_list(src)

    def test_self_loops_only_keeps_vertex_count(self, tmp_path):
        src = tmp_path / "loops-only.txt"
        src.write_text("3 3\n5 5\n")
        dest = tmp_path / "loops-only.rcsr"
        convert_edge_list(src, dest)
        graph = open_rcsr(dest)
        reference = read_edge_list(src)
        assert graph == reference
        assert graph.num_vertices == 5  # ids shifted down: max id 5, 1-indexed
        assert graph.num_edges == 0

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("% nothing\n")
        dest = tmp_path / "empty.rcsr"
        report = convert_edge_list(src, dest)
        assert report.num_edges == 0
        assert open_rcsr(dest).num_vertices == 0

    def test_explicit_num_vertices(self, tmp_path):
        src = tmp_path / "pad.txt"
        src.write_text("0 1\n")
        dest = tmp_path / "pad.rcsr"
        convert_edge_list(src, dest, num_vertices=10)
        assert open_rcsr(dest).num_vertices == 10

    def test_adjacency_lists_sorted(self, tmp_path):
        src = tmp_path / "order.txt"
        src.write_text("5 0\n3 0\n0 4\n0 1\n2 0\n")
        dest = tmp_path / "order.rcsr"
        convert_edge_list(src, dest, chunk_bytes=8)
        graph = open_rcsr(dest)
        neighbors = graph.neighbors(0)
        assert neighbors.tolist() == sorted(neighbors.tolist())


class TestCatalog:
    def test_auto_convert_and_cache_hit(self, tmp_path, social_graph, monkeypatch):
        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        catalog = GraphCatalog(tmp_path / "cache")
        first = catalog.load(src)
        assert first == social_graph
        assert first.is_memory_mapped

        # Second touch must be a pure binary open: no text parsing at all.
        def boom(*args, **kwargs):
            raise AssertionError("text parser invoked on a cache hit")

        monkeypatch.setattr(graph_io, "iter_edge_chunks", boom)
        monkeypatch.setattr(graph_io, "read_edge_list", boom)
        again = catalog.load(src)
        assert again == social_graph
        assert isinstance(again.indptr, np.memmap)
        assert isinstance(again.indices, np.memmap)

    def test_source_change_triggers_reconvert(self, tmp_path):
        src = tmp_path / "graph.txt"
        src.write_text("0 1\n1 2\n")
        catalog = GraphCatalog(tmp_path / "cache")
        assert catalog.load(src).num_edges == 2
        src.write_text("0 1\n1 2\n2 3\n3 4\n")
        assert catalog.load(src).num_edges == 4

    def test_sidecar_metadata(self, tmp_path):
        graph = road_network_graph(6, 6, seed=2)
        src = tmp_path / "road.txt"
        write_edge_list(graph, src)
        catalog = GraphCatalog(tmp_path / "cache")
        info = catalog.info(src)
        assert info.num_vertices == graph.num_vertices
        assert info.num_edges == graph.num_edges
        assert info.max_degree == int(np.diff(graph.indptr).max())
        assert info.num_components == 1
        assert info.diameter_estimate >= 1
        assert info.checksum.startswith("crc32:")
        sidecar = json.loads(
            (catalog.rcsr_path_for(src).with_name(catalog.rcsr_path_for(src).name + ".json")).read_text()
        )
        assert sidecar["num_edges"] == graph.num_edges

    def test_register_and_load_by_name(self, tmp_path, social_graph):
        catalog = GraphCatalog(tmp_path / "cache")
        catalog.store_graph(social_graph, "my-dataset")
        assert "my-dataset" in catalog.names()
        assert catalog.load("my-dataset") == social_graph
        assert catalog.info("my-dataset").num_edges == social_graph.num_edges

    def test_auto_and_explicit_fmt_share_cache_entry(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("0 1\n1 2\n")
        catalog = GraphCatalog(tmp_path / "cache")
        assert not catalog.convert(src, fmt="edgelist").cache_hit
        assert catalog.convert(src).cache_hit  # fmt='auto' resolves the same
        assert catalog.convert(src, fmt="edgelist").cache_hit

    def test_changed_conversion_params_bypass_cache(self, tmp_path):
        src = tmp_path / "konect.txt"
        src.write_text("1 2\n2 3\n3 1\n")
        catalog = GraphCatalog(tmp_path / "cache")
        first = catalog.convert(src)  # auto-detects 1-indexed: 3 vertices
        assert not first.cache_hit
        assert first.num_vertices == 3
        hit = catalog.convert(src)
        assert hit.cache_hit
        assert hit.zero_indexed is False  # echoes the detected base, not a stub
        # Same source, different semantics: must re-convert, not serve stale.
        forced_zero = catalog.convert(src, zero_indexed=True)
        assert not forced_zero.cache_hit
        assert forced_zero.num_vertices == 4

    def test_metis_rejects_edge_list_options(self, tmp_path):
        from repro.store import convert_any

        src = tmp_path / "g.metis"
        src.write_text("2 1\n2\n1\n")
        with pytest.raises(ValueError, match="not supported for METIS"):
            convert_any(src, tmp_path / "g.rcsr", num_vertices=5)

    def test_middle_graph_suffix_is_edgelist(self, tmp_path):
        # 'web.graph.txt' is an edge list; only a *final* .graph/.metis
        # suffix selects the METIS parser.
        from repro.store import convert_any

        src = tmp_path / "web.graph.txt"
        src.write_text("0 1\n1 2\n2 0\n3 0\n")
        report = convert_any(src, tmp_path / "web.rcsr")
        assert report.num_vertices == 4
        assert report.num_edges == 4

    def test_stale_sidecar_is_not_trusted(self, tmp_path, social_graph):
        catalog = GraphCatalog(tmp_path / "cache")
        path = catalog.store_graph(social_graph, "ds")
        assert catalog.cached_info(path) is not None
        # Overwrite the container behind the sidecar's back (CSRGraph.save
        # over a cataloged path / interrupted conversion): checksum mismatch.
        write_rcsr(barabasi_albert(50, 2, seed=1), path)
        assert catalog.cached_info(path) is None
        recomputed = catalog.info(path)
        assert recomputed.num_vertices == 50

    def test_register_preserves_other_entries(self, tmp_path, social_graph):
        cache = tmp_path / "cache"
        a, b = GraphCatalog(cache), GraphCatalog(cache)
        a.store_graph(social_graph, "first")
        b.store_graph(barabasi_albert(60, 2, seed=2), "second")
        assert a.names() == ["first", "second"]

    def test_info_survives_readonly_sidecar_location(self, tmp_path, social_graph, monkeypatch):
        import repro.store.catalog as catalog_module

        path = tmp_path / "g.rcsr"
        write_rcsr(social_graph, path)

        def denied(dest):
            raise PermissionError(f"read-only: {dest}")

        monkeypatch.setattr(catalog_module, "atomic_replace", denied)
        info = GraphCatalog(tmp_path / "cache").info(path)
        assert info.num_vertices == social_graph.num_vertices
        assert not (tmp_path / "g.rcsr.json").exists()

    def test_unknown_spec_raises(self, tmp_path):
        catalog = GraphCatalog(tmp_path / "cache")
        with pytest.raises(FileNotFoundError):
            catalog.load("no-such-dataset")

    def test_unknown_spec_error_lists_names_and_suggests(self, tmp_path, social_graph):
        catalog = GraphCatalog(tmp_path / "cache")
        path = tmp_path / "g.rcsr"
        write_rcsr(social_graph, path)
        catalog.register("roadNet-PA", path)
        catalog.register("orkut", path)
        with pytest.raises(FileNotFoundError) as exc:
            catalog.resolve("roadnet-pa")
        message = str(exc.value)
        # The error names every registered dataset and spell-corrects.
        assert "roadNet-PA" in message and "orkut" in message
        assert "did you mean" in message and "'roadNet-PA'" in message
        # No near-miss: still lists the registry, but offers no guess.
        with pytest.raises(FileNotFoundError) as exc:
            catalog.resolve("zzzz")
        assert "did you mean" not in str(exc.value)
        assert "orkut" in str(exc.value)

    def test_load_graph_uses_env_cache(self, tmp_path, social_graph):
        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        graph = load_graph(src)  # default catalog: $REPRO_GRAPH_CACHE
        assert graph == social_graph
        assert graph.is_memory_mapped


class TestMappedGraphMemo:
    """A container is mapped once per version: its ``(inode, size, mtime)``."""

    def test_an_unchanged_file_is_the_same_graph(self, tmp_path, stored_path, social_graph):
        first = GraphCatalog(tmp_path / "cache").load(stored_path)
        assert first == social_graph and first.is_memory_mapped
        assert GraphCatalog(tmp_path / "other-cache").load(stored_path) is first
        assert load_graph(stored_path) is first
        # Read into memory, a load is always a fresh copy.
        copy = load_graph(stored_path, mmap=False)
        assert copy == first and not copy.is_memory_mapped
        assert load_graph(stored_path, mmap=False) is not copy

    def test_a_replaced_file_is_mapped_again(self, stored_path, social_graph):
        import os

        first = load_graph(stored_path)
        before = os.stat(stored_path)
        changed = barabasi_albert(400, 3, seed=14)
        write_rcsr(changed, stored_path)  # through atomic_replace: a new inode
        os.utime(stored_path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(stored_path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        again = load_graph(stored_path)
        assert again is not first and again == changed
        assert first == social_graph  # the old mapping still reads the old version
        assert load_graph(stored_path) is again

    def test_a_loaded_graph_holds_no_state_to_share(self, stored_path):
        """What makes one object safe for every thread: fixed slots, read-only arrays."""
        graph = load_graph(stored_path)
        assert not hasattr(graph, "__dict__")
        with pytest.raises(AttributeError):
            graph.cached = 1
        assert not graph.indptr.flags.writeable and not graph.indices.flags.writeable


class TestFacadeAndDriverIntegration:
    def test_facade_accepts_path(self, tmp_path, social_graph):
        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        result = estimate_betweenness(
            str(src), algorithm="sequential", eps=0.2, seed=3, max_samples_override=500
        )
        assert result.scores.size == social_graph.num_vertices
        assert result.backend == "sequential"

    def test_distributed_ranks_inherit_the_callers_graph(self, tmp_path, social_graph, monkeypatch):
        path = tmp_path / "graph.rcsr"
        write_rcsr(social_graph, path)
        stored = open_rcsr(path)
        assert stored.is_memory_mapped
        # Ranks 1.. are forked from the caller, so an open in any of them is
        # only visible through the file system, not through a list here.
        opens = tmp_path / "opens.log"
        real_open = store_format.open_rcsr

        def counting_open(p, **kwargs):
            with open(opens, "a") as log:
                log.write(f"{p}\n")
            return real_open(p, **kwargs)

        monkeypatch.setattr(store_format, "open_rcsr", counting_open)
        options = KadabraOptions(
            eps=0.2, seed=9, calibration_samples=50, max_samples_override=400, samples_per_check=50
        )
        resources = Resources(processes=2, threads=2)
        distributed = estimate_betweenness(
            stored, algorithm="distributed", options=options, resources=resources
        )
        assert distributed.scores.size == social_graph.num_vertices
        assert distributed.num_samples > 0
        assert float(distributed.scores.max()) <= 1.0
        in_memory = estimate_betweenness(
            social_graph, algorithm="distributed", options=options, resources=resources
        )
        assert in_memory.scores.size == distributed.scores.size
        # Mapped or in memory, every rank samples from the graph it inherited;
        # nobody goes back to the store.
        assert not opens.exists()

    def test_memmap_graph_runs_all_sequential_backends(self, stored_path):
        graph = open_rcsr(stored_path)
        result = estimate_betweenness(
            graph, algorithm="sequential", eps=0.2, seed=1, max_samples_override=400
        )
        assert result.scores.size == graph.num_vertices


class TestCli:
    def test_convert_and_info_subcommands(self, tmp_path, social_graph, capsys):
        from repro.cli import main

        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        dest = tmp_path / "graph.rcsr"
        assert main(["convert", str(src), str(dest)]) == 0
        out = capsys.readouterr().out
        assert "converted" in out
        assert str(social_graph.num_edges) in out

        assert main(["info", str(dest)]) == 0
        out = capsys.readouterr().out
        assert f"vertices:          {social_graph.num_vertices}" in out

        assert main(["info", str(dest), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_edges"] == social_graph.num_edges

    def test_convert_cache_hit_reported(self, tmp_path, social_graph, capsys):
        from repro.cli import main

        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        assert main(["convert", str(src)]) == 0
        capsys.readouterr()
        assert main(["convert", str(src)]) == 0
        assert "cached" in capsys.readouterr().out

    def test_convert_missing_input(self, capsys):
        from repro.cli import main

        assert main(["convert", "/no/such/file.txt"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_info_missing_input(self, capsys):
        from repro.cli import main

        assert main(["info", "/no/such/file.rcsr"]) == 2
        assert capsys.readouterr().err.startswith("error")

    def test_info_unreadable_sections_exit_cleanly(self, tmp_path, social_graph, capsys):
        """The header reads; the arrays routing would look at do not."""
        from repro.cli import main
        from repro.store.format import read_header

        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        dest = tmp_path / "graph.rcsr"
        assert main(["convert", str(src), str(dest)]) == 0
        with open(dest, "r+b") as fh:
            fh.seek(read_header(dest).indptr_offset)
            fh.write(b"\x07" * 8)
        capsys.readouterr()
        assert main(["info", str(dest)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error") and "indptr" in captured.err
        assert captured.out == ""

    def test_estimate_on_rcsr_input(self, tmp_path, social_graph, capsys):
        from repro.cli import main

        path = tmp_path / "graph.rcsr"
        write_rcsr(social_graph, path)
        code = main([str(path), "--eps", "0.3", "--seed", "1", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "memory-mapped" in out

    def test_estimate_text_input_populates_cache(self, tmp_path, social_graph, capsys):
        from repro.cli import main
        from repro.store import default_cache_dir

        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        assert main([str(src), "--eps", "0.3", "--seed", "1", "--top", "3"]) == 0
        assert list(default_cache_dir().glob("*.rcsr"))
        assert "memory-mapped" in capsys.readouterr().out

    def test_estimate_no_cache_flag(self, tmp_path, social_graph, capsys):
        from repro.cli import main
        from repro.store import default_cache_dir

        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        assert main([str(src), "--no-cache", "--eps", "0.3", "--seed", "1"]) == 0
        assert not list(default_cache_dir().glob("*.rcsr"))


class TestStoredGeneratedGraphs:
    @pytest.mark.parametrize(
        "build",
        [lambda: road_network_graph(12, 12, seed=2), lambda: barabasi_albert(913, 7, seed=2)],
        ids=["road", "social"],
    )
    def test_store_graph_round_trip_is_memory_mapped(self, tmp_path, build):
        graph = build()
        catalog = GraphCatalog(tmp_path / "cache")
        path = catalog.store_graph(graph, "generated")
        first = open_rcsr(path)
        assert first.is_memory_mapped
        assert first == graph
        assert catalog.load("generated") == first

    def test_load_by_name_and_by_path(self, tmp_path, social_graph):
        catalog = GraphCatalog(tmp_path / "cache")
        catalog.store_graph(road_network_graph(8, 8, seed=1), "road")
        assert catalog.load("road").num_vertices > 0
        src = tmp_path / "graph.txt"
        write_edge_list(social_graph, src)
        assert catalog.load(src) == social_graph


class TestPayloadSizing:
    def test_arrays_and_containers_never_pickled(self, monkeypatch):
        import repro.mpi.hub as hub

        def boom(*args, **kwargs):
            raise AssertionError("pickle.dumps called for a sizeable payload")

        monkeypatch.setattr(hub.pickle, "dumps", boom)
        arr = np.zeros(1000, dtype=np.float64)
        assert hub._payload_bytes(arr) == arr.nbytes
        assert hub._payload_bytes([arr, arr]) == 2 * arr.nbytes
        assert hub._payload_bytes((1, 2.5, None)) == 24
        assert hub._payload_bytes({"a": arr}) == 1 + arr.nbytes
        assert hub._payload_bytes(b"xyz") == 3
        assert hub._payload_bytes("hello") == 5

    def test_memmap_payload_uses_nbytes(self, stored_path, monkeypatch):
        import repro.mpi.hub as hub

        monkeypatch.setattr(
            hub.pickle, "dumps", lambda *a, **k: pytest.fail("pickled a memmap")
        )
        graph = open_rcsr(stored_path)
        assert hub._payload_bytes(graph.indices) == graph.indices.nbytes
