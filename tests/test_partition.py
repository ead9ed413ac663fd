"""Tests for partitioned ``.rcsr`` shards (``repro.store.partition``).

Covers the distributed-store acceptance criteria: shard round-trip equality
with the monolithic graph, corrupt / missing-shard rejection, catalog
auto-partition idempotency, arc-balanced boundary properties, and the
sharded path sampler feeding the unchanged adaptive-sampling core.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from fixture_graphs import path_graph, star_graph

from repro.core.kadabra import make_sampler
from repro.graph.generators import barabasi_albert
from repro.store import (
    GraphCatalog,
    PartitionError,
    PartitionManifest,
    PartitionedGraphView,
    ShardedPathSampler,
    find_manifests,
    manifest_path_for,
    partition_boundaries,
    partition_rcsr,
    write_rcsr,
)


@pytest.fixture()
def stored_social(tmp_path, small_social_graph):
    path = tmp_path / "social.rcsr"
    write_rcsr(small_social_graph, path)
    return path


class TestBoundaries:
    def test_cover_all_vertices_strictly_increasing(self, small_social_graph):
        for parts in (1, 2, 3, 7):
            bounds = partition_boundaries(small_social_graph.indptr, parts)
            assert bounds[0] == 0
            assert bounds[-1] == small_social_graph.num_vertices
            assert np.all(np.diff(bounds) >= 1)
            assert len(bounds) == parts + 1

    def test_arc_balance_on_uniform_graph(self):
        graph = path_graph(100)
        bounds = partition_boundaries(graph.indptr, 4)
        sizes = np.diff(bounds)
        assert sizes.max() - sizes.min() <= 2

    def test_skewed_graph_still_partitions(self):
        # A star puts nearly all arcs on vertex 0; every part must still be
        # non-empty even though arc balance is impossible.
        graph = star_graph(16)
        bounds = partition_boundaries(graph.indptr, 4)
        assert np.all(np.diff(bounds) >= 1)
        assert bounds[-1] == graph.num_vertices

    def test_invalid_part_counts_rejected(self, small_social_graph):
        with pytest.raises(PartitionError):
            partition_boundaries(small_social_graph.indptr, 0)
        with pytest.raises(PartitionError):
            partition_boundaries(small_social_graph.indptr, 81)


class TestPartitionRoundTrip:
    def test_shards_reassemble_to_monolithic(self, stored_social, small_social_graph):
        manifest = partition_rcsr(stored_social, 3)
        assert manifest.num_parts == 3
        assert manifest.num_vertices == small_social_graph.num_vertices
        assert manifest.num_arcs == small_social_graph.indices.shape[0]
        view = PartitionedGraphView(manifest, own_part=0)
        for v in range(small_social_graph.num_vertices):
            np.testing.assert_array_equal(
                view.neighbors(v), small_social_graph.neighbors(v)
            )
            assert view.degree(v) == small_social_graph.degree(v)

    def test_manifest_save_load_round_trip(self, stored_social):
        manifest = partition_rcsr(stored_social, 2)
        loaded = PartitionManifest.load(manifest_path_for(stored_social, 2))
        assert loaded.num_parts == manifest.num_parts
        assert loaded.source_checksum == manifest.source_checksum
        assert loaded.vertex_diameter == manifest.vertex_diameter
        np.testing.assert_array_equal(loaded.boundaries, manifest.boundaries)

    def test_view_maps_only_own_shard_eagerly(self, stored_social):
        manifest = partition_rcsr(stored_social, 4)
        view = PartitionedGraphView(manifest, own_part=2)
        assert view.eager_parts() == (2,)
        assert view.loaded_parts() == (2,)
        # Touching a remote vertex lazily maps its shard.
        view.neighbors(0)
        assert 0 in view.loaded_parts()


class TestShardValidation:
    def test_missing_shard_rejected(self, stored_social):
        manifest = partition_rcsr(stored_social, 3)
        manifest.shard_path(1).unlink()
        with pytest.raises(PartitionError, match="missing"):
            PartitionedGraphView(manifest, own_part=1)

    def test_corrupt_shard_rejected(self, stored_social):
        manifest = partition_rcsr(stored_social, 2)
        shard = manifest.shard_path(1)
        raw = bytearray(shard.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte past the header
        shard.write_bytes(bytes(raw))
        with pytest.raises(PartitionError):
            manifest.validate_shards(deep=True)

    def test_stale_manifest_detected(self, tmp_path, stored_social):
        partition_rcsr(stored_social, 2)
        manifest = PartitionManifest.load(manifest_path_for(stored_social, 2))
        # Rewrite the source with a different graph: checksum no longer matches.
        write_rcsr(barabasi_albert(80, 2, seed=1), stored_social)
        assert not manifest.matches_source(stored_social)

    def test_corrupt_manifest_json_rejected(self, stored_social):
        partition_rcsr(stored_social, 2)
        path = manifest_path_for(stored_social, 2)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(PartitionError):
            PartitionManifest.load(path)


class TestIdempotency:
    def test_repartition_reuses_existing_shards(self, stored_social):
        first = partition_rcsr(stored_social, 3)
        stamps = {k: first.shard_path(k).stat().st_mtime_ns for k in range(3)}
        second = partition_rcsr(stored_social, 3)
        assert second.source_checksum == first.source_checksum
        for k in range(3):
            assert second.shard_path(k).stat().st_mtime_ns == stamps[k]

    def test_force_rebuilds(self, stored_social):
        first = partition_rcsr(stored_social, 2)
        stamps = {k: first.shard_path(k).stat().st_mtime_ns for k in range(2)}
        second = partition_rcsr(stored_social, 2, force=True)
        assert any(
            second.shard_path(k).stat().st_mtime_ns != stamps[k] for k in range(2)
        )

    def test_catalog_partition_and_view(self, stored_social):
        catalog = GraphCatalog()
        manifest = catalog.partition(str(stored_social), 2)
        assert manifest.num_parts == 2
        view = PartitionedGraphView(catalog.partition(str(stored_social), 2), 1)
        assert view.eager_parts() == (1,)

    def test_find_manifests_sorted(self, stored_social):
        partition_rcsr(stored_social, 4)
        partition_rcsr(stored_social, 2)
        found = find_manifests(stored_social)
        assert [m.num_parts for m in found] == [2, 4]


class TestShardedSampler:
    def test_make_sampler_routes_to_native(self, stored_social, quick_options):
        manifest = partition_rcsr(stored_social, 2)
        view = PartitionedGraphView(manifest, own_part=0)
        sampler = make_sampler(view, quick_options)
        assert isinstance(sampler, ShardedPathSampler)

    def test_sampled_paths_are_shortest_paths(
        self, stored_social, small_social_graph, quick_options
    ):
        from repro.graph.traversal import bfs_distances

        manifest = partition_rcsr(stored_social, 2)
        view = PartitionedGraphView(manifest, own_part=1)
        sampler = ShardedPathSampler(view)
        for sample in sampler.sample_batch(30, np.random.default_rng(5)).iter_samples():
            if not sample.connected:
                continue
            src, dst = sample.source, sample.target
            dist = bfs_distances(small_social_graph, src).distances
            assert sample.length == dist[dst]
            # Internal vertices form a contiguous shortest path.
            prev = src
            for depth, v in enumerate(sample.internal_vertices, start=1):
                assert dist[v] == depth
                assert v in small_social_graph.neighbors(prev)
                prev = v
            if sample.length > 0:
                assert dst in small_social_graph.neighbors(prev)

    def test_batch_matches_singles_distributionally(self, stored_social, quick_options):
        manifest = partition_rcsr(stored_social, 3)
        view = PartitionedGraphView(manifest, own_part=0)
        sampler = ShardedPathSampler(view)
        batch = sampler.sample_batch(64, np.random.default_rng(9))
        assert batch.sources.shape == (64,)
        assert int(batch.connected.sum()) > 0
        assert batch.contrib_indptr.shape == (65,)

    def test_a_batch_of_k_is_k_batches_of_one(self, stored_social):
        view = PartitionedGraphView(partition_rcsr(stored_social, 2), own_part=1)
        sampler = ShardedPathSampler(view)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        batch = sampler.sample_batch(20, rng_a)
        for expected in batch.iter_samples():
            (sample,) = sampler.sample_batch(1, rng_b).iter_samples()
            assert (sample.source, sample.target, sample.length, sample.edges_touched) == (
                expected.source, expected.target, expected.length, expected.edges_touched
            )
            assert np.array_equal(sample.internal_vertices, expected.internal_vertices)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_kadabra_options_accept_view(self, stored_social, quick_options):
        # The epoch framework only needs num_vertices + a sampler; smoke one
        # calibration-sized run through the exact sequential baseline inputs.
        manifest = partition_rcsr(stored_social, 2)
        view = PartitionedGraphView(manifest, own_part=0)
        sampler = make_sampler(view, quick_options)
        batch = sampler.sample_batch(50, np.random.default_rng(2))
        assert int(batch.connected.sum()) > 0
