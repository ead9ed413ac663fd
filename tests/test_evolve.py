"""Tests of the evolving-graph pipeline: deltas, lineage, incremental updates.

The acceptance properties of :mod:`repro.evolve` live here:

* the invalidation test is exact on handcrafted graphs (deleted edge on a
  shortest path, inserted shortcut, new equal-length path, reconnection);
* an incremental update keeps the per-sample log consistent with the
  aggregate frame at all times, and the re-certified estimate meets the
  (eps, delta) guarantee against exact Brandes on the child graph;
* a delta past the invalidation threshold refuses *before* mutating state;
* the facade's ``update_from`` degrades to a cold run (with a warning) when
  the optimization is unavailable, but still raises on contract violations;
* a session checkpoint cannot be restored against a silently mutated graph,
  while ``update_session`` carries it across the same mutation on purpose.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.brandes import brandes_betweenness
from repro.cli import main as cli_main
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.evolve import (
    EvolveError,
    UpdateThresholdExceeded,
    invalidated_samples,
    update_session,
)
from repro.graph.csr import CSRGraph
from repro.graph.io import write_edge_list
from repro.graph.traversal import bfs_distances
from repro.session import EstimationSession, SnapshotError
from repro.session.sample_log import SampleLog
from repro.store import DeltaError, GraphCatalog, GraphDelta, apply_delta


#: Any JSON value a hostile or buggy writer could put in a delta file.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edge_array()}


def connected(graph):
    return int((bfs_distances(graph, 0).distances >= 0).sum()) == graph.num_vertices


def make_delta(graph, num_delete=2, num_insert=2, *, keep_connected=True):
    """A delta of existing-edge deletions (connectivity-preserving) plus
    absent-edge insertions, deterministic for a given graph."""
    deletions = []
    current = graph
    for u, v in sorted(edge_set(graph)):
        if len(deletions) == num_delete:
            break
        candidate = apply_delta(current, GraphDelta(deletions=[(u, v)]))
        if keep_connected and not connected(candidate):
            continue
        deletions.append((u, v))
        current = candidate
    insertions = []
    for u in range(graph.num_vertices):
        for v in range(u + 1, graph.num_vertices):
            if len(insertions) == num_insert:
                break
            if not graph.has_edge(u, v):
                insertions.append((u, v))
    assert len(deletions) == num_delete and len(insertions) == num_insert
    return GraphDelta(insertions=insertions, deletions=deletions)


def run_parent(graph, *, eps=0.1, delta=0.1, seed=5):
    session = EstimationSession(graph, KadabraOptions(eps=eps, delta=delta, seed=seed))
    result = session.run()
    return session, result


# --------------------------------------------------------------------- #
# GraphDelta: canonical form, validation, serialization
# --------------------------------------------------------------------- #
class TestGraphDelta:
    def test_canonicalizes_orientation_order_and_duplicates(self):
        d = GraphDelta(insertions=[(3, 1), (1, 3), (0, 2)], deletions=[(5, 4)])
        assert d.insertions.tolist() == [[0, 2], [1, 3]]
        assert d.deletions.tolist() == [[4, 5]]
        assert d.num_insertions == 2 and d.num_deletions == 1 and d.num_edges == 3

    def test_equal_deltas_compare_equal_regardless_of_input_order(self):
        a = GraphDelta(insertions=[(2, 1), (0, 3)])
        b = GraphDelta(insertions=[(3, 0), (1, 2)])
        assert a == b
        assert a.as_dict() == b.as_dict()

    def test_rejects_self_loops_negatives_and_bad_shapes(self):
        with pytest.raises(DeltaError, match="self-loop"):
            GraphDelta(insertions=[(1, 1)])
        with pytest.raises(DeltaError, match="negative"):
            GraphDelta(deletions=[(-1, 2)])
        with pytest.raises(DeltaError, match="shaped"):
            GraphDelta(insertions=[(1, 2, 3)])
        with pytest.raises(DeltaError, match="integer"):
            GraphDelta(insertions=[(0.5, 2)])

    def test_rejects_edge_in_both_insert_and_delete(self):
        with pytest.raises(DeltaError, match="both insert and delete"):
            GraphDelta(insertions=[(0, 1)], deletions=[(1, 0)])

    def test_json_roundtrip(self, tmp_path):
        d = GraphDelta(insertions=[(0, 4)], deletions=[(1, 2), (2, 3)])
        path = d.save(tmp_path / "delta.json")
        assert GraphDelta.load(path) == d
        assert GraphDelta.from_dict(json.loads(path.read_text())) == d
        assert d.as_dict()["version"] == 1

    def test_from_dict_rejects_bad_payloads(self):
        with pytest.raises(DeltaError, match="version"):
            GraphDelta.from_dict({"version": 99})
        with pytest.raises(DeltaError, match="unknown"):
            GraphDelta.from_dict({"insert": [], "extra": 1})
        with pytest.raises(DeltaError, match="object"):
            GraphDelta.from_dict([1, 2])

    @pytest.mark.parametrize(
        "edges",
        [
            5,
            None,
            "",
            {"0": [1, 2]},
            [[1, 2], [3]],
            [[1, [2]]],
            [[2**70, 1]],
            [[2**63, 1]],
            [[-2**70, 1]],
            [["a", "b"]],
            [[None, 1]],
            [[True, 2]],
            [[1.0, 2]],
        ],
    )
    @pytest.mark.parametrize("key", ["insert", "delete"])
    def test_from_dict_rejects_malformed_edge_lists(self, key, edges):
        with pytest.raises(DeltaError, match=key):
            GraphDelta.from_dict({key: edges})

    def test_from_dict_accepts_the_largest_vertex_id(self):
        delta = GraphDelta.from_dict({"insert": [[2**63 - 1, 0]], "delete": []})
        assert delta.insertions.tolist() == [[0, 2**63 - 1]]

    @pytest.mark.parametrize("key", ["insert", "delete"])
    @settings(max_examples=60, deadline=None)
    @given(value=JSON_VALUES)
    def test_fuzzed_edge_list_loads_or_raises_delta_error(self, key, value):
        try:
            GraphDelta.from_dict({key: value})
        except DeltaError:
            pass

    def test_cli_apply_rejects_malformed_delta_file(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        write_edge_list(CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3), graph)
        delta_file = tmp_path / "d.json"
        delta_file.write_text(json.dumps({"insert": [[1, 2], [3]]}))
        assert cli_main(["evolve", "apply", str(graph), "--delta-file", str(delta_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "insert[1]" in err

    def test_validate_against_checks_applicability(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        GraphDelta(insertions=[(0, 2)], deletions=[(0, 1)]).validate_against(graph)
        with pytest.raises(DeltaError, match="cannot delete"):
            GraphDelta(deletions=[(0, 2)]).validate_against(graph)
        with pytest.raises(DeltaError, match="cannot insert"):
            GraphDelta(insertions=[(1, 2)]).validate_against(graph)
        with pytest.raises(DeltaError, match="grow the vertex set"):
            GraphDelta(insertions=[(0, 7)]).validate_against(graph)

    def test_apply_delta_produces_expected_edge_set(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        child = apply_delta(
            graph, GraphDelta(insertions=[(0, 3)], deletions=[(1, 2)])
        )
        assert child.num_vertices == 4
        assert edge_set(child) == {(0, 1), (2, 3), (0, 3)}

    def test_empty_delta_is_identity(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        child = apply_delta(graph, GraphDelta())
        assert edge_set(child) == edge_set(graph)
        assert GraphDelta().is_empty


# --------------------------------------------------------------------- #
# Catalog: versioned children + lineage records
# --------------------------------------------------------------------- #
class TestCatalogLineage:
    def write_graph(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n")
        return src

    def test_apply_delta_writes_child_and_lineage(self, tmp_path):
        catalog = GraphCatalog(tmp_path / "cache")
        src = self.write_graph(tmp_path)
        parent_path = catalog.resolve(src)
        delta = GraphDelta(insertions=[(0, 3)], deletions=[(0, 1)])
        child_path = catalog.apply_delta(src, delta, name="g-v2")

        assert child_path.exists() and child_path.suffix == ".rcsr"
        record = catalog.lineage(catalog.checksum(child_path))
        assert record is not None
        assert record["parent_checksum"] == catalog.checksum(parent_path)
        assert GraphDelta.from_dict(record["delta"]) == delta
        assert catalog.resolve("g-v2") == child_path

        from repro.store import open_rcsr

        child = open_rcsr(child_path)
        assert edge_set(child) == {(1, 2), (0, 2), (2, 3), (3, 4), (0, 3)}

    def test_rederiving_same_delta_shares_one_child_file(self, tmp_path):
        catalog = GraphCatalog(tmp_path / "cache")
        src = self.write_graph(tmp_path)
        delta = GraphDelta(deletions=[(0, 1)])
        first = catalog.apply_delta(src, delta)
        second = catalog.apply_delta(src, delta)
        assert first == second

    def test_root_graphs_have_no_lineage(self, tmp_path):
        catalog = GraphCatalog(tmp_path / "cache")
        src = self.write_graph(tmp_path)
        assert catalog.lineage(catalog.checksum(catalog.resolve(src))) is None


# --------------------------------------------------------------------- #
# Exact invalidation on handcrafted graphs
# --------------------------------------------------------------------- #
class TestInvalidation:
    def test_deletion_invalidates_exactly_the_touched_pairs(self):
        # Square cycle 0-1-2-3-0; delete (0, 1).
        parent = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)], num_vertices=4)
        delta = GraphDelta(deletions=[(0, 1)])
        child = apply_delta(parent, delta)
        # (0,2): both shortest paths exist, one traverses the deleted edge.
        # (2,3): shortest path untouched.  (0,1): the deleted edge itself.
        log = SampleLog(
            sources=[0, 2, 0],
            targets=[2, 3, 1],
            lengths=[2, 1, 1],
            indptr=[0, 1, 1, 1],
            vertices=[1],
        )
        mask, num_bfs = invalidated_samples(parent, child, delta, log)
        assert mask.tolist() == [True, False, True]
        assert num_bfs == 2  # one per deleted-edge endpoint, parent side only

    def test_insertion_invalidates_shorter_and_equal_length_paths(self):
        # Path 0-1-2-3; insert the chord (0, 3).
        parent = CSRGraph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        delta = GraphDelta(insertions=[(0, 3)])
        child = apply_delta(parent, delta)
        # (0,3): strictly shorter now.  (0,2): new equal-length path 0-3-2
        # changes the path *set* without changing the distance.  (1,2): the
        # chord offers only a longer detour.
        log = SampleLog(
            sources=[0, 0, 1],
            targets=[3, 2, 2],
            lengths=[3, 2, 1],
            indptr=[0, 2, 3, 3],
            vertices=[1, 2, 1],
        )
        mask, _ = invalidated_samples(parent, child, delta, log)
        assert mask.tolist() == [True, True, False]

    def test_insertion_reconnecting_components_invalidates_disconnected_pairs(self):
        parent = CSRGraph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        delta = GraphDelta(insertions=[(1, 2)])
        child = apply_delta(parent, delta)
        # (0,2) was disconnected (logged length -1); the insertion connects it.
        # (0,1) stays a direct edge.
        log = SampleLog(
            sources=[0, 0],
            targets=[2, 1],
            lengths=[-1, 1],
            indptr=[0, 0, 0],
            vertices=[],
        )
        mask, _ = invalidated_samples(parent, child, delta, log)
        assert mask.tolist() == [True, False]

    def test_empty_delta_invalidates_nothing(self):
        parent = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        log = SampleLog(
            sources=[0], targets=[2], lengths=[2], indptr=[0, 1], vertices=[1]
        )
        mask, num_bfs = invalidated_samples(parent, parent, GraphDelta(), log)
        assert not mask.any() and num_bfs == 0


# --------------------------------------------------------------------- #
# SampleLog: construction, surgery, snapshot round-trip
# --------------------------------------------------------------------- #
class TestSampleLog:
    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            SampleLog(sources=[0, 1], targets=[1], lengths=[1, 1],
                      indptr=[0, 0, 0], vertices=[])
        with pytest.raises(ValueError, match="layout"):
            SampleLog(sources=[0], targets=[1], lengths=[1],
                      indptr=[0, 3], vertices=[2])

    def test_snapshot_roundtrip_preserves_all_arrays(self):
        log = SampleLog(
            sources=[0, 4, 2], targets=[3, 1, 5], lengths=[2, -1, 3],
            indptr=[0, 1, 1, 3], vertices=[7, 8, 9],
        )
        back = SampleLog.from_snapshot_arrays(
            {k: v.astype(np.float64) for k, v in log.snapshot_arrays().items()}
        )
        for name in ("sources", "targets", "lengths", "indptr", "vertices"):
            assert np.array_equal(getattr(back, name), getattr(log, name))

    def test_live_session_log_matches_frame(self, small_social_graph):
        session, result = run_parent(small_social_graph, eps=0.15)
        log = session.sample_log
        assert log is not None and log.num_samples == result.num_samples
        expected = np.zeros(small_social_graph.num_vertices)
        np.add.at(expected, log.vertices, 1.0)
        assert np.array_equal(session._frame.counts, expected)


# --------------------------------------------------------------------- #
# update_session: surgery + re-certification
# --------------------------------------------------------------------- #
class TestUpdateSession:
    def test_update_meets_guarantee_and_keeps_log_consistent(self, small_social_graph):
        eps, fail = 0.1, 0.1
        session, parent_result = run_parent(small_social_graph, eps=eps, delta=fail)
        tau_parent = parent_result.num_samples
        delta_obj = make_delta(small_social_graph, num_delete=3, num_insert=3)
        child = apply_delta(small_social_graph, delta_obj)

        session, report = update_session(session, child, delta_obj)

        assert report.parent_samples == tau_parent
        assert report.samples_invalidated > 0
        assert report.samples_reused == tau_parent - report.samples_invalidated
        assert report.samples_invalidated + report.samples_reused == tau_parent
        result = report.result
        assert result.samples_invalidated == report.samples_invalidated
        assert result.samples_reused == report.samples_reused
        assert result.samples_drawn == result.num_samples - result.samples_reused
        assert result.eps == eps and result.delta == fail
        assert 0.0 < result.extra["invalidated_fraction"] <= 1.0
        assert result.extra["update_bfs"] == report.num_bfs

        # The session now lives on the child, log consistent with the frame.
        assert session.graph is child
        log = session.sample_log
        expected = np.zeros(child.num_vertices)
        np.add.at(expected, log.vertices, 1.0)
        assert np.array_equal(session._frame.counts, expected)
        # Every logged length is a true child distance (spot check).
        for i in range(0, log.num_samples, max(1, log.num_samples // 25)):
            s, t, d = int(log.sources[i]), int(log.targets[i]), int(log.lengths[i])
            true = int(bfs_distances(child, s).distances[t])
            assert d == true

        # The re-certified estimate meets the guarantee against exact scores.
        exact = brandes_betweenness(child).scores
        assert float(np.max(np.abs(result.scores - exact))) <= eps

    def test_updated_session_refines_further(self, small_social_graph):
        session, _ = run_parent(small_social_graph, eps=0.2)
        delta_obj = make_delta(small_social_graph, num_delete=1, num_insert=1)
        child = apply_delta(small_social_graph, delta_obj)
        session, report = update_session(session, child, delta_obj)
        refined = session.refine(0.1, 0.1)
        assert refined.num_samples >= report.result.num_samples
        exact = brandes_betweenness(child).scores
        assert float(np.max(np.abs(refined.scores - exact))) <= 0.1

    def test_empty_delta_reuses_everything(self, small_social_graph):
        session, parent_result = run_parent(small_social_graph, eps=0.15)
        session, report = update_session(session, small_social_graph, GraphDelta())
        assert report.samples_invalidated == 0
        assert report.samples_reused == parent_result.num_samples

    def test_threshold_exceeded_raises_before_mutating(self, small_social_graph):
        session, _ = run_parent(small_social_graph, eps=0.15)
        before = session._frame.counts.copy()
        tau = session.num_samples
        delta_obj = make_delta(small_social_graph, num_delete=3, num_insert=3)
        child = apply_delta(small_social_graph, delta_obj)
        with pytest.raises(UpdateThresholdExceeded) as exc:
            update_session(session, child, delta_obj, threshold=1e-9)
        assert exc.value.threshold == 1e-9
        assert 0.0 < exc.value.fraction <= 1.0
        # Nothing was touched: same graph, same samples, same counters.
        assert session.graph is small_social_graph
        assert session.num_samples == tau
        assert np.array_equal(session._frame.counts, before)

    def test_rejects_unrun_sessions_and_disconnected_graphs(self, small_social_graph):
        fresh = EstimationSession(small_social_graph, KadabraOptions(eps=0.2, delta=0.1, seed=1))
        with pytest.raises(EvolveError, match="run\\(\\)"):
            update_session(fresh, small_social_graph, GraphDelta())

        session, _ = run_parent(small_social_graph, eps=0.2)
        bigger = CSRGraph.from_edges(
            [(0, 1)], num_vertices=small_social_graph.num_vertices + 1
        )
        with pytest.raises(EvolveError, match="vertex set"):
            update_session(session, bigger, GraphDelta())
        # A delta that does not connect parent to the claimed child.
        delta_obj = make_delta(small_social_graph, num_delete=1, num_insert=0)
        with pytest.raises(EvolveError, match="does not connect"):
            update_session(session, small_social_graph, delta_obj)
        with pytest.raises(ValueError, match="threshold"):
            update_session(session, small_social_graph, GraphDelta(), threshold=0.0)


# --------------------------------------------------------------------- #
# Checkpoints across mutations (snapshot mismatch vs. sanctioned update)
# --------------------------------------------------------------------- #
class TestCheckpointAcrossMutation:
    def setup_stored(self, tmp_path):
        src = tmp_path / "g.txt"
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2), (0, 5)]
        src.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
        catalog = GraphCatalog(tmp_path / "cache")
        parent_path = catalog.resolve(src)
        from repro.store import open_rcsr

        return catalog, parent_path, open_rcsr(parent_path)

    def test_restore_against_mutated_graph_fails_update_succeeds(self, tmp_path):
        catalog, parent_path, parent = self.setup_stored(tmp_path)
        session, _ = run_parent(parent, eps=0.2, seed=9)
        snap = tmp_path / "parent.snap"
        session.checkpoint(snap)

        delta_obj = GraphDelta(insertions=[(1, 4)], deletions=[(0, 1)])
        child_path = catalog.apply_delta(parent_path, delta_obj)
        from repro.store import open_rcsr

        child = open_rcsr(child_path)

        # A mutated graph must never silently restore a stale checkpoint...
        with pytest.raises(SnapshotError, match="changed"):
            EstimationSession.restore(snap, graph=child)
        # ...but the sanctioned path carries it across the delta explicitly.
        updated, report = update_session(snap, child, delta_obj)
        assert updated.graph is child
        assert report.samples_reused > 0
        exact = brandes_betweenness(child).scores
        assert float(np.max(np.abs(report.result.scores - exact))) <= 0.2

    def test_checkpoint_roundtrips_the_sample_log(self, tmp_path):
        _, _, parent = self.setup_stored(tmp_path)
        session, _ = run_parent(parent, eps=0.2, seed=9)
        snap = tmp_path / "s.snap"
        session.checkpoint(snap)
        restored = EstimationSession.restore(snap)
        log, orig = restored.sample_log, session.sample_log
        assert log is not None
        for name in ("sources", "targets", "lengths", "indptr", "vertices"):
            assert np.array_equal(getattr(log, name), getattr(orig, name))

    def test_pre_log_snapshot_restores_but_cannot_update(self, tmp_path):
        _, _, parent = self.setup_stored(tmp_path)
        session, _ = run_parent(parent, eps=0.2, seed=9)
        session._sample_log = None  # simulate a snapshot from before the log
        snap = tmp_path / "old.snap"
        session.checkpoint(snap)
        restored = EstimationSession.restore(snap)
        assert restored.sample_log is None
        assert restored.refine(0.15, 0.1) is not None  # still refinable
        with pytest.raises(EvolveError, match="no per-sample log"):
            update_session(restored, parent, GraphDelta())


# --------------------------------------------------------------------- #
# Facade: update_from keyword family
# --------------------------------------------------------------------- #
class TestFacadeUpdate:
    def setup_lineage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "graph-cache"))
        src = tmp_path / "g.txt"
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2), (0, 5)]
        src.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
        catalog = GraphCatalog()
        parent_path = catalog.resolve(src)
        delta_obj = GraphDelta(insertions=[(1, 4)], deletions=[(0, 1)])
        child_path = catalog.apply_delta(parent_path, delta_obj)

        from repro.api import estimate_betweenness

        snap = tmp_path / "parent.snap"
        estimate_betweenness(
            str(parent_path), algorithm="sequential", eps=0.2, delta=0.1,
            seed=3, checkpoint_path=snap,
        )
        return estimate_betweenness, str(child_path), snap, delta_obj

    def test_update_via_lineage_dict_and_file(self, tmp_path, monkeypatch):
        estimate, child, snap, delta_obj = self.setup_lineage(tmp_path, monkeypatch)
        # graph_delta omitted: resolved from the catalog's lineage record.
        by_lineage = estimate(
            child, eps=0.2, delta=0.1, seed=3, update_from=snap
        )
        assert by_lineage.samples_reused > 0
        assert by_lineage.samples_invalidated > 0
        # Explicit dict and file payloads give the same split.
        by_dict = estimate(
            child, eps=0.2, delta=0.1, seed=3,
            update_from=snap, graph_delta=delta_obj.as_dict(),
        )
        delta_file = delta_obj.save(tmp_path / "d.json")
        by_file = estimate(
            child, eps=0.2, delta=0.1, seed=3,
            update_from=snap, graph_delta=delta_file,
        )
        for got in (by_dict, by_file):
            assert got.samples_reused == by_lineage.samples_reused
            assert got.samples_invalidated == by_lineage.samples_invalidated

    def test_update_result_serializes_the_split(self, tmp_path, monkeypatch):
        estimate, child, snap, _ = self.setup_lineage(tmp_path, monkeypatch)
        result = estimate(child, eps=0.2, delta=0.1, seed=3, update_from=snap)
        back = BetweennessResult.from_json_dict(result.to_json_dict())
        assert back.samples_invalidated == result.samples_invalidated > 0
        assert back.samples_reused == result.samples_reused

    def test_threshold_exceeded_degrades_to_cold_with_warning(self, tmp_path, monkeypatch):
        estimate, child, snap, _ = self.setup_lineage(tmp_path, monkeypatch)
        with pytest.warns(RuntimeWarning, match="running cold instead"):
            result = estimate(
                child, eps=0.2, delta=0.1, seed=3,
                update_from=snap, update_threshold=1e-9,
            )
        assert result.samples_reused == 0 and result.samples_invalidated == 0

    def test_missing_lineage_degrades_to_cold(self, tmp_path, monkeypatch):
        estimate, _, snap, _ = self.setup_lineage(tmp_path, monkeypatch)
        # An unrelated graph has no lineage record and no delta was passed.
        other = tmp_path / "other.txt"
        other.write_text("0 1\n1 2\n2 3\n3 0\n4 0\n4 5\n5 1\n")
        with pytest.warns(RuntimeWarning, match="running cold instead"):
            result = estimate(str(other), eps=0.2, delta=0.1, seed=3, update_from=snap)
        assert result.samples_reused == 0

    def test_contract_violations_still_raise(self, tmp_path, monkeypatch):
        estimate, child, snap, _ = self.setup_lineage(tmp_path, monkeypatch)
        with pytest.raises(ValueError, match="mutually exclusive"):
            estimate(child, eps=0.2, update_from=snap, resume_from=snap)
        with pytest.raises(ValueError, match="seed mismatch"):
            estimate(child, eps=0.2, delta=0.1, seed=4, update_from=snap)
        with pytest.raises(ValueError, match="update_threshold"):
            estimate(child, eps=0.2, update_from=snap, update_threshold=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degrade path may fire above
            with pytest.raises(TypeError, match="graph_delta"):
                estimate(child, eps=0.2, seed=3, update_from=snap, graph_delta=42)


# --------------------------------------------------------------------- #
# A corrupt lineage record: every caller runs the child cold
# --------------------------------------------------------------------- #
CORRUPTIONS = {
    "bad-delta": lambda record: record.update(delta={"insert": "x"}),
    "no-delta": lambda record: record.pop("delta"),
}


class TestCorruptLineage:
    """A malformed lineage record makes a child graph unservable from its
    parent, never unanswerable: the facade, the service and the CLI treat it
    like a missing record."""

    def setup_child(self, tmp_path, monkeypatch, corrupt):
        cache_dir = tmp_path / "graph-cache"
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(cache_dir))
        src = tmp_path / "g.txt"
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2), (0, 5)]
        src.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
        catalog = GraphCatalog()
        parent = catalog.resolve(src)
        child = catalog.apply_delta(
            parent, GraphDelta(insertions=[(1, 4)], deletions=[(0, 1)])
        )
        lineage = cache_dir / "lineage.json"
        payload = json.loads(lineage.read_text())
        corrupt(payload["children"][catalog.checksum(child)])
        lineage.write_text(json.dumps(payload))
        return catalog, parent, child

    def test_catalog_reader_raises_lookup_error_for_every_bad_record(
        self, tmp_path, monkeypatch
    ):
        no_parent = {"no-parent": lambda record: record.pop("parent_checksum")}
        for corrupt in {**CORRUPTIONS, **no_parent}.values():
            catalog, _, child = self.setup_child(tmp_path, monkeypatch, corrupt)
            with pytest.raises(LookupError, match="malformed lineage record"):
                catalog.parent_delta(catalog.checksum(child))
        with pytest.raises(LookupError, match="no lineage record"):
            catalog.parent_delta("crc32:0000000000000000")

    def test_facade_runs_cold(self, tmp_path, monkeypatch):
        from repro.api import estimate_betweenness

        _, parent, child = self.setup_child(
            tmp_path, monkeypatch, CORRUPTIONS["bad-delta"]
        )
        snap = tmp_path / "parent.snap"
        kw = dict(eps=0.2, delta=0.1, seed=3)
        estimate_betweenness(
            str(parent), algorithm="sequential", checkpoint_path=snap, **kw
        )
        with pytest.warns(RuntimeWarning, match="running cold instead"):
            got = estimate_betweenness(str(child), update_from=snap, **kw)
        cold = estimate_betweenness(str(child), algorithm="sequential", **kw)
        assert np.array_equal(got.scores, cold.scores)
        assert got.samples_reused == 0 and got.samples_invalidated == 0

    def test_service_runs_cold(self, tmp_path, monkeypatch):
        import asyncio

        from repro.service import JobManager, QueryRequest, ResultCache

        catalog, parent, child = self.setup_child(
            tmp_path, monkeypatch, CORRUPTIONS["bad-delta"]
        )
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=catalog,
            worker_mode="thread",
        )

        async def scenario():
            jobs = []
            for graph in (parent, child):
                outcome = await manager.submit(QueryRequest(
                    graph=str(graph), eps=0.2, delta=0.2, seed=1,
                    algorithm="sequential"))
                await outcome.job.future
                jobs.append(manager.store.get(outcome.job.id))
            return jobs[1]

        try:
            row = asyncio.run(scenario())
        finally:
            manager.close()
        assert row.state == "done" and row.error is None
        assert "updated_from" not in row.kwargs
        assert manager.counters["cache_updates"] == 0

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_cli_evolve_run_exits_2(self, tmp_path, monkeypatch, capsys, corruption):
        catalog, parent, child = self.setup_child(
            tmp_path, monkeypatch, CORRUPTIONS[corruption]
        )
        snap = tmp_path / "parent.snap"
        run_parent(catalog.load(parent), eps=0.2, seed=9)[0].checkpoint(snap)
        assert cli_main(["evolve", "run", str(child), "--snapshot", str(snap)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "malformed lineage record" in err


# --------------------------------------------------------------------- #
# Registry: the supports_updates capability
# --------------------------------------------------------------------- #
class TestRegistryUpdates:
    def test_only_the_native_sequential_backend_supports_updates(self):
        from repro.api.registry import get_backend, list_backends

        assert get_backend("sequential").supports_updates
        assert get_backend("sequential").supports_refinement
        for spec in list_backends():
            if spec.name != "sequential":
                assert not spec.supports_updates
            # updates imply refinement, never the other way round
            assert not spec.supports_updates or spec.supports_refinement

    def test_backend_table_has_updates_column(self):
        from repro.api.registry import format_backend_table

        table = format_backend_table()
        assert "updates" in table.splitlines()[0]
