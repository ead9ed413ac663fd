"""Resumable estimation sessions: refinement exactness, snapshots, queries.

The load-bearing guarantees:

* ``run(eps1)`` then ``refine(eps2 < eps1)`` is **bit-identical** to a fresh
  session run at ``eps2`` with the same seed, while drawing strictly fewer
  new samples than the cold run;
* ``checkpoint`` / ``restore`` round-trip the session across processes, and
  corrupted / truncated / version-mismatched snapshots raise a clear
  :class:`~repro.session.SnapshotError` (mirroring the ``.rcsr`` corruption
  tests in ``tests/test_store.py``);
* the facade's ``checkpoint_path`` / ``resume_from`` keywords and the query
  service's refinable cache entries build on exactly these semantics.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Resources, estimate_betweenness, get_backend
from repro.core.calibration import calibration_sample_count
from repro.core.options import KadabraOptions
from repro.core.stopping import CheckSchedule
from repro.graph.generators import barabasi_albert
from repro.graph.io import read_edge_list
from repro.session import (
    EstimationSession,
    SessionCapabilityError,
    SessionStateError,
    SnapshotError,
    open_session,
    read_snapshot,
    read_snapshot_meta,
    write_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_GRAPH = REPO_ROOT / "examples" / "data" / "example-social.txt"


@pytest.fixture(scope="module")
def example_graph():
    return read_edge_list(EXAMPLE_GRAPH)


def assert_results_identical(a, b):
    __tracebackhide__ = True
    assert np.array_equal(a.scores, b.scores), "score vectors differ"
    assert a.num_samples == b.num_samples
    assert a.omega == b.omega


class TestRunEquivalence:
    """session.run is the sequential driver (the facade routes through it)."""

    def test_run_matches_facade(self, example_graph):
        session = open_session(example_graph, seed=11)
        result = session.run(0.1, 0.1)
        via_facade = estimate_betweenness(
            example_graph, algorithm="sequential", eps=0.1, delta=0.1, seed=11
        )
        assert_results_identical(result, via_facade)

    def test_run_twice_rejected(self, small_social_graph):
        session = open_session(small_social_graph, seed=1, max_samples_override=300)
        session.run(0.2, 0.2)
        with pytest.raises(SessionStateError, match="refine"):
            session.run(0.2, 0.2)

    def test_refine_before_run_rejected(self, small_social_graph):
        session = open_session(small_social_graph, seed=1)
        with pytest.raises(SessionStateError, match="run"):
            session.refine(0.1)

    def test_tiny_graph_trivial_result(self):
        from repro.graph.csr import CSRGraph

        session = open_session(CSRGraph.empty(1), seed=0)
        result = session.run(0.1, 0.1)
        assert result.num_samples == 0
        assert np.all(result.scores == 0.0)

    def test_tiny_graph_run_is_kept(self, tmp_path):
        from repro.graph.csr import CSRGraph

        graph, path = CSRGraph.empty(1), tmp_path / "tiny.snap"
        estimate_betweenness(graph, algorithm="sequential", eps=0.1, seed=0, checkpoint_path=path)
        assert EstimationSession.restore(path, graph=graph).refine(0.05).num_samples == 0


class TestRefineExactness:
    """refine == cold run at the tighter target, bit for bit."""

    def test_refine_eps_bit_identical(self, example_graph):
        session = open_session(example_graph, seed=42)
        first = session.run(0.05, 0.1)
        refined = session.refine(0.025)

        cold = open_session(example_graph, seed=42).run(0.025, 0.1)
        assert_results_identical(refined, cold)
        # strictly fewer new samples than the cold run drew
        assert refined.samples_reused == first.num_samples
        assert refined.samples_drawn == cold.num_samples - first.num_samples
        assert 0 < refined.samples_drawn < cold.num_samples

    def test_refine_delta_only(self, example_graph):
        """The equal-eps/tighter-delta edge refines exactly as well."""
        session = open_session(example_graph, seed=8)
        session.run(0.05, 0.2)
        refined = session.refine(0.05, 0.05)
        cold = open_session(example_graph, seed=8).run(0.05, 0.05)
        assert_results_identical(refined, cold)

    def test_chained_refines(self, example_graph):
        session = open_session(example_graph, seed=3)
        session.run(0.1, 0.2)
        session.refine(0.05, 0.2)
        final = session.refine(0.025, 0.1)
        cold = open_session(example_graph, seed=3).run(0.025, 0.1)
        assert_results_identical(final, cold)

    def test_refine_off_grid_budget_cap(self, example_graph):
        """A run that stopped at the omega cap (off the check grid) realigns."""
        kwargs = dict(seed=7, max_samples_override=4000)
        session = open_session(example_graph, **kwargs)
        first = session.run(0.1, 0.1)
        assert first.num_samples == first.omega  # budget-capped, off-grid
        refined = session.refine(0.05)
        cold = open_session(example_graph, **kwargs).run(0.05, 0.1)
        assert_results_identical(refined, cold)

    def test_refine_explicit_calibration_growth(self, example_graph):
        """Small eps grows the calibration count; the gap is replayed."""
        session = open_session(example_graph, seed=13)
        session.run(0.05, 0.1)
        refined = session.refine(0.00625)
        cold = open_session(example_graph, seed=13).run(0.00625, 0.1)
        assert_results_identical(refined, cold)
        assert refined.extra.get("samples_replayed", 0) > 0

    def test_noop_refine_draws_nothing(self, example_graph):
        session = open_session(example_graph, seed=4)
        first = session.run(0.1, 0.1)
        again = session.refine(0.1, 0.1)
        assert np.array_equal(first.scores, again.scores)
        assert again.samples_drawn == 0
        assert again.samples_reused == first.num_samples

    def test_looser_target_rejected(self, example_graph):
        session = open_session(example_graph, seed=4)
        session.run(0.1, 0.1)
        with pytest.raises(ValueError, match="tight"):
            session.refine(0.2)
        with pytest.raises(ValueError, match="tight"):
            session.refine(0.1, 0.5)

    def test_monotone_schedule_helpers(self):
        schedule = CheckSchedule(calibration_samples=200, samples_per_check=1000, omega=4797)
        assert schedule.first_check == 200
        assert schedule.next_boundary(0) == 200
        assert schedule.next_boundary(200) == 200
        assert schedule.next_boundary(201) == 1200
        assert schedule.next_boundary(1300) == 2200
        assert schedule.next_boundary(4300) == 4797  # clamped to omega
        assert schedule.advance(4200) == 597
        # the calibration count is monotone in omega (refinement invariant)
        assert calibration_sample_count(None, 300, 300) <= calibration_sample_count(
            None, 76746, 300
        )


class TestSessionCapability:
    def test_open_session_refuses_a_backend_that_runs_once(self, small_social_graph):
        with pytest.raises(SessionCapabilityError, match="estimate_betweenness"):
            open_session(small_social_graph, algorithm="shared-memory", seed=1)

    def test_registry_capability_flags(self):
        assert get_backend("sequential").supports_refinement
        for name in ("shared-memory", "distributed", "mpi-only", "rk", "exact"):
            assert not get_backend(name).supports_refinement


class TestConfidenceQueries:
    def test_peek_bounds_contain_estimates(self, example_graph):
        session = open_session(example_graph, seed=42)
        session.run(0.1, 0.1)
        peek = session.peek()
        assert peek.num_samples == session.num_samples
        assert np.all(peek.lower_bounds <= peek.scores)
        assert np.all(peek.scores <= peek.upper_bounds)
        assert np.all(peek.lower_bounds >= 0.0)
        assert np.all(peek.upper_bounds <= 1.0)
        assert np.isfinite(peek.max_half_width)

    def test_peek_before_run_is_infinite(self, small_social_graph):
        session = open_session(small_social_graph, seed=0)
        peek = session.peek()
        assert peek.num_samples == 0
        assert np.all(np.isinf(peek.half_width_upper))

    def test_refine_shrinks_half_widths(self, example_graph):
        session = open_session(example_graph, seed=42)
        session.run(0.1, 0.1)
        before = session.peek().max_half_width
        session.refine(0.025)
        after = session.peek().max_half_width
        assert after < before

    def test_top_k_uses_session_calibration(self, example_graph):
        session = open_session(example_graph, seed=42)
        session.run(0.05, 0.1)
        top = session.top_k(5)
        assert len(top.vertices) == 5
        # the separation threshold comes from real per-vertex deltas, so the
        # ordering must agree with the raw scores
        scores = session.peek().scores
        assert list(top.vertices) == list(np.argsort(-scores, kind="stable")[:5])


class TestCheckpointRestore:
    def test_roundtrip_in_process(self, example_graph, tmp_path):
        session = open_session(example_graph, seed=42)
        session.run(0.05, 0.1)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)

        restored = EstimationSession.restore(snap, graph=example_graph)
        assert restored.num_samples == session.num_samples
        assert restored.eps == 0.05
        refined = restored.refine(0.025)
        cold = open_session(example_graph, seed=42).run(0.025, 0.1)
        assert_results_identical(refined, cold)
        assert refined.samples_reused == session.num_samples

    @staticmethod
    def with_options(snap, **options):
        """Rewrite ``snap`` with ``options`` added to its recorded options."""
        meta, arrays = read_snapshot(snap)
        write_snapshot(snap, {**meta, "options": {**meta["options"], **options}}, arrays)

    def test_the_retired_options_at_their_only_value_restore(self, example_graph, tmp_path):
        """Snapshots written while ``KadabraOptions`` had ``epoch_exponent`` and
        ``use_bidirectional_bfs`` record both; every run used 1.33 and true."""
        session = open_session(example_graph, seed=42)
        session.run(0.05, 0.1)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        self.with_options(snap, epoch_exponent=1.33, use_bidirectional_bfs=True)

        refined = EstimationSession.restore(snap, graph=example_graph).refine(0.025)
        assert_results_identical(refined, open_session(example_graph, seed=42).run(0.025, 0.1))

    @pytest.mark.parametrize("key, value", [("use_bidirectional_bfs", False), ("epoch_exponent", 2.0)])
    def test_a_retired_option_at_another_value_is_refused(self, example_graph, tmp_path, key, value):
        session = open_session(example_graph, seed=42)
        session.run(0.1, 0.1)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        self.with_options(snap, **{key: value})
        with pytest.raises(SnapshotError, match=key):
            EstimationSession.restore(snap, graph=example_graph)

    def test_roundtrip_keeps_the_forced_kernel(self, example_graph, tmp_path):
        """restore rebuilds the sampler the run used, not the routed one.

        ``unidirectional`` draws another stream than the kernels routing picks:
        a restore that fell back to routing would refine onto other samples.
        """
        session = EstimationSession(
            example_graph, KadabraOptions(eps=0.1, delta=0.1, seed=42), kernel="unidirectional"
        )
        session.run()
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        assert read_snapshot_meta(snap)["kernel"] == "unidirectional"

        restored = EstimationSession.restore(snap, graph=example_graph)
        refined = restored.refine(0.05)
        cold = EstimationSession(
            example_graph, KadabraOptions(eps=0.05, delta=0.1, seed=42), kernel="unidirectional"
        ).run()
        assert_results_identical(refined, cold)

    def test_checkpoint_records_the_resources_kernel(self, example_graph, tmp_path):
        session = open_session(example_graph, seed=42, resources=Resources(kernel="bidirectional"))
        session.run(0.1, 0.1)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        assert read_snapshot_meta(snap)["kernel"] == "bidirectional"
        restored = EstimationSession.restore(snap, graph=example_graph)
        assert restored._sampler.kernel_name == "bidirectional"

    def test_restored_peek_matches_live(self, example_graph, tmp_path):
        session = open_session(example_graph, seed=9)
        session.run(0.1, 0.1)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        restored = EstimationSession.restore(snap, graph=example_graph)
        live, back = session.peek(), restored.peek()
        assert np.array_equal(live.scores, back.scores)
        assert np.array_equal(live.lower_bounds, back.lower_bounds)
        assert np.array_equal(live.upper_bounds, back.upper_bounds)

    def test_roundtrip_across_processes(self, tmp_path):
        """checkpoint in this process, refine in a subprocess, compare."""
        graph = read_edge_list(EXAMPLE_GRAPH)
        session = open_session(graph, seed=42)
        session.run(0.1, 0.1)
        snap = tmp_path / "xproc.snap"
        session.checkpoint(snap)

        code = (
            "import sys, numpy as np\n"
            "from repro.graph.io import read_edge_list\n"
            "from repro.session import EstimationSession\n"
            f"graph = read_edge_list({str(EXAMPLE_GRAPH)!r})\n"
            f"session = EstimationSession.restore({str(snap)!r}, graph=graph)\n"
            "result = session.refine(0.05)\n"
            "np.save(sys.argv[1], result.scores)\n"
        )
        out = tmp_path / "scores.npy"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        subprocess_scores = np.load(out)

        cold = open_session(graph, seed=42).run(0.05, 0.1)
        assert np.array_equal(subprocess_scores, cold.scores)

    def test_checkpoint_before_run_rejected(self, small_social_graph, tmp_path):
        session = open_session(small_social_graph, seed=0)
        with pytest.raises(SessionStateError, match="checkpoint"):
            session.checkpoint(tmp_path / "early.snap")

    def test_older_snapshot_with_batch_size_refines_bit_identically(self, example_graph, tmp_path):
        """Older versions recorded a ``batch_size`` meta key; restore ignores it."""
        session = open_session(example_graph, seed=42)
        session.run(0.1, 0.1)
        snap = tmp_path / "older.snap"
        session.checkpoint(snap)
        meta, arrays = read_snapshot(snap)
        assert "batch_size" not in meta
        write_snapshot(snap, {**meta, "batch_size": 64}, arrays)

        refined = EstimationSession.restore(snap, graph=example_graph).refine(0.05)
        cold = open_session(example_graph, seed=42).run(0.05, 0.1)
        assert_results_identical(refined, cold)

    def test_restore_wrong_graph_rejected(self, example_graph, tmp_path):
        session = open_session(example_graph, seed=1, max_samples_override=300)
        session.run(0.2, 0.2)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        other = barabasi_albert(50, 2, seed=0)
        with pytest.raises(SnapshotError, match="mismatch"):
            EstimationSession.restore(snap, graph=other)

    def test_restore_without_graph_needs_source(self, example_graph, tmp_path):
        # the in-memory example graph records no source path
        session = open_session(example_graph, seed=1, max_samples_override=300)
        session.run(0.2, 0.2)
        snap = tmp_path / "run.snap"
        session.checkpoint(snap)
        with pytest.raises(SnapshotError, match="source"):
            EstimationSession.restore(snap)


class TestSnapshotIntegrity:
    """Corrupted snapshots must fail loudly (mirrors the .rcsr store tests)."""

    @pytest.fixture()
    def snapshot(self, small_social_graph, tmp_path):
        session = open_session(
            small_social_graph, seed=5, max_samples_override=300, calibration_samples=50
        )
        session.run(0.2, 0.2)
        snap = tmp_path / "intact.snap"
        session.checkpoint(snap)
        return snap

    def test_meta_readable_without_arrays(self, snapshot):
        meta = read_snapshot_meta(snapshot)
        assert meta["kind"] == "repro-estimation-session"
        assert meta["achieved"]["eps"] == 0.2

    def test_truncated_rejected(self, snapshot):
        blob = snapshot.read_bytes()
        for cut in (0, 3, 17, len(blob) // 2, len(blob) - 1):
            snapshot.write_bytes(blob[:cut])
            with pytest.raises(SnapshotError):
                EstimationSession.restore(snapshot)

    def test_corrupted_arrays_rejected(self, snapshot):
        blob = bytearray(snapshot.read_bytes())
        blob[-5] ^= 0xFF  # flip a bit inside the counts array
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            EstimationSession.restore(snapshot)

    def test_corrupted_meta_rejected(self, snapshot):
        blob = bytearray(snapshot.read_bytes())
        blob[40] ^= 0xFF  # inside the JSON section
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            EstimationSession.restore(snapshot)

    def test_bad_magic_rejected(self, snapshot):
        blob = bytearray(snapshot.read_bytes())
        blob[:4] = b"NOPE"
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="magic"):
            EstimationSession.restore(snapshot)

    def test_version_mismatch_rejected(self, snapshot):
        blob = bytearray(snapshot.read_bytes())
        struct.pack_into("<H", blob, 4, 99)
        snapshot.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version"):
            EstimationSession.restore(snapshot)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"this is not a snapshot at all, sorry")
        with pytest.raises(SnapshotError):
            EstimationSession.restore(path)
        path.write_bytes(b"")
        with pytest.raises(SnapshotError, match="short"):
            EstimationSession.restore(path)

    def test_foreign_kind_rejected(self, tmp_path, small_social_graph):
        path = tmp_path / "foreign.snap"
        write_snapshot(
            path,
            {"kind": "something-else"},
            {"counts": np.zeros(small_social_graph.num_vertices)},
        )
        with pytest.raises(SnapshotError):
            EstimationSession.restore(path, graph=small_social_graph)


#: Any JSON value a hostile or buggy writer could put in a metadata field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

REQUIRED_META = (
    "kind", "graph", "options", "achieved", "omega", "vertex_diameter",
    "checks", "frame", "calibration", "rng_state",
)


class TestMalformedMeta:
    """A CRC-clean snapshot with bad metadata values raises SnapshotError, never another type."""

    @pytest.fixture(scope="class")
    def intact(self, small_social_graph, tmp_path_factory):
        session = open_session(
            small_social_graph, seed=5, max_samples_override=300, calibration_samples=50
        )
        session.run(0.2, 0.2)
        directory = tmp_path_factory.mktemp("malformed")
        session.checkpoint(directory / "intact.snap")
        meta, arrays = read_snapshot(directory / "intact.snap")
        return meta, arrays, directory

    @pytest.mark.parametrize(
        "key, value",
        [
            ("checks", "x"),
            ("omega", "abc"),
            ("omega", float("inf")),
            ("achieved", []),
            ("achieved", {"eps": "x", "delta": 0.2}),
            ("rng_state", 3),
            ("rng_state", {"bit_generator": "BitGenerator"}),
            ("frame", 5),
            ("calibration", []),
            ("calibration", {"num_samples": 50, "rng_state": {"bit_generator": "PCG64"}}),
            ("graph", {"num_vertices": "many"}),
            ("options", {"eps": -1}),
        ],
    )
    def test_malformed_value_rejected(self, intact, small_social_graph, key, value):
        meta, arrays, directory = intact
        path = directory / "bad.snap"
        write_snapshot(path, {**meta, key: value}, arrays)
        with pytest.raises(SnapshotError, match="malformed"):
            EstimationSession.restore(path, graph=small_social_graph)

    @pytest.mark.parametrize("key", REQUIRED_META)
    @settings(max_examples=40, deadline=None)
    @given(value=JSON_VALUES)
    def test_fuzzed_value_restores_or_raises_snapshot_error(
        self, intact, small_social_graph, key, value
    ):
        meta, arrays, directory = intact
        path = directory / f"fuzzed-{key}.snap"
        write_snapshot(path, {**meta, key: value}, arrays)
        try:
            EstimationSession.restore(path, graph=small_social_graph)
        except SnapshotError:
            pass

    @pytest.mark.parametrize("name", ["counts", "calibration_counts"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "negative", "fraction", "above_tau"])
    def test_counts_that_are_not_sample_counts_rejected(self, intact, small_social_graph, name, bad):
        # A CRC-valid file restored NaN counts (NaN scores after refine) or
        # NaN calibration counts (NaN deltas: refine could only stop at omega).
        meta, arrays, directory = intact
        tau = meta["frame" if name == "counts" else "calibration"]["num_samples"]
        counts = arrays[name].copy()
        counts[3] = {
            "nan": np.nan, "inf": np.inf, "negative": -1.0, "fraction": 0.5, "above_tau": tau + 1,
        }[bad]
        path = directory / f"bad-{name}-{bad}.snap"
        write_snapshot(path, meta, {**arrays, name: counts})
        with pytest.raises(SnapshotError, match="sample counts"):
            EstimationSession.restore(path, graph=small_social_graph)


class TestFacadeIntegration:
    KW = dict(eps=0.1, delta=0.1, seed=21)

    def test_checkpoint_path_written_for_sequential(self, example_graph, tmp_path):
        snap = tmp_path / "facade.snap"
        result = estimate_betweenness(
            example_graph, algorithm="sequential", checkpoint_path=snap, **self.KW
        )
        assert snap.is_file()
        meta = read_snapshot_meta(snap)
        assert meta["frame"]["num_samples"] == result.num_samples
        assert result.samples_drawn == result.num_samples
        assert result.samples_reused == 0

    def test_checkpoint_path_skipped_for_exact(self, tmp_path):
        graph = barabasi_albert(40, 2, seed=0)
        snap = tmp_path / "exact.snap"
        estimate_betweenness(graph, algorithm="exact", checkpoint_path=snap)
        assert not snap.exists()

    def test_resume_from_refines_bit_identically(self, example_graph, tmp_path):
        snap = tmp_path / "facade.snap"
        estimate_betweenness(
            example_graph, algorithm="sequential", checkpoint_path=snap, **self.KW
        )
        refined = estimate_betweenness(
            example_graph, eps=0.05, delta=0.1, seed=21, resume_from=snap
        )
        cold = estimate_betweenness(
            example_graph, algorithm="sequential", eps=0.05, delta=0.1, seed=21
        )
        assert np.array_equal(refined.scores, cold.scores)
        assert refined.samples_reused > 0
        assert refined.backend == "sequential"
        # the JSON schema carries the accounting
        payload = json.loads(refined.to_json())
        assert payload["samples_reused"] == refined.samples_reused
        assert payload["samples_drawn"] == refined.samples_drawn

    def test_resume_from_corrupt_snapshot_falls_back_cold(self, example_graph, tmp_path):
        """A bad checkpoint degrades to a cold run, it does not fail the call."""
        snap = tmp_path / "bad.snap"
        snap.write_bytes(b"definitely not a snapshot")
        with pytest.warns(RuntimeWarning, match="running cold"):
            result = estimate_betweenness(
                example_graph, eps=0.1, delta=0.1, seed=21, resume_from=snap
            )
        cold = estimate_betweenness(
            example_graph, algorithm="sequential", eps=0.1, delta=0.1, seed=21
        )
        assert np.array_equal(result.scores, cold.scores)
        assert result.samples_reused == 0

    def test_resume_from_unknown_kernel_falls_back_cold(self, example_graph, tmp_path):
        """A snapshot naming a kernel this process lacks is a SnapshotError."""
        snap = tmp_path / "facade.snap"
        estimate_betweenness(
            example_graph, algorithm="sequential", checkpoint_path=snap, **self.KW
        )
        meta, arrays = read_snapshot(snap)
        meta["kernel"] = "nope"
        write_snapshot(snap, meta, arrays)
        with pytest.raises(SnapshotError, match="unknown kernel 'nope'"):
            EstimationSession.restore(snap, graph=example_graph)
        with pytest.warns(RuntimeWarning, match="running cold"):
            result = estimate_betweenness(
                example_graph, eps=0.1, delta=0.1, seed=21, resume_from=snap
            )
        cold = estimate_betweenness(
            example_graph, algorithm="sequential", eps=0.1, delta=0.1, seed=21
        )
        assert np.array_equal(result.scores, cold.scores)
        assert result.samples_reused == 0

    def test_resume_from_seed_mismatch_rejected(self, example_graph, tmp_path):
        snap = tmp_path / "facade.snap"
        estimate_betweenness(
            example_graph, algorithm="sequential", checkpoint_path=snap, **self.KW
        )
        with pytest.raises(ValueError, match="seed"):
            estimate_betweenness(example_graph, eps=0.05, seed=99, resume_from=snap)

    def test_resume_tightens_to_dominating_target(self, example_graph, tmp_path):
        """A request looser in one dimension refines to the per-axis minimum."""
        snap = tmp_path / "facade.snap"
        estimate_betweenness(
            example_graph, algorithm="sequential", checkpoint_path=snap, **self.KW
        )
        result = estimate_betweenness(
            example_graph, eps=0.2, delta=0.05, seed=21, resume_from=snap
        )
        assert result.eps == 0.1  # kept the checkpoint's tighter eps
        assert result.delta == 0.05


class TestSourceSamplingEntryPoint:
    def test_source_sampling_class_is_gone(self, small_social_graph):
        import repro.baselines

        assert not hasattr(repro.baselines, "SourceSamplingBetweenness")
        result = estimate_betweenness(
            small_social_graph, algorithm="source-sampling", max_samples_override=5, seed=0
        )
        assert result.num_samples == 5

    def test_facade_source_sampling_does_not_warn(self, small_social_graph, recwarn):
        estimate_betweenness(
            small_social_graph,
            algorithm="source-sampling",
            max_samples_override=5,
            seed=0,
        )
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestCliStoredGraph:
    """``session run`` estimates the stored graph as is, so ``session refine`` restores it."""

    @pytest.fixture()
    def disconnected(self, tmp_path):
        """A 40-vertex path and a 20-cycle, converted (with a sidecar) and as a bare copy."""
        import shutil

        from repro.cli import main as cli_main
        from repro.graph import CSRGraph
        from repro.graph.io import write_edge_list

        edges = [(v, v + 1) for v in range(39)] + [(40 + v, 40 + (v + 1) % 20) for v in range(20)]
        write_edge_list(CSRGraph.from_edges(edges, 60), tmp_path / "disc.txt")
        assert cli_main(["convert", str(tmp_path / "disc.txt"), str(tmp_path / "disc.rcsr")]) == 0
        shutil.copyfile(tmp_path / "disc.rcsr", tmp_path / "bare.rcsr")
        return tmp_path

    @pytest.mark.parametrize("name", ["disc.rcsr", "bare.rcsr"], ids=["sidecar", "no-sidecar"])
    def test_session_run_then_refine_without_graph(self, disconnected, name, capsys):
        from repro.cli import main as cli_main

        snap, first, second = (disconnected / f for f in ("s1.snap", "r1.json", "r2.json"))
        run = ["session", "run", str(disconnected / name), "--eps", "0.2", "--seed", "1"]
        assert cli_main([*run, "--checkpoint", str(snap), "--output", str(first)]) == 0
        assert "graph: 60 vertices" in capsys.readouterr().out
        assert cli_main(["session", "refine", str(snap), "--eps", "0.1", "--output", str(second)]) == 0
        for path in (first, second):
            assert len(json.loads(path.read_text())["scores"]) == 60

    @pytest.mark.parametrize("name", ["disc.rcsr", "bare.rcsr"], ids=["sidecar", "no-sidecar"])
    def test_only_the_estimation_command_reduces(self, disconnected, name, capsys):
        from repro.cli import main as cli_main

        assert cli_main([str(disconnected / name), "--algorithm", "exact", "--top", "1"]) == 0
        assert "graph: 40 vertices, 39 edges (largest component)" in capsys.readouterr().out
