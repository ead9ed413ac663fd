"""Tests of :mod:`repro.obs`: metrics registry, phase tracing, exposition.

The observability acceptance properties live here:

* counters/gauges/histograms share one registry lock, snapshot to plain
  dicts and merge with add (counters, histograms) / overwrite (gauges)
  semantics — the worker-process transport;
* :meth:`MetricsRegistry.render` emits valid Prometheus text (cumulative
  ``le`` buckets, escaped label values, one ``# TYPE`` per family);
* spans nest through a thread-local stack, export JSONL trees via
  ``enable_tracing``, and cost nothing when tracing is off;
* the gated hot-path counters in the sampler record every drawn batch if
  and only if metrics are enabled;
* ``GET /metrics`` on the query service serves the manager's counters and
  per-endpoint latency histograms as Prometheus text.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    NOOP_SPAN,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    metrics_enabled,
    render_metrics,
    span,
    tracing_enabled,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _reset_obs_state():
    """Leave the process-global gates the way each test found them."""
    was_enabled = metrics_enabled()
    yield
    disable_tracing()
    if was_enabled:
        enable_metrics()
    else:
        disable_metrics()


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a_total")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total", labelnames=("x",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("a_total", labelnames=("y",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))

    def test_labeled_series(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labelnames=("kind",))
        c.labels(kind="exact").inc()
        c.labels(kind="exact").inc()
        c.labels(kind="dominated").inc()
        assert c.labels(kind="exact").value == 2.0
        assert c.labels(kind="dominated").value == 1.0

    def test_labeled_family_requires_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="use .labels"):
            c.inc()
        with pytest.raises(ValueError, match="takes labels"):
            c.labels(wrong="x")


class TestGauges:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("inflight")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == pytest.approx(4.0)


class TestHistograms:
    def test_observe_and_totals(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_bucket_bounds_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 1.0))

    def test_le_is_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", buckets=(1.0,))
        h.observe(1.0)  # exactly on the bound: belongs to le="1"
        text = reg.render()
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text


class TestSnapshotMerge:
    def test_round_trip_doubles(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h_seconds", buckets=(0.5, 1.0)).observe(0.7)
        snap = reg.snapshot()
        reg.merge(snap)
        assert reg.counter("c_total").value == 6.0  # counters add
        assert reg.gauge("g").value == 7.0  # gauges overwrite
        assert reg.histogram("h_seconds", buckets=(0.5, 1.0)).count == 2

    def test_snapshot_is_plain_json(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("k",)).labels(k="a").inc()
        snap = json.loads(json.dumps(reg.snapshot()))
        other = MetricsRegistry()
        other.merge(snap)
        assert other.counter("c_total", labelnames=("k",)).labels(k="a").value == 1.0

    def test_merge_into_empty_recreates_families(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "help text", buckets=(0.1,)).observe(0.05)
        other = MetricsRegistry()
        other.merge(reg.snapshot())
        assert other.names() == ("h_seconds",)
        assert "# HELP h_seconds help text" in other.render()

    def test_bucket_layout_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", buckets=(0.1,)).observe(0.05)
        snap = reg.snapshot()
        other = MetricsRegistry()
        other.histogram("h_seconds", buckets=(0.1, 0.2))
        with pytest.raises(ValueError, match="bucket layout"):
            other.merge(snap)

    def test_clear_keeps_handles_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc(4)
        reg.clear()
        assert c.value == 0.0
        c.inc()
        assert reg.counter("c_total").value == 1.0

    def test_concurrent_increments_are_lossless(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        n, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n * per_thread


def _hammer_and_snapshot(worker_index: int, increments: int) -> tuple:
    """Run in a worker process: build a registry, hammer it from several
    threads, ship it home as a plain-dict snapshot (the worker transport)."""
    reg = MetricsRegistry()
    total = reg.counter("stress_total", "Increments across the pool")
    by_worker = reg.counter("stress_by_worker_total", labelnames=("worker",))
    latency = reg.histogram("stress_seconds", buckets=(0.25, 0.75))
    reg.gauge("stress_last_worker").set(worker_index)

    def hammer():
        mine = by_worker.labels(worker=str(worker_index))
        for i in range(increments):
            total.inc()
            mine.inc()
            latency.observe((i % 4) / 4.0)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return worker_index, reg.snapshot()


class TestProcessPoolMerge:
    """The multi-worker transport under real process-level concurrency.

    Each pool worker owns a private registry, increments it from four racing
    threads, and returns ``snapshot()``; the parent merges the shards.  The
    acceptance property is exactly the one the serving path relies on: **no
    counter increment is ever lost** and gauges keep last-write semantics.
    """

    WORKERS = 4
    INCREMENTS = 500
    THREADS = 4

    def test_snapshot_merge_loses_nothing_across_processes(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            shards = list(pool.map(
                _hammer_and_snapshot,
                range(self.WORKERS),
                [self.INCREMENTS] * self.WORKERS,
            ))
        merged = MetricsRegistry()
        for _, snap in sorted(shards):  # deterministic merge order
            merged.merge(snap)

        per_worker = self.INCREMENTS * self.THREADS
        assert merged.counter("stress_total").value == self.WORKERS * per_worker
        by_worker = merged.counter("stress_by_worker_total", labelnames=("worker",))
        for index in range(self.WORKERS):
            assert by_worker.labels(worker=str(index)).value == per_worker
        hist = merged.histogram("stress_seconds", buckets=(0.25, 0.75))
        assert hist.count == self.WORKERS * per_worker
        # Observations cycle 0, .25, .5, .75 -> mean .375, sum is exact.
        assert hist.sum == pytest.approx(0.375 * self.WORKERS * per_worker)
        # Gauges overwrite on merge: the last shard merged wins.
        assert merged.gauge("stress_last_worker").value == self.WORKERS - 1

    def test_concurrent_merges_into_one_registry_are_atomic(self):
        """Snapshots arriving from many workers at once (threads here) must
        apply atomically under the registry lock — additions, not races."""
        _, snap = _hammer_and_snapshot(0, 50)
        merged = MetricsRegistry()
        rounds = 10

        def apply():
            for _ in range(rounds):
                merged.merge(snap)

        threads = [threading.Thread(target=apply) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = 4 * rounds * 50 * self.THREADS
        assert merged.counter("stress_total").value == expected


class TestRender:
    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "A counter").inc(2)
        reg.histogram("h_seconds", "A histogram", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.render()
        assert "# HELP c_total A counter" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 2" in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text  # cumulative
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("path",)).labels(path='a"b\\c\nd').inc()
        text = reg.render()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_one_type_line_per_family(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total").inc(1)
        b.counter("shared_total").inc(2)
        text = render_metrics(a, b)
        assert text.count("# TYPE shared_total counter") == 1
        assert "shared_total 3" in text


# --------------------------------------------------------------------- #
# Phase tracing
# --------------------------------------------------------------------- #
class TestSpans:
    def test_disabled_returns_falsy_noop(self):
        disable_tracing()
        sp = span("anything")
        assert sp is NOOP_SPAN
        assert not sp
        with sp as inner:
            inner.set("k", "v")  # free no-ops
        assert sp.as_dict() == {}
        assert sp.summary() is None

    def test_nesting_builds_a_tree(self):
        enable_tracing()
        with span("root") as root:
            with span("child", rank=0):
                with span("grandchild"):
                    pass
            with span("child"):
                pass
        assert not tracing_enabled() or root  # real span
        assert [c.name for c in root.children] == ["child", "child"]
        assert root.children[0].attrs == {"rank": 0}
        assert root.children[0].children[0].name == "grandchild"
        assert root.seconds >= root.children[0].seconds

    def test_summary_accumulates_repeated_paths(self):
        enable_tracing()
        with span("run") as root:
            for _ in range(3):
                with span("stopping"):
                    pass
        summary = root.summary()
        assert summary["name"] == "run"
        assert summary["num_spans"] == 4
        assert set(summary["phases"]) == {"stopping"}

    def test_exception_recorded_and_propagated(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("boom") as sp:
                raise RuntimeError("nope")
        assert sp.attrs["error"] == "RuntimeError"

    def test_jsonl_export(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        enable_tracing(path=str(trace_file))
        with span("first"):
            with span("inner"):
                pass
        with span("second"):
            pass
        lines = trace_file.read_text().splitlines()
        assert len(lines) == 2  # one line per finished root tree
        first = json.loads(lines[0])
        assert first["name"] == "first"
        assert first["children"][0]["name"] == "inner"
        assert json.loads(lines[1])["name"] == "second"

    def test_sink_receives_root_trees(self):
        seen = []
        enable_tracing(sink=seen.append)
        with span("outer"):
            with span("inner"):
                pass
        assert len(seen) == 1
        assert seen[0]["name"] == "outer"

    def test_threads_root_their_own_trees(self):
        seen = []
        enable_tracing(sink=seen.append)

        def rank_body():
            with span("rank"):
                pass

        with span("driver"):
            t = threading.Thread(target=rank_body)
            t.start()
            t.join()
        names = sorted(tree["name"] for tree in seen)
        assert names == ["driver", "rank"]


# --------------------------------------------------------------------- #
# Hot-path gating
# --------------------------------------------------------------------- #
class TestKernelCounters:
    def test_sampler_counts_only_when_enabled(self, small_social_graph):
        import numpy as np

        from repro.kernels import BatchPathSampler, plan_batches

        sampler = BatchPathSampler(small_social_graph)
        rng = np.random.default_rng(3)
        reg = obs_metrics.REGISTRY
        samples = reg.counter("repro_kernel_samples_total")
        batches = reg.counter("repro_kernel_batches_total")
        per_kernel = reg.counter(f"repro_kernel_{sampler.kernel_name}_samples_total")

        def draw():
            for take in plan_batches(100, 32):
                sampler.sample_batch(take, rng)
            sampler.sample_batch(1, rng)

        was_enabled = obs_metrics.ENABLED
        try:
            disable_metrics()
            before = (samples.value, batches.value, per_kernel.value)
            draw()
            assert (samples.value, batches.value, per_kernel.value) == before
            enable_metrics()
            before_s, before_b, before_k = samples.value, batches.value, per_kernel.value
            draw()
            assert samples.value - before_s == 101
            assert per_kernel.value - before_k == 101
            assert batches.value - before_b == 5  # ceil(100 / 32) batches and a batch of one
        finally:
            (enable_metrics if was_enabled else disable_metrics)()


# --------------------------------------------------------------------- #
# Facade trace summary
# --------------------------------------------------------------------- #
class TestFacadeTrace:
    @pytest.mark.parametrize(
        "name, resources",
        [("sequential", {}), ("shared-memory", {"threads": 2}), ("distributed", {"processes": 2})],
    )
    def test_extra_trace_present_when_tracing(self, name, resources):
        from repro.api import Resources, estimate_betweenness
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(60, 2, seed=3)
        enable_tracing()
        result = estimate_betweenness(
            graph, algorithm=name, eps=0.2, delta=0.2, seed=3, resources=Resources(**resources)
        )
        trace = result.extra["trace"]
        assert trace["name"] == "estimate"
        assert trace["seconds"] > 0
        paths = set(trace["phases"])
        # Every backend's runner: the phases sit right under the root.
        assert {"diameter", "calibration", "adaptive_sampling"} <= paths, paths
        assert not any(path.startswith("session.") for path in paths), paths

    def test_checkpointed_call_traces_the_session_run(self, tmp_path):
        from repro.api import estimate_betweenness
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(60, 2, seed=3)
        enable_tracing()
        result = estimate_betweenness(
            graph, algorithm="sequential", eps=0.2, delta=0.2, seed=3,
            checkpoint_path=tmp_path / "kept.snap",
        )
        paths = set(result.extra["trace"]["phases"])
        for needed in (
            "session.run",
            "session.run.diameter",
            "session.run.calibration",
            "session.run.adaptive_sampling",
            "session.checkpoint",
        ):
            assert needed in paths, paths

    def test_extra_trace_absent_when_disabled(self):
        from repro.api import estimate_betweenness
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(60, 2, seed=3)
        disable_tracing()
        result = estimate_betweenness(graph, eps=0.2, delta=0.2, seed=3)
        assert "trace" not in result.extra


# --------------------------------------------------------------------- #
# One phase recorder: phase_seconds and the trace name the same phases
# --------------------------------------------------------------------- #
def _phases_without_spans(phase_seconds: dict, tree: dict) -> list:
    """``phase_seconds`` keys (but ``total``) with no same-named span under ``tree``.

    The loop's ``ads_X`` phases map to ``X`` spans whose parent is
    ``adaptive_sampling``.
    """
    paths = obs_trace.summarize(tree)["phases"]
    missing = []
    for key in phase_seconds:
        if key == "total":
            continue
        suffix = f"adaptive_sampling.{key[4:]}" if key.startswith("ads_") else key
        if not any(path == suffix or path.endswith(f".{suffix}") for path in paths):
            missing.append(key)
    return missing


class TestPhasesAreSpans:
    @pytest.mark.parametrize(
        "name, resources",
        [
            ("sequential", {}),
            ("shared-memory", {"threads": 2}),
            ("distributed", {"processes": 2}),
            ("mpi-only", {"processes": 2}),
            ("rk", {}),
            ("source-sampling", {}),
            ("exact", {}),
        ],
    )
    def test_every_backend_phase_is_a_span(self, name, resources):
        from repro.api import Resources, estimate_betweenness
        from repro.graph.generators import barabasi_albert

        trees = []
        enable_tracing(sink=trees.append)
        result = estimate_betweenness(
            barabasi_albert(80, 2, seed=4), algorithm=name, eps=0.2, delta=0.2, seed=4,
            resources=Resources(**resources),
        )
        (tree,) = [t for t in trees if t["name"] == "estimate"]
        assert set(result.phase_seconds) - {"total"}
        assert _phases_without_spans(result.phase_seconds, tree) == []

    def test_update_session_phases_are_spans(self):
        from repro.core.options import KadabraOptions
        from repro.evolve import update_session
        from repro.graph.generators import barabasi_albert
        from repro.session import EstimationSession
        from repro.store import GraphDelta, apply_delta

        graph = barabasi_albert(80, 2, seed=4)
        session = EstimationSession(graph, KadabraOptions(eps=0.2, delta=0.2, seed=4))
        session.run()
        new_edges = [(u, v) for u, v in [(0, 79), (1, 78)] if not graph.has_edge(u, v)]
        graph_delta = GraphDelta(insertions=new_edges)
        trees = []
        enable_tracing(sink=trees.append)
        _, report = update_session(session, apply_delta(graph, graph_delta), graph_delta)
        (tree,) = [t for t in trees if t["name"] == "evolve.update"]
        assert {"invalidation", "resample", "adaptive_sampling"} <= set(report.result.phase_seconds)
        assert _phases_without_spans(report.result.phase_seconds, tree) == []

    @pytest.mark.parametrize("source", ["jsonl", "result-json"])
    def test_obs_command_uses_the_summary_walker(self, tmp_path, capsys, source):
        from repro.api import Resources, estimate_betweenness
        from repro.cli import main as cli_main
        from repro.graph.generators import barabasi_albert

        trace_file = tmp_path / "trace.jsonl"
        enable_tracing(path=str(trace_file))
        result = estimate_betweenness(
            barabasi_albert(80, 2, seed=4), algorithm="shared-memory", eps=0.2, delta=0.2,
            seed=4, resources=Resources(threads=2),
        )
        disable_tracing()
        summary = result.extra["trace"]
        path = trace_file
        if source == "result-json":
            path = tmp_path / "result.json"
            path.write_text(json.dumps({"extra": {"trace": summary}}))
        assert cli_main(["obs", str(path), "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["num_spans"] == summary["num_spans"]
        expected = {"estimate": summary["seconds"]}
        expected.update({f"estimate.{p}": s for p, s in summary["phases"].items()})
        assert shown["phases"].keys() == expected.keys()
        assert "estimate.adaptive_sampling.check" in expected
        for key, seconds in expected.items():
            assert shown["phases"][key] == pytest.approx(seconds, abs=1e-8)

    def test_recorder_adds_up_and_traces_only_when_enabled(self):
        disable_tracing()
        phases = obs_trace.PhaseRecorder()
        for _ in range(2):
            with phases("step", k=1) as sp:
                assert sp is NOOP_SPAN
        enable_tracing()
        with span("root") as root:
            with phases("step") as sp:
                sp.set("k", 2)
        assert set(phases.seconds) == {"step"} and phases.seconds["step"] > 0
        assert [(c.name, c.attrs) for c in root.children] == [("step", {"k": 2})]


# --------------------------------------------------------------------- #
# /metrics endpoint
# --------------------------------------------------------------------- #
def _instant_estimator(graph, callbacks=None, **kwargs):
    import numpy as np

    from repro.core.result import BetweennessResult

    return BetweennessResult(
        scores=np.zeros(5), num_samples=10, eps=0.1, delta=0.1
    )


class TestMetricsEndpoint:
    def test_metrics_exposition(self, tmp_path):
        from repro.service import BetweennessService, ResultCache, ServiceClient
        from repro.store import GraphCatalog

        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n")

        async def scenario():
            service = BetweennessService(
                port=0,
                cache=ResultCache(tmp_path / "results"),
                catalog=GraphCatalog(tmp_path / "graph-cache"),
                worker_mode="thread",
                estimator=_instant_estimator,
            )
            await service.start()
            client = ServiceClient(service.host, service.port, timeout=30.0)
            try:
                query = {"graph": str(graph), "eps": 0.1, "seed": 1, "wait": True}
                await asyncio.to_thread(client.query, **query)
                await asyncio.to_thread(client.query, **query)
                return await asyncio.to_thread(client.metrics)
            finally:
                await service.stop()

        text = asyncio.run(scenario())
        values = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
        assert values["repro_service_queries_total"] == 2.0
        assert values["repro_service_cache_misses_total"] == 1.0
        assert values["repro_service_cache_hits_total"] == 1.0
        assert values["repro_service_completed_total"] == 1.0
        assert values["repro_service_inflight_jobs"] == 0.0
        assert (
            values['repro_http_request_duration_seconds_count{endpoint="/v1/query"}']
            == 2.0
        )
        assert "# TYPE repro_http_request_duration_seconds histogram" in text
        assert "# TYPE repro_service_cache_hits_total counter" in text
        # Request counters carry (endpoint, status) labels.  The /metrics
        # request itself finishes instrumenting only after rendering, so it
        # appears in the *next* scrape, not its own.
        assert (
            values['repro_http_requests_total{endpoint="/v1/query",status="200"}']
            == 2.0
        )

    def test_stats_and_counters_agree(self, tmp_path):
        from repro.service import JobManager, QueryRequest, ResultCache
        from repro.store import GraphCatalog

        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        manager = JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
            estimator=_instant_estimator,
        )

        async def scenario():
            request = QueryRequest(graph=str(graph), eps=0.1, seed=1)
            outcome = await manager.submit(request)
            await outcome.job.future
            return manager.stats()

        try:
            stats = asyncio.run(scenario())
        finally:
            manager.close()
        assert stats["queries"] == 1
        assert stats["cache_misses"] == 1
        assert stats["completed"] == 1
        assert manager.counters["queries"] == 1
        # stats() and the Prometheus exposition are two views of one registry.
        assert "repro_service_queries_total 1" in manager.metrics.render()
