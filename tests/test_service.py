"""Tests of :mod:`repro.service`: serialization, dominance, cache, jobs, HTTP.

The acceptance properties of the query service live here:

* a second identical query is served from the cache with **zero** sampling
  (asserted via an estimator call counter);
* a looser-(eps, delta) query reuses a tighter cached result (dominance);
* a changed graph (new checksum) can never be served stale scores;
* identical in-flight requests deduplicate onto one job.

Most tests drive the service with a fake estimator (instant, counts calls),
so the suite exercises the serving machinery, not the sampler; one
integration test runs the real facade end to end.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.result import BetweennessResult
from repro.io_utils import load_result, save_result
from repro.service import (
    HIT,
    MISS,
    REFINABLE,
    UPDATE_REFINABLE,
    BetweennessService,
    JobManager,
    QueryRequest,
    ResultCache,
    SchemaError,
    ServiceClient,
    ServiceError,
    algorithm_family,
    classify,
    dominates,
    result_payload,
    select_dominating,
)
from repro.store import GraphCatalog, default_result_cache_dir
from repro.util.progress import ProgressEvent

TRIANGLE_PLUS_TAIL = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]


def write_graph(path, edges=TRIANGLE_PLUS_TAIL):
    path.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    return path


def make_result(n=5, *, eps=0.1, delta=0.1, backend="sequential", num_samples=100):
    rng = np.random.default_rng(0)
    return BetweennessResult(
        scores=rng.random(n),
        num_samples=num_samples,
        eps=eps,
        delta=delta,
        omega=num_samples * 2,
        vertex_diameter=4,
        num_epochs=3,
        phase_seconds={"total": 0.5, "sampling": 0.4},
        extra={"bytes_sent": 123.0},
        backend=backend,
        resources={"processes": 1, "threads": 2},
    )


class CountingEstimator:
    """Stands in for ``estimate_betweenness``: instant, thread-safe counting."""

    def __init__(self, *, fail=False, hold: threading.Event = None):
        self.calls = []
        self._lock = threading.Lock()
        self._fail = fail
        self._hold = hold

    @property
    def num_calls(self):
        return len(self.calls)

    def __call__(self, graph, *, algorithm="auto", eps=0.01, delta=0.1,
                 seed=None, resources=None, callbacks=None):
        with self._lock:
            self.calls.append({"graph": graph, "algorithm": algorithm,
                               "eps": eps, "delta": delta, "seed": seed})
        if callbacks is not None:
            callbacks(ProgressEvent(phase="calibration", num_samples=10, backend="sequential"))
            callbacks(ProgressEvent(phase="adaptive_sampling", epoch=1,
                                    num_samples=50, omega=200, backend="sequential"))
        if self._hold is not None:
            assert self._hold.wait(timeout=30.0)
        if self._fail:
            raise RuntimeError("sampler exploded")
        backend = "sequential" if algorithm == "auto" else algorithm
        rng = np.random.default_rng(seed if seed is not None else 0)
        return BetweennessResult(
            scores=rng.random(5), num_samples=50, eps=eps, delta=delta,
            omega=200, num_epochs=1, phase_seconds={"total": 0.001},
            backend=backend,
        )


# --------------------------------------------------------------------- #
# Result serialization
# --------------------------------------------------------------------- #
class TestResultSerialization:
    def test_round_trip_preserves_everything(self):
        result = make_result()
        restored = BetweennessResult.from_json(result.to_json())
        assert np.array_equal(restored.scores, result.scores)
        assert restored.scores.dtype == np.float64
        for field in ("num_samples", "eps", "delta", "omega", "vertex_diameter",
                      "num_epochs", "phase_seconds", "extra", "backend", "resources"):
            assert getattr(restored, field) == getattr(result, field), field

    def test_round_trip_none_accuracy(self):
        result = BetweennessResult(scores=np.zeros(3))
        restored = BetweennessResult.from_json_dict(result.to_json_dict())
        assert restored.eps is None and restored.delta is None
        assert restored.backend is None

    def test_unsupported_version_rejected(self):
        payload = make_result().to_json_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            BetweennessResult.from_json_dict(payload)
        with pytest.raises(ValueError, match="format version"):
            BetweennessResult.from_json('{"scores": []}')

    def test_io_utils_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        restored = load_result(path)
        assert np.array_equal(restored.scores, result.scores)
        assert restored.backend == result.backend
        # The file is the documented schema, readable as plain JSON.
        assert json.loads(path.read_text())["format_version"] == 1

    def test_result_payload_shapes_response(self):
        result = make_result(n=6)
        payload = result_payload(result, 3)
        assert "scores" not in payload
        assert payload["num_vertices"] == 6
        assert payload["top"] == [[v, s] for v, s in result.top_k(3)]
        with_scores = result_payload(result, 2, include_scores=True)
        assert len(with_scores["scores"]) == 6


# --------------------------------------------------------------------- #
# Request schema
# --------------------------------------------------------------------- #
class TestQueryRequestSchema:
    def test_defaults(self):
        request = QueryRequest.from_dict({"graph": "g"})
        assert (request.eps, request.delta, request.k) == (0.01, 0.1, 10)
        assert request.algorithm == "auto" and request.wait is True

    @pytest.mark.parametrize("payload,match", [
        ({}, "missing the required 'graph'"),
        ({"graph": ""}, "non-empty"),
        ({"graph": "g", "eps": 0.0}, "eps"),
        ({"graph": "g", "eps": 2.0}, "eps"),
        ({"graph": "g", "eps": True}, "eps"),
        ({"graph": "g", "delta": 0.0}, "delta"),
        ({"graph": "g", "delta": 1.0}, "delta"),
        ({"graph": "g", "k": -1}, "'k'"),
        ({"graph": "g", "k": 1.5}, "'k'"),
        ({"graph": "g", "algorithm": "nope"}, "unknown algorithm"),
        ({"graph": "g", "seed": "abc"}, "seed"),
        ({"graph": "g", "epsilon": 0.1}, "unknown request field"),
        ({"graph": "g", "wait": "yes"}, "wait"),
    ])
    def test_rejects_bad_requests(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            QueryRequest.from_dict(payload)

    def test_as_dict_round_trips(self):
        request = QueryRequest(graph="g", eps=0.05, seed=7, k=3)
        assert QueryRequest.from_dict(request.as_dict()) == request

    def test_job_key_identity(self):
        base = QueryRequest(graph="g", eps=0.05, seed=1)
        same_work = QueryRequest(graph="g", eps=0.05, seed=1, k=99,
                                 include_scores=True, wait=False)
        assert base.job_key("c1") == same_work.job_key("c1")
        assert base.job_key("c1") != base.job_key("c2")  # different graph contents
        assert base.job_key("c1") != QueryRequest(graph="g", eps=0.06, seed=1).job_key("c1")
        assert base.job_key("c1") != QueryRequest(graph="g", eps=0.05, seed=2).job_key("c1")


# --------------------------------------------------------------------- #
# Dominance policy
# --------------------------------------------------------------------- #
class TestDominance:
    def test_family_mapping(self):
        assert algorithm_family("auto") == "adaptive-sampling"
        assert algorithm_family("sequential") == "adaptive-sampling"
        assert algorithm_family("shared-memory") == "adaptive-sampling"
        assert algorithm_family("rk") == "fixed-sampling"
        assert algorithm_family("exact") == "exact"
        assert algorithm_family("source-sampling") == "source-sampling"
        with pytest.raises(ValueError):
            algorithm_family("nope")

    def test_equal_eps_delta_dominates(self):
        assert dominates("adaptive-sampling", 0.05, 0.1,
                         family="adaptive-sampling", eps=0.05, delta=0.1)

    def test_tighter_serves_looser_but_not_vice_versa(self):
        assert dominates("adaptive-sampling", 0.01, 0.05,
                         family="adaptive-sampling", eps=0.1, delta=0.1)
        assert not dominates("adaptive-sampling", 0.1, 0.1,
                             family="adaptive-sampling", eps=0.01, delta=0.1)
        # Each dimension must dominate independently.
        assert not dominates("adaptive-sampling", 0.01, 0.5,
                             family="adaptive-sampling", eps=0.1, delta=0.1)

    def test_family_mismatch_never_dominates(self):
        assert not dominates("fixed-sampling", 0.001, 0.001,
                             family="adaptive-sampling", eps=0.1, delta=0.5)

    def test_exact_dominates_every_family(self):
        for family in ("adaptive-sampling", "fixed-sampling", "source-sampling", "exact"):
            assert dominates("exact", None, None, family=family, eps=1e-6, delta=1e-6)

    def test_unknown_accuracy_never_dominates(self):
        assert not dominates("adaptive-sampling", None, None,
                             family="adaptive-sampling", eps=0.5, delta=0.5)

    def test_select_prefers_exact_then_loosest(self):
        entries = [
            ("adaptive-sampling", 0.01, 0.1),
            ("adaptive-sampling", 0.05, 0.1),
            ("fixed-sampling", 0.01, 0.01),
        ]
        # Loosest sufficient approximate entry wins.
        assert select_dominating(entries, family="adaptive-sampling",
                                 eps=0.1, delta=0.1) == 1
        # Exact beats everything.
        assert select_dominating(entries + [("exact", None, None)],
                                 family="adaptive-sampling", eps=0.1, delta=0.1) == 3
        assert select_dominating(entries, family="adaptive-sampling",
                                 eps=0.001, delta=0.1) is None


class TestClassifyVerdicts:
    """hit / refinable / miss, including the equal-eps/tighter-delta edge."""

    def classify(self, cached_eps, cached_delta, *, eps, delta,
                 cached_family="adaptive-sampling", family="adaptive-sampling",
                 cached_seed=1, seed=1):
        return classify(cached_family, cached_eps, cached_delta, cached_seed,
                        family=family, eps=eps, delta=delta, seed=seed)

    def test_dominating_entry_is_hit(self):
        assert self.classify(0.05, 0.1, eps=0.1, delta=0.1) == HIT
        assert self.classify(0.05, 0.1, eps=0.05, delta=0.1) == HIT

    def test_tighter_eps_request_is_refinable(self):
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1) == REFINABLE

    def test_equal_eps_tighter_delta_is_refinable_not_hit(self):
        """delta is compared exactly like eps: equality hits, tighter refines."""
        assert self.classify(0.05, 0.1, eps=0.05, delta=0.1) == HIT
        assert self.classify(0.05, 0.1, eps=0.05, delta=0.05) == REFINABLE

    def test_seed_mismatch_is_miss(self):
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1, seed=2) == MISS
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1,
                             cached_seed=None, seed=1) == MISS
        # but None == None counts as the same (unseeded) stream family
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1,
                             cached_seed=None, seed=None) == REFINABLE

    def test_non_adaptive_families_never_refine(self):
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1,
                             cached_family="fixed-sampling",
                             family="fixed-sampling") == MISS
        assert self.classify(None, None, eps=0.05, delta=0.1,
                             cached_family="exact") == HIT  # exact dominates

    def test_unknown_cached_accuracy_is_miss(self):
        assert self.classify(None, None, eps=0.05, delta=0.1) == MISS


class TestClassifyCrossGraph:
    """same_graph=False: the lineage caller's verdicts (update_refinable)."""

    def classify(self, cached_eps, cached_delta, *, eps, delta,
                 cached_family="adaptive-sampling", family="adaptive-sampling",
                 cached_seed=1, seed=1):
        return classify(cached_family, cached_eps, cached_delta, cached_seed,
                        family=family, eps=eps, delta=delta, seed=seed,
                        same_graph=False)

    def test_cross_graph_adaptive_same_seed_is_update_refinable(self):
        # Whatever the accuracy relation: cross-graph reuse always
        # re-certifies, so even a dominating parent entry is an update, not
        # a hit — scores never transfer across a mutation.
        assert self.classify(0.05, 0.1, eps=0.1, delta=0.1) == UPDATE_REFINABLE
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1) == UPDATE_REFINABLE
        assert self.classify(0.1, 0.1, eps=0.1, delta=0.1) == UPDATE_REFINABLE

    def test_cross_graph_never_hits_or_refines(self):
        for cached in [(0.05, 0.1), (0.1, 0.1), (None, None)]:
            for req in [(0.1, 0.1), (0.05, 0.05)]:
                verdict = self.classify(cached[0], cached[1],
                                        eps=req[0], delta=req[1])
                assert verdict in (UPDATE_REFINABLE, MISS)

    def test_cross_graph_misses(self):
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1, seed=2) == MISS
        assert self.classify(0.1, 0.1, eps=0.05, delta=0.1,
                             cached_family="fixed-sampling",
                             family="fixed-sampling") == MISS
        # Exact parent scores still do not transfer across a mutation.
        assert self.classify(None, None, eps=0.05, delta=0.1,
                             cached_family="exact") == MISS
        assert self.classify(None, None, eps=0.05, delta=0.1) == MISS


# --------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------- #
class TestResultCache:
    def put(self, cache, checksum, *, eps=0.1, delta=0.1, algorithm="sequential", seed=1):
        request = QueryRequest(graph="g", eps=eps, delta=delta,
                               algorithm=algorithm, seed=seed)
        return cache.put(checksum, request,
                         make_result(eps=eps, delta=delta, backend=algorithm))

    def test_put_find_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        entry = self.put(cache, "crc32:aa", eps=0.05)
        hit = cache.find("crc32:aa", family="adaptive-sampling", eps=0.05, delta=0.1)
        assert hit is not None
        found, result = hit
        assert found.key == entry.key
        assert result.num_samples == 100

    def test_dominance_lookup_and_stale_checksum_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        self.put(cache, "crc32:aa", eps=0.05)
        # Looser request on the same graph: hit.
        assert cache.find("crc32:aa", family="adaptive-sampling",
                          eps=0.2, delta=0.5) is not None
        # Tighter request: miss.
        assert cache.find("crc32:aa", family="adaptive-sampling",
                          eps=0.01, delta=0.1) is None
        # Same accuracy, different graph contents: miss.
        assert cache.find("crc32:bb", family="adaptive-sampling",
                          eps=0.2, delta=0.5) is None
        # Same graph, mismatched family: miss.
        assert cache.find("crc32:aa", family="fixed-sampling",
                          eps=0.2, delta=0.5) is None

    def test_entries_and_evict(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        entry_a = self.put(cache, "crc32:aa", eps=0.05)
        self.put(cache, "crc32:aa", eps=0.2)
        self.put(cache, "crc32:bb", eps=0.1)
        assert len(cache.entries()) == 3
        assert len(cache.entries("crc32:aa")) == 2
        assert cache.evict("crc32:aa", key=entry_a.key) == 1
        assert cache.evict("crc32:bb") == 1
        assert cache.evict() == 1  # clears the rest
        assert cache.entries() == []

    def test_corrupt_meta_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        self.put(cache, "crc32:aa")
        for meta in (tmp_path / "results").rglob("*.meta.json"):
            meta.write_text("{not json")
        assert cache.entries() == []
        assert cache.find("crc32:aa", family="adaptive-sampling",
                          eps=0.5, delta=0.5) is None

    def test_missing_payload_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        self.put(cache, "crc32:aa", eps=0.01)
        self.put(cache, "crc32:aa", eps=0.05)
        for payload in (tmp_path / "results").rglob("*.result.json"):
            payload.unlink()
            break  # remove exactly one payload
        hit = cache.find("crc32:aa", family="adaptive-sampling", eps=0.1, delta=0.5)
        assert hit is not None  # fell through to the surviving entry

    def test_default_dir_next_to_graph_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "graphs"))
        assert default_result_cache_dir() == tmp_path / "results"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "elsewhere"))
        assert default_result_cache_dir() == tmp_path / "elsewhere"


class TestHotTier:
    """The in-memory TTL + LRU tier in front of the disk cache."""

    def make(self, max_entries=3, ttl=10.0):
        from repro.service import HotTier

        clock = {"now": 0.0}
        tier = HotTier(max_entries, ttl, clock=lambda: clock["now"])
        return tier, clock

    def test_ttl_expiry_falls_back_to_miss(self):
        tier, clock = self.make(ttl=10.0)
        tier.put(("crc32:aa", "adaptive-sampling", 0.1, 0.1), "value")
        clock["now"] = 9.9
        assert tier.get(("crc32:aa", "adaptive-sampling", 0.1, 0.1)) == "value"
        clock["now"] = 10.1  # past the TTL: entry dropped, counted as eviction
        assert tier.get(("crc32:aa", "adaptive-sampling", 0.1, 0.1)) is None
        stats = tier.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 1 and stats["entries"] == 0

    def test_lru_evicts_least_recently_used(self):
        tier, _ = self.make(max_entries=2)
        tier.put(("a",), 1)
        tier.put(("b",), 2)
        assert tier.get(("a",)) == 1  # touch "a": "b" is now the LRU victim
        tier.put(("c",), 3)
        assert tier.get(("b",)) is None
        assert tier.get(("a",)) == 1 and tier.get(("c",)) == 3

    def test_invalidate_by_checksum_is_selective(self):
        tier, _ = self.make()
        tier.put(("crc32:aa", "f", 0.1, 0.1), 1)
        tier.put(("crc32:bb", "f", 0.1, 0.1), 2)
        tier.invalidate("crc32:aa")
        assert tier.get(("crc32:aa", "f", 0.1, 0.1)) is None
        assert tier.get(("crc32:bb", "f", 0.1, 0.1)) == 2
        tier.invalidate()
        assert tier.get(("crc32:bb", "f", 0.1, 0.1)) is None

    def test_disabled_tier_never_stores(self):
        from repro.service import HotTier

        tier = HotTier(0, 60.0)
        tier.put(("a",), 1)
        assert tier.get(("a",)) is None
        assert not tier.enabled

    def test_find_serves_from_hot_tier_and_put_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "results", hot_entries=8,
                            hot_ttl_seconds=300.0)
        request = QueryRequest(graph="g", eps=0.05, delta=0.1,
                               algorithm="sequential", seed=1)
        cache.put("crc32:aa", request, make_result(eps=0.05, delta=0.1))
        probe = dict(family="adaptive-sampling", eps=0.1, delta=0.2)
        first = cache.find("crc32:aa", **probe)
        assert first is not None
        assert cache.hot.stats()["misses"] == 1  # cold: served from disk
        second = cache.find("crc32:aa", **probe)
        assert second is not None
        assert cache.hot.stats()["hits"] == 1
        assert second[0].key == first[0].key
        # A write to the same graph must eagerly drop its hot entries: the
        # next lookup may now be dominated by the fresh tighter result.
        cache.put("crc32:aa",
                  QueryRequest(graph="g", eps=0.01, delta=0.05,
                               algorithm="sequential", seed=2),
                  make_result(eps=0.01, delta=0.05))
        assert cache.hot.stats()["entries"] == 0


class TestCacheRaces:
    """``entries()`` / ``find()`` racing ``evict()`` from another thread or
    process must degrade to *fewer results*, never to an exception — the
    cache directory is shared by every worker draining the job store."""

    def put(self, cache, checksum, *, eps=0.1, seed=1):
        request = QueryRequest(graph="g", eps=eps, delta=0.1,
                               algorithm="sequential", seed=seed)
        return cache.put(checksum, request, make_result(eps=eps, delta=0.1))

    def test_entries_survives_full_eviction_mid_scan(self, tmp_path, monkeypatch):
        # Deterministic interleaving: the first meta read triggers a full
        # eviction by "another process", so every later read hits files that
        # are already gone.
        cache = ResultCache(tmp_path / "results", hot_entries=0)
        self.put(cache, "crc32:aa", eps=0.05)
        self.put(cache, "crc32:aa", eps=0.2, seed=2)
        self.put(cache, "crc32:bb", eps=0.05)
        real_read = ResultCache._read_entry
        fired = []

        def racing_read(cache_self, meta_path):
            if not fired:
                fired.append(True)
                ResultCache(tmp_path / "results", hot_entries=0).evict()
            return real_read(cache_self, meta_path)

        monkeypatch.setattr(ResultCache, "_read_entry", racing_read)
        assert cache.entries() == []  # no crash: the race just empties the scan
        monkeypatch.undo()
        # The cache object stays usable after losing the race.
        self.put(cache, "crc32:aa", eps=0.05)
        assert len(cache.entries()) == 1

    def test_find_falls_through_when_best_entry_evicted_mid_lookup(self, tmp_path):
        cache = ResultCache(tmp_path / "results", hot_entries=0)
        self.put(cache, "crc32:aa", eps=0.05)
        best = self.put(cache, "crc32:aa", eps=0.2, seed=2)  # loosest-sufficient pick
        # Rip out the pick's payload (concurrent eviction between the meta
        # scan and the payload read): find() must serve the survivor.
        for payload in (tmp_path / "results").rglob(f"{best.key}.result.json"):
            payload.unlink()
        hit = cache.find("crc32:aa", family="adaptive-sampling", eps=0.3, delta=0.3)
        assert hit is not None
        assert hit[0].eps == 0.05

    def test_threaded_readers_never_crash_under_churn(self, tmp_path):
        cache = ResultCache(tmp_path / "results", hot_entries=0)
        checksums = [f"crc32:{i:02d}" for i in range(4)]
        for checksum in checksums:
            self.put(cache, checksum, eps=0.05)
        stop = threading.Event()
        failures = []

        def churn():
            i = 0
            try:
                while not stop.is_set():
                    cache.evict(checksums[i % 4])
                    self.put(cache, checksums[i % 4], eps=0.05, seed=i)
                    i += 1
            except Exception as exc:  # pragma: no cover - the assertion target
                failures.append(exc)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(150):
                for entry in cache.entries():
                    assert entry.key  # whatever is listed is fully parsed
                cache.find(checksums[0], family="adaptive-sampling",
                           eps=0.3, delta=0.3)  # may miss, must not raise
        finally:
            stop.set()
            writer.join(timeout=30.0)
        assert not failures
        assert not writer.is_alive()


# --------------------------------------------------------------------- #
# Job manager
# --------------------------------------------------------------------- #
def make_manager(tmp_path, estimator, **kwargs):
    return JobManager(
        cache=ResultCache(tmp_path / "results"),
        catalog=GraphCatalog(tmp_path / "graph-cache"),
        worker_mode="thread",
        estimator=estimator,
        **kwargs,
    )


class TestJobManager:
    def test_second_identical_query_hits_cache_without_sampling(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        estimator = CountingEstimator()
        manager = make_manager(tmp_path, estimator)
        request = QueryRequest(graph=str(graph), eps=0.1, seed=1)

        async def scenario():
            first = await manager.submit(request)
            assert not first.served_from_cache
            await first.job.future
            second = await manager.submit(request)
            return second

        second = asyncio.run(scenario())
        manager.close()
        assert second.served_from_cache is True
        assert second.job is None
        assert estimator.num_calls == 1  # the acceptance criterion: no re-sampling
        assert manager.counters["cache_hits"] == 1

    def test_concurrent_identical_submits_deduplicate(self, tmp_path):
        """No await may sit between the in-flight check and the job insertion.

        Submitted via gather so both coroutines interleave on the event loop:
        if submit() suspends between reading `_inflight` and inserting the new
        job (as an awaited refinable-cache probe once did), both requests pass
        the check and sample twice.
        """
        graph = write_graph(tmp_path / "g.txt")
        hold = threading.Event()
        estimator = CountingEstimator(hold=hold)
        manager = make_manager(tmp_path, estimator)
        request = QueryRequest(graph=str(graph), eps=0.1, seed=1)

        async def scenario():
            first, second = await asyncio.gather(
                manager.submit(request), manager.submit(request)
            )
            hold.set()
            await first.job.future
            return first, second

        first, second = asyncio.run(scenario())
        manager.close()
        assert second.deduplicated or first.deduplicated
        assert first.job is second.job
        assert estimator.num_calls == 1
        assert manager.counters["deduplicated"] == 1

    def test_looser_request_reuses_tighter_result(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        estimator = CountingEstimator()
        manager = make_manager(tmp_path, estimator)

        async def scenario():
            tight = await manager.submit(QueryRequest(graph=str(graph), eps=0.05, seed=1))
            await tight.job.future
            loose = await manager.submit(QueryRequest(graph=str(graph), eps=0.3,
                                                      delta=0.4, seed=9))
            return loose

        loose = asyncio.run(scenario())
        manager.close()
        assert loose.served_from_cache is True
        assert loose.answer[0].eps == 0.05
        assert estimator.num_calls == 1

    def test_changed_graph_is_a_cache_miss(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        estimator = CountingEstimator()
        manager = make_manager(tmp_path, estimator)
        request = QueryRequest(graph=str(graph), eps=0.1, seed=1)

        async def run_one():
            outcome = await manager.submit(request)
            if outcome.job is not None:
                await outcome.job.future
            return outcome

        first = asyncio.run(run_one())
        # Rewrite the graph with different contents; mtime must move on.
        time.sleep(0.01)
        write_graph(tmp_path / "g.txt", edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        second = asyncio.run(run_one())
        manager.close()
        assert not second.served_from_cache
        assert second.checksum != first.checksum
        assert estimator.num_calls == 2

    def test_identical_inflight_requests_deduplicate(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        hold = threading.Event()
        estimator = CountingEstimator(hold=hold)
        manager = make_manager(tmp_path, estimator)

        async def scenario():
            first = await manager.submit(QueryRequest(graph=str(graph), eps=0.1, seed=1))
            # Same work, different response shaping -> joins the same job.
            second = await manager.submit(QueryRequest(graph=str(graph), eps=0.1,
                                                       seed=1, k=99, wait=False))
            # Different seed -> genuinely different job.
            third = await manager.submit(QueryRequest(graph=str(graph), eps=0.1, seed=2))
            hold.set()
            await asyncio.gather(first.job.future, third.job.future)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        manager.close()
        assert second.deduplicated is True
        assert second.job is first.job
        assert first.job.num_waiters == 2
        assert third.job is not first.job
        assert estimator.num_calls == 2
        assert manager.counters["deduplicated"] == 1

    def test_failed_job_reports_error(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = make_manager(tmp_path, CountingEstimator(fail=True))

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
            with pytest.raises(RuntimeError, match="sampler exploded"):
                await outcome.job.future
            return manager.store.get(outcome.job.id)

        row = asyncio.run(scenario())
        manager.close()
        assert row.status == "error"
        assert "sampler exploded" in row.error
        assert manager.counters["failed"] == 1
        # A failed job must not poison the cache.
        assert manager.cache.entries() == []

    def test_unknown_graph_raises(self, tmp_path):
        manager = make_manager(tmp_path, CountingEstimator())
        with pytest.raises(FileNotFoundError):
            asyncio.run(manager.submit(QueryRequest(graph="no-such-graph")))
        manager.close()

    def test_progress_events_reach_job_buffer(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = make_manager(tmp_path, CountingEstimator())

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
            await outcome.job.future
            return manager.store.get(outcome.job.id)

        row = asyncio.run(scenario())
        manager.close()
        # The settled row already holds every event: complete() wrote the ring.
        assert [event["phase"] for event in row.progress] == [
            "calibration", "adaptive_sampling"
        ]
        assert row.num_events == 2
        assert row.as_dict()["progress"] == row.progress

    def test_cache_write_failure_does_not_fail_job(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        # A *file* where the cache directory should be: every put fails.
        (tmp_path / "results").write_text("not a directory")
        manager = make_manager(tmp_path, CountingEstimator())

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
            return await outcome.job.future, manager.store.get(outcome.job.id)

        result, row = asyncio.run(scenario())
        manager.close()
        assert row.state == "done"
        assert row.progress[-1]["phase"] == "cache-write-failed"
        assert result.num_samples == 50
        assert manager.counters["cache_write_failures"] == 1
        assert manager.counters["failed"] == 0

    def test_event_counter_survives_ring_buffer_wrap(self, tmp_path):
        from repro.service.jobs import MAX_EVENTS

        graph = write_graph(tmp_path / "g.txt")

        def chatty(graph, *, callbacks=None, **kwargs):
            for i in range(3 * MAX_EVENTS):
                callbacks(ProgressEvent(phase="sampling", epoch=i))
            return CountingEstimator()(graph, **kwargs)

        manager = make_manager(tmp_path, chatty)

        async def scenario():
            outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
            await outcome.job.future
            return manager.store.get(outcome.job.id)

        row = asyncio.run(scenario())
        manager.close()
        # The ring keeps the newest MAX_EVENTS; the counter counts them all.
        assert [event["epoch"] for event in row.progress] == list(
            range(2 * MAX_EVENTS, 3 * MAX_EVENTS)
        )
        assert row.num_events == 3 * MAX_EVENTS

    def test_concurrent_emitters_lose_no_event(self, tmp_path):
        """Callbacks may fire from several sampling threads at once while the
        heartbeat thread snapshots the ring: no append or count may be lost."""
        import sys

        graph = write_graph(tmp_path / "g.txt")
        threads, per_thread = 8, 200

        def emitters(graph, *, callbacks=None, **kwargs):
            def emit(t):
                for i in range(per_thread):
                    callbacks(ProgressEvent(phase="sampling", epoch=t * per_thread + i))

            workers = [threading.Thread(target=emit, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
            assert not any(worker.is_alive() for worker in workers)
            return CountingEstimator()(graph, **kwargs)

        manager = make_manager(tmp_path, emitters, lease_seconds=0.15)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            async def scenario():
                outcome = await manager.submit(QueryRequest(graph=str(graph), eps=0.1))
                await asyncio.wait_for(outcome.job.future, timeout=60.0)
                return manager.store.get(outcome.job.id)

            row = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
            manager.close()
        assert row.num_events == threads * per_thread
        assert len(row.progress) == 64
        assert len({event["epoch"] for event in row.progress}) == 64

    def test_custom_estimator_requires_thread_mode(self):
        with pytest.raises(ValueError, match="thread"):
            JobManager(worker_mode="process", estimator=CountingEstimator())
        with pytest.raises(ValueError):
            JobManager(worker_mode="fiber")


class TestRetention:
    """Finished-job history must not grow without bound (memory regression).

    A settled job lives on in its store row alone: the manager drops its
    handle, so memory holds only live jobs, and ``store_retention`` clamps
    the finished rows on disk.
    """

    def run_jobs(self, manager, graph, count):
        async def scenario():
            jobs = []
            for i in range(count):
                # Tighter eps each round + a fresh seed: never a cache hit,
                # never REFINABLE — `count` genuinely distinct jobs.
                outcome = await manager.submit(QueryRequest(
                    graph=str(graph), eps=0.5 / (i + 1), seed=i))
                jobs.append(outcome.job)
                await outcome.job.future
            return jobs

        return asyncio.run(scenario())

    def test_settled_jobs_leave_memory_and_store_keeps_retention(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = make_manager(tmp_path, CountingEstimator(), store_retention=4)
        self.run_jobs(manager, graph, 10)
        live = manager.jobs()
        counts = manager.store.counts()
        manager.close()
        assert live == ()  # every job settled, so no handle is left
        assert counts["done"] == 4  # store retention, newest kept
        # Accounting is history-independent: all ten completions counted.
        assert manager.counters["completed"] == 10


class TestSnapshotCache:
    """Session checkpoints stored next to cached results (refinable entries)."""

    def snap(self, tmp_path, name="session.snap"):
        from repro.session import write_snapshot

        path = tmp_path / name
        write_snapshot(path, {"kind": "test"}, {"counts": np.zeros(5)})
        return path

    def test_put_with_snapshot_marks_entry_refinable(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        entry = cache.put(
            "crc32:aa", request, make_result(), snapshot=self.snap(tmp_path)
        )
        assert entry.has_snapshot
        stored = cache.entries("crc32:aa")[0]
        assert stored.has_snapshot
        assert cache.snapshot_path(stored) is not None

    def test_find_refinable_matches_classify(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        cache.put("crc32:aa", request, make_result(), snapshot=self.snap(tmp_path))
        hit = cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.05, delta=0.1, seed=1
        )
        assert hit is not None
        entry, path = hit
        assert path.is_file()
        # wrong seed, wrong family, dominated request: no refinable entry
        assert cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.05, delta=0.1, seed=2
        ) is None
        assert cache.find_refinable(
            "crc32:aa", family="fixed-sampling", eps=0.05, delta=0.1, seed=1
        ) is None
        assert cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.2, delta=0.5, seed=1
        ) is None

    def test_find_refinable_prefers_most_samples(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        loose = QueryRequest(graph="g", eps=0.4, algorithm="sequential", seed=1)
        tight = QueryRequest(graph="g", eps=0.2, algorithm="sequential", seed=1)
        cache.put("crc32:aa", loose, make_result(eps=0.4, num_samples=50),
                  snapshot=self.snap(tmp_path, "a.snap"))
        best = cache.put("crc32:aa", tight, make_result(eps=0.2, num_samples=200),
                         snapshot=self.snap(tmp_path, "b.snap"))
        entry, _ = cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.1, delta=0.1, seed=1
        )
        assert entry.key == best.key

    def test_entry_without_snapshot_not_refinable(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        cache.put("crc32:aa", request, make_result())
        assert cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.05, delta=0.1, seed=1
        ) is None

    def test_evict_removes_snapshot_files(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        cache.put("crc32:aa", request, make_result(), snapshot=self.snap(tmp_path))
        assert cache.evict() == 1
        assert not list((tmp_path / "results").rglob("*.session.snap"))

    def test_overwriting_entry_without_snapshot_drops_old_checkpoint(self, tmp_path):
        """Regression: put() over a snapshot-carrying entry used to orphan
        the old ``.session.snap`` on disk forever when the new run produced
        no checkpoint."""
        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, algorithm="sequential", seed=1)
        cache.put("crc32:aa", request, make_result(), snapshot=self.snap(tmp_path))
        assert len(list((tmp_path / "results").rglob("*.session.snap"))) == 1
        entry = cache.put("crc32:aa", request, make_result())  # same key, no snapshot
        assert not entry.has_snapshot
        assert not list((tmp_path / "results").rglob("*.session.snap"))
        assert cache.find_refinable(
            "crc32:aa", family="adaptive-sampling", eps=0.05, delta=0.1, seed=1
        ) is None

    def snap_with_log(self, tmp_path, name="logged.snap"):
        from repro.session import write_snapshot

        path = tmp_path / name
        write_snapshot(
            path,
            {"kind": "test", "sample_log": {"num_samples": 3}},
            {"counts": np.zeros(5)},
        )
        return path

    def test_find_update_refinable_requires_a_sample_log(self, tmp_path):
        cache = ResultCache(tmp_path / "results")

        def req(eps):
            return QueryRequest(graph="g", eps=eps, algorithm="sequential", seed=1)

        # Entry 1: snapshot without a sample log (pre-log format) — skipped.
        cache.put("crc32:pp", req(0.3), make_result(eps=0.3, num_samples=50),
                  snapshot=self.snap(tmp_path))
        assert cache.find_update_refinable(
            "crc32:pp", family="adaptive-sampling", eps=0.3, delta=0.1, seed=1
        ) is None
        # Entry 2: logged snapshot — found, even for a *looser* request
        # (cross-graph reuse re-certifies, dominance does not apply).
        best = cache.put("crc32:pp", req(0.1), make_result(eps=0.1, num_samples=200),
                         snapshot=self.snap_with_log(tmp_path))
        found = cache.find_update_refinable(
            "crc32:pp", family="adaptive-sampling", eps=0.3, delta=0.1, seed=1
        )
        assert found is not None
        entry, path = found
        assert entry.key == best.key and path.is_file()
        # Wrong seed or family: nothing.
        assert cache.find_update_refinable(
            "crc32:pp", family="adaptive-sampling", eps=0.3, delta=0.1, seed=2
        ) is None
        assert cache.find_update_refinable(
            "crc32:pp", family="fixed-sampling", eps=0.3, delta=0.1, seed=1
        ) is None

    def test_find_update_refinable_prefers_most_samples(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        small = QueryRequest(graph="g", eps=0.3, algorithm="sequential", seed=1)
        large = QueryRequest(graph="g", eps=0.2, algorithm="sequential", seed=1)
        cache.put("crc32:pp", small, make_result(eps=0.3, num_samples=50),
                  snapshot=self.snap_with_log(tmp_path, "a.snap"))
        best = cache.put("crc32:pp", large, make_result(eps=0.2, num_samples=500),
                         snapshot=self.snap_with_log(tmp_path, "b.snap"))
        entry, _ = cache.find_update_refinable(
            "crc32:pp", family="adaptive-sampling", eps=0.25, delta=0.1, seed=1
        )
        assert entry.key == best.key


class TestServiceRefinement:
    """End to end: a tighter-eps request is served by restore + refine."""

    def manager(self, tmp_path):
        # No custom estimator: the real facade runs (and writes snapshots).
        return JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
        )

    def test_tighter_request_refines_from_checkpoint(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = self.manager(tmp_path)

        async def scenario():
            first = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.3, delta=0.2, seed=1, algorithm="sequential"))
            await first.job.future
            second = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.1, delta=0.2, seed=1, algorithm="sequential"))
            result = await second.job.future
            return first, second, manager.store.get(second.job.id), result

        try:
            first, second, row, result = asyncio.run(scenario())
        finally:
            manager.close()
        entry = manager.cache.entries(first.checksum)[0]
        assert entry.has_snapshot
        assert not second.served_from_cache
        assert row.kwargs["refined_from"] == entry.key
        assert result.samples_reused > 0
        assert result.samples_drawn == result.num_samples - result.samples_reused
        assert manager.counters["cache_refines"] == 1

        # bit-identical to a cold run at the tighter target
        from repro.api import estimate_betweenness

        cold = estimate_betweenness(
            str(graph), algorithm="sequential", eps=0.1, delta=0.2, seed=1
        )
        assert np.array_equal(result.scores, cold.scores)

    def test_refined_entry_serves_and_refines_again(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = self.manager(tmp_path)

        async def scenario():
            first = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.3, delta=0.2, seed=1, algorithm="sequential"))
            await first.job.future
            second = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.1, delta=0.2, seed=1, algorithm="sequential"))
            await second.job.future
            # looser than the refined entry: plain cache hit, no job
            third = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.2, delta=0.2, seed=1, algorithm="sequential"))
            # tighter still: refines from the *refined* checkpoint
            fourth = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.05, delta=0.2, seed=1, algorithm="sequential"))
            result4 = await fourth.job.future
            return third, manager.store.get(fourth.job.id), result4

        try:
            third, fourth, result4 = asyncio.run(scenario())
        finally:
            manager.close()
        assert third.served_from_cache
        assert fourth.kwargs["refined_from"] is not None
        assert result4.samples_reused > 0
        assert manager.counters["cache_refines"] == 2

    def test_different_seed_runs_cold(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        manager = self.manager(tmp_path)

        async def scenario():
            first = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.3, delta=0.2, seed=1, algorithm="sequential"))
            await first.job.future
            second = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.1, delta=0.2, seed=2, algorithm="sequential"))
            result = await second.job.future
            return manager.store.get(second.job.id), result

        try:
            second, result = asyncio.run(scenario())
        finally:
            manager.close()
        assert "refined_from" not in second.kwargs
        assert result.samples_reused == 0
        assert manager.counters["cache_refines"] == 0


class TestServiceUpdate:
    """End to end: a mutated-graph query is served by a parent checkpoint
    via lineage + restore + invalidate + re-sample (repro.evolve)."""

    def manager(self, tmp_path, catalog):
        return JobManager(
            cache=ResultCache(tmp_path / "results"),
            catalog=catalog,
            worker_mode="thread",
        )

    def test_mutated_graph_query_updates_from_parent(self, tmp_path):
        from repro.store import GraphDelta

        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        manager = self.manager(tmp_path, catalog)
        child_path = catalog.apply_delta(
            graph, GraphDelta(insertions=[(0, 3)], deletions=[(0, 1)])
        )

        async def scenario():
            first = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.2, delta=0.2, seed=1, algorithm="sequential"))
            await first.job.future
            second = await manager.submit(QueryRequest(
                graph=str(child_path), eps=0.2, delta=0.2, seed=1,
                algorithm="sequential"))
            result = await second.job.future
            # The updated result was cached under the *child* checksum: the
            # same query again is a plain cache hit, no third job.
            third = await manager.submit(QueryRequest(
                graph=str(child_path), eps=0.2, delta=0.2, seed=1,
                algorithm="sequential"))
            return first, second, third, result, manager.store.get(second.job.id)

        try:
            first, second, third, result, row = asyncio.run(scenario())
        finally:
            manager.close()
        assert second.checksum != first.checksum
        assert not second.served_from_cache
        assert row.kwargs["updated_from"] == first.checksum
        assert "refined_from" not in row.kwargs
        assert row.as_dict()["updated_from"] == first.checksum
        assert result.samples_reused > 0
        assert result.samples_invalidated > 0
        assert result.samples_drawn == result.num_samples - result.samples_reused
        assert manager.counters["cache_updates"] == 1
        assert third.served_from_cache

    def test_unrelated_graph_runs_cold(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        other = write_graph(tmp_path / "h.txt",
                            edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        catalog = GraphCatalog(tmp_path / "graph-cache")
        manager = self.manager(tmp_path, catalog)

        async def scenario():
            first = await manager.submit(QueryRequest(
                graph=str(graph), eps=0.2, delta=0.2, seed=1, algorithm="sequential"))
            await first.job.future
            second = await manager.submit(QueryRequest(
                graph=str(other), eps=0.2, delta=0.2, seed=1, algorithm="sequential"))
            result = await second.job.future
            return manager.store.get(second.job.id), result

        try:
            second, result = asyncio.run(scenario())
        finally:
            manager.close()
        assert "updated_from" not in second.kwargs
        assert result.samples_reused == 0
        assert manager.counters["cache_updates"] == 0


# --------------------------------------------------------------------- #
# HTTP server end to end
# --------------------------------------------------------------------- #
def run_service(tmp_path, estimator, scenario):
    """Start a service on an ephemeral port, run ``scenario(client)``."""

    async def main():
        service = BetweennessService(
            port=0,
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
            estimator=estimator,
        )
        await service.start()
        client = ServiceClient(service.host, service.port, timeout=30.0)
        try:
            return await scenario(client, service)
        finally:
            client.close()
            await service.stop()

    return asyncio.run(main())


class TestServiceHTTP:
    def test_query_twice_second_from_cache(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        estimator = CountingEstimator()
        fields = {"graph": str(graph), "eps": 0.1, "seed": 1, "k": 3}

        async def scenario(client, service):
            first = await asyncio.to_thread(client.query, **fields)
            second = await asyncio.to_thread(client.query, **fields)
            looser = await asyncio.to_thread(
                client.query, **{**fields, "eps": 0.5, "delta": 0.5, "seed": None}
            )
            stats = await asyncio.to_thread(client.stats)
            return first, second, looser, stats

        first, second, looser, stats = run_service(tmp_path, estimator, scenario)
        assert first["served_from_cache"] is False
        assert second["served_from_cache"] is True
        assert looser["served_from_cache"] is True
        assert looser["cached_eps"] == 0.1
        assert second["result"]["top"] == first["result"]["top"]
        assert len(first["result"]["top"]) == 3
        assert estimator.num_calls == 1  # one sampling run served three queries
        assert stats["cache_hits"] == 2 and stats["completed"] == 1

    def test_no_wait_polling_with_progress(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(client, service):
            submitted = await asyncio.to_thread(
                client.query, graph=str(graph), eps=0.1, wait=False
            )
            events = []
            status = await asyncio.to_thread(
                client.wait_for_job, submitted["job_id"],
                poll_seconds=0.02, timeout=10.0, on_progress=events.append,
            )
            return submitted, status, events

        submitted, status, events = run_service(tmp_path, CountingEstimator(), scenario)
        assert submitted["status"] in ("queued", "running")
        assert submitted["poll"] == f"/v1/jobs/{submitted['job_id']}"
        assert status["status"] == "done"
        assert status["result"]["num_samples"] == 50
        assert {event["phase"] for event in events} >= {"calibration"}

    def test_include_scores_and_errors(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(client, service):
            full = await asyncio.to_thread(
                client.query, graph=str(graph), eps=0.1, include_scores=True
            )
            assert len(full["result"]["scores"]) == full["result"]["num_vertices"]

            health = await asyncio.to_thread(client.health)
            assert health["ok"] is True
            backends = await asyncio.to_thread(client.backends)
            assert any(b["name"] == "sequential" for b in backends["backends"])

            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.query, graph="missing-graph")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.query, graph=str(graph), eps=5.0)
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.job, "job-999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.request, "GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.request, "GET", "/v1/query")
            assert excinfo.value.status == 405
            return True

        assert run_service(tmp_path, CountingEstimator(), scenario)

    def test_cache_endpoints(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(client, service):
            await asyncio.to_thread(client.query, graph=str(graph), eps=0.1)
            listing = await asyncio.to_thread(client.request, "GET", "/v1/cache")
            assert len(listing["entries"]) == 1
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.to_thread(client.cache_evict)  # no selector
            assert excinfo.value.status == 400
            evicted = await asyncio.to_thread(client.cache_evict, all=True)
            assert evicted["evicted"] == 1
            listing = await asyncio.to_thread(client.request, "GET", "/v1/cache")
            assert listing["entries"] == []
            return True

        assert run_service(tmp_path, CountingEstimator(), scenario)

    def test_job_status_reshaping_for_deduplicated_pollers(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")

        async def scenario(client, service):
            submitted = await asyncio.to_thread(
                client.query, graph=str(graph), eps=0.1, k=1, wait=False
            )
            status = await asyncio.to_thread(
                client.wait_for_job, submitted["job_id"], poll_seconds=0.02, timeout=10.0
            )
            assert len(status["result"]["top"]) == 1  # the creating request's k
            reshaped = await asyncio.to_thread(
                client.request, "GET",
                f"/v1/jobs/{submitted['job_id']}?k=4&include_scores=true",
            )
            bad = None
            try:
                await asyncio.to_thread(
                    client.request, "GET", f"/v1/jobs/{submitted['job_id']}?k=nope"
                )
            except ServiceError as exc:
                bad = exc.status
            return status, reshaped, bad

        status, reshaped, bad = run_service(tmp_path, CountingEstimator(), scenario)
        assert len(reshaped["result"]["top"]) == 4
        assert len(reshaped["result"]["scores"]) == reshaped["result"]["num_vertices"]
        assert "num_events" in status
        assert bad == 400

    def test_malformed_http_requests(self, tmp_path):
        async def scenario(client, service):
            async def raw_exchange(data: bytes) -> bytes:
                reader, writer = await asyncio.open_connection(service.host, service.port)
                writer.write(data)
                await writer.drain()
                response = await reader.read()
                writer.close()
                await writer.wait_closed()
                return response

            negative = await raw_exchange(
                b"POST /v1/query HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
            )
            garbage = await raw_exchange(b"\x00\x01\x02\r\n\r\n")
            return negative, garbage

        negative, garbage = run_service(tmp_path, CountingEstimator(), scenario)
        assert negative.startswith(b"HTTP/1.1 400 ")
        assert garbage.startswith(b"HTTP/1.1 400 ")

    def test_real_facade_end_to_end(self, tmp_path):
        """One integration pass with the genuine estimator (no fake)."""
        graph = write_graph(tmp_path / "real.txt")
        fields = {"graph": str(graph), "eps": 0.3, "seed": 3, "k": 2,
                  "algorithm": "sequential"}

        async def scenario(client, service):
            first = await asyncio.to_thread(client.query, **fields)
            second = await asyncio.to_thread(client.query, **fields)
            return first, second

        first, second = run_service(tmp_path, None, scenario)
        assert first["served_from_cache"] is False
        assert first["result"]["backend"] == "sequential"
        assert second["served_from_cache"] is True
        assert second["result"]["top"] == first["result"]["top"]


# --------------------------------------------------------------------- #
# CLI subcommands
# --------------------------------------------------------------------- #
class TestCLI:
    def test_cache_ls_and_evict(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path / "results")
        request = QueryRequest(graph="g", eps=0.1, seed=1, algorithm="sequential")
        cache.put("crc32:aa", request, make_result())

        assert main(["cache", "ls", "--cache-dir", str(tmp_path / "results")]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "crc32:aa" in out

        assert main(["cache", "ls", "--json", "--cache-dir", str(tmp_path / "results")]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries[0]["graph_checksum"] == "crc32:aa"

        assert main(["cache", "evict", "--all", "--cache-dir", str(tmp_path / "results")]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert cache.entries() == []

    def test_cache_evict_by_graph_never_converts(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_GRAPH_CACHE", str(tmp_path / "graph-cache"))
        graph = write_graph(tmp_path / "g.txt")
        cache = ResultCache(tmp_path / "results")
        # Entry recorded against the request string; the graph was never
        # converted on *this* machine, so only the string can match.
        request = QueryRequest(graph=str(graph), eps=0.1, algorithm="sequential")
        cache.put("crc32:remote", request, make_result())

        catalog = GraphCatalog(tmp_path / "graph-cache")
        assert catalog.cached_checksum(str(graph)) is None  # not stored, no convert
        assert main(["cache", "evict", "--graph", str(graph),
                     "--cache-dir", str(tmp_path / "results")]) == 0
        assert "evicted 1" in capsys.readouterr().out
        # Eviction must not have converted the graph as a side effect.
        assert not any((tmp_path / "graph-cache").glob("*.rcsr"))
        assert cache.entries() == []

    def test_cached_checksum_matches_checksum_for_stored_graphs(self, tmp_path):
        graph = write_graph(tmp_path / "g.txt")
        catalog = GraphCatalog(tmp_path / "graph-cache")
        checksum = catalog.checksum(str(graph))  # converts on first touch
        assert catalog.cached_checksum(str(graph)) == checksum
        assert catalog.cached_checksum("never-heard-of-it") is None

    def test_cache_evict_requires_selector(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "evict", "--cache-dir", str(tmp_path / "results")]) == 2
        assert "--graph, --key, or --all" in capsys.readouterr().err

    def test_query_against_live_service(self, tmp_path, capsys):
        from repro.cli import main

        graph = write_graph(tmp_path / "g.txt")
        estimator = CountingEstimator()
        loop = asyncio.new_event_loop()
        service = BetweennessService(
            port=0,
            cache=ResultCache(tmp_path / "results"),
            catalog=GraphCatalog(tmp_path / "graph-cache"),
            worker_mode="thread",
            estimator=estimator,
        )
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(service.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=10.0)
        try:
            argv = [
                "query", str(graph), "--eps", "0.1", "--seed", "1",
                "--top", "2", "--port", str(service.port),
            ]
            assert main(argv) == 0
            first_out = capsys.readouterr().out
            assert "served from fresh run" in first_out
            assert main(argv) == 0
            second_out = capsys.readouterr().out
            assert "served from result cache" in second_out
            assert estimator.num_calls == 1

            assert main([*argv, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["served_from_cache"] is True
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.run_until_complete(service.stop())
            loop.close()

    def test_query_unreachable_service(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["query", "g.txt", "--port", "1", "--timeout", "2"])
        assert code == 2
        assert "cannot reach service" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.port == 8321 and args.worker_mode == "process"
