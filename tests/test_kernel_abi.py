"""Tests for the kernel table and routing (:mod:`repro.kernels.abi`) and their satellites.

Covers the name -> spec table, the routing function as a table (what the
compiled helper and the graph's size decide; explicit request over
``REPRO_KERNEL`` over that), wavefront/per-pair statistical equivalence
(exact expansion-schedule equality plus path-choice uniformity), the
adjacency-list memoization of the small-graph kernel, the bounded
rejection-sampling fallback of :func:`repro.sampling.rng.draw_vertex_pairs`,
the ``plan_batches`` edge cases around ``MIN_AUTO_BATCH``, and the per-kernel
observability counters.

Routing assertions monkeypatch ``REPRO_KERNEL`` away (or to a known value),
so the module stays correct when CI forces a kernel via the env matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import KadabraOptions
from repro.core.state_frame import StateFrame
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, grid_graph
from repro.kernels import (
    MIN_AUTO_BATCH,
    BatchPathSampler,
    KernelSpec,
    compiled,
    describe_routing,
    format_kernel_table,
    get_kernel,
    kernel_names,
    plan_batches,
    resolve_kernel,
)
from repro.kernels import abi
from repro.kernels.bidirectional import bidirectional_sample
from repro.kernels.smallgraph import (
    SMALL_GRAPH_ENTRY_LIMIT,
    SMALL_GRAPH_VERTEX_LIMIT,
    adjacency_cache_stats,
    adjacency_lists,
)
from repro.obs import metrics as obs_metrics
from repro.sampling.rng import MAX_REJECTION_ROUNDS, draw_vertex_pairs
from repro.session import EstimationSession


@pytest.fixture(autouse=True)
def _no_kernel_env(monkeypatch):
    """Routing tests must not inherit a forced kernel from the CI matrix."""
    monkeypatch.delenv(abi.REPRO_KERNEL_ENV, raising=False)


def _force_bidirectional(sampler: BatchPathSampler) -> BatchPathSampler:
    """Pin a batch sampler to the numpy per-pair kernel (bypass routing)."""
    sampler._kernel = bidirectional_sample
    sampler._kernel_indptr = sampler._indptr
    sampler._kernel_indices = sampler._indices
    return sampler


# --------------------------------------------------------------------------- #
# The table and the routing function
# --------------------------------------------------------------------------- #
class TestKernelRegistry:
    def test_default_kernels_registered(self):
        assert kernel_names() == ("smallgraph", "bidirectional", "unidirectional", "wavefront")

    def test_get_kernel_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("nope")

    def test_table_lists_every_kernel(self):
        table = format_kernel_table()
        for name in kernel_names():
            assert name in table

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            KernelSpec(name="x")
        with pytest.raises(ValueError, match="exactly one"):
            KernelSpec(
                name="x",
                make_per_pair=lambda ip, ix: None,
                make_batch=lambda g: None,
            )

    def test_register_reserved_and_duplicate(self):
        spec = KernelSpec(name="auto", make_per_pair=lambda ip, ix: None)
        with pytest.raises(ValueError, match="reserved"):
            abi.register_kernel(spec)
        with pytest.raises(ValueError, match="already registered"):
            abi.register_kernel(get_kernel("bidirectional"))


def _csr(num_vertices: int, num_entries: int):
    """Arrays of a graph's sizes; with ``compiled.usable`` patched, sizes are all routing reads."""
    return np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(num_entries, dtype=np.uint32)


INSIDE = (100, 600)
MANY_VERTICES = (SMALL_GRAPH_VERTEX_LIMIT + 1, 600)
MANY_ENTRIES = (100, SMALL_GRAPH_ENTRY_LIMIT + 1)


@pytest.fixture
def compiled_usable(monkeypatch):
    def patch(answer: bool) -> None:
        monkeypatch.setattr(compiled, "usable", lambda indptr, indices: answer)

    return patch


class TestRouting:
    @pytest.mark.parametrize(
        "usable, sizes, expected",
        [
            (True, INSIDE, "bidirectional"),
            (True, MANY_VERTICES, "bidirectional"),
            (True, MANY_ENTRIES, "bidirectional"),
            (False, INSIDE, "smallgraph"),
            (False, MANY_VERTICES, "bidirectional"),
            (False, MANY_ENTRIES, "bidirectional"),
        ],
    )
    def test_auto(self, compiled_usable, usable, sizes, expected):
        compiled_usable(usable)
        assert resolve_kernel(*_csr(*sizes)).name == expected

    @pytest.mark.parametrize(
        "requested, env, expected",
        [
            ("wavefront", "unidirectional", "wavefront"),  # explicit beats env
            ("smallgraph", None, "smallgraph"),  # ... and auto, compiled or not
            (None, "unidirectional", "unidirectional"),  # env beats auto
            (None, "wavefront", "wavefront"),
            (None, "", "bidirectional"),  # an empty value is no value
            (None, None, "bidirectional"),
        ],
    )
    def test_explicit_beats_env_beats_auto(self, monkeypatch, compiled_usable, requested, env, expected):
        compiled_usable(True)
        if env is not None:
            monkeypatch.setenv(abi.REPRO_KERNEL_ENV, env)
        assert resolve_kernel(*_csr(*INSIDE), requested=requested).name == expected

    def test_explicit_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel(*_csr(*INSIDE), requested="nope")

    def test_env_unknown_warns_and_falls_back(self, monkeypatch, compiled_usable):
        compiled_usable(False)
        monkeypatch.setenv(abi.REPRO_KERNEL_ENV, "nope")
        with pytest.warns(RuntimeWarning, match="not a registered kernel"):
            spec = resolve_kernel(*_csr(*INSIDE))
        assert spec.name == "smallgraph"

    def test_added_kernel_is_reached_by_name_only(self, monkeypatch, compiled_usable):
        """How ``wavefront`` is reached too: explicit request or env, never auto."""
        monkeypatch.setattr(abi, "_REGISTRY", dict(abi._REGISTRY))
        spec = abi.register_kernel(
            KernelSpec(name="_abi_test_added", make_per_pair=lambda ip, ix: None)
        )
        for usable in (True, False):
            compiled_usable(usable)
            for sizes in (INSIDE, MANY_VERTICES, MANY_ENTRIES):
                assert resolve_kernel(*_csr(*sizes)).name in ("bidirectional", "smallgraph")
        assert resolve_kernel(*_csr(*INSIDE), requested="_abi_test_added") is spec
        monkeypatch.setenv(abi.REPRO_KERNEL_ENV, "_abi_test_added")
        assert resolve_kernel(*_csr(*INSIDE)) is spec

    def test_describe_routing(self, monkeypatch, compiled_usable, small_social_graph):
        compiled_usable(False)
        monkeypatch.setenv(abi.REPRO_KERNEL_ENV, "wavefront")
        routing = describe_routing(small_social_graph)
        assert routing == {"auto": "smallgraph", "env": "wavefront", "effective": "wavefront"}

    def test_sampler_reports_resolved_kernel(self, small_social_graph):
        # 80 vertices, in-window: the compiled search where there is one.
        auto = "bidirectional" if compiled.load()[0] is not None else "smallgraph"
        sampler = BatchPathSampler(small_social_graph)
        assert sampler.kernel_name == auto
        assert sampler.compiled == (auto == "bidirectional")
        forced = BatchPathSampler(small_social_graph, kernel="smallgraph")
        assert forced.kernel_name == "smallgraph"


# --------------------------------------------------------------------------- #
# Wavefront vs per-pair: statistical equivalence
# --------------------------------------------------------------------------- #
class TestWavefrontEquivalence:
    def _graphs(self):
        yield barabasi_albert(60, 2, seed=5)
        yield grid_graph(5, 6)
        # Disconnected: two BA components glued side by side.
        a = barabasi_albert(30, 2, seed=1)
        edges = [(u, v) for u in range(30) for v in a.neighbors(u) if u < v]
        edges += [(u + 30, v + 30) for (u, v) in edges]
        yield CSRGraph.from_edges(edges, num_vertices=60)

    def test_expansion_schedule_matches_per_pair(self, rng):
        """Same pairs in, identical connected/length out.

        The wavefront advances a balanced bidirectional search per pair,
        batched across lanes; the *path choice* consumes the RNG differently,
        and it still reads the rows of every frontier it settles where the
        per-pair kernel reads only those it expands, so ``edges_touched`` is
        not compared.
        """
        for graph in self._graphs():
            wavefront = BatchPathSampler(graph, kernel="wavefront")
            reference = _force_bidirectional(BatchPathSampler(graph))
            pairs = draw_vertex_pairs(graph.num_vertices, 200, rng)
            wf = wavefront.sample_pairs(pairs[:, 0], pairs[:, 1], np.random.default_rng(1))
            ref = reference.sample_pairs(pairs[:, 0], pairs[:, 1], np.random.default_rng(2))
            np.testing.assert_array_equal(wf.connected, ref.connected)
            np.testing.assert_array_equal(wf.lengths, ref.lengths)

    def test_sampled_paths_are_valid_shortest_paths(self, rng):
        for graph in self._graphs():
            sampler = BatchPathSampler(graph, kernel="wavefront")
            pairs = draw_vertex_pairs(graph.num_vertices, 100, rng)
            batch = sampler.sample_pairs(pairs[:, 0], pairs[:, 1], rng)
            for i in range(batch.num_samples):
                if not batch.connected[i]:
                    continue
                interior = batch.contrib_vertices[
                    batch.contrib_indptr[i] : batch.contrib_indptr[i + 1]
                ]
                path = [pairs[i, 0], *interior.tolist(), pairs[i, 1]]
                assert len(path) == batch.lengths[i] + 1
                for u, v in zip(path, path[1:]):
                    assert v in graph.neighbors(u)

    def test_path_choice_uniform_on_grid(self):
        """3x3 grid, corner to corner-adjacent: two shortest paths, ~50/50."""
        graph = grid_graph(3, 3)
        sampler = BatchPathSampler(graph, kernel="wavefront")
        rng = np.random.default_rng(11)
        sources = np.zeros(4000, dtype=np.int64)
        targets = np.full(4000, 4, dtype=np.int64)  # centre of the grid
        batch = sampler.sample_pairs(sources, targets, rng)
        assert bool(batch.connected.all())
        counts = np.zeros(graph.num_vertices, dtype=np.int64)
        np.add.at(counts, batch.contrib_vertices, 1)
        interior = counts[counts > 0]
        assert interior.sum() == 4000  # every path has exactly one interior vertex
        assert len(interior) == 2
        # Two-sided binomial bound, p=0.5, n=4000: 5 sigma ~ 158.
        assert abs(interior[0] - 2000) < 250

    def test_wavefront_through_frame_accumulation(self, small_social_graph, rng):
        sampler = BatchPathSampler(small_social_graph, kernel="wavefront")
        frame = StateFrame.zeros(small_social_graph.num_vertices)
        frame.record_batch(sampler.sample_batch(300, rng))
        assert frame.num_samples == 300
        assert frame.counts.sum() > 0


# --------------------------------------------------------------------------- #
# Satellite: bounded rejection sampling in draw_vertex_pairs
# --------------------------------------------------------------------------- #
class _DiagonalRNG:
    """Adversarial generator: bulk pair draws always collide (s == t).

    ``integers`` with a ``(k, 2)`` size returns identical columns, so pure
    rejection sampling would spin forever; 1-D draws delegate to a real
    generator so the fallback path still produces uniform values.
    """

    def __init__(self):
        self._real = np.random.default_rng(0)
        self.bulk_rounds = 0

    def integers(self, low, high, size=None, dtype=np.int64):
        if isinstance(size, tuple) and len(size) == 2:
            self.bulk_rounds += 1
            col = self._real.integers(low, high, size=size[0], dtype=dtype)
            return np.stack([col, col], axis=1)
        return self._real.integers(low, high, size=size, dtype=dtype)


class TestDrawVertexPairsFallback:
    def test_adversarial_generator_terminates(self):
        rng = _DiagonalRNG()
        pairs = draw_vertex_pairs(50, 300, rng)
        assert rng.bulk_rounds == MAX_REJECTION_ROUNDS
        assert pairs.shape == (300, 2)
        assert (pairs[:, 0] != pairs[:, 1]).all()
        assert (pairs >= 0).all() and (pairs < 50).all()

    def test_fallback_is_uniform_over_distinct_pairs(self):
        rng = _DiagonalRNG()
        pairs = draw_vertex_pairs(4, 12_000, rng)
        _, counts = np.unique(pairs[:, 0] * 4 + pairs[:, 1], return_counts=True)
        assert len(counts) == 12  # all 4*3 ordered pairs occur
        assert counts.min() > 700  # expected 1000 each

    def test_normal_generator_unchanged(self, rng):
        pairs = draw_vertex_pairs(100, 500, rng)
        assert pairs.shape == (500, 2)
        assert (pairs[:, 0] != pairs[:, 1]).all()


# --------------------------------------------------------------------------- #
# Satellite: small-graph adjacency memoization
# --------------------------------------------------------------------------- #
class TestAdjacencyMemoization:
    def test_repeated_calls_hit_cache(self, small_social_graph):
        ip, ix = small_social_graph.indptr, small_social_graph.indices
        first = adjacency_lists(ip, ix)
        before = adjacency_cache_stats()
        second = adjacency_lists(ip, ix)
        after = adjacency_cache_stats()
        assert second[0] is first[0] and second[1] is first[1]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_lists_match_tolist(self, small_social_graph):
        ip, ix = small_social_graph.indptr, small_social_graph.indices
        list_ip, list_ix = adjacency_lists(ip, ix)
        assert list_ip == ip.tolist()
        assert list_ix == ix.tolist()

    def test_no_rebuild_on_session_refine(self):
        """refine() must reuse the adjacency lists built by run()."""
        graph = barabasi_albert(60, 2, seed=9)
        session = EstimationSession(
            graph, KadabraOptions(eps=0.3, delta=0.1, seed=4), kernel="smallgraph"
        )
        session.run()
        assert session._sampler.kernel_name == "smallgraph"
        misses_after_run = adjacency_cache_stats()["misses"]
        session.refine(eps=0.25)
        assert adjacency_cache_stats()["misses"] == misses_after_run


# --------------------------------------------------------------------------- #
# Satellite: plan_batches edge cases and per-kernel counters
# --------------------------------------------------------------------------- #
class TestPlanBatchesEdgeCases:
    def test_total_exactly_min_auto_batch(self):
        assert list(plan_batches(MIN_AUTO_BATCH)) == [MIN_AUTO_BATCH]

    def test_total_smaller_than_first_batch(self):
        assert list(plan_batches(10)) == [10]
        assert list(plan_batches(1)) == [1]

    def test_zero_total_yields_nothing(self):
        assert list(plan_batches(0)) == []

    def test_counter_totals_match_planned_samples(self, small_social_graph, rng):
        sampler = BatchPathSampler(small_social_graph, kernel="bidirectional")
        counter = obs_metrics.REGISTRY.counter(
            "repro_kernel_bidirectional_samples_total",
            "samples drawn through the 'bidirectional' kernel",
        )
        was_enabled = obs_metrics.ENABLED
        obs_metrics.enable_metrics()
        try:
            before = counter.value
            total = 777
            for take in plan_batches(total):
                sampler.sample_batch(take, rng)
            assert counter.value == before + total
        finally:
            if not was_enabled:
                obs_metrics.disable_metrics()


# --------------------------------------------------------------------------- #
# Drivers honour the override end to end
# --------------------------------------------------------------------------- #
class TestKernelOverridePlumbing:
    def test_resources_validates_kernel(self):
        from repro.api import Resources

        assert Resources(kernel="wavefront").as_dict()["kernel"] == "wavefront"
        assert "kernel" not in Resources().as_dict()
        with pytest.raises(ValueError, match="unknown kernel"):
            Resources(kernel="nope")

    def test_facade_runs_with_forced_wavefront(self, small_social_graph):
        from repro.api import Resources, estimate_betweenness

        result = estimate_betweenness(
            small_social_graph,
            algorithm="sequential",
            eps=0.2,
            seed=3,
            resources=Resources(kernel="wavefront"),
        )
        assert len(result.scores) == small_social_graph.num_vertices
        assert result.num_samples > 0

    def test_session_checkpoint_carries_kernel(self, small_social_graph, tmp_path):
        session = EstimationSession(
            small_social_graph,
            KadabraOptions(eps=0.3, delta=0.1, seed=4),
            kernel="unidirectional",  # one routing never picks
        )
        session.run()
        path = tmp_path / "ck.npz"
        session.checkpoint(path)
        restored = EstimationSession.restore(path, graph=small_social_graph)
        assert restored._kernel == "unidirectional"
        assert restored._sampler.kernel_name == "unidirectional"
