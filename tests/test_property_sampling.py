"""Property-based tests for the samplers, state frames and stopping functions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.state_frame import StateFrame
from repro.core.stopping import compute_omega, f_function, g_function
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances
from repro.kernels import BatchPathSampler


@st.composite
def connected_graph_and_pair(draw):
    """A random connected-ish graph plus a (source, target) pair and seed."""
    n = draw(st.integers(min_value=4, max_value=16))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # A random spanning tree guarantees connectivity; extra edges add shortcuts.
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u != w:
            edges.append((u, w))
    graph = CSRGraph.from_edges(edges, num_vertices=n)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    if target == source:
        target = (target + 1) % n
    return graph, source, target, seed


class TestSamplerProperties:
    @given(connected_graph_and_pair())
    @settings(max_examples=80, deadline=None)
    def test_bidirectional_sample_is_shortest_path(self, data):
        graph, source, target, seed = data
        rng = np.random.default_rng(seed)
        sample = next(BatchPathSampler(graph).sample_pairs([source], [target], rng).iter_samples())
        distances = bfs_distances(graph, source).distances
        assert sample.connected
        assert sample.length == distances[target]
        path = sample.path_vertices
        assert path[0] == source and path[-1] == target
        assert len(set(path.tolist())) == len(path)  # simple path
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(int(a), int(b))

    @given(connected_graph_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_both_samplers_agree_on_length(self, data):
        graph, source, target, seed = data
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed + 1)
        bi = BatchPathSampler(graph).sample_pairs([source], [target], rng_a)
        uni = BatchPathSampler(graph, kernel="unidirectional").sample_pairs([source], [target], rng_b)
        assert bi.lengths.tolist() == uni.lengths.tolist()
        assert bi.contrib_vertices.size == uni.contrib_vertices.size


class TestStateFrameProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=0, max_size=5, unique=True),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_aggregation_equals_sequential_recording(self, sample_sets):
        """Recording samples in one frame == recording in shards and summing."""
        combined = StateFrame.zeros(10)
        shards = [StateFrame.zeros(10) for _ in range(3)]
        for i, internal in enumerate(sample_sets):
            combined.record_sample(internal)
            shards[i % 3].record_sample(internal)
        total = StateFrame.zeros(10)
        for shard in shards:
            total.add_into(shard)
        assert total.num_samples == combined.num_samples
        assert np.allclose(total.counts, combined.counts)

    @given(st.integers(1, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_estimates_bounded_by_one(self, tau, hits):
        frame = StateFrame.zeros(3)
        frame.num_samples = tau
        frame.counts[0] = min(hits, tau)
        estimates = frame.betweenness_estimates()
        assert 0.0 <= estimates[0] <= 1.0


class TestStoppingFunctionProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=0.4),
        st.integers(min_value=10, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_f_and_g_positive_and_finite(self, b_tilde, delta, omega):
        tau = max(1, omega // 2)
        f = f_function(b_tilde, delta, omega, tau)
        g = g_function(b_tilde, delta, omega, tau)
        assert np.isfinite(f) and f >= 0.0
        assert np.isfinite(g) and g > 0.0
        assert g >= f - 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=0.5),
        st.floats(min_value=1e-5, max_value=0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_eventually_shrink(self, b_tilde, delta):
        """Exhausting the sample budget always tightens the bounds.

        Note: f and g are *not* monotone in tau in general (Section III-B of
        the paper stresses exactly this), so only the endpoints are compared:
        at tau = omega the bounds must be no worse than at the start, and the
        upper-deviation bound must have become small.  b~ is bounded away from
        zero because for vanishing estimates f itself vanishes at small tau
        while its sqrt(b/omega) tail at tau = omega does not.
        """
        omega = 10**6
        f_start = f_function(b_tilde, delta, omega, 10)
        g_start = g_function(b_tilde, delta, omega, 10)
        f_end = f_function(b_tilde, delta, omega, omega)
        g_end = g_function(b_tilde, delta, omega, omega)
        assert f_end <= f_start + 1e-12
        assert g_end <= g_start + 1e-12
        # With the full budget spent, the f bound is far below the initial
        # estimate scale (b~ + a constant).
        assert f_end <= b_tilde + 0.1

    @given(
        st.floats(min_value=1e-4, max_value=0.2),
        st.floats(min_value=0.01, max_value=0.3),
        st.integers(min_value=2, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_omega_positive_and_monotone_in_eps(self, eps, delta, vertex_diameter):
        omega = compute_omega(eps, delta, vertex_diameter)
        tighter = compute_omega(eps / 2.0, delta, vertex_diameter)
        assert omega > 0
        assert tighter >= omega
