"""Classical random-graph models used for proxies and for tests.

* Erdős–Rényi ``G(n, m)`` and ``G(n, p)``.
* Barabási–Albert preferential attachment (power-law proxies for the social
  and hyperlink networks of Table I).
* Watts–Strogatz small-world (used in tests for medium-diameter graphs).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["erdos_renyi_gnm", "erdos_renyi_gnp", "barabasi_albert", "watts_strogatz"]


def erdos_renyi_gnm(n: int, m: int, *, seed: int | None = None) -> CSRGraph:
    """Uniform random graph with exactly ``m`` distinct edges (best effort).

    Edges are drawn with rejection of duplicates; if ``m`` exceeds the number
    of possible edges a :class:`ValueError` is raised.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the maximum {max_edges} for n={n}")
    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    edges: List[Tuple[int, int]] = []
    # Draw in vectorized batches with rejection.
    while len(chosen) < m:
        batch = max(1024, 2 * (m - len(chosen)))
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        mask = u != v
        u, v = u[mask], v[mask]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo * np.int64(n) + hi
        for key, a, b in zip(keys.tolist(), lo.tolist(), hi.tolist()):
            if key not in chosen:
                chosen.add(key)
                edges.append((a, b))
                if len(chosen) == m:
                    break
    return CSRGraph.from_edges(edges, num_vertices=n)


def erdos_renyi_gnp(n: int, p: float, *, seed: int | None = None) -> CSRGraph:
    """Bernoulli random graph ``G(n, p)``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    if n <= 1 or p == 0.0:
        return CSRGraph.empty(max(n, 0))
    u, v = np.triu_indices(n, k=1)
    mask = rng.random(u.size) < p
    return CSRGraph.from_edges(np.column_stack((u[mask], v[mask])), num_vertices=n)


def barabasi_albert(n: int, attachments: int, *, seed: int | None = None) -> CSRGraph:
    """Barabási–Albert preferential-attachment graph.

    Each new vertex attaches to ``attachments`` existing vertices chosen with
    probability proportional to their current degree (using the standard
    repeated-endpoint trick).
    """
    if attachments < 1:
        raise ValueError("attachments must be >= 1")
    if n < attachments + 1:
        raise ValueError("n must be at least attachments + 1")
    rng = np.random.default_rng(seed)
    # Start from a star over the first (attachments + 1) vertices so that every
    # vertex has positive degree.
    repeated: List[int] = []
    edges: List[Tuple[int, int]] = []
    for v in range(1, attachments + 1):
        edges.append((0, v))
        repeated.extend((0, v))
    for new_vertex in range(attachments + 1, n):
        targets: set[int] = set()
        while len(targets) < attachments:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for t in targets:
            edges.append((new_vertex, t))
            repeated.extend((new_vertex, t))
    return CSRGraph.from_edges(edges, num_vertices=n)


def watts_strogatz(n: int, k: int, beta: float, *, seed: int | None = None) -> CSRGraph:
    """Watts–Strogatz small-world graph (ring lattice with rewiring)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k % 2 != 0 or k < 0:
        raise ValueError("k must be a non-negative even integer")
    if k >= n and n > 0:
        raise ValueError("k must be smaller than n")
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    if n <= 1 or k == 0:
        return CSRGraph.empty(max(n, 0))
    edges: List[Tuple[int, int]] = []
    half = k // 2
    for u in range(n):
        for offset in range(1, half + 1):
            v = (u + offset) % n
            if beta > 0.0 and rng.random() < beta:
                # Rewire to a uniformly random non-self endpoint.
                w = int(rng.integers(0, n))
                attempts = 0
                while w == u and attempts < 16:
                    w = int(rng.integers(0, n))
                    attempts += 1
                if w != u:
                    v = w
            edges.append((u, v))
    return CSRGraph.from_edges(edges, num_vertices=n)
