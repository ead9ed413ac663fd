"""Graph fixtures the tests build and nothing in the package runs.

Small closed-form graphs (paths, cycles, stars, cliques), the classical random
models (Erdős–Rényi ``G(n, m)`` / ``G(n, p)``, Watts–Strogatz), a threshold
random hyperbolic graph and a METIS writer for the METIS reader's tests.
The package's own generators (:mod:`repro.graph.generators`) keep what the
examples, benchmarks and CLI use.  Imported by bare name, as
``reference_samplers`` is.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.io import PathLike, _open_text

__all__ = [
    "complete_graph",
    "cycle_graph",
    "erdos_renyi_gnm",
    "erdos_renyi_gnp",
    "estimate_disk_radius",
    "hyperbolic_graph",
    "path_graph",
    "star_graph",
    "watts_strogatz",
    "write_metis",
]


def path_graph(n: int) -> CSRGraph:
    """A simple path on ``n`` vertices (diameter ``n - 1``)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return CSRGraph.empty(max(n, 0))
    v = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(np.column_stack((v, v + 1)), num_vertices=n)


def cycle_graph(n: int) -> CSRGraph:
    """A cycle on ``n`` vertices."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 2:
        return path_graph(n)
    v = np.arange(n, dtype=np.int64)
    return CSRGraph.from_edges(np.column_stack((v, (v + 1) % n)), num_vertices=n)


def star_graph(n: int) -> CSRGraph:
    """A star with one centre (vertex 0) and ``n - 1`` leaves."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return CSRGraph.empty(max(n, 0))
    leaves = np.arange(1, n, dtype=np.int64)
    centre = np.zeros(n - 1, dtype=np.int64)
    return CSRGraph.from_edges(np.column_stack((centre, leaves)), num_vertices=n)


def complete_graph(n: int) -> CSRGraph:
    """The complete graph on ``n`` vertices."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return CSRGraph.empty(max(n, 0))
    u, v = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(np.column_stack((u, v)), num_vertices=n)


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


# Random hyperbolic graphs: vertices are points in a hyperbolic disk, two
# vertices are adjacent iff their hyperbolic distance is below the disk
# radius; the radial density ``rho(r) ~ alpha * sinh(alpha r)`` with
# ``alpha = (gamma - 1) / 2`` yields a degree power law with exponent
# ``gamma`` (the Krioukov et al. threshold model).  Vertices are binned by
# angle so that the neighbour search stays close to linear in the edges.


def estimate_disk_radius(n: int, avg_degree: float, gamma: float = 3.0) -> float:
    """Estimate the hyperbolic disk radius yielding the requested average degree.

    Uses the standard asymptotic relation ``k_avg ≈ (2/π) ξ² n e^{-R/2}`` with
    ``ξ = α / (α - 1/2)`` and ``α = (γ - 1)/2``, then refines the constant so
    that small instances land near the requested density.
    """
    if n < 2:
        return 1.0
    alpha = (gamma - 1.0) / 2.0
    if alpha <= 0.5:
        raise ValueError("gamma must be > 2 for a finite mean degree")
    xi = alpha / (alpha - 0.5)
    radius = 2.0 * math.log(2.0 * n * xi * xi / (math.pi * max(avg_degree, 1e-9)))
    return max(radius, 1.0)


def _hyperbolic_distance(r1, phi1, r2, phi2):
    """Hyperbolic distance between points given in polar coordinates."""
    dphi = np.pi - np.abs(np.pi - np.abs(phi1 - phi2))
    arg = np.cosh(r1) * np.cosh(r2) - np.sinh(r1) * np.sinh(r2) * np.cos(dphi)
    return np.arccosh(np.maximum(arg, 1.0))


def hyperbolic_graph(
    n: int,
    avg_degree: float = 60.0,
    gamma: float = 3.0,
    *,
    seed: int | None = None,
    radius: float | None = None,
) -> CSRGraph:
    """Generate a threshold random hyperbolic graph.

    Parameters
    ----------
    n:
        Number of vertices.
    avg_degree:
        Target average degree (the paper uses ``2 |E| / |V| = 60``).
    gamma:
        Power-law exponent of the degree distribution (the paper uses 3).
    seed:
        RNG seed.
    radius:
        Optional explicit disk radius; overrides the estimate from
        :func:`estimate_disk_radius`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return CSRGraph.empty(max(n, 0))
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    rng = np.random.default_rng(seed)
    alpha = (gamma - 1.0) / 2.0
    R = radius if radius is not None else estimate_disk_radius(n, avg_degree, gamma)

    # Radial coordinates with density ~ sinh(alpha r) via inverse transform.
    u = rng.random(n)
    radial = np.arccosh(1.0 + u * (np.cosh(alpha * R) - 1.0)) / alpha
    angular = rng.random(n) * 2.0 * np.pi

    # Sort by angle and bucket into wedges so that neighbour candidates are
    # restricted to nearby wedges (plus all high-centrality low-radius points).
    order = np.argsort(angular, kind="stable")
    radial = radial[order]
    angular = angular[order]
    # Map back to original ids so vertex numbering is independent of geometry.
    original_id = order

    num_bins = max(8, int(math.sqrt(n)))
    bin_of = np.minimum((angular / (2.0 * np.pi) * num_bins).astype(np.int64), num_bins - 1)
    bin_starts = np.searchsorted(bin_of, np.arange(num_bins))
    bin_ends = np.searchsorted(bin_of, np.arange(num_bins), side="right")

    # Points with small radius can connect across large angular distances; keep
    # them in a global candidate set.  The angular reach of a point at radius r
    # against a point at radius >= r_min is bounded via the triangle inequality
    # d >= |r1 - r2| so pairs with r1 + r2 <= R always connect, and
    # cos(dphi_max) ~ handled by a conservative wedge window below.
    low_radius_threshold = R / 2.0
    global_candidates = np.flatnonzero(radial <= low_radius_threshold)

    builder = GraphBuilder(num_vertices=n)
    edges_u = []
    edges_v = []

    two_pi = 2.0 * np.pi
    for idx in range(n):
        r1 = radial[idx]
        phi1 = angular[idx]
        # Angular window: for points with radius >= low_radius_threshold the
        # connection requires dphi <= dphi_max(r1, low_radius_threshold).
        # Use the standard approximation dphi_max ≈ 2 * exp((R - r1 - r2)/2).
        r2_min = low_radius_threshold
        dphi_max = 2.0 * math.exp((R - r1 - r2_min) / 2.0) + 1e-12
        dphi_max = min(dphi_max * 1.5, np.pi)  # safety margin
        # Wedge range covering [phi1 - dphi_max, phi1 + dphi_max].
        lo_angle = phi1 - dphi_max
        hi_angle = phi1 + dphi_max
        lo_bin = int(math.floor(lo_angle / two_pi * num_bins))
        hi_bin = int(math.floor(hi_angle / two_pi * num_bins))
        cand_chunks = []
        for b in range(lo_bin, hi_bin + 1):
            bb = b % num_bins
            s, e = bin_starts[bb], bin_ends[bb]
            if e > s:
                cand_chunks.append(np.arange(s, e))
        if cand_chunks:
            candidates = np.concatenate(cand_chunks)
        else:
            candidates = np.empty(0, dtype=np.int64)
        candidates = np.union1d(candidates, global_candidates)
        candidates = candidates[candidates > idx]
        if candidates.size == 0:
            continue
        dist = _hyperbolic_distance(r1, phi1, radial[candidates], angular[candidates])
        hits = candidates[dist <= R]
        if hits.size:
            edges_u.append(np.full(hits.size, original_id[idx], dtype=np.int64))
            edges_v.append(original_id[hits].astype(np.int64))

    if edges_u:
        builder.add_edges(np.column_stack((np.concatenate(edges_u), np.concatenate(edges_v))))
    return builder.build()


def write_metis(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph in METIS adjacency format (unweighted)."""
    path = Path(path)
    buf = io.StringIO()
    buf.write(f"{graph.num_vertices} {graph.num_edges}\n")
    for u in range(graph.num_vertices):
        buf.write(" ".join(str(int(v) + 1) for v in graph.neighbors(u)))
        buf.write("\n")
    with _open_text(path, "wt") as handle:
        handle.write(buf.getvalue())
