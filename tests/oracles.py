"""Reference computations the tests check the package against.

Exact diameters, Brandes restricted to a set of sources, a BFS tree, a
farthest vertex, the classic double-sweep lower bound and the bridge to
networkx.  None of them runs in a driver: KADABRA needs only an upper bound
on the vertex diameter (:func:`repro.diameter.vertex_diameter_upper_bound`)
and exact betweenness is :func:`repro.baselines.brandes_betweenness`.  They live with the tests, as
``reference_samplers`` does, and are imported by bare name.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.baselines.brandes import _accumulate_source_dependencies
from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.graph.traversal import _begin, bfs_distances, expand_frontier
from repro.kernels.scratch import ScratchPool

__all__ = [
    "bfs_tree_parents",
    "brandes_from_sources",
    "exact_diameter",
    "farthest_vertex",
    "ifub_diameter",
    "to_networkx",
    "two_sweep_lower_bound",
]


def to_networkx(graph: CSRGraph):
    """Export to a :class:`networkx.Graph` (requires networkx)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(map(tuple, graph.edge_array().tolist()))
    return g


def brandes_from_sources(
    graph: CSRGraph, sources: Iterable[int], *, normalized: bool = True
) -> BetweennessResult:
    """Brandes restricted to a subset of sources (a common exact-algorithm
    compromise on massive graphs, cf. Section II of the paper).

    The result is rescaled by ``n / |sources|`` so that it is an unbiased
    estimate of the full betweenness when the sources are sampled uniformly.
    """
    n = graph.num_vertices
    sources = [int(s) for s in sources]
    if any(s < 0 or s >= n for s in sources):
        raise ValueError("source id out of range")
    scores = np.zeros(n, dtype=np.float64)
    pool = ScratchPool(n)
    for source in sources:
        _accumulate_source_dependencies(graph, source, scores, pool)
    if sources:
        scores *= n / float(len(sources))
    if normalized and n > 2:
        scores /= float(n * (n - 1))
    return BetweennessResult(scores=scores, num_samples=len(sources))


def exact_diameter(graph: CSRGraph) -> int:
    """Exact diameter of the largest values over all eccentricities.

    Unreachable pairs are ignored (i.e. the diameter of each connected
    component is taken and the maximum returned); the empty graph has
    diameter 0.
    """
    n = graph.num_vertices
    best = 0
    for v in range(n):
        ecc = bfs_distances(graph, v).eccentricity
        if ecc > best:
            best = ecc
    return best


def ifub_diameter(graph: CSRGraph, *, start: int | None = None) -> int:
    """Exact diameter via the iFUB (iterative Fringe Upper Bound) method.

    The algorithm roots a BFS at a high-degree vertex, then processes
    vertices by decreasing BFS level: for each fringe vertex it computes the
    eccentricity and keeps a lower bound ``lb``; once ``lb >= 2 * (level - 1)``
    no deeper vertex can improve the diameter and the algorithm stops.  On
    small-world graphs this inspects only a handful of BFS trees.

    The graph is assumed to be connected; on disconnected graphs the result
    refers to the component containing ``start``.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    if start is None:
        start = int(np.argmax(graph.degrees))
    root_bfs = bfs_distances(graph, start, keep_levels=True)
    max_level = root_bfs.eccentricity
    lower_bound = max_level
    # Process fringe vertices level by level, deepest first.
    for level in range(max_level, 0, -1):
        if lower_bound >= 2 * level:
            break
        fringe = root_bfs.levels[level]
        for v in fringe:
            ecc = bfs_distances(graph, int(v)).eccentricity
            if ecc > lower_bound:
                lower_bound = ecc
        if lower_bound >= 2 * (level - 1):
            break
    return lower_bound


def farthest_vertex(graph: CSRGraph, source: int) -> Tuple[int, int]:
    """Return ``(vertex, distance)`` of the smallest-id vertex farthest from ``source``."""
    result = bfs_distances(graph, source)
    return int(result.deepest[0]), result.eccentricity


def two_sweep_lower_bound(graph: CSRGraph, *, seed: int | None = None) -> int:
    """Classic double-sweep lower bound: BFS from a random vertex, then BFS
    from the farthest vertex found; the second eccentricity is a lower bound
    on the diameter (and is exact on trees)."""
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n))
    far, _ = farthest_vertex(graph, start)
    _, dist = farthest_vertex(graph, far)
    return int(dist)


def bfs_tree_parents(graph: CSRGraph, source: int) -> Tuple[np.ndarray, np.ndarray]:
    """BFS returning ``(distances, parents)`` for one arbitrary BFS tree.

    ``parents[source] == source`` and ``parents[v] == -1`` for unreachable
    vertices.  Each level is one step of the package's level-synchronous
    sweep (``expand_frontier``).
    """
    csr, distances, frontier = _begin(graph, source)
    parents = np.full(graph.num_vertices, -1, dtype=np.int64)
    parents[source] = source
    level = 0
    while True:
        level += 1
        fresh, neighbors, degs = expand_frontier(csr, frontier, distances, level)
        if fresh.size == 0:
            break
        # First parent in frontier order, i.e. the smallest id (levels are
        # sorted), over the edges into the new level.
        edges = np.flatnonzero(distances[neighbors] == level)
        parents[fresh] = graph.num_vertices
        np.minimum.at(parents, neighbors[edges], frontier.repeat(degs)[edges])
        frontier = fresh
    return distances, parents
