"""Exact diameter computation (reference implementation).

KADABRA only needs an *upper bound* on the vertex diameter; the exact
algorithms here serve as ground truth for tests, for small graphs and for the
instance tables.  ``exact_diameter`` computes all eccentricities (O(n·m)),
``ifub_diameter`` implements the iFUB bounding scheme which terminates much
earlier on low-diameter complex networks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances

__all__ = ["exact_diameter", "ifub_diameter"]


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
