"""Whole-graph breadth-first search: distances and sigma counts.

The diameter phase, connected components and the incremental updater all sit
on these level-synchronous sweeps.  The plain sweep - :func:`bfs_distances`
and the component labelling, through :func:`level_sweeper` - is one compiled
call per source where :func:`repro.kernels.compiled.usable` holds for the
graph's arrays.  Everywhere else, and for the sigma sweep, every
level is one :func:`~repro.kernels.scratch.gather_csr` and one
:func:`~repro.kernels.scratch.settle_level` - the step the sampling kernels
and Brandes use - over base-``ndarray`` views of the CSR arrays taken once per
traversal, so there is no Python work per vertex and a memory-mapped graph
costs the same as one held in memory.  Both give the same levels, each in
increasing id order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, validate_csr
from repro.kernels import compiled
from repro.kernels.scratch import csr_views, gather_csr, settle_level

__all__ = [
    "BFSResult",
    "level_sweeper",
    "numpy_sweep",
    "sweep_path",
    "bfs_distances",
    "bfs_with_sigma",
    "eccentricity",
]

UNREACHED = -1


@dataclass
class BFSResult:
    """Result of a single-source BFS.

    Attributes
    ----------
    source:
        The BFS source vertex.
    distances:
        int64 array of length ``n``; ``-1`` marks unreachable vertices.
    eccentricity:
        Largest finite distance from the source.
    num_reached:
        Number of vertices reachable from the source (including itself).
    deepest:
        The vertices at distance ``eccentricity``, in increasing id order.
    sigma:
        Optional float64 array of shortest-path counts from the source
        (present only for :func:`bfs_with_sigma`).
    levels:
        The frontier of each BFS level, each in increasing id order; level 0
        is ``[source]``.
    """

    source: int
    distances: np.ndarray
    eccentricity: int
    num_reached: int
    deepest: np.ndarray
    sigma: Optional[np.ndarray] = None
    levels: Optional[List[np.ndarray]] = None


def expand_frontier(
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
    frontier: np.ndarray,
    marks: np.ndarray,
    stamp: int,
    sigma: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Settle one BFS level: stamp every ``UNREACHED`` neighbour of ``frontier``.

    ``csr`` is :func:`csr_views` of the graph.  Returns ``(fresh, neighbors,
    degs)``: the newly stamped vertices in increasing id order, and the
    gathered adjacency rows of ``frontier`` with their lengths.  When
    ``stamp`` is the level number, ``marks[neighbors] == stamp`` afterwards
    selects the edges into the new level.  With ``sigma`` given, the new
    level's shortest-path counts are accumulated into it.
    """
    indptr, indptr_hi, indices = csr
    neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
    # Stamps are >= 0 and ``UNREACHED`` is the one mark below 0.
    return settle_level(frontier, neighbors, degs, marks, 0, stamp, sigma), neighbors, degs


def _begin(graph: CSRGraph, source: int) -> Tuple[tuple, np.ndarray, np.ndarray]:
    """``(csr, distances, frontier)`` of a BFS about to leave ``source``."""
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    distances = np.full(n, UNREACHED, dtype=np.int64)
    distances[source] = 0
    return csr_views(graph), distances, np.array([source], dtype=np.int64)


def numpy_sweep(
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
    marks: np.ndarray,
    source: int,
    stamp: int,
    step: int,
) -> List[np.ndarray]:
    """The numpy level loop behind :func:`level_sweeper`; same contract."""
    frontier = np.array([source], dtype=np.int64)
    marks[source] = stamp
    levels = [frontier]
    while True:
        stamp += step
        frontier, _, _ = expand_frontier(csr, frontier, marks, stamp)
        if frontier.size == 0:
            return levels
        levels.append(frontier)


def level_sweeper(
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Callable[[np.ndarray, int, int, int], List[np.ndarray]]:
    """``sweep(marks, source, stamp, step) -> levels`` over :func:`csr_views` of a graph.

    A sweep stamps every vertex reachable from ``source`` whose mark is
    negative - level ``k`` with ``stamp + k * step``, both non-negative - and
    returns the levels, ``int64`` arrays in increasing id order, level 0 being
    ``[source]``.  One call here serves any number of sweeps of the graph.

    The graph may be a memory-mapped file that nothing has validated.  The
    compiled sweep checks every entry before it indexes with it and raises
    :class:`ValueError` on the first malformed one it reads (its bottom-up
    levels skip the rest of a row after a hit, so it may not read them all);
    before the numpy loop :func:`~repro.graph.csr.validate_csr` reads the
    arrays once and raises the same.  The sampler validates the arrays before
    the first sample either way.
    """
    indptr, _, indices = csr
    if compiled.usable(indptr, indices):
        return compiled.Sweep(compiled.load()[0], indptr, indices)
    validate_csr(indptr, indices)
    return functools.partial(numpy_sweep, csr)


def sweep_path(graph: CSRGraph) -> str:
    """``"compiled"`` or ``"numpy"``: what :func:`level_sweeper` hands out for ``graph``."""
    indptr, _, indices = csr_views(graph)
    return "compiled" if compiled.usable(indptr, indices) else "numpy"


def bfs_distances(
    graph: CSRGraph, source: int, *, keep_levels: bool = False
) -> BFSResult:
    """Single-source BFS returning hop distances.

    Parameters
    ----------
    graph:
        The input graph.
    source:
        BFS source vertex.
    keep_levels:
        If true, retain the per-level frontiers in the result.
    """
    csr, distances, _ = _begin(graph, source)
    levels = level_sweeper(csr)(distances, source, 0, 1)
    return BFSResult(
        source=source,
        distances=distances,
        eccentricity=len(levels) - 1,
        num_reached=sum(level.size for level in levels),
        deepest=levels[-1],
        levels=levels if keep_levels else None,
    )


def bfs_with_sigma(graph: CSRGraph, source: int) -> BFSResult:
    """Single-source BFS that also counts shortest paths (``sigma``).

    ``sigma[v]`` is the number of distinct shortest source-``v`` paths; this is
    the quantity needed to sample a shortest path uniformly at random and it is
    also the forward pass of Brandes' algorithm.
    """
    csr, distances, frontier = _begin(graph, source)
    sigma = np.zeros(graph.num_vertices, dtype=np.float64)
    sigma[source] = 1.0
    levels: List[np.ndarray] = [frontier]
    while True:
        fresh, _, _ = expand_frontier(csr, frontier, distances, len(levels), sigma)
        if fresh.size == 0:
            break
        frontier = fresh
        levels.append(frontier)
    return BFSResult(
        source=source,
        distances=distances,
        eccentricity=len(levels) - 1,
        num_reached=sum(level.size for level in levels),
        deepest=frontier,
        sigma=sigma,
        levels=levels,
    )


def eccentricity(graph: CSRGraph, v: int) -> int:
    """Eccentricity of ``v`` within its connected component."""
    return bfs_distances(graph, v).eccentricity
