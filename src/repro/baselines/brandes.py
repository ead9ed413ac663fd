"""Exact betweenness centrality via Brandes' algorithm.

The O(|V||E|) reference algorithm ([8] in the paper): one augmented BFS per
source vertex, followed by a bottom-up accumulation of the dependency values
along the shortest-path DAG.  Used as ground truth for the approximation
quality tests and as the exact baseline whose impracticality on large graphs
motivates the paper.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.kernels.scratch import ScratchPool, csr_views, gather_csr, settle_level

__all__ = ["brandes_betweenness"]

#: How many SSSP sources between two ``progress`` invocations.
_PROGRESS_STRIDE = 64


def _accumulate_source_dependencies(
    graph: CSRGraph, source: int, scores: np.ndarray, pool: ScratchPool
) -> None:
    """Add the dependency values delta_s(v) of one source into ``scores``.

    Runs the augmented BFS and the bottom-up accumulation entirely on the
    pool's generation-stamped scratch (``mark_a``/``sigma_a`` for the BFS,
    ``sigma_b`` as the dependency accumulator), so a sweep over many sources
    performs no O(n) allocation per source.
    """
    indptr, indptr_hi, indices = csr_views(graph)
    base = pool.begin_sample()
    mark = pool.mark_a
    sigma = pool.sigma_a
    delta = pool.sigma_b

    mark[source] = base
    sigma[source] = 1.0
    delta[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while True:
        neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
        frontier = settle_level(
            frontier, neighbors, degs, mark, base, base + len(levels), sigma
        )
        if frontier.size == 0:
            break
        delta[frontier] = 0.0
        levels.append(frontier)

    # Accumulate dependencies bottom-up, level by level (vectorized per level).
    for frontier in reversed(levels[1:]):
        neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
        if neighbors.size == 0:
            continue
        # Edges from w (on this level) to its predecessors v (previous level).
        origin_marks = np.repeat(mark[frontier], degs)
        pred_mask = mark[neighbors] == origin_marks - 1
        if not pred_mask.any():
            continue
        w = np.repeat(frontier, degs)[pred_mask]
        v = neighbors[pred_mask]
        contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
        np.add.at(delta, v, contrib)

    # Only settled vertices carry valid delta values; the source contributes 0.
    for frontier in levels[1:]:
        scores[frontier] += delta[frontier]


def _single_source_dependencies(
    graph: CSRGraph, source: int, *, pool: Optional[ScratchPool] = None
) -> np.ndarray:
    """Dependency values delta_s(v) for one source (unnormalised).

    Standalone variant returning a fresh array; sweeps over many sources use
    :func:`_accumulate_source_dependencies` with a shared pool instead.
    """
    deps = np.zeros(graph.num_vertices, dtype=np.float64)
    _accumulate_source_dependencies(
        graph, source, deps, pool if pool is not None else ScratchPool(graph.num_vertices)
    )
    return deps


def brandes_betweenness(
    graph: CSRGraph,
    *,
    normalized: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> BetweennessResult:
    """Exact betweenness of every vertex.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    normalized:
        If true (default), divide by ``n (n - 1)`` to match the paper's
        normalised definition (values in [0, 1]); otherwise return the raw
        Brandes accumulation (each unordered pair counted twice).
    progress:
        Optional hook ``progress(sources_done, num_vertices)`` invoked every
        few SSSP sources, so the facade can surface progress of the
        O(|V||E|) computation.
    """
    n = graph.num_vertices
    scores = np.zeros(n, dtype=np.float64)
    pool = ScratchPool(n)
    for source in range(n):
        _accumulate_source_dependencies(graph, source, scores, pool)
        done = source + 1
        if progress is not None and (done % _PROGRESS_STRIDE == 0 or done == n):
            progress(done, n)
    if normalized and n > 2:
        scores /= float(n * (n - 1))
    return BetweennessResult(scores=scores, num_samples=0)
