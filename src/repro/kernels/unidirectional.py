"""Pooled unidirectional (truncated sigma-BFS) sampling kernel.

The "ordinary BFS" sampler the KADABRA paper contrasts against its
bidirectional one: a forward BFS from the source with shortest-path counting
(sigma), truncated once the target's level is complete, then a backward walk
that picks each predecessor with probability proportional to its sigma.  Runs
on the generation-stamped :class:`~repro.kernels.scratch.ScratchPool`; like
the bidirectional kernel it reproduces the reference sampler
(``tests/reference_samplers.py``) exactly for a fixed RNG state (same settle
order, same weighted-pick stream).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.scratch import ScratchPool, gather_csr, settle_level
from repro.kernels.weighted import weighted_index

__all__ = ["unidirectional_sample"]


def unidirectional_sample(
    indptr: np.ndarray,
    indices: np.ndarray,
    pool: ScratchPool,
    source: int,
    target: int,
    rng: np.random.Generator,
) -> Tuple[bool, int, List[int], int]:
    """Sample one uniform shortest source-target path with a single BFS.

    Returns ``(connected, length, internal_vertices, edges_touched)``.
    """
    base = pool.begin_sample()
    mark = pool.mark_a
    sigma = pool.sigma_a

    mark[source] = base
    sigma[source] = 1.0
    indptr_hi = indptr[1:]
    frontier = np.array([source], dtype=np.int64)
    level = 0
    edges_touched = 0
    while frontier.size > 0:
        level += 1
        neighbors, degs = gather_csr(indptr, indices, frontier, indptr_hi)
        edges_touched += neighbors.size
        frontier = settle_level(frontier, neighbors, degs, mark, base, base + level, sigma)
        if mark[target] == base + level:
            # The sigma values of this level are complete once the level has
            # been fully processed, which is the case here.
            break

    if mark[target] < base:
        return False, 0, [], edges_touched
    length = int(mark[target] - base)

    # Backward walk from the target choosing predecessors ~ sigma.
    internal: List[int] = []
    current = target
    depth = length
    while depth > 1:
        nbrs = indices[indptr[current] : indptr[current + 1]]
        edges_touched += int(nbrs.size)
        preds = nbrs[mark[nbrs] == base + depth - 1]
        weights = sigma[preds]
        total_weight = float(weights.sum())
        if total_weight <= 0.0:  # pragma: no cover - defensive
            raise RuntimeError("inconsistent sigma values during backtracking")
        current = int(preds[weighted_index(weights, total_weight, rng)])
        internal.append(current)
        depth -= 1
    internal.reverse()
    return True, length, internal, edges_touched
