"""Pooled balanced bidirectional BFS sampling kernel.

The algorithm is KADABRA's balanced bidirectional sigma-BFS (see
:mod:`repro.sampling.bidirectional` for the full derivation of the canonical
vertex/edge cut decomposition).  This kernel is the zero-allocation
re-implementation on top of :class:`~repro.kernels.scratch.ScratchPool`:

* visited/distance state lives in generation-stamped marks instead of freshly
  allocated O(n) arrays;
* adjacency rows are gathered with the vectorized
  :func:`~repro.kernels.scratch.gather_csr` instead of a per-vertex Python
  slice loop, and the edge-meet gather of one level doubles as the expansion
  gather of the next (the legacy sampler walked those rows twice);
* every level is settled by the shared
  :func:`~repro.kernels.scratch.settle_level` step;
* weighted picks go through :func:`~repro.kernels.weighted.weighted_index`,
  which is bit-compatible with the ``Generator.choice`` calls of the legacy
  sampler.

Because every candidate set is enumerated in the same order and every random
draw consumes the generator identically, the kernel reproduces the legacy
sampler's output *exactly* for a fixed RNG state — the property the
batch/scalar equivalence tests pin down.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.scratch import ScratchPool, gather_csr, settle_level
from repro.kernels.weighted import weighted_index

__all__ = ["bidirectional_sample"]


class _Side:
    """State of one directional search over pooled buffers."""

    __slots__ = ("mark", "sigma", "frontier", "level", "levels", "neighbors", "degs")

    def __init__(self, mark, sigma, root: int, base: int, root_row: np.ndarray) -> None:
        self.mark = mark
        self.sigma = sigma
        mark[root] = base
        sigma[root] = 1.0
        self.frontier = np.array([root], dtype=np.int64)
        self.level = 0
        self.levels: List[np.ndarray] = [self.frontier]
        # Adjacency rows of ``frontier`` as ``gather_csr`` returns them: the
        # edge-meet gather of one level is the expansion gather of the next,
        # so every row is gathered once.
        self.neighbors = root_row
        self.degs = np.array([root_row.size], dtype=np.int64)


def _walk_to_root(
    indptr: np.ndarray,
    indices: np.ndarray,
    side: _Side,
    base: int,
    start: int,
    rng: np.random.Generator,
) -> List[int]:
    """Sigma-weighted backward walk from ``start`` towards the side's root.

    Consumes exactly one uniform per step, as ``weighted_index`` does.
    """
    mark = side.mark
    sigma = side.sigma
    path: List[int] = []
    current = int(start)
    depth = int(mark[current] - base)
    while depth > 1:
        nbrs = indices[indptr[current] : indptr[current + 1]]
        preds = nbrs[mark[nbrs] == base + depth - 1]
        if preds.size == 1:
            rng.random()  # the draw a one-weight pick makes, whatever it reads
            current = int(preds[0])
        else:
            weights = sigma[preds]
            total = float(weights.sum())
            if preds.size == 0 or total <= 0.0:  # pragma: no cover - defensive
                raise RuntimeError("inconsistent sigma values during backtracking")
            current = int(preds[weighted_index(weights, total, rng)])
        path.append(current)
        depth -= 1
    return path


#: "No meet yet": larger than any path length.
_UNMET = 1 << 62


def _nearest_met(other_marks: np.ndarray, base: int) -> int:
    """Smallest level the other side stamped on these vertices this sample;
    ``_UNMET`` when it stamped none (one ``max()`` settles that common case)."""
    if other_marks.size == 0 or other_marks.max() < base:
        return _UNMET
    return int(other_marks[other_marks >= base].min() - base)


def bidirectional_sample(
    indptr: np.ndarray,
    indices: np.ndarray,
    pool: ScratchPool,
    source: int,
    target: int,
    rng: np.random.Generator,
) -> Tuple[bool, int, List[int], int]:
    """Sample one uniform shortest source-target path.

    Returns ``(connected, length, internal_vertices, edges_touched)`` where
    ``internal_vertices`` lists the vertices strictly between the endpoints
    on the sampled path (the vertices whose betweenness counters are bumped).
    """
    base = pool.begin_sample()

    # Special case: adjacent endpoints (sorted adjacency rows, binary search).
    source_row = indices[indptr[source] : indptr[source + 1]]
    pos = int(source_row.searchsorted(target))
    if pos < source_row.size and int(source_row[pos]) == target:
        return True, 1, [], source_row.size

    indptr_hi = indptr[1:]
    target_row = indices[indptr[target] : indptr_hi[target]]
    fwd = _Side(pool.mark_a, pool.sigma_a, source, base, source_row.astype(np.int64))
    bwd = _Side(pool.mark_b, pool.sigma_b, target, base, target_row.astype(np.int64))
    edges_touched = 0
    best_length = _UNMET

    while True:
        # If a shortest length has been established and no shorter path can
        # still be discovered, stop expanding.
        if best_length <= fwd.level + bwd.level + 1:
            break
        if fwd.frontier.size == 0 or bwd.frontier.size == 0:
            break
        # Balanced expansion: grow the cheaper side.
        side, other = (fwd, bwd) if fwd.neighbors.size <= bwd.neighbors.size else (bwd, fwd)
        new_level = side.level + 1
        neighbors = side.neighbors
        edges_touched += neighbors.size
        if neighbors.size == 0:  # an isolated root: this search is over
            side.frontier = neighbors
            continue
        fresh = settle_level(
            side.frontier, neighbors, side.degs, side.mark, base, base + new_level, side.sigma
        )
        side.frontier = fresh
        side.level = new_level
        if fresh.size == 0:
            side.neighbors = neighbors[:0]
            continue
        side.levels.append(fresh)

        # Meets at the newly settled vertices, then edge meets: neighbours of
        # fresh vertices settled on the other side.
        best_length = min(best_length, new_level + _nearest_met(other.mark[fresh], base))
        side.neighbors, side.degs = gather_csr(indptr, indices, fresh, indptr_hi)
        edges_touched += side.neighbors.size
        best_length = min(
            best_length, new_level + 1 + _nearest_met(other.mark[side.neighbors], base)
        )

    if best_length >= _UNMET:
        return False, 0, [], edges_touched

    length = best_length
    level_s, level_t = fwd.level, bwd.level
    if length <= level_s + level_t:
        # Vertex cut at a fixed split position k.
        k = min(level_s, length)
        if length - k > level_t:
            k = length - level_t
        settled = fwd.levels[k] if k < len(fwd.levels) else fwd.frontier[:0]
        candidates = settled[bwd.mark[settled] == base + (length - k)]
        weights = fwd.sigma[candidates] * bwd.sigma[candidates]
        total_weight = weights.sum()
        if candidates.size == 0 or float(total_weight) <= 0.0:  # pragma: no cover
            raise RuntimeError("bidirectional search found no cut vertices")
        u = v = int(candidates[weighted_index(weights, float(total_weight), rng)])
    else:
        # Edge cut between the deepest settled levels of the two sides; the
        # deepest forward level is the forward frontier, its rows gathered.
        cut_mask = bwd.mark[fwd.neighbors] == base + level_t
        if not cut_mask.any():  # pragma: no cover - defensive
            raise RuntimeError("bidirectional search found no cut edges")
        vs = fwd.neighbors[cut_mask]
        us = fwd.frontier.repeat(fwd.degs)[cut_mask]
        weights = fwd.sigma[us] * bwd.sigma[vs]
        pick = weighted_index(weights, weights.sum(), rng)
        u, v = int(us[pick]), int(vs[pick])

    internal = _walk_to_root(indptr, indices, fwd, base, u, rng)[::-1]
    internal.extend((u,) if u == v else (u, v))
    internal.extend(_walk_to_root(indptr, indices, bwd, base, v, rng))
    return True, length, [x for x in internal if x != source and x != target], edges_touched
