"""Pooled balanced bidirectional BFS sampling kernel.

KADABRA's key per-sample optimisation: instead of a full BFS from the source,
two level-synchronous BFSs grow from both endpoints, and the side whose
frontier has the smaller total degree is expanded next.  Uniformity of the
sampled path is preserved by counting shortest paths on both sides
(``sigma_s``, ``sigma_t``) and decomposing every shortest path at a canonical
*cut*: when the searches meet, at depths ``level_s`` and ``level_t``, the
distance is ``level_s + level_t + 1`` and every shortest path crosses exactly
one edge ``(u, v)`` with ``dist_s[u] = level_s`` and ``dist_t[v] = level_t``;
``sigma_s[u] * sigma_t[v]`` shortest paths run through it.  Sampling the cut
edge proportionally to these weights and extending both ends by
sigma-weighted backward walks yields a uniformly random shortest path.

This kernel is the zero-allocation implementation on top of
:class:`~repro.kernels.scratch.ScratchPool`:

* visited/distance state lives in generation-stamped marks instead of freshly
  allocated O(n) arrays;
* **scan on expand**: a side keeps its frontier and the *extents* of that
  frontier's adjacency rows (:func:`~repro.kernels.scratch.row_extents`;
  their length sum is the volume the balance rule compares).  The rows
  themselves are read (:func:`~repro.kernels.scratch.gather_rows`) only for
  the side chosen to expand, and that one scan both looks for edges into the
  other search and feeds the shared
  :func:`~repro.kernels.scratch.settle_level` step.  The rows of the two
  frontiers settled last - on a power-law graph the ones that hold the hubs -
  are never read, except the cheaper of them once, by the closing scan;
* weighted picks go through :func:`~repro.kernels.weighted.weighted_index`,
  which is bit-compatible with the ``Generator.choice`` calls of the legacy
  sampler.

Two facts about the search make the loop as short as it is.  *No vertex ever
carries both sides' marks*: a scan sees every vertex its settle step could
stamp, and ends the search instead if one of them carries the other side's
mark - so the searches always meet over an edge, never in a vertex.  *Every
marked neighbour a scan finds lies on the other side's deepest level*: had the
other side expanded the level of that neighbour, its own scan would have
found this edge, or stamped this side's endpoint.  The second is an
``assert`` in both kernels, exercised by ``tests/test_scan_on_expand.py``.

The legacy sampler (``tests/reference_samplers.py``) looks for the same edges
eagerly, on the rows of every level as soon as it is settled, and so ends in
the same state ``(level_s, level_t)``.  When the closing scan ran from the
target's side its cut edges are put back into the order a forward scan lists
them; every candidate set is then enumerated in the same order and every
random draw consumes the generator identically, so the kernel reproduces the
legacy sampler's output *exactly* for a fixed RNG state - the property the
equivalence tests pin down.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.scratch import ScratchPool, gather_rows, row_extents, settle_level
from repro.kernels.weighted import weighted_index

__all__ = ["bidirectional_sample"]


class _Side:
    """State of one directional search over pooled buffers."""

    __slots__ = ("mark", "sigma", "frontier", "level", "starts", "degs", "ends", "volume")

    def __init__(self, mark, sigma, root: int, base: int, indptr, indptr_hi) -> None:
        self.mark = mark
        self.sigma = sigma
        mark[root] = base
        sigma[root] = 1.0
        self.level = 0
        self.advance(np.array([root], dtype=np.int64), indptr, indptr_hi)

    def advance(self, fresh: np.ndarray, indptr, indptr_hi) -> None:
        """Make the non-empty, just settled ``fresh`` the frontier.

        Only the extents of its adjacency rows are computed; the rows are read
        if and when this frontier is the one the search expands.
        """
        self.frontier = fresh
        self.starts, self.degs, self.ends = row_extents(indptr, indptr_hi, fresh)
        #: Adjacency entries a scan of the frontier reads.
        self.volume = int(self.ends[-1])


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
    on the sampled path (the vertices whose betweenness counters are bumped)
    and ``edges_touched`` counts the adjacency entries of the frontiers the
    search expanded, each row once.
    """
    base = pool.begin_sample()

    # Special case: adjacent endpoints (sorted adjacency rows, binary search).
    source_row = indices[indptr[source] : indptr[source + 1]]
    pos = int(source_row.searchsorted(target))
    if pos < source_row.size and int(source_row[pos]) == target:
        return True, 1, [], source_row.size

    indptr_hi = indptr[1:]
    fwd = _Side(pool.mark_a, pool.sigma_a, source, base, indptr, indptr_hi)
    bwd = _Side(pool.mark_b, pool.sigma_b, target, base, indptr, indptr_hi)
    if fwd.volume == 0 or bwd.volume == 0:  # an isolated endpoint
        return False, 0, [], 0
    edges_touched = 0

    while True:
        # Balanced expansion: scan the side whose frontier has fewer entries.
        side, other = (fwd, bwd) if fwd.volume <= bwd.volume else (bwd, fwd)
        neighbors = gather_rows(indices, side.starts, side.degs, side.ends)
        edges_touched += neighbors.size
        met = other.mark[neighbors]
        if met.max() >= base:
            break
        fresh = settle_level(
            side.frontier, neighbors, side.degs, side.mark, base, base + side.level + 1, side.sigma
        )
        if fresh.size == 0:  # this side's component is exhausted
            return False, 0, [], edges_touched
        side.level += 1
        side.advance(fresh, indptr, indptr_hi)

    # The scan found edges into the other search: a shortest path is one hop
    # longer than the two depths, and it crosses exactly one of these edges.
    cut = met >= base
    assert (met[cut] == base + other.level).all()  # see the module docstring
    near, far = side.frontier.repeat(side.degs)[cut], neighbors[cut]
    if side is fwd:
        us, vs = near, far
    else:
        # The cut edges in the order a forward scan lists them.
        order = np.lexsort((near, far))
        us, vs = far[order], near[order]
    weights = fwd.sigma[us] * bwd.sigma[vs]
    pick = weighted_index(weights, weights.sum(), rng)
    u, v = int(us[pick]), int(vs[pick])

    internal = _walk_to_root(indptr, indices, fwd, base, u, rng)[::-1]
    internal.extend((u, v))
    internal.extend(_walk_to_root(indptr, indices, bwd, base, v, rng))
    length = fwd.level + bwd.level + 1
    return True, length, [x for x in internal if x != source and x != target], edges_touched
