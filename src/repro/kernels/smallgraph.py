"""Pure-Python bidirectional kernel for small graphs.

On graphs with a few hundred to a few thousand vertices, a path sample
touches so few edges that the cost of the numpy kernel is dominated by
per-call dispatch overhead (~1 µs per numpy operation, ~35 operations per
sample), not by the traversal itself.  Up to
:data:`SMALL_GRAPH_ENTRY_LIMIT` adjacency entries the batch sampler therefore
switches to this kernel, which walks Python-list adjacency with
generation-stamped list marks — no numpy calls at all in the BFS inner loop.

The search is the numpy kernel's (:mod:`repro.kernels.bidirectional`, which
also says why the two searches only ever meet over an edge): a frontier's
rows are read only when that frontier is expanded, in one fused pass that
settles the next level and lists the edges into the other search.

Bit-compatibility with the legacy sampler is preserved exactly:

* integer mark state is exact; sigma values are Python floats, i.e. the same
  IEEE-754 doubles numpy uses, accumulated in the same order the vectorized
  ``np.add.at`` scatter processes them;
* every *weighted pick* still goes through numpy: the weight list is packed
  into an ndarray, summed with ``ndarray.sum()`` (numpy's pairwise summation
  — bitwise what the legacy code computed) and drawn with
  :func:`~repro.kernels.weighted.weighted_index`, consuming one
  ``rng.random()`` exactly like ``Generator.choice``;
* candidate sets are enumerated in the same sorted/CSR order.

The equivalence property tests drive this kernel and the numpy kernel against
the reference sampler on the same streams.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import List, Tuple

import numpy as np

from repro.kernels.scratch import ScratchPool
from repro.kernels.weighted import weighted_index

__all__ = [
    "SMALL_GRAPH_VERTEX_LIMIT",
    "SMALL_GRAPH_ENTRY_LIMIT",
    "adjacency_lists",
    "adjacency_cache_stats",
    "bidirectional_sample_small",
]

#: Largest graph (vertices) the Python kernel is selected for.
SMALL_GRAPH_VERTEX_LIMIT = 20_000
#: Largest adjacency array (directed entries) the Python kernel is selected
#: for.  Measured, not guessed: since both kernels read a frontier's rows only
#: when they expand it, the numpy kernel overtakes this one at about 55k
#: entries on road graphs, 85k-90k on R-MAT graphs and beyond 110k on sparse
#: Barabasi-Albert graphs; the first rows to lose are Barabasi-Albert graphs
#: of average degree 24-32 just under 50k (table in ``docs/kernels.md``, "The
#: routing window, measured").
SMALL_GRAPH_ENTRY_LIMIT = 50_000

# Memoised tolist adjacency, keyed by a content fingerprint of the CSR
# arrays.  Every BatchPathSampler construction over the same graph (repeated
# sessions, per-thread samplers, service workers) reuses one materialisation
# instead of paying the O(n + m) tolist again; the kernel only reads the
# lists, so sharing is safe.  Keyed by content (sizes + CRC32) rather than
# object identity because CSRGraph uses __slots__ and memmap-backed arrays
# are re-wrapped per sampler.
_ADJ_CACHE: "OrderedDict[tuple, Tuple[List[int], List[int]]]" = OrderedDict()
_ADJ_CACHE_LIMIT = 8
_ADJ_STATS = {"hits": 0, "misses": 0}


def adjacency_cache_stats() -> dict:
    """Hit/miss counts of the adjacency memo (a copy, for tests/metrics)."""
    return dict(_ADJ_STATS)


def adjacency_lists(indptr, indices) -> Tuple[List[int], List[int]]:
    """Python-list CSR arrays for the small-graph kernel, memoised.

    The returned lists are shared across callers and must be treated as
    read-only.
    """
    ip = np.ascontiguousarray(np.asarray(indptr))
    ix = np.ascontiguousarray(np.asarray(indices))
    key = (
        ip.size,
        ix.size,
        zlib.crc32(ip.tobytes()),
        zlib.crc32(ix.tobytes()),
    )
    cached = _ADJ_CACHE.get(key)
    if cached is not None:
        _ADJ_STATS["hits"] += 1
        _ADJ_CACHE.move_to_end(key)
        return cached
    _ADJ_STATS["misses"] += 1
    value = (ip.tolist(), ix.tolist())
    _ADJ_CACHE[key] = value
    while len(_ADJ_CACHE) > _ADJ_CACHE_LIMIT:
        _ADJ_CACHE.popitem(last=False)
    return value


def _weighted_pick(weights: List[float], rng: np.random.Generator) -> int:
    """Index drawn ~ weights; bit-compatible with the legacy ``rng.choice``.

    For fewer than 8 weights the cumulative distribution is built in pure
    Python: ``np.sum`` is a plain sequential accumulation below numpy's
    8-lane unroll threshold and ``np.cumsum`` is sequential at any size, so
    the Python floats match the ndarray computation bit for bit (pinned by
    the weighted-pick equivalence test).  Larger weight lists take the
    ndarray path.
    """
    k = len(weights)
    if k == 1:
        rng.random()  # rng.choice consumes one uniform draw even for k == 1
        return 0
    if k < 8:
        total = 0.0
        for w in weights:
            total += w
        cdf = []
        running = 0.0
        for w in weights:
            running += w / total
            cdf.append(running)
        last = cdf[-1]
        return min(bisect_right([c / last for c in cdf], rng.random()), k - 1)
    arr = np.asarray(weights, dtype=np.float64)
    return weighted_index(arr, float(arr.sum()), rng)


def _walk_to_root(
    indptr: List[int],
    indices: List[int],
    mark: List[int],
    sigma: List[float],
    base: int,
    start: int,
    rng: np.random.Generator,
) -> List[int]:
    """Sigma-weighted backward walk from ``start`` towards the side's root."""
    path: List[int] = []
    current = start
    depth = mark[current] - base
    while depth > 1:
        want = base + depth - 1
        preds = [w for w in indices[indptr[current] : indptr[current + 1]] if mark[w] == want]
        if not preds:  # pragma: no cover - defensive
            raise RuntimeError("inconsistent sigma values during backtracking")
        current = preds[_weighted_pick([sigma[w] for w in preds], rng)]
        path.append(current)
        depth -= 1
    return path


def bidirectional_sample_small(
    indptr: List[int],
    indices: List[int],
    pool: ScratchPool,
    source: int,
    target: int,
    rng: np.random.Generator,
) -> Tuple[bool, int, List[int], int]:
    """Sample one uniform shortest source-target path (Python-list graph).

    Same contract as :func:`~repro.kernels.bidirectional.bidirectional_sample`
    but over ``tolist``-materialised CSR arrays and the pool's Python-list
    scratch state.
    """
    base = pool.begin_sample()
    f_mark, b_mark, f_sigma, b_sigma = pool.python_state()

    s_start = indptr[source]
    s_stop = indptr[source + 1]
    row = indices[s_start:s_stop]
    pos = bisect_left(row, target)
    if pos < len(row) and row[pos] == target:
        return True, 1, [], s_stop - s_start

    f_mark[source] = base
    f_sigma[source] = 1.0
    b_mark[target] = base
    b_sigma[target] = 1.0
    # Side state: [mark, sigma, frontier, level, frontier_degree].
    fwd = [f_mark, f_sigma, [source], 0, s_stop - s_start]
    bwd = [b_mark, b_sigma, [target], 0, indptr[target + 1] - indptr[target]]
    if not fwd[4] or not bwd[4]:  # an isolated endpoint
        return False, 0, [], 0
    edges_touched = 0

    while True:
        # Balanced expansion: scan the side whose frontier has fewer entries.
        side, other = (fwd, bwd) if fwd[4] <= bwd[4] else (bwd, fwd)
        mark, sigma = side[0], side[1]
        other_mark = other[0]
        new_mark = base + side[3] + 1
        edges_touched += side[4]
        # One pass over the frontier's rows settles the next level and lists
        # the edges into the other search.  No vertex carries both marks (the
        # scan that would stamp the second one ends the search instead), so
        # only an unvisited neighbour is looked up on the other side.  After
        # a cut edge the search is over: whatever the pass settles beside it
        # is never read.
        fresh: List[int] = []
        cut_edges: List[Tuple[int, int]] = []
        for u in side[2]:
            su = sigma[u]
            for v in indices[indptr[u] : indptr[u + 1]]:
                mv = mark[v]
                if mv < base:
                    om = other_mark[v]
                    if om >= base:
                        assert om == base + other[3]  # see kernels.bidirectional
                        cut_edges.append((u, v))
                    else:
                        mark[v] = new_mark
                        sigma[v] = su
                        fresh.append(v)
                elif mv == new_mark:
                    sigma[v] += su
        if cut_edges:
            break
        if not fresh:  # this side's component is exhausted
            return False, 0, [], edges_touched
        fresh.sort()
        side[2] = fresh
        side[3] += 1
        degree = 0
        for v in fresh:
            degree += indptr[v + 1] - indptr[v]
        side[4] = degree

    if side is bwd:
        # The cut edges in the order a forward scan lists them.
        cut_edges = sorted((u, v) for v, u in cut_edges)
    u, v = cut_edges[_weighted_pick([f_sigma[u] * b_sigma[v] for u, v in cut_edges], rng)]
    internal = _walk_to_root(indptr, indices, f_mark, f_sigma, base, u, rng)[::-1]
    internal.extend((u, v))
    internal.extend(_walk_to_root(indptr, indices, b_mark, b_sigma, base, v, rng))
    length = fwd[3] + bwd[3] + 1
    return True, length, [x for x in internal if x != source and x != target], edges_touched
